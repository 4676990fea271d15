from fractions import Fraction
from functools import partial

import pytest
from oracles import b1_at_p_oracle, intersection_at_p_oracle

from hilbertcm import gzmoduli, intersect
from hilbertcm.exactnum import (
    hilbert_symbol,
    kronecker_symbol,
    padic_valuation,
    primes_up_to,
)
from hilbertcm.grosskeating import GkData, gk_density, gk_index, is_isotropic
from hilbertcm.intersect import (
    INERT,
    RAMIFIED,
    SPLIT,
    alpha_unit,
    b1_at_p,
    candidate_primes,
    intersection_at_p,
    intersection_total,
    rho_local,
    split_in_Ktilde,
    verify_main_identity,
)
from hilbertcm.quadcm import enumerate_fields
from hilbertcm.tmatrix import TMatrix, all_tmatrices, build_tmatrix


def closed_row(T):
    """The kernel's row (l, t_l, symbol_l) of T, as `_field_table` builds it."""
    return intersect._row(T.quarter_det, partial(intersect._symbol, T))


def field_rows(cm):
    """Each (T, row) of the kernel's field table once, under its least prime."""
    return [
        (T, row)
        for p, entries in intersect._field_table(cm).items()
        for T, row in entries
        if row[0][0] == p
    ]


@pytest.fixture(scope="module")
def T41(field41):
    return build_tmatrix(field41, 1, 1)


@pytest.fixture(scope="module")
def T61(field61):
    return build_tmatrix(field61, 1, 1)


class TestAlphaUnit:
    def test_two_adic_entry(self, T41):
        assert T41.entries() == (24, -8, 3)
        assert alpha_unit(T41, 2) == 3
        assert alpha_unit(T41, 2) % 4 == 3

    def test_odd_prime_entry(self, T61):
        assert alpha_unit(T61, 3) == 4  # 3 | 39 so the c entry is the unit

    def test_first_branch_prefers_a(self, field109):
        T = build_tmatrix(field109, 3, -1)  # entries (28, -8, 3), m = 5
        assert T.a % 5 != 0
        assert alpha_unit(T, 5) == T.a

    def test_precondition(self, T41):
        with pytest.raises(ValueError):
            alpha_unit(T41, 5)  # 5 does not divide 2

    def test_corrupted_matrix(self, field41):
        fake = TMatrix(field41, 1, 1, a=6, b=2, c=6)  # det 32, both even
        with pytest.raises(ValueError, match="both diagonal"):
            alpha_unit(fake, 2)


class TestBetaL:
    def test_example_41(self, T41):
        assert T41.quarter_det == 2
        assert padic_valuation(2, 2) == 1
        assert hilbert_symbol(-3, 2, 2) == -1
        assert closed_row(T41) == ((2, 1, -1),)
        assert intersect._beta(1, -1, True) == 1

    def test_example_61(self, T61):
        ((l, t, symbol),) = closed_row(T61)
        assert l == 3
        assert intersect._beta(t, symbol, True) == 1

    def test_away_from_p_negative_symbol_odd_t(self, field109):
        # Dtilde = 109, n = 3 gives quarter_det 5 with symbol -1 at 5;
        # viewed away from p (p = 2 never divides 5 here) the factor is 0.
        T = build_tmatrix(field109, 3, -1)
        assert T.quarter_det == 5
        assert hilbert_symbol(-alpha_unit(T, 5), 5, 5) == -1
        assert closed_row(T) == ((5, 1, -1),)
        assert intersect._beta(1, -1, False) == 0  # l = 5 != p, odd valuation


class TestBetaProduct:
    """The kernel's sum over one row is (t_p + 1) times the product of the
    local factors."""

    def test_single_factor(self, T41, T61):
        assert intersect._coefficient(2, [closed_row(T41)], intersect._beta) == 2
        assert intersect._coefficient(3, [closed_row(T61)], intersect._beta) == 2

    def test_at_p_factor(self, field109):
        T = build_tmatrix(field109, 3, -1)
        # p = 5 is the only prime of quarter_det; at p itself beta = 1
        assert intersect._coefficient(5, [closed_row(T)], intersect._beta) == 2

    def test_absorbing_zero(self):
        # find a sweep matrix whose product vanishes through an inert prime
        # of odd valuation away from p
        hit = False
        for cm in enumerate_fields(5, 900):
            for T in all_tmatrices(cm):
                row = closed_row(T)
                for p, _, _ in row:
                    if any(
                        l != p and intersect._beta(t, symbol, False) == 0
                        for l, t, symbol in row
                    ):
                        assert intersect._coefficient(p, [row], intersect._beta) == 0
                        hit = True
        assert hit


class TestIntersection:
    def test_at_p_examples(self, field41, field61):
        assert intersection_at_p(field41, 2) == 1
        assert intersection_at_p(field41, 3) == 0
        assert intersection_at_p(field61, 3) == 1

    def test_total_examples(self, field41, field61, zeta5):
        assert intersection_total(field41).terms == {2: Fraction(1)}
        assert intersection_total(zeta5).terms == {}
        assert intersection_total(field61).terms == {3: Fraction(1)}

    def test_formal_sum_rendering(self, field41, zeta5):
        assert intersection_total(field41).formal_sum() == "1*log 2"
        assert intersection_total(zeta5).formal_sum() == "0"

    def test_support_and_half_integrality(self):
        for cm in enumerate_fields(13, 900):
            result = intersection_total(cm)
            for p, c in result.terms.items():
                assert 4 * cm.D * p <= cm.dtilde
                assert c > 0
                assert (2 * c).denominator == 1

    def test_bad_prime(self, field41):
        with pytest.raises(ValueError):
            intersection_at_p(field41, 4)


class TestPerPrimeOracle:
    @pytest.mark.parametrize("D", [5, 13])
    def test_every_prime_up_to_the_bound(self, D):
        nonzero = 0
        for cm in enumerate_fields(D, 600):
            for p in primes_up_to(cm.dtilde // (4 * cm.D)):
                expected = intersection_at_p_oracle(cm, p)
                assert intersection_at_p(cm, p) == expected, (cm.describe(), p)
                nonzero += expected != 0
        assert nonzero

    @pytest.mark.parametrize("D", [5, 13])
    def test_b1_every_prime_up_to_the_bound(self, D):
        # The drivers evaluate b1 at the candidate primes only; this checks
        # b1 = 0 at every other prime against a route that shares no table.
        nonzero = 0
        for cm in enumerate_fields(D, 600):
            for p in primes_up_to(cm.dtilde // (4 * cm.D)):
                expected = b1_at_p_oracle(cm, p)
                assert b1_at_p(cm, p) == expected, (cm.describe(), p)
                nonzero += expected != 0
        assert nonzero


class TestFieldTableMemo:
    """The per-field table keeps one field; calls that alternate between
    fields must each see their own field's table."""

    def test_alternating_fields(self, field41, field109, field145):
        fields = [field41, field109, field145, *enumerate_fields(13, 2000)[-2:]]
        primes = primes_up_to(max(cm.dtilde // (4 * cm.D) for cm in fields))
        interleaved = {
            (cm, p): (intersection_at_p(cm, p), b1_at_p(cm, p))
            for p in primes
            for cm in fields
        }
        assert any(c for c, _ in interleaved.values())
        for cm in fields:
            intersect._field_table.cache_clear()
            intersect._reflex_table.cache_clear()
            alone = {(cm, p): (intersection_at_p(cm, p), b1_at_p(cm, p)) for p in primes}
            assert alone == {key: interleaved[key] for key in alone}

    def test_one_build_per_field(self, field145):
        intersect._field_table.cache_clear()
        intersect._reflex_table.cache_clear()
        intersection_total(field145)
        assert intersect._reflex_table.cache_info().misses == 0
        verify_main_identity(field145)
        assert intersect._field_table.cache_info().misses == 1
        assert intersect._reflex_table.cache_info().misses == 1


class TestSplitInKtilde:
    def test_inert_at_two(self, T41):
        assert split_in_Ktilde(T41, 2) == INERT

    def test_inert_at_three(self, T61):
        assert split_in_Ktilde(T61, 3) == INERT

    def test_very_special_case_uses_a(self, field109):
        # p = D = 5 divides quarter_det for n = 3; the unit entry must be a.
        T = build_tmatrix(field109, 3, -1)
        assert T.a == 28
        assert split_in_Ktilde(T, 5) == (
            SPLIT if hilbert_symbol(-28, 5, 5) == 1 else INERT
        )

    def test_precondition(self, T41):
        with pytest.raises(ValueError):
            split_in_Ktilde(T41, 7)


class TestRhoLocal:
    @pytest.mark.parametrize(
        "splitting,order,expected",
        [
            (SPLIT, 2, 3),
            (SPLIT, 0, 1),
            (SPLIT, -1, 0),
            (INERT, 1, 0),
            (INERT, 0, 1),
            (INERT, 4, 1),
            (INERT, -1, 0),
            (RAMIFIED, 0, 1),
            (RAMIFIED, 7, 1),
            (RAMIFIED, -1, 1),
        ],
    )
    def test_case_table(self, splitting, order, expected):
        assert rho_local(splitting, order) == expected

    def test_errors(self):
        with pytest.raises(ValueError):
            rho_local(SPLIT, -2)
        with pytest.raises(ValueError):
            rho_local("weird", 1)


class TestReflexLocalData:
    def test_field41(self, T41):
        ((l, t, _),) = closed_row(T41)
        assert l == 2
        assert kronecker_symbol(41, 2) == 1  # 41 = 1 mod 8
        assert split_in_Ktilde(T41, 2) == INERT
        # the chosen prime above p = 2 carries t_2 - 1 = 0
        assert intersect._rho(t, INERT, True) == rho_local(INERT, 0) == 1

    def test_ord_for_other_primes(self, field109):
        T = build_tmatrix(field109, 7, 1)  # quarter_det 3
        ((l, t, _),) = closed_row(T)
        assert (l, t) == (3, 1)
        assert split_in_Ktilde(T, 3) == INERT
        assert intersect._rho(t, INERT, True) == rho_local(INERT, t - 1) == 1
        assert intersect._rho(t, INERT, False) == rho_local(INERT, t) == 0

    def test_ftilde_consistency_sweep(self):
        for cm in enumerate_fields(17, 800):
            for entries in intersect._reflex_table(cm).values():
                for T, row in entries:
                    for l, _, splitting in row:
                        assert kronecker_symbol(cm.dtilde, l) != -1
                        assert splitting in (SPLIT, INERT)
                        assert splitting == split_in_Ktilde(T, l)


class TestB1:
    def test_examples(self, field41, field61, zeta5):
        assert b1_at_p(field41, 2) == 2
        assert b1_at_p(field61, 3) == 2
        for p in (2, 3, 5, 7):
            assert b1_at_p(zeta5, p) == 0

    def test_nonnegative_integer(self, field109):
        for p in (2, 3, 5, 7, 11):
            value = b1_at_p(field109, p)
            assert isinstance(value, int) and value >= 0

    def test_p_equal_D_corner(self, field109):
        # Dtilde = 109: n = 3 yields quarter_det 5, so p = D = 5 occurs.
        assert 5 in candidate_primes(field109)
        assert intersection_at_p(field109, 5) == 1
        assert b1_at_p(field109, 5) == 2


class TestMainIdentity:
    def test_example_fields(self, field41, field61, zeta5, field109, field145):
        for cm in (field41, field61, zeta5, field109, field145):
            assert verify_main_identity(cm)

    def test_light_sweep(self):
        for cm in enumerate_fields(5, 400):
            for p in primes_up_to(cm.dtilde // (4 * cm.D)):
                assert b1_at_p(cm, p) == 2 * intersection_at_p(cm, p), (
                    cm.describe(), p,
                )


class TestClosedFormVsDensity:
    def test_local_factors_against_gated_density(self):
        # Away from p the closed form must equal the isotropy-gated density
        # evaluation on invariants (0, 0, t_l).
        for cm in enumerate_fields(5, 600):
            for T, row in field_rows(cm):
                for l, t, symbol in row:
                    if is_isotropic(alpha_unit(T, l), t, l):
                        expected = gk_density(GkData(0, 0, t), symbol, l)
                    else:
                        expected = 0
                    assert intersect._beta(t, symbol, False) == expected

    def test_per_term_index_is_half_t_plus_one(self):
        for cm in enumerate_fields(5, 600):
            for _, row in field_rows(cm):
                for l, t, _ in row:
                    assert gk_index(GkData(0, 0, t), l) == Fraction(t + 1, 2)


class TestLocalFactorInvariants:
    def test_fields(self, field41, field61, field109):
        for cm in (field41, field61, field109):
            for T in all_tmatrices(cm):
                for l, t, symbol in closed_row(T):
                    assert T.quarter_det % l == 0
                    assert alpha_unit(T, l) % l != 0
                    assert t == padic_valuation(T.quarter_det, l)
                    assert symbol in (-1, 1)
                    assert intersect._beta(t, symbol, True) >= 0
                    assert intersect._beta(t, symbol, False) >= 0

    def test_symbol_is_a_kronecker_symbol(self):
        # (-alpha, l)_l for a unit alpha at l equals the Kronecker symbol
        # (-alpha / l), l = 2 included.
        checked = 0
        for D in (5, 13, 17, 29):
            for cm in enumerate_fields(D, 8000):
                for T, row in field_rows(cm):
                    for l, _, symbol in row:
                        expected = kronecker_symbol(-alpha_unit(T, l), l)
                        assert symbol == expected, (cm.describe(), T.n, l)
                        checked += 1
        assert checked


class TestFormalSumInvariants:
    """A coefficient outside (1/2)Z>0, or one at a prime past the support
    bound, is refused with a ValueError on both routes."""

    @pytest.mark.parametrize(
        "route, value, m, message",
        [
            ("closed", Fraction(1, 3), None, "not in"),
            ("closed", Fraction(1), 3, "support bound"),  # 3 > 41/(4*5)
            ("gz", Fraction(1, 3), None, "not in"),
            ("gz", Fraction(1), 7, "support bound"),  # 7 > 21/4
        ],
    )
    def test_rejects(self, monkeypatch, field41, route, value, m, message):
        module, at_p, table = {
            "closed": (intersect, "intersection_at_p", "_field_table"),
            "gz": (gzmoduli, "gz_intersection_at_p", "_pair_table"),
        }[route]
        monkeypatch.setattr(module, at_p, lambda *_: value)
        if m is not None:
            monkeypatch.setattr(module, table, lambda *_: {m: []})
        with pytest.raises(ValueError, match=message):
            if route == "closed":
                intersection_total(field41)
            else:
                gzmoduli.gz_total(gzmoduli.GzParams(-3, -7))

    def test_rejects_under_python_O(self, run_under_python_O):
        out = run_under_python_O(f"{__file__}::TestFormalSumInvariants::test_rejects")
        assert "4 passed" in out


class TestReflexChecks:
    """Matrices that no validated field produces are refused with a
    ValueError on the b1 route."""

    def test_inert_divisor(self, field41):
        # (41 | 3) = -1, yet 3 divides det/4 = 3.
        T = TMatrix(field41, 1, 1, 3, 0, 4)
        with pytest.raises(ValueError, match="inert"):
            split_in_Ktilde(T, 3)

    def test_reflex_place_with_d_dividing_a(self, field41):
        # l = D = 5 divides det/4 = 5 and the entry a = 5.
        T = TMatrix(field41, 1, 1, 5, 0, 4)
        with pytest.raises(ValueError, match="divides n = 1 or the entry a = 5"):
            split_in_Ktilde(T, 5)

    def test_rejects_under_python_O(self, run_under_python_O):
        out = run_under_python_O(f"{__file__}::TestReflexChecks::test_inert_divisor",
                                 f"{__file__}::TestReflexChecks::test_reflex_place_with_d_dividing_a")
        assert "2 passed" in out

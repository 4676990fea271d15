import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertcm import tmatrix
from hilbertcm.exactnum import factorize, prime_factors, primes_up_to, sqrt_mod
from hilbertcm.quadcm import CmFieldData, QuadElem, enumerate_fields
from hilbertcm.tmatrix import (
    TMatrixError,
    admissible_m,
    admissible_n,
    all_tmatrices,
    build_tmatrix,
    factored_m,
    mu_signs,
)


class TestAdmissibleN:
    def test_dtilde_41(self, field41):
        assert admissible_n(field41) == [(1, (1,))]

    def test_zeta5_empty(self, zeta5):
        assert admissible_n(zeta5) == []

    def test_dtilde_61(self, field61):
        assert admissible_n(field61) == [(1, (1,))]

    def test_both_signs_when_d_divides_n(self, field145):
        # Dtilde = 145: n = 5 is divisible by D = 5, so both signs appear.
        assert (5, (1, -1)) in admissible_n(field145)

    def test_ascending(self, field109):
        ns = [n for n, _ in admissible_n(field109)]
        assert ns == sorted(ns)


class TestBuildTMatrix:
    def test_example_41(self, field41):
        T = build_tmatrix(field41, 1, 1)
        assert T.entries() == (24, -8, 3)
        assert T.det == 8
        assert T.quarter_det == 2

    def test_example_61(self, field61):
        T = build_tmatrix(field61, 1, 1)
        assert T.entries() == (39, -12, 4)
        assert T.det == 12

    def test_wrong_sign(self, field41):
        with pytest.raises(TMatrixError, match="not integral"):
            build_tmatrix(field41, 1, -1)

    def test_non_admissible_n(self, field41):
        with pytest.raises(TMatrixError, match="not admissible"):
            build_tmatrix(field41, 2, 1)

    def test_bad_mu(self, field41):
        with pytest.raises(TMatrixError):
            build_tmatrix(field41, 1, 2)

    def test_both_signs_give_distinct_matrices(self, field145):
        plus = build_tmatrix(field145, 5, 1)
        minus = build_tmatrix(field145, 5, -1)
        assert plus.entries() != minus.entries()
        assert plus.det == minus.det == (145 - 25) // 5


class TestStructuralChecks:
    """Field data built directly, skipping validation, can break the
    structural guarantees; build_tmatrix refuses it with TMatrixError."""

    @pytest.mark.parametrize(
        "u, v, n, mu, message",
        [
            (-58, -6, 4, -1, "diagonal mod-4 pattern"),  # Dtilde = 796 = 0 mod 4
            (-57, -3, 9, 1, "prime 3 divides both"),  # Dtilde = 801 = 9 * 89
        ],
    )
    def test_rejects(self, u, v, n, mu, message):
        delta = QuadElem.from_uv(5, u, v)
        cm = CmFieldData(5, delta, QuadElem(5, 0, 1), (u * u - 5 * v * v) // 4, u, v)
        with pytest.raises(TMatrixError, match=message):
            build_tmatrix(cm, n, mu)

    def test_rejects_under_python_O(self, run_under_python_O):
        out = run_under_python_O(f"{__file__}::TestStructuralChecks::test_rejects")
        assert "2 passed" in out


class TestUniqueness:
    def test_brute_force_agreement(self):
        from oracles import brute_force_tmatrices

        for cm in enumerate_fields(5, 300):
            for n, mus in admissible_n(cm):
                for mu in mus:
                    T = build_tmatrix(cm, n, mu)
                    hits = brute_force_tmatrices(cm, n, mu)
                    assert hits == [(T.a, T.b, T.c)], (cm.describe(), n, mu)


class TestInvariants:
    @pytest.mark.parametrize("D,bound", [(5, 500), (13, 500)])
    def test_structural_sweep(self, D, bound):
        for cm in enumerate_fields(D, bound):
            for T in all_tmatrices(cm):
                det = (cm.dtilde - T.n * T.n) // D
                assert T.det == det > 0
                assert det % 4 == 0
                assert T.a + D * T.b + (D * D - D) // 4 * T.c == -T.mu * T.n
                assert T.a > 0
                # delta reconstruction through (u, v)
                assert 2 * T.mu * T.n - D * T.c == cm.u
                assert -(2 * T.b + D * T.c) == cm.v
                # diagonal pattern: strict when exactly one w-coordinate is
                # odd; both entries are -1 mod 4 in the (odd, odd) w class
                pattern = (T.a % 4, T.c % 4)
                if cm.w.x % 2 and cm.w.y % 2:
                    assert pattern == (3, 3)
                else:
                    assert pattern in {(0, 3), (3, 0)}
                for q in prime_factors(det):
                    assert T.a % q or T.c % q

    def test_mu_signs_match_congruence(self, field41, field61):
        for cm in (field41, field61):
            for n, mus in admissible_n(cm):
                assert mus == mu_signs(cm, n)
                for mu in mus:
                    assert (cm.u - 2 * mu * n) % cm.D == 0 or n % cm.D == 0


def _factored_by_division(dtilde, step):
    return {n: (m, factorize(m).factors) for n, m in admissible_m(dtilde, step).items()}


class TestFactoredM:
    """The root sieve against trial division on every admissible m."""

    # dtilde reaches 1e10 with step 4D for the larger D; step 4 and D = 5
    # stop lower, where trial division of every row would take seconds.
    LIMITS = {4: 10**8, 4 * 5: 10**9, 4 * 29: 10**10, 4 * 41: 10**10}

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(step=st.sampled_from(sorted(LIMITS)), r=st.sampled_from((0, 1)), data=st.data())
    def test_matches_factorize(self, step, r, data):
        # dtilde = 0 or 1 mod 4, the only classes with an admissible n.
        dtilde = 4 * data.draw(st.integers(0, self.LIMITS[step] // 4), label="k") + r
        assert factored_m(dtilde, step) == _factored_by_division(dtilde, step)

    @pytest.mark.parametrize(
        "dtilde, step",
        [
            (21, 4), (1, 4), (4, 4), (10**6, 4),  # tiny, empty, a square
            (1105, 4 * 5), (10**9 + 5, 4 * 5), (10**9 + 25, 4 * 5),  # D | dtilde
            (10**8 + 1, 4), (10**7 + 1, 4 * 5),  # 8 | dtilde - n**2 at odd n
            (-2087 * -2351, 4),  # a gz pair at the benchmark's scale
            (10**10 - 3, 4 * 41),  # near 1e10
        ],
    )
    def test_cases(self, dtilde, step):
        assert factored_m(dtilde, step) == _factored_by_division(dtilde, step)

    def test_cases_reach_their_branches(self):
        # D | dtilde forces D | n, and D**2 | dtilde then puts D | m on
        # every row; 8 | dtilde - n**2 makes m even.
        assert all(n % 5 == 0 for n in factored_m(10**9 + 5, 20))
        assert all(n % 5 == 0 and m % 5 == 0 for n, (m, _) in factored_m(10**9 + 25, 20).items())
        assert all(m % 2 == 0 for m, _ in factored_m(10**8 + 1, 4).values())

    @pytest.mark.parametrize(
        "name, broken, message",
        [
            ("sqrt_mod", lambda a, p: (sqrt_mod(a, p) + 1) % p, "does not divide"),
            ("primes_up_to", lambda n: primes_up_to(n)[1:], "keeps the factor"),
        ],
    )
    def test_invariants_raise(self, monkeypatch, name, broken, message):
        monkeypatch.setattr(tmatrix, name, broken)
        with pytest.raises(ArithmeticError, match=message):
            factored_m(10**6 + 1, 4)

    def test_invariants_raise_under_python_O(self, run_under_python_O):
        out = run_under_python_O(f"{__file__}::TestFactoredM::test_invariants_raise")
        assert "2 passed" in out

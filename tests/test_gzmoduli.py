from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd

import pytest
from mpmath import mp

from hilbertcm import gzmoduli
from hilbertcm.exactnum import padic_valuation, primes_up_to
from hilbertcm.gzmoduli import (
    GzInputError,
    GzParams,
    HeegnerForm,
    class_number,
    epsilon_of,
    formal_sum_log,
    gz_discrepancy,
    gz_intersection_at_p,
    gz_total,
    j_invariant,
    reduced_forms,
    singular_moduli_log,
)
from hilbertcm.intersect import _by_prime, _row
from hilbertcm.tmatrix import admissible_m
from oracles import (
    _j_direct,
    class_number_dirichlet,
    class_number_scan,
    is_fundamental,
    singular_moduli_log_oracle,
)

FUNDAMENTALS = (-3, -7, -11, -19, -43, -67)
ORACLE_PAIRS = ((-3, -7), (-7, -43), (-11, -19), (-23, -31), (-47, -71), (-199, -479))
# Pairs at the gz benchmark's scale, too slow for the direct route.
LARGE_PAIRS = ((-1019, -1031), (-2087, -2351))
# The eight pairs of the gz benchmark's seed 0, first pass.
BENCHMARK_PAIRS = (
    (-2035, -1803), (-1363, -2379), (-1843, -1239), (-1291, -2335),
    (-2395, -1419), (-923, -2311), (-971, -2487), (-1871, -607),
)


class TestGzParams:
    def test_valid(self):
        params = GzParams(-3, -7)
        assert params.dtilde == 21

    def test_not_coprime(self):
        with pytest.raises(GzInputError, match="factor 3"):
            GzParams(-3, -3)

    def test_not_one_mod_four(self):
        with pytest.raises(GzInputError):
            GzParams(-3, -9)  # -9 is 3 mod 4, not a fundamental discriminant

    def test_not_squarefree(self):
        with pytest.raises(GzInputError, match="fundamental"):
            GzParams(-3, -63)  # -63 = 1 mod 4 but 9 | 63

    def test_not_negative(self):
        with pytest.raises(GzInputError):
            GzParams(-3, 5)


class TestEpsilon:
    def test_examples(self):
        params = GzParams(-3, -7)
        assert epsilon_of(5, params) == -1
        assert epsilon_of(3, params) == -1  # 3 | d1, falls through to (d2|3)
        assert epsilon_of(7, params) == 1  # (-3|7), and 4 = 2**2 mod 7


class TestGzIntersection:
    def test_at_p_examples(self):
        params = GzParams(-3, -7)
        assert gz_intersection_at_p(params, 5) == 1
        assert gz_intersection_at_p(params, 3) == 1
        assert gz_intersection_at_p(params, 11) == 0

    def test_bad_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            gz_intersection_at_p(GzParams(-7, -43), 15)  # 15 | m = 75 at n = 1

    def test_total_small(self):
        assert gz_total(GzParams(-3, -7)).terms == {
            3: Fraction(1),
            5: Fraction(1),
        }

    def test_total_7_43(self):
        # exp of the formal sum must be |0 - j((1+sqrt(-43))/2)| scaled:
        # 884732625 = 3**6 * 5**3 * 7 * 19 * 73
        assert gz_total(GzParams(-7, -43)).terms == {
            3: Fraction(6),
            5: Fraction(3),
            7: Fraction(1),
            19: Fraction(1),
            73: Fraction(1),
        }

    def test_half_integral_support_bound(self):
        for d1, d2 in combinations(FUNDAMENTALS, 2):
            params = GzParams(d1, d2)
            result = gz_total(params)
            for p, c in result.terms.items():
                assert 4 * p <= params.dtilde
                assert c > 0 and (2 * c).denominator == 1

    def test_positive_coefficient_needs_odd_symbol_power(self):
        # c_p > 0 requires some admissible n with eps(p)**t_p = -1
        for d1, d2 in combinations(FUNDAMENTALS, 2):
            params = GzParams(d1, d2)
            dtilde = params.dtilde
            for p in gz_total(params).terms:
                witnesses = []
                for n in range(1, dtilde):
                    rem = dtilde - n * n
                    if rem <= 0 or rem % 4:
                        continue
                    m = rem // 4
                    if m % p == 0:
                        witnesses.append(
                            epsilon_of(p, params) ** padic_valuation(m, p)
                        )
                assert -1 in witnesses, (d1, d2, p)


class TestPairTableMemo:
    def test_alternating_pairs(self):
        pairs = [GzParams(-7, -43), GzParams(-11, -67)]
        primes = primes_up_to(max(params.dtilde // 4 for params in pairs))
        interleaved = {
            (params, p): gz_intersection_at_p(params, p) for p in primes for params in pairs
        }
        assert any(interleaved.values())
        for params in pairs:
            gzmoduli._pair_table.cache_clear()
            total = gz_total(params).terms
            alone = {(params, p): gz_intersection_at_p(params, p) for p in primes}
            assert alone == {key: interleaved[key] for key in alone}
            assert total == {p: c for (_, p), c in alone.items() if c}


def _pair_table_by_division(params):
    """The pair table as built before the root sieve: every m trial-divided
    by `_row`, and eps(l) evaluated once per (m, l)."""
    sign = partial(epsilon_of, params=params)
    return _by_prime((m, _row(m, sign)) for m in admissible_m(params.dtilde, 4).values())


class TestPairTableSieve:
    """The sieved table equals the one the trial-division build gave, entry
    for entry and in the same order, so every gz output stays byte-identical."""

    @pytest.mark.parametrize(
        "pairs",
        [
            [(d1, d2) for d1, d2 in combinations(range(-199, -2), 2)
             if is_fundamental(d1) and is_fundamental(d2) and d1 % 4 == d2 % 4 == 1
             and gcd(d1, d2) == 1],
            BENCHMARK_PAIRS,
        ],
        ids=["coprime_pairs_to_199", "benchmark_seed0"],
    )
    def test_matches_trial_division(self, pairs):
        assert len(pairs) in (8, 773)
        for d1, d2 in pairs:
            params = GzParams(d1, d2)
            sieved = gzmoduli._pair_table.__wrapped__(params)
            assert list(sieved.items()) == list(_pair_table_by_division(params).items()), (d1, d2)


class TestReducedForms:
    def test_examples(self):
        assert reduced_forms(-3) == (HeegnerForm(1, 1, 1),)
        assert reduced_forms(-7) == (HeegnerForm(1, 1, 2),)
        assert len(reduced_forms(-23)) == 3

    def test_minus_23_forms(self):
        forms = set(reduced_forms(-23))
        assert forms == {
            HeegnerForm(1, 1, 6),
            HeegnerForm(2, 1, 3),
            HeegnerForm(2, -1, 3),
        }

    def test_bad_discriminant(self):
        with pytest.raises(ValueError):
            reduced_forms(-6)
        with pytest.raises(ValueError):
            reduced_forms(5)

    def test_forms_are_reduced_with_right_discriminant(self):
        for d in range(-499, 0):
            if d % 4 not in (0, 1):
                continue
            for f in reduced_forms(d):
                assert f.discriminant == d
                assert abs(f.B) <= f.A <= f.C

    def test_class_numbers_match_scan(self):
        for d in range(-499, 0):
            if d % 4 in (0, 1):
                assert class_number(d) == class_number_scan(d), d

    def test_class_numbers_match_dirichlet(self):
        for d in range(-499, 0):
            if is_fundamental(d):
                assert class_number(d) == class_number_dirichlet(d), d

    def test_known_values(self):
        assert class_number(-4) == 1
        assert class_number(-12) == 1  # the imprimitive (2,2,2) is excluded
        assert class_number(-15) == 2
        assert class_number(-47) == 5


class TestJOracle:
    def test_classical_values(self):
        with mp.workdps(60):
            assert abs(j_invariant(HeegnerForm(1, 1, 1))) < mp.mpf(10) ** -40
            assert abs(j_invariant(HeegnerForm(1, 1, 2)) + 3375) < mp.mpf(10) ** -40
            assert (
                abs(j_invariant(HeegnerForm(1, 1, 11)) + 884736000)
                < mp.mpf(10) ** -30
            )
            assert (
                abs(j_invariant(HeegnerForm(1, 1, 17)) + 147197952000)
                < mp.mpf(10) ** -30
            )

    def test_singular_moduli_log_minus3_minus7(self):
        value = singular_moduli_log(GzParams(-3, -7), 50)
        with mp.workdps(70):
            assert abs(value - mp.log(15)) < mp.mpf(10) ** -10

    def test_precision_stability(self):
        lo = singular_moduli_log(GzParams(-7, -43), 40)
        hi = singular_moduli_log(GzParams(-7, -43), 80)
        with mp.workdps(100):
            assert abs(lo - hi) < mp.mpf(10) ** -35

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            singular_moduli_log(GzParams(-3, -7), 10)


class TestOracleMatch:
    def test_formula_matches_oracle_sample(self):
        for d1, d2 in [(-3, -7), (-3, -11), (-7, -43), (-11, -19)]:
            assert gz_discrepancy(GzParams(d1, d2), 60) < mp.mpf(10) ** -60

    def test_formal_sum_log(self):
        result = gz_total(GzParams(-3, -7))
        with mp.workdps(60):
            assert abs(formal_sum_log(result, 40) - mp.log(15)) < mp.mpf(10) ** -30


class TestSingularModuliRoute:
    """The oracle's route (mpmath's kleinj, one j per conjugate pair, one log
    per class) against the direct E4**3/Delta route of tests/oracles.py, the
    only q-expansion in the repository."""

    @pytest.mark.parametrize("d", [-163, -1655, -2087, -2351])
    def test_j_matches_direct_route(self, d):
        with mp.workdps(220):
            tol = mp.mpf(10) ** -(mp.dps - 10)
            for f in reduced_forms(d):
                if f.B >= 0:
                    direct = _j_direct(f.A, f.B, d)
                    assert abs(j_invariant(f) - direct) < abs(direct) * tol

    def test_j_minus_163(self):
        # tau = (-1 + sqrt(-163))/2 differs from (1 + sqrt(-163))/2 by 1.
        with mp.workdps(220):
            exact = -(640320**3)
            error = abs(j_invariant(HeegnerForm(1, 1, 41)) - exact)
            assert error < abs(exact) * mp.mpf(10) ** -(mp.dps - 10)

    @pytest.mark.parametrize("precision", [60, 200])
    @pytest.mark.parametrize("d1, d2", ORACLE_PAIRS)
    def test_matches_direct_route(self, d1, d2, precision):
        fast = singular_moduli_log(GzParams(d1, d2), precision)
        direct = singular_moduli_log_oracle(d1, d2, precision)
        with mp.workdps(precision + 20):
            assert abs(fast - direct) < mp.mpf(10) ** -precision

    @pytest.mark.parametrize("d1, d2", ORACLE_PAIRS + LARGE_PAIRS)
    def test_discrepancy_at_full_precision(self, d1, d2):
        # The CI gate on the pinned gz items asks for this too.
        assert gz_discrepancy(GzParams(d1, d2), 200) < mp.mpf(10) ** -200

    @pytest.mark.parametrize("d", [-47, -71, -479])
    def test_conjugate_forms(self, d):
        with mp.workdps(80):
            negative = [f for f in reduced_forms(d) if f.B < 0]
            assert negative
            for f in negative:
                direct = j_invariant(f)
                partner = j_invariant(HeegnerForm(f.A, -f.B, f.C))
                assert abs(direct - mp.conj(partner)) < abs(direct) * mp.mpf(10) ** -(mp.dps - 10)

    def test_one_evaluation_per_conjugate_pair(self, monkeypatch):
        evaluated = []
        j = gzmoduli.j_invariant
        monkeypatch.setattr(gzmoduli, "j_invariant", lambda f: evaluated.append(f) or j(f))
        singular_moduli_log(GzParams(-47, -71), 40)
        expected = [f for d in (-71, -47) for f in reduced_forms(d) if f.B >= 0]
        assert evaluated == expected

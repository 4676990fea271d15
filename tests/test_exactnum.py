import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbertcm.exactnum import (
    ARCHIMEDEAN,
    Factorization,
    factorize,
    hilbert_symbol,
    is_prime,
    is_squarefree,
    kronecker_symbol,
    padic_valuation,
    primes_up_to,
    relevant_places,
    sqrt_mod,
)
from oracles import hilbert_symbol_oracle, legendre_euler

nonzero_ints = st.integers(-60, 60).filter(lambda n: n != 0)
nonzero_rationals = st.builds(
    Fraction, nonzero_ints, st.integers(1, 60)
)
small_places = st.sampled_from([ARCHIMEDEAN, 2, 3, 5, 7, 11, 13])


def test_is_prime_small():
    assert [p for p in range(2, 40) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(10**12 + 39)
    assert not is_prime(10**12 + 37)


# psi_12 (Sorenson-Webster): the least strong pseudoprime to every prime base
# up to 37, and so the least n that is_prime refuses.
PSI_12 = 318665857834031151167461


def test_is_prime_refuses_past_its_limit():
    assert 399165290221 * 798330580441 == PSI_12
    for n in (PSI_12, PSI_12 + 2, 10**30):
        with pytest.raises(ValueError, match=str(PSI_12)):
            is_prime(n)


def test_is_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)
    # psi_1 .. psi_11: least strong pseudoprimes to the first k prime bases.
    cases = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
             341550071728321, 3825123056546413051, sympy.prevprime(PSI_12)]
    cases += [rng.randrange(PSI_12) for _ in range(2000)]
    cases += [sympy.nextprime(rng.randrange(PSI_12 // 2)) for _ in range(100)]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []


def test_is_prime_against_the_sieve():
    # The range crosses 37**2 and 41**2, below which is_prime ends after its
    # trial division by the witnesses.
    primes = set(primes_up_to(5000))
    for n in range(-5, 5001):
        assert is_prime(n) == (n in primes), n


class TestPadicValuation:
    def test_examples(self):
        assert padic_valuation(40, 2) == 3
        assert padic_valuation(21, 5) == 0
        assert padic_valuation(12, 3) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            padic_valuation(0, 2)
        with pytest.raises(ValueError):
            padic_valuation(10, 4)

    def test_negative_input(self):
        assert padic_valuation(-40, 2) == 3


class TestFactorize:
    def test_examples(self):
        assert factorize(40).factors == ((2, 3), (5, 1))
        assert factorize(1).factors == ()
        # arises as |j1 - j2| in the (-7, -43) singular-moduli run
        assert factorize(884732625).factors == (
            (3, 6), (5, 3), (7, 1), (19, 1), (73, 1),
        )

    def test_error(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(1, 10**6))
    def test_reconstruction(self, n):
        f = factorize(n)
        assert f.value() == n
        assert all(is_prime(p) for p in f.primes)

    @given(st.integers(2, 10**5))
    def test_valuation_agreement(self, n):
        f = factorize(n)
        for p, e in f.factors:
            assert padic_valuation(n, p) == e
        assert f.exponent(9973) == padic_valuation(n, 9973) or n % 9973

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0)
        cases = list(range(1, 2 * 10**5 + 1))
        cases += [rng.randrange(1, 10**12) for _ in range(2000)]
        for n in cases:
            assert dict(factorize(n).factors) == sympy.factorint(n), n

    def test_ordering_invariant(self):
        with pytest.raises(ValueError):
            Factorization(1, ((5, 1), (2, 3)))
        with pytest.raises(ValueError):
            Factorization(1, ((2, 0),))


class TestSquarefree:
    def test_examples(self):
        assert is_squarefree(41)
        assert not is_squarefree(45)
        assert is_squarefree(1)

    def test_error(self):
        with pytest.raises(ValueError):
            is_squarefree(0)


class TestKronecker:
    def test_examples(self):
        assert kronecker_symbol(-3, 5) == -1
        assert kronecker_symbol(5, 5) == 0
        assert kronecker_symbol(2, 7) == 1

    def test_error(self):
        with pytest.raises(ValueError):
            kronecker_symbol(3, 0)

    def test_against_euler_criterion(self):
        for p in primes_up_to(97):
            if p == 2:
                continue
            for a in range(-50, 51):
                assert kronecker_symbol(a, p) == legendre_euler(a, p), (a, p)

    @given(st.integers(-40, 40), st.integers(-40, 40), nonzero_ints)
    @example(-5, 0, -1)
    def test_multiplicative_in_top(self, a1, a2, n):
        # (0|-1) = 1 by definition while (a|-1) = sign(a) otherwise, so the
        # identity fails at n = -1 when exactly one factor is 0 and the other
        # negative; it holds whenever n > 0 or a1*a2 != 0.
        lhs = kronecker_symbol(a1 * a2, n)
        rhs = kronecker_symbol(a1, n) * kronecker_symbol(a2, n)
        if n > 0 or a1 * a2 != 0:
            assert lhs == rhs
        elif n == -1:
            assert lhs == 1 and rhs == (-1 if min(a1, a2) < 0 else 1)
        else:
            assert lhs == rhs == 0

    @given(st.integers(-40, 40), nonzero_ints, nonzero_ints)
    def test_multiplicative_in_bottom(self, a, n1, n2):
        assert kronecker_symbol(a, n1 * n2) == kronecker_symbol(
            a, n1
        ) * kronecker_symbol(a, n2)


class TestSqrtMod:
    def test_exhaustive_below_500(self):
        # Covers every p = 1 mod 8, where Tonelli-Shanks needs more than one
        # round, from 17 on.
        assert [p for p in primes_up_to(500) if p % 8 == 1][:3] == [17, 41, 73]
        for p in primes_up_to(500)[1:]:
            squares = {x * x % p for x in range(p)}
            for a in range(p):
                if a in squares:
                    r = sqrt_mod(a, p)
                    assert r * r % p == a and 0 <= r <= p // 2, (a, p)
                else:
                    with pytest.raises(ValueError, match="not a square"):
                        sqrt_mod(a, p)

    def test_reduces_its_argument(self):
        assert sqrt_mod(-1, 13) == 5
        assert sqrt_mod(4 + 10**12 * 97, 97) == 2

    @pytest.mark.parametrize("p", [2, 1, 0, -7])
    def test_needs_an_odd_prime(self, p):
        with pytest.raises(ValueError, match="odd prime"):
            sqrt_mod(1, p)

    def test_composite_modulus(self):
        # Not a supported input, but it must end: either a ValueError or a
        # true root, never a loop or a wrong root.
        for a, n in [(4, 15), (1, 65), (16, 561), (4, 9), (2, 1105)]:
            try:
                r = sqrt_mod(a, n)
            except ValueError as exc:
                assert "not prime" in str(exc) or "not a square" in str(exc)
            else:
                assert r * r % n == a % n


class TestHilbertSymbol:
    def test_examples(self):
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-3, 2, 2) == -1
        for b in (2, -3, 7, Fraction(5, 3)):
            for v in (2, 3, 5, ARCHIMEDEAN):
                assert hilbert_symbol(1, b, v) == 1

    def test_archimedean(self):
        assert hilbert_symbol(-2, -3, ARCHIMEDEAN) == -1
        assert hilbert_symbol(2, -3, ARCHIMEDEAN) == 1

    def test_two_adic_unit_rule(self):
        # (u, 2)_2 = +1 iff u = +-1 mod 8
        for u in (1, 7, 9, 15, -1):
            assert hilbert_symbol(u, 2, 2) == 1
        for u in (3, 5, 11, 13, -3):
            assert hilbert_symbol(u, 2, 2) == -1

    def test_errors(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 3, 5)
        with pytest.raises(ValueError):
            hilbert_symbol(3, 0, 5)
        with pytest.raises(ValueError):
            hilbert_symbol(1, 1, 6)
        with pytest.raises(TypeError):
            hilbert_symbol(1.5, 1, 2)

    def test_against_solubility_search(self):
        cases = [(-1, -1), (-3, 2), (2, 3), (-1, 2), (5, 6), (-6, 10)]
        for a, b in cases:
            for p in (2, 3, 5):
                assert hilbert_symbol(a, b, p) == hilbert_symbol_oracle(a, b, p), (
                    a, b, p,
                )

    @given(nonzero_rationals, nonzero_rationals, small_places)
    @settings(max_examples=300)
    def test_symmetry(self, a, b, v):
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)

    @given(nonzero_rationals, nonzero_rationals, nonzero_rationals, small_places)
    @settings(max_examples=300)
    def test_bimultiplicative(self, a1, a2, b, v):
        assert hilbert_symbol(a1 * a2, b, v) == hilbert_symbol(
            a1, b, v
        ) * hilbert_symbol(a2, b, v)

    @given(nonzero_rationals, small_places)
    def test_a_minus_a(self, a, v):
        assert hilbert_symbol(a, -a, v) == 1

    @given(nonzero_rationals, nonzero_rationals)
    @settings(max_examples=300)
    def test_product_formula(self, a, b):
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1

"""The degenerate case: factorization of differences of singular moduli.

Here the field input degenerates to a pair of coprime negative fundamental
discriminants d1, d2 = 1 mod 4 with Dtilde = d1*d2.  The per-prime formula is
the main one, evaluated by the same kernel in intersect, with the symbol
(-alpha_l, l)_l replaced by the character value eps(l) and the summation
running over positive n with (Dtilde - n**2)/4 a positive multiple of p.
`_pair_table` takes every m of the pair from one root sieve over n
(`tmatrix.factored_m`), with eps(l) evaluated once per prime, and is
memoized for the last pair, so `gz_total` and its per-prime calls share one
build.

An independent oracle evaluates sum 4/(w1*w2) * log|j(tau1) - j(tau2)| over
Heegner points at arbitrary precision; exp of the formula's output must match
it.  j is 1728 * mpmath's kleinj (Jacobi theta constants, no stated error
bound; reduced forms have Im tau >= sqrt(3)/2, so |q| <= e**(-pi*sqrt(3))),
checked in the tests against an independent q-expansion.  j is evaluated once
per conjugate pair.  Each side takes one log: the oracle of the product of
every |j(tau1) - j(tau2)|, the formula of the exact integer prod p**(2*c_p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from math import gcd, isqrt, prod

import mpmath
from mpmath import mp

from .exactnum import is_prime, is_squarefree, kronecker_symbol
from .intersect import IntersectionResult, Row, _beta, _by_prime, _coefficient, formal_sum
from .tmatrix import factored_m


#: Fewest oracle digits singular_moduli_log accepts.
MIN_PRECISION = 30


class GzInputError(ValueError):
    """Raised for an invalid discriminant pair."""


@dataclass(frozen=True)
class GzParams:
    """A pair of negative coprime fundamental discriminants, both 1 mod 4."""

    d1: int
    d2: int

    def __post_init__(self) -> None:
        for d in (self.d1, self.d2):
            if d >= 0:
                raise GzInputError(f"{d} is not negative")
            if d % 4 != 1:
                raise GzInputError(f"{d} is not 1 mod 4")
            if not is_squarefree(-d):
                raise GzInputError(f"{d} is not a fundamental discriminant")
        g = gcd(self.d1, self.d2)
        if g != 1:
            raise GzInputError(f"d1, d2 share the factor {g}")

    @property
    def dtilde(self) -> int:
        return self.d1 * self.d2


def epsilon_of(l: int, params: GzParams) -> int:
    """The character value at l: (d1|l) when l does not divide d1, else (d2|l)."""
    if params.d1 % l:
        return kronecker_symbol(params.d1, l)
    if params.d2 % l:
        return kronecker_symbol(params.d2, l)
    raise GzInputError(f"{l} divides both discriminants")


@lru_cache(maxsize=1)
def _pair_table(params: GzParams) -> dict[int, list[tuple[int, Row]]]:
    """Each prime p mapped to the (m, row) pairs with p | m, ascending in n:
    every m from one root sieve, and eps(l) once per prime."""
    sign = cache(partial(epsilon_of, params=params))
    return _by_prime(
        (m, tuple((l, e, sign(l)) for l, e in factors))
        for m, factors in factored_m(params.dtilde, 4).values()
    )


def gz_intersection_at_p(params: GzParams, p: int) -> Fraction:
    """Coefficient of log p in the degenerate-case intersection number."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Fraction(_coefficient(p, [row for _, row in _pair_table(params).get(p, ())], _beta), 2)


def gz_total(params: GzParams) -> IntersectionResult:
    """The full formal sum for the pair (d1, d2); support primes are at most
    d1*d2/4."""
    at_p = partial(gz_intersection_at_p, params)
    primes = sorted(_pair_table(params))
    return formal_sum(primes, at_p, params.dtilde // 4, f"d1={params.d1}, d2={params.d2}")


@dataclass(frozen=True)
class HeegnerForm:
    """A reduced integral binary quadratic form A*x**2 + B*x*y + C*y**2."""

    A: int
    B: int
    C: int

    @property
    def discriminant(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def __post_init__(self) -> None:
        if self.A <= 0:
            raise ValueError("A must be positive")
        if not (abs(self.B) <= self.A <= self.C):
            raise ValueError(f"{self} is not reduced")
        if self.B < 0 and (abs(self.B) == self.A or self.A == self.C):
            raise ValueError(f"{self} is not reduced (boundary sign)")


def reduced_forms(d: int) -> tuple[HeegnerForm, ...]:
    """One reduced primitive form per class of discriminant d < 0; the count
    is the class number h(d)."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    forms = []
    for b in range(d % 2, isqrt(-d // 3) + 1, 2):
        rem4 = b * b - d
        if rem4 % 4:
            continue
        rem = rem4 // 4  # = A*C
        for a in range(max(b, 1), isqrt(rem) + 1):
            if rem % a:
                continue
            c = rem // a
            if gcd(gcd(a, b), c) != 1:
                continue
            forms.append(HeegnerForm(a, b, c))
            if 0 < b < a < c:
                forms.append(HeegnerForm(a, -b, c))
    return tuple(sorted(forms, key=lambda f: (f.A, abs(f.B), -f.B, f.C)))


def class_number(d: int) -> int:
    return len(reduced_forms(d))


def _unit_count(d: int) -> int:
    if d == -3:
        return 6
    if d == -4:
        return 4
    return 2


def j_invariant(form: HeegnerForm) -> mpmath.mpc:
    """1728 * mpmath's kleinj at tau = (-B + sqrt(d))/(2A), at the ambient mp
    precision (callers set mp.workdps with guard digits).

    Reduced forms have Im tau >= sqrt(3)/2, so |q| <= e**(-pi*sqrt(3)).
    mpmath sums the theta series to the working precision plus guard bits but
    states no error bound; the tests check j against a q-expansion.
    """
    tau = (-form.B + mp.sqrt(mp.mpc(form.discriminant))) / (2 * form.A)
    return 1728 * mp.kleinj(tau)


def _singular_moduli(d: int) -> list[mpmath.mpc]:
    """j at every reduced form of d, in order, evaluated once per conjugate
    pair: (A, -B, C) takes the conjugate of j at its partner (A, B, C), which
    reduced_forms lists just before it (a KeyError if it did not)."""
    js: dict[HeegnerForm, mpmath.mpc] = {}
    for f in reduced_forms(d):
        js[f] = j_invariant(f) if f.B >= 0 else mp.conj(js[HeegnerForm(f.A, -f.B, f.C)])
    return list(js.values())


def singular_moduli_log(params: GzParams, precision: int = 100) -> mpmath.mpf:
    """sum over class pairs of 4/(w1*w2) * log|j(tau1) - j(tau2)|, computed to
    `precision` decimal digits with guard digits on top."""
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} digits")
    with mp.workdps(precision + 20):
        js2 = _singular_moduli(params.d2)
        product = mp.fprod(j1 - j2 for j1 in _singular_moduli(params.d1) for j2 in js2)
        weight = mp.mpf(4) / (_unit_count(params.d1) * _unit_count(params.d2))
        return weight * mp.log(abs(product))


def formal_sum_log(result: IntersectionResult, precision: int = 100) -> mpmath.mpf:
    """Evaluate sum c_p * log p at `precision` digits, for oracle comparison:
    half the log of the exact integer prod p**(2*c_p)."""
    with mp.workdps(precision + 20):
        return mp.log(prod(p ** int(2 * c) for p, c in result.terms.items())) / 2


def gz_logs(
    params: GzParams, result: IntersectionResult, precision: int = 100
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(formula, oracle): formal_sum_log of `result`, the pair's gz_total, and
    singular_moduli_log of the pair, both at `precision` digits."""
    return formal_sum_log(result, precision), singular_moduli_log(params, precision)


def gz_discrepancy(params: GzParams, precision: int = 100) -> mpmath.mpf:
    """|formula - oracle| in log space at the requested precision."""
    formula, oracle = gz_logs(params, gz_total(params), precision)
    with mp.workdps(precision + 20):
        return abs(formula - oracle)

"""The intersection-number formulas and the independent b1 cross-check path.

Route one (closed form): per admissible n and prime l | (Dtilde - n**2)/(4D),
a local factor beta_l built from the Hilbert symbol (-alpha_l, l)_l of a unit
diagonal entry of T(mu*n); the per-prime intersection number is

    (1/2) * sum_n (t_p + 1) * sum_mu  prod_l beta_l.

The kernel: `_row` factors m once into (l, t_l, datum(l)) with the local
datum as a parameter, and `_coefficient` sums (t_p + 1) * prod_l factor(...)
over rows with the local factor as a parameter.  The closed form and the
Gross-Zagier case (symbol eps(l)) take `_beta` over symbols and halve the
sum; b1 takes `_rho` over splittings.  `formal_sum` assembles coefficients.
`_field_table` builds each T(mu*n) of a field once with its row, filed under
every p | m and memoized for the last field, so the per-prime views on one
field (`intersection_at_p`, `candidate_primes`, `b1_at_p`) share one build.

Route two (reflex side): b1(p) counts ideals of given relative norm in the
reflex CM field via rho-factors, driven by the splitting behaviour of each
prime.  It shares the T matrices, the factorization of each m and the sum
with the kernel: `_reflex_table` takes (l, t_l) from the field table's rows
and adds the splitting of the chosen prime above l from `split_in_Ktilde`,
once per (T, l), only when b1 is asked for.  The splitting comes from the
same symbol (-alpha_l, l)_l that the closed form evaluates, so the symbol
itself is checked independently by the brute-force p-adic Hilbert-symbol
test; rho meets beta only in the identity b1(p) = 2 * (intersection at p),
the project's main cross-check.  `_identity` is its one driver, for both
`verify_main_identity` and the CLI.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Mapping

from .exactnum import (
    hilbert_symbol,
    is_prime,
    kronecker_symbol,
    padic_valuation,
    prime_factors,
)
from .quadcm import CmFieldData
from .tmatrix import TMatrix, all_tmatrices

log = logging.getLogger(__name__)

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


@dataclass(frozen=True)
class LocalFactor:
    """Per-prime data entering the closed-form product."""

    l: int
    alpha: int
    t_l: int
    symbol: int
    beta: Fraction


@dataclass(frozen=True)
class ReflexLocalData:
    """Per-prime splitting data entering the b1 product."""

    l: int
    splitting_in_Ftilde: str  # split | ramified (inert cannot occur for l | det)
    splitting_in_Ktilde: str  # split | inert | ramified
    ord_at_chosen_prime: int


@dataclass(frozen=True)
class IntersectionResult:
    """A formal sum  sum_p c_p * log p, stored as prime -> exact coefficient."""

    terms: Mapping[int, Fraction]
    descriptor: str

    def formal_sum(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*log {p}" for p, c in sorted(self.terms.items()))


def alpha_unit(T: TMatrix, l: int) -> int:
    """A diagonal entry of T that is a unit at l; for l = 2 this is the entry
    that is -1 mod 4.  Requires l | (Dtilde - n**2)/(4D)."""
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    if T.quarter_det % l:
        raise ValueError(f"{l} does not divide (Dtilde - n**2)/(4D) = {T.quarter_det}")
    if T.a % l:
        return T.a
    if T.c % l:
        return T.c
    raise ValueError(
        f"{l} divides both diagonal entries of {T.entries()}; matrix is corrupted"
    )


def _beta(t: int, sign: int, at_p: bool) -> int:
    """The local factor at a prime l exactly dividing m to the power t, with
    local symbol `sign`; `at_p` marks l = p.  Always an integer."""
    if at_p:
        return (1 - sign**t) // 2
    if sign == -1:
        return (1 + (-1) ** t) // 2
    return t + 1


Row = tuple[tuple[int, int, object], ...]


def _row(m: int, datum: Callable[[int], object]) -> Row:
    """(l, t_l, datum(l)) per prime l | m, ascending: one factorization, one
    local datum (a symbol or a splitting) per l."""
    return tuple((l, padic_valuation(m, l), datum(l)) for l in prime_factors(m))


def _coefficient(p: int, rows: Iterable[Row], factor: Callable[[int, object, bool], int]) -> int:
    """sum (t_p + 1) * prod_l factor(t_l, datum_l, l == p) over rows of m
    divisible by p: the one kernel of the closed form, Gross-Zagier and b1."""
    total = 0
    for row in rows:
        term = 1
        for l, t, datum in row:
            term *= (t + 1) * factor(t, datum, True) if l == p else factor(t, datum, False)
            if not term:
                break
        total += term
    return total


def formal_sum(
    primes: Iterable[int], at_p: Callable[[int], Fraction], bound: int, descriptor: str
) -> IntersectionResult:
    """sum_p at_p(p) * log p over the candidate primes.  Every nonzero
    coefficient must lie in (1/2)Z>0 at a prime p <= bound."""
    terms: dict[int, Fraction] = {}
    for p in primes:
        c = at_p(p)
        if not c:
            continue
        if p > bound:
            raise ValueError(f"support bound violated: {c}*log {p} with {p} > {bound}")
        if c < 0 or (2 * c).denominator != 1:
            raise ValueError(f"coefficient {c} of log {p} is not in (1/2)Z>0")
        terms[p] = c
    return IntersectionResult(terms, descriptor)


def _by_prime(entries: Iterable[tuple[object, Row]]) -> dict:
    """File each (key, row) entry under every prime of its row, in order."""
    table: dict[int, list] = {}
    for entry in entries:
        for l, _, _ in entry[1]:
            table.setdefault(l, []).append(entry)
    return table


def _symbol(T: TMatrix, l: int) -> int:
    """The local symbol (-alpha_l, l)_l of the closed form."""
    return hilbert_symbol(-alpha_unit(T, l), l, l)


def beta_l(p: int, T: TMatrix, l: int) -> Fraction:
    """The local factor at l of the closed-form product for the prime p.
    Requires l | (Dtilde - n**2)/(4D)."""
    return Fraction(_beta(padic_valuation(T.quarter_det, l), _symbol(T, l), l == p))


def local_factors(p: int, T: TMatrix) -> tuple[LocalFactor, ...]:
    """The LocalFactor list over the distinct primes dividing
    (Dtilde - n**2)/(4D), ascending."""
    return tuple(
        LocalFactor(
            l=l, alpha=alpha_unit(T, l), t_l=t, symbol=sym, beta=Fraction(_beta(t, sym, l == p))
        )
        for l, t, sym in _row(T.quarter_det, partial(_symbol, T))
    )


def beta_product(p: int, T: TMatrix) -> Fraction:
    """Product of beta_l over the primes dividing (Dtilde - n**2)/(4D)."""
    m = T.quarter_det
    if m % p:
        raise ValueError(f"(Dtilde - n**2)/(4D) = {m} is not a positive multiple of {p}")
    # The kernel's sum over this one row is (t_p + 1) * product.
    total = _coefficient(p, [_row(m, partial(_symbol, T))], _beta)
    return Fraction(total, padic_valuation(m, p) + 1)


@lru_cache(maxsize=1)
def _field_table(cm: CmFieldData) -> dict[int, list[tuple[TMatrix, Row]]]:
    """Each prime p mapped to the (T, row) pairs with p | m, by (n, -mu).  One
    field is kept: its calls come together, and more would hold a sweep."""
    return _by_prime((T, _row(T.quarter_det, partial(_symbol, T))) for T in all_tmatrices(cm))


def intersection_at_p(cm: CmFieldData, p: int) -> Fraction:
    """The coefficient of log p in the intersection number (closed form)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Fraction(_coefficient(p, [row for _, row in _field_table(cm).get(p, ())], _beta), 2)


def candidate_primes(cm: CmFieldData) -> list[int]:
    """Primes that can possibly support the intersection: divisors of some
    (Dtilde - n**2)/(4D)."""
    return sorted(_field_table(cm))


def intersection_total(cm: CmFieldData) -> IntersectionResult:
    """The full formal sum; support is contained in primes <= Dtilde/(4D)."""
    at_p = partial(intersection_at_p, cm)
    return formal_sum(candidate_primes(cm), at_p, cm.dtilde // (4 * cm.D), cm.describe())


def split_in_Ktilde(
    T: TMatrix, l: int, chosen_prime_is_relative_discriminant: bool = False
) -> str:
    """Splitting of the chosen prime above l in the reflex CM field.

    The flag marks the corner where the chosen prime itself divides the
    relative discriminant (norm D); then it is ramified.  Otherwise the
    prime is split exactly when (-alpha_l, l)_l = 1, with alpha_l = a in the
    special case l = D.
    """
    if chosen_prime_is_relative_discriminant:
        return RAMIFIED
    D = T.cm.D
    if T.quarter_det % l == 0:
        alpha = alpha_unit(T, l)
        if l == D:
            # The chosen prime sits over l = D but is not the ramified one;
            # here D never divides n and the unit entry is a.
            log.debug(
                "relative-discriminant place hit: l = D = %d at n = %d", D, T.n
            )
            if T.n % D == 0 or T.a % D == 0:
                raise ValueError(f"l = D = {D} divides n = {T.n} or the entry a = {T.a}")
            alpha = T.a
    elif l == D:
        if T.a % D == 0:
            raise ValueError("a is not a unit at D; cannot classify")
        alpha = T.a
    else:
        raise ValueError(f"{l} must divide (Dtilde - n**2)/(4D) or equal D")
    return SPLIT if hilbert_symbol(-alpha, l, l) == 1 else INERT


def rho_local(splitting: str, ord: int) -> int:
    """One rho-factor: ideal counts of given valuation at a place of the
    reflex quadratic field, by splitting type in the reflex CM field."""
    if ord < -1:
        raise ValueError("ord must be >= -1")
    if splitting == RAMIFIED:
        return 1
    if ord < 0:
        return 0
    if splitting == INERT:
        return (1 + (-1) ** ord) // 2
    if splitting == SPLIT:
        return 1 + ord
    raise ValueError(f"unknown splitting {splitting!r}")


def _rho(t: int, splitting: str, at_p: bool) -> int:
    """The rho-factor at l | m; at l = p the chosen prime carries t_p - 1,
    and the term vanishes when that prime splits."""
    if at_p:
        return 0 if splitting == SPLIT else rho_local(splitting, t - 1)
    return rho_local(splitting, t)


def _reflex_splitting(T: TMatrix, l: int) -> str:
    """Splitting in the reflex CM field of the chosen prime above l | m."""
    # l | Dtilde - n**2 with l coprime to n forces split or ramified.
    if kronecker_symbol(T.cm.dtilde, l) == -1:
        raise ValueError(f"{l} divides (Dtilde - n**2)/(4D) but is inert in Q(sqrt(Dtilde))")
    return split_in_Ktilde(T, l)


def reflex_local_data(p: int, T: TMatrix) -> tuple[ReflexLocalData, ...]:
    """Splitting data for every prime l dividing (Dtilde - n**2)/(4D).

    The chosen prime above l carries valuation t_l for l != p and t_p - 1
    for l = p (the partner prime is chosen to carry none).
    """
    return tuple(
        ReflexLocalData(
            l=l,
            splitting_in_Ftilde=RAMIFIED if T.cm.dtilde % l == 0 else SPLIT,
            splitting_in_Ktilde=splitting,
            ord_at_chosen_prime=t_l - 1 if l == p else t_l,
        )
        for l, t_l, splitting in _row(T.quarter_det, partial(_reflex_splitting, T))
    )


@lru_cache(maxsize=1)
def _reflex_table(cm: CmFieldData) -> dict[int, list[tuple[TMatrix, Row]]]:
    """The field table with (l, t_l, splitting) in place of each (l, t_l,
    symbol): one splitting per (T, l).  Built only for b1; one field is kept."""
    return _by_prime(
        (T, tuple((l, t, _reflex_splitting(T, l)) for l, t, _ in row))
        for p, entries in _field_table(cm).items()
        for T, row in entries
        if row[0][0] == p  # each entry once, under its least prime
    )


def b1_at_p(cm: CmFieldData, p: int) -> int:
    """The reflex-side count b1(p), computed independently of beta_l.

    Vanishes per (n, mu) whenever the chosen prime above p splits in the
    reflex CM field; otherwise it is the product of rho-factors over the
    primes dividing (Dtilde - n**2)/(4D).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _coefficient(p, [row for _, row in _reflex_table(cm).get(p, ())], _rho)


def _identity(cm: CmFieldData, terms: Mapping[int, Fraction]) -> tuple[dict[int, int], bool]:
    """b1 at the candidate primes, and whether b1(p) = 2 * terms[p] at every
    prime p <= Dtilde/(4D), with `terms` the closed form's coefficients.

    Only the candidate primes are evaluated: any other p divides no m, so
    b1(p) and the closed-form coefficient are both empty sums there and
    vanish together.
    """
    b1 = {p: b1_at_p(cm, p) for p in candidate_primes(cm)}
    return b1, all(b1[p] == 2 * terms.get(p, 0) for p in b1)


def verify_main_identity(cm: CmFieldData) -> bool:
    """b1(p) = 2 * (intersection at p) at every prime p <= Dtilde/(4D)."""
    return _identity(cm, intersection_total(cm).terms)[1]

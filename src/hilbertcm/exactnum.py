"""Exact integer and rational utilities.

Valuations, factorization, and the Kronecker and Hilbert symbols over every
place of Q.  Everything here is exact: inputs are ints or Fractions, never
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

#: Marker for the archimedean (real) place of Q.
ARCHIMEDEAN = "oo"

# Miller-Rabin on these bases is exact below psi_12 = 399165290221 * 798330580441
# (Sorenson-Webster), the least strong pseudoprime to all of them.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, proven for n below
    _MR_LIMIT (about 3.2 * 10**23); raises ValueError from there on."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is proven only below {_MR_LIMIT}, got {n}")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        # A composite with no prime factor up to 37 is at least 41**2.
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(2, n + 1) if sieve[i]]


def padic_valuation(x: int, p: int) -> int:
    """Largest e with p**e dividing x.  Requires x != 0 and p prime."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _valuation(x, p)


def _valuation(x: int, p: int) -> int:
    """padic_valuation without its checks, for a caller that knows x != 0
    and p prime."""
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


@dataclass(frozen=True)
class Factorization:
    """Sign and ordered (prime, exponent) pairs with strictly increasing primes."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be >= 1")

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1 by trial division.

    Inputs stay at desk scale (<= ~10**12), so trial division with an early
    primality exit on the remaining cofactor is plenty.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors: list[tuple[int, int]] = []
    m = n
    for p in (2, 3, 5):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    d = 7
    m_is_prime = is_prime(m)
    while not m_is_prime and m > 1 and d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
            m_is_prime = is_prime(m)
        d += 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(1, tuple(factors))


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct primes dividing n >= 1, ascending."""
    return factorize(n).primes


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n >= 1."""
    if n < 1:
        raise ValueError("is_squarefree requires n >= 1")
    return all(e == 1 for _, e in factorize(n).factors)


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n != 0, multiplicative in both arguments."""
    if n == 0:
        raise ValueError("Kronecker symbol (a|0) is undefined here")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # Jacobi symbol for odd positive n via quadratic reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _legendre_unit(u: int, p: int) -> int:
    """Legendre symbol of a unit u modulo an odd prime p."""
    t = pow(u % p, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int) -> int:
    """The square root r of a modulo an odd prime p with 0 <= r <= p/2, by
    Tonelli-Shanks; the other root is p - r.  Raises ValueError when a is not
    a square mod p, and when p is even or shows itself composite."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"sqrt_mod needs an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next((z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1), None)
    if z is None:
        raise ValueError(f"{p} is not prime")
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # The least i with t**(2**i) = 1; t has order dividing 2**(s-1).
        i, t2 = 0, t
        while t2 != 1 and i < s:
            t2 = t2 * t2 % p
            i += 1
        if i == s:
            raise ValueError(f"{p} is not prime")
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    if r * r % p != a:
        raise ValueError(f"{p} is not prime")
    return min(r, p - r)


def _as_square_free_int(r: Fraction) -> int:
    # numerator*denominator lies in the same square class as r
    return r.numerator * r.denominator


def hilbert_symbol(a: int | Fraction, b: int | Fraction, v: int | str) -> int:
    """Hilbert symbol (a,b)_v at a prime v or the archimedean place.

    Equals 1 exactly when z**2 = a*x**2 + b*y**2 has a nontrivial solution in
    the completion of Q at v.  Computed by the closed unit formulas:

    * odd p:  (a,b)_p = (-1|p)^(alpha*beta) * (u|p)^beta * (w|p)^alpha,
    * p = 2:  (a,b)_2 = (-1)^(eps(u)eps(w) + alpha*omega(w) + beta*omega(u)),

    after writing a = p**alpha * u, b = p**beta * w with units u, w; here
    eps(u) = (u-1)/2 and omega(u) = (u**2-1)/8 mod 2.
    """
    if isinstance(a, float) or isinstance(b, float):
        raise TypeError("hilbert_symbol is exact; pass int or Fraction")
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if v == ARCHIMEDEAN:
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(v, int) or not is_prime(v):
        raise ValueError(f"{v!r} is not a place of Q")
    p = v
    ai = _as_square_free_int(a)
    bi = _as_square_free_int(b)
    alpha = _valuation(ai, p)
    beta = _valuation(bi, p)
    u = ai // p**alpha
    w = bi // p**beta
    if p != 2:
        sign = 1
        if alpha % 2 and beta % 2 and p % 4 == 3:
            sign = -sign
        if beta % 2 and _legendre_unit(u, p) == -1:
            sign = -sign
        if alpha % 2 and _legendre_unit(w, p) == -1:
            sign = -sign
        return sign
    exponent = ((u - 1) // 2) * ((w - 1) // 2)
    exponent += alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
    return -1 if exponent % 2 else 1


def relevant_places(a: int | Fraction, b: int | Fraction) -> list[int | str]:
    """Archimedean place plus primes dividing 2 or a numerator/denominator.

    Outside this list the Hilbert symbol (a,b)_v is 1, so the product formula
    can be checked over it.
    """
    places: set[int] = {2}
    for r in (Fraction(a), Fraction(b)):
        places.update(prime_factors(abs(r.numerator)))
        places.update(prime_factors(r.denominator))
    return [ARCHIMEDEAN] + sorted(places)

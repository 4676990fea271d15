"""The positive definite 2x2 matrices attached to an admissible parameter n.

For a validated field and each n with 0 < n < sqrt(Dtilde) and
(Dtilde - n**2)/(4D) a positive integer, there is (per sign mu) a unique
integral matrix T = [[a, b], [b, c]] with

    det T = (Dtilde - n**2)/D,
    delta = (2*mu*n - D*c - (2b + D*c)*sqrt(D))/2,
    a + D*b + ((D**2 - D)/4)*c = -mu*n.

Its structural facts drive every local computation downstream: 4 | det,
exactly one of a, c is 0 mod 4 and the other is -1 mod 4, and no prime
dividing det divides both a and c.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .exactnum import padic_valuation, prime_factors, primes_up_to, sqrt_mod
from .quadcm import CmFieldData


class TMatrixError(ValueError):
    """Raised for a non-admissible (n, mu) request, or for a matrix that
    breaks a structural guarantee (the field data was not validated)."""


@dataclass(frozen=True)
class TMatrix:
    cm: CmFieldData
    n: int
    mu: int
    a: int
    b: int
    c: int

    @property
    def det(self) -> int:
        return self.a * self.c - self.b * self.b

    @property
    def quarter_det(self) -> int:
        """The positive integer (Dtilde - n**2)/(4D) = det/4."""
        return self.det // 4

    def entries(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def mu_signs(cm: CmFieldData, n: int) -> tuple[int, ...]:
    """The admissible signs for n: both when D | n, else the single mu with
    D | (u - 2*mu*n)."""
    D = cm.D
    if n % D == 0:
        return (1, -1)
    if (cm.u - 2 * n) % D == 0:
        return (1,)
    if (cm.u + 2 * n) % D != 0:
        # u**2 = 4*n**2 mod D whenever n is admissible, so one sign must fit.
        raise TMatrixError(f"no sign works for n = {n}; is n admissible?")
    return (-1,)


def admissible_m(dtilde: int, step: int) -> dict[int, int]:
    """Map each n > 0 with m = (dtilde - n**2)/step a positive integer to m,
    ascending in n."""
    out = {}
    for n in range(1, isqrt(dtilde) + 1):
        rem = dtilde - n * n
        if rem % step == 0 and rem > 0:
            out[n] = rem // step
    return out


def factored_m(dtilde: int, step: int) -> dict[int, tuple[int, tuple[tuple[int, int], ...]]]:
    """admissible_m with each m factored: n -> (m, ((l, e), ...)), ascending
    in n and in l.

    One root sieve over n instead of a factorization per m.  For a prime l
    dividing neither 2 nor step, l | m exactly when n**2 = dtilde (mod l), so
    the sieve visits only the n in the one or two classes n = +-sqrt(dtilde)
    (mod l), each combined with every class mod step that holds an admissible
    n.  l = 2 and the primes of step are tested on every n.  Once every prime
    up to sqrt(max m) is divided out, a cofactor above 1 is prime.
    """
    ms = admissible_m(dtilde, step)
    if not ms:
        return {}
    rest = dict(ms)
    factors: dict[int, list[tuple[int, int]]] = {n: [] for n in ms}
    classes = sorted({n % step for n in ms})
    top = max(ms)  # every n <= top in an admissible class is admissible
    limit = isqrt(max(ms.values()))
    for l in primes_up_to(limit):
        if l == 2 or step % l == 0:
            hits = [n for n in ms if rest[n] % l == 0]
        else:
            a = dtilde % l
            if a and pow(a, (l - 1) // 2, l) != 1:
                continue
            r = sqrt_mod(a, l)
            inv = pow(step, -1, l)
            starts = {c + step * ((s - c) * inv % l) for c in classes for s in {r, l - r}}
            hits = [n for n0 in starts for n in range(n0 or step * l, top + 1, step * l)]
        for n in hits:
            e = padic_valuation(rest[n], l)
            if e == 0:
                raise ArithmeticError(f"sieve: {l} does not divide m = {ms[n]} at n = {n}")
            rest[n] //= l**e
            factors[n].append((l, e))
    for n, cofactor in rest.items():
        if cofactor > 1:
            if cofactor <= limit:
                raise ArithmeticError(f"sieve: m = {ms[n]} at n = {n} keeps the factor {cofactor}")
            factors[n].append((cofactor, 1))
    return {n: (m, tuple(factors[n])) for n, m in ms.items()}


def admissible_n(cm: CmFieldData) -> list[tuple[int, tuple[int, ...]]]:
    """All (n, mu-list) with 0 < n < sqrt(Dtilde) and 4D | (Dtilde - n**2),
    ascending in n."""
    return [(n, mu_signs(cm, n)) for n in admissible_m(cm.dtilde, 4 * cm.D)]


def build_tmatrix(cm: CmFieldData, n: int, mu: int) -> TMatrix:
    """Construct T(mu*n); raises TMatrixError when (n, mu) is not admissible."""
    if mu not in (1, -1):
        raise TMatrixError(f"mu must be +-1, got {mu}")
    D = cm.D
    rem = cm.dtilde - n * n
    if n <= 0 or rem <= 0 or rem % (4 * D):
        raise TMatrixError(
            f"n = {n} is not admissible: (Dtilde - n**2)/(4D) is not a positive integer"
        )
    c_num = 2 * mu * n - cm.u
    if c_num % D:
        raise TMatrixError(f"c = {c_num}/{D} is not integral (wrong sign mu = {mu})")
    c = c_num // D
    if c <= 0:
        raise TMatrixError(f"c = {c} is not positive")
    b_num = -cm.v - D * c
    if b_num % 2:
        raise TMatrixError(f"b = {b_num}/2 is not integral")
    b = b_num // 2
    a = -mu * n - D * b - (D * D - D) // 4 * c
    det = a * c - b * b
    if det != rem // D:
        raise TMatrixError(
            f"determinant mismatch: got {det}, expected {rem // D}"
        )
    # Structural guarantees for validated fields.  Each diagonal entry is
    # 0 or -1 mod 4 (a = -w0**2, c = -w1**2 mod 4 up to a common shift), and
    # at least one is odd; both are -1 mod 4 exactly when w0 and w1 are both
    # odd, a w-class the validation admits (e.g. Q(zeta5)'s presentation).
    if a <= 0:
        raise TMatrixError(f"T = {(a, b, c)} is not positive definite")
    if (a % 4, c % 4) not in {(0, 3), (3, 0), (3, 3)}:
        raise TMatrixError(f"T = {(a, b, c)} violates the diagonal mod-4 pattern")
    if gcd(a, c, det) > 1:
        q = prime_factors(gcd(a, c, det))[0]
        raise TMatrixError(f"prime {q} divides both diagonal entries of T = {(a, b, c)}")
    return TMatrix(cm, n, mu, a, b, c)


def all_tmatrices(cm: CmFieldData) -> list[TMatrix]:
    """Every T(mu*n) of the field, ordered by (n, -mu)."""
    return [build_tmatrix(cm, n, mu) for n, mus in admissible_n(cm) for mu in mus]

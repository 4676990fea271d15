"""Exact arithmetic in the real quadratic order Z[(D + sqrt(D))/2].

Also validates and enumerates the quartic CM-field inputs (D, Delta, w) that
the intersection formulas consume.  A triple is admissible when

* D is prime with D = 1 mod 4,
* Delta is a totally negative element of the order,
* Dtilde = Norm(Delta) = 1 mod 4 is squarefree and not a perfect square,
* w**2 = Delta mod 4, so that (w + sqrt(Delta))/2 is integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .exactnum import is_prime, is_squarefree


class FieldValidationError(ValueError):
    """Raised when (D, Delta, w) fails an admissibility condition."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


@dataclass(frozen=True)
class QuadElem:
    """x + y*omega with omega = (D + sqrt(D))/2.

    The alternative coordinates (u, v), with the element equal to
    (u + v*sqrt(D))/2, satisfy u = 2x + y*D and v = y.
    """

    D: int
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.D <= 0 or self.D % 4 != 1:
            raise ValueError("QuadElem needs a positive D with D = 1 mod 4")

    @classmethod
    def from_uv(cls, D: int, u: int, v: int) -> "QuadElem":
        if (u - v * D) % 2:
            raise ValueError(f"(u, v) = ({u}, {v}) must have equal parity")
        return cls(D, (u - v * D) // 2, v)

    @property
    def u(self) -> int:
        return 2 * self.x + self.y * self.D

    @property
    def v(self) -> int:
        return self.y

    def _coerce(self, other: "QuadElem | int") -> "QuadElem":
        if isinstance(other, int):
            return QuadElem(self.D, other, 0)
        if isinstance(other, QuadElem):
            if other.D != self.D:
                raise ValueError("mixed discriminants")
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "QuadElem | int") -> "QuadElem":
        o = self._coerce(other)
        return QuadElem(self.D, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.D, -self.x, -self.y)

    def __sub__(self, other: "QuadElem | int") -> "QuadElem":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "QuadElem | int") -> "QuadElem":
        return (-self) + other

    def __mul__(self, other: "QuadElem | int") -> "QuadElem":
        o = self._coerce(other)
        D = self.D
        # omega**2 = D*omega - (D**2 - D)/4
        yy = self.y * o.y
        return QuadElem(
            D,
            self.x * o.x - yy * (D * D - D) // 4,
            self.x * o.y + self.y * o.x + yy * D,
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.u}{self.v:+d}*sqrt({self.D}))/2"


def conj(e: QuadElem) -> QuadElem:
    """Image under sqrt(D) -> -sqrt(D); an involution."""
    return QuadElem(e.D, e.x + e.y * e.D, -e.y)


def trace(e: QuadElem) -> int:
    return e.u


def norm(e: QuadElem) -> int:
    u, v = e.u, e.v
    return (u * u - v * v * e.D) // 4


def is_totally_negative(e: QuadElem) -> bool:
    """True iff both real embeddings of e are negative (exact integer test)."""
    u, v = e.u, e.v
    return u < 0 and u * u > v * v * e.D


@dataclass(frozen=True)
class CmFieldData:
    """Validated CM-field input with its derived constants.

    dtilde = Norm(delta), and (u, v) are the sqrt-coordinates of delta.
    Instances come out of validate_cm_field; the invariants listed in the
    module docstring all hold.
    """

    D: int
    delta: QuadElem
    w: QuadElem
    dtilde: int
    u: int
    v: int

    def describe(self) -> str:
        return f"D={self.D}, Dtilde={self.dtilde}, delta={self.delta}, w={self.w}"


def _as_delta(D: int, delta: "QuadElem | tuple[int, int]") -> QuadElem:
    if isinstance(delta, QuadElem):
        if delta.D != D:
            raise ValueError("delta has a different discriminant context")
        return delta
    u, v = delta
    return QuadElem.from_uv(D, u, v)


def _as_w(D: int, w: "QuadElem | tuple[int, int]") -> QuadElem:
    if isinstance(w, QuadElem):
        if w.D != D:
            raise ValueError("w has a different discriminant context")
        return w
    w0, w1 = w
    return QuadElem(D, w0, w1)


def field_violations(
    D: int,
    delta: "QuadElem | tuple[int, int]",
    w: "QuadElem | tuple[int, int]",
) -> list[tuple[str, str]]:
    """All violated admissibility conditions, as (code, message) pairs.

    Stops after the D checks when D itself is unusable, since nothing else
    can be formed then.
    """
    violations: list[tuple[str, str]] = []
    if not is_prime(D):
        violations.append(("d-not-prime", f"D = {D} is not prime"))
    if D % 4 != 1:
        violations.append(("d-mod-4", f"D = {D} is not 1 mod 4"))
    if violations:
        return violations

    d = _as_delta(D, delta)
    we = _as_w(D, w)
    if not is_totally_negative(d):
        violations.append(
            ("delta-not-totally-negative", f"delta = {d} is not totally negative")
        )
    dtilde = norm(d)
    if dtilde > 0:
        if dtilde % 4 != 1:
            violations.append(
                ("dtilde-mod-4", f"Dtilde = {dtilde} is not 1 mod 4")
            )
        elif not is_squarefree(dtilde):
            violations.append(
                ("dtilde-not-squarefree", f"Dtilde = {dtilde} is not squarefree")
            )
        elif isqrt(dtilde) ** 2 == dtilde:
            violations.append(
                ("dtilde-square", f"Dtilde = {dtilde} is a square (biquadratic)")
            )
    if not _w_congruent(we, d):
        violations.append(
            ("w-congruence", f"w**2 - delta = {we * we - d} is not 0 mod 4")
        )
    return violations


def _w_congruent(w: QuadElem, delta: QuadElem) -> bool:
    """w**2 = delta mod 4, so that (w + sqrt(delta))/2 is integral."""
    q = w * w - delta
    return q.x % 4 == 0 and q.y % 4 == 0


def validate_cm_field(
    D: int,
    delta: "QuadElem | tuple[int, int]",
    w: "QuadElem | tuple[int, int]",
) -> CmFieldData:
    """Check every admissibility condition and return the validated field.

    Raises FieldValidationError carrying the code of the first violation.
    """
    violations = field_violations(D, delta, w)
    if violations:
        code, message = violations[0]
        raise FieldValidationError(code, message)
    d = _as_delta(D, delta)
    return CmFieldData(D, d, _as_w(D, w), norm(d), d.u, d.v)


def enumerate_fields(D: int, dtilde_bound: int) -> list[CmFieldData]:
    """All valid (D, delta, w) with Norm(delta) <= dtilde_bound.

    Solves u**2 - D*v**2 = 4*Dtilde over v >= 1 (with an overscan margin for
    unit-multiple orbits) and tries the four classes w0, w1 in {0, 1}.
    Entries are deduplicated by (Dtilde, w mod 2); distinct delta with equal
    invariants may still present isomorphic fields, which is harmless for
    property sweeps.
    """
    if not is_prime(D) or D % 4 != 1:
        raise ValueError(f"D = {D} must be a prime = 1 mod 4")
    found: dict[tuple[int, int, int], CmFieldData] = {}
    v_max = 4 * (isqrt(4 * dtilde_bound // D) + 1)
    for v in range(1, v_max + 1):
        base = D * v * v
        u_hi = isqrt(4 * dtilde_bound + base)
        for u in range(-u_hi, -isqrt(base)):
            if (u - v) % 2:
                continue
            dtilde4 = u * u - base
            if dtilde4 <= 0 or dtilde4 % 4:
                continue
            dtilde = dtilde4 // 4
            if dtilde > dtilde_bound or dtilde % 4 != 1:
                continue
            if isqrt(dtilde) ** 2 == dtilde or not is_squarefree(dtilde):
                continue
            delta = QuadElem.from_uv(D, u, v)
            # Only w mod 2 matters, as (w + 2z)**2 = w**2 mod 4; the scan checked the rest.
            for w0 in range(2):
                for w1 in range(2):
                    key = (dtilde, w0, w1)
                    w = QuadElem(D, w0, w1)
                    if key not in found and _w_congruent(w, delta):
                        found[key] = validate_cm_field(D, delta, w)
    return [found[key] for key in sorted(found)]

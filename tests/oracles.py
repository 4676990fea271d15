"""Independent reference implementations used only as test oracles.

These deliberately reimplement facts through different routes than the
library (brute-force searches, classical formulas, direct series
substitution) so that each check is a genuine cross-validation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import mpmath
from mpmath import mp

from hilbertcm.exactnum import kronecker_symbol
from hilbertcm.quadcm import CmFieldData, QuadElem


@lru_cache(maxsize=None)
def _squares_mod(mod: int) -> frozenset[int]:
    return frozenset((z * z) % mod for z in range(mod))


def solubility_oracle(a: int, b: int, p: int, k: int = 6) -> bool:
    """Brute-force search for a primitive solution of z**2 = a*x**2 + b*y**2
    modulo p**k.

    For k >= 2 any primitive solution has x or y a unit (otherwise z**2 = 0
    mod p**2 with z a unit), so it is enough to scan the two normalizations
    x = 1 and y = 1.
    """
    if k < 2:
        raise ValueError("need k >= 2 for the primitivity reduction")
    mod = p**k
    squares = _squares_mod(mod)
    for t in range(mod):
        tt = t * t % mod
        if (a + b * tt) % mod in squares:
            return True
        if (a * tt + b) % mod in squares:
            return True
    return False


def hilbert_symbol_oracle(a: int, b: int, p: int, k: int = 6) -> int:
    return 1 if solubility_oracle(a, b, p, k) else -1


def legendre_euler(a: int, p: int) -> int:
    """Quadratic-residue test by enumerating squares modulo an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


def brute_force_tmatrices(
    cm: CmFieldData, n: int, mu: int
) -> list[tuple[int, int, int]]:
    """All integral positive definite [[a,b],[b,c]] with the required
    determinant and delta-reconstruction, by exhaustive search.

    The reconstruction u = 2*mu*n - D*c, v = -(2b + D*c) confines any
    solution to c <= (2n + |u|)/D and |b| <= (|v| + D*c)/2, so the scanned
    region provably contains every candidate.
    """
    det = (cm.dtilde - n * n) // cm.D
    hits = []
    for c in range(1, (2 * n + abs(cm.u)) // cm.D + 2):
        b_bound = (abs(cm.v) + cm.D * c) // 2 + 1
        for b in range(-b_bound, b_bound + 1):
            ac = det + b * b
            if ac % c:
                continue
            a = ac // c
            if a <= 0:
                continue
            # reconstruction: u = 2*mu*n - D*c and v = -(2b + D*c)
            if 2 * mu * n - cm.D * c == cm.u and -(2 * b + cm.D * c) == cm.v:
                hits.append((a, b, c))
    return hits


def gk_index_reference(a0: int, a1: int, a2: int, p: int) -> Fraction:
    """Direct term-by-term substitution into the two index sums."""
    total = Fraction(0)
    for i in range(0, a0):
        total += (i + 1) * (a0 + a1 + a2 - 3 * i) * p**i
    if (a1 - a0) % 2 == 0:
        i = a0
        while i <= (a0 + a1 - 2) // 2:
            total += (a0 + 1) * (2 * a0 + a1 + a2 - 4 * i) * p**i
            i += 1
        total += Fraction((a0 + 1) * (a2 - a1 + 1), 2) * p ** ((a0 + a1) // 2)
    else:
        i = a0
        while i <= (a0 + a1 - 1) // 2:
            total += (a0 + 1) * (2 * a0 + a1 + a2 - 4 * i) * p**i
            i += 1
    return total


def gk_density_reference(a0: int, a1: int, a2: int, epsilon: int, l: int) -> int:
    """Direct term-by-term substitution into the three density cases."""
    total = 0
    for i in range(0, a0):
        total += 2 * (i + 1) * l**i
    if (a0 - a1) % 2 == 0:
        i = a0
        while i <= (a0 + a1 - 2) // 2:
            total += 2 * (i + 1) * l**i
            i += 1
        if epsilon == 1:
            total += (a0 + 1) * (a2 - a1 + 1) * l ** ((a0 + a1) // 2)
        else:
            total += (a0 + 1) * l ** ((a0 + a1) // 2)
    else:
        i = a0
        while i <= (a0 + a1 - 1) // 2:
            total += 2 * (i + 1) * l**i
            i += 1
    return total


def is_fundamental(d: int) -> bool:
    if d >= 0 or d % 4 not in (0, 1):
        return False
    if d % 4 == 1:
        return _squarefree(-d)
    m = d // 4
    return m % 4 in (2, 3) and _squarefree(-m)


def _squarefree(n: int) -> bool:
    for q in range(2, isqrt(n) + 1):
        if n % (q * q) == 0:
            return False
    return True


def class_number_dirichlet(d: int) -> int:
    """Dirichlet class number formula for a fundamental discriminant d < 0:
    h = w * |sum_{k<|d|} (d|k) * k| / (2|d|)."""
    if not is_fundamental(d):
        raise ValueError(f"{d} is not fundamental")
    w = 6 if d == -3 else 4 if d == -4 else 2
    s = sum(k * kronecker_symbol(d, k) for k in range(1, -d))
    num = w * abs(s)
    assert num % (2 * -d) == 0
    return num // (2 * -d)


def reduced_forms_scan(d: int) -> list[tuple[int, int, int]]:
    """Reduced primitive forms (A, B, C) of discriminant d by a dumb scan
    over A, B."""
    forms = []
    for A in range(1, isqrt(-d // 3) + 1):
        for B in range(-A, A + 1):
            if (B * B - d) % (4 * A):
                continue
            C = (B * B - d) // (4 * A)
            if C < A:
                continue
            if B < 0 and (-B == A or A == C):
                continue
            if gcd(gcd(A, abs(B)), C) != 1:
                continue
            forms.append((A, B, C))
    return forms


def class_number_scan(d: int) -> int:
    return len(reduced_forms_scan(d))


def _j_direct(A: int, B: int, d: int) -> mpmath.mpc:
    """j = E4**3 / (q * prod (1 - q**n)**24) at tau = (-B + sqrt(d))/(2A),
    each factor raised to the 24th power by mpmath, with divisor sums taken
    directly, until 480*n**4*|q|**n drops below the working tolerance."""
    q = mp.exp(2j * mp.pi * (-B + mp.sqrt(mp.mpc(d))) / (2 * A))
    tol = mp.mpf(10) ** -(mp.dps - 5)
    e4, eta24, qn, n = mp.mpc(1), mp.mpc(1), mp.mpc(1), 0
    while True:
        n += 1
        qn *= q
        if n > 8 and 480 * n**4 * abs(qn) < tol:
            return e4**3 / (q * eta24)
        e4 += 240 * sum(k**3 for k in range(1, n + 1) if n % k == 0) * qn
        eta24 *= (1 - qn) ** 24


def singular_moduli_log_oracle(d1: int, d2: int, precision: int) -> mpmath.mpf:
    """4/(w1*w2) * sum log|j(tau1) - j(tau2)| over every pair of classes:
    j evaluated at every reduced form and one log per pair, at `precision`
    digits plus 20 guard digits."""
    units = {-3: 6, -4: 4}
    with mp.workdps(precision + 20):
        js1 = [_j_direct(A, B, d1) for A, B, _ in reduced_forms_scan(d1)]
        js2 = [_j_direct(A, B, d2) for A, B, _ in reduced_forms_scan(d2)]
        total = mp.fsum(mp.log(abs(j1 - j2)) for j1 in js1 for j2 in js2)
        return 4 * total / (units.get(d1, 2) * units.get(d2, 2))


def enumerate_fields_oracle(D: int, dtilde_bound: int) -> list[tuple[int, int, int, int, int]]:
    """(Dtilde, u, v, w0, w1) for every admissible delta = (u + v*sqrt(D))/2
    with Norm(delta) <= dtilde_bound, keeping per (Dtilde, w mod 2) the first
    hit when w0 and w1 each run over all of {0,..,3}.

    It scans the library's (u, v) window, so a comparison isolates the w
    search; every condition is checked here, not through validate_cm_field.
    """
    found: dict[tuple[int, int, int], tuple[int, int, int, int, int]] = {}
    v_max = 4 * (isqrt(4 * dtilde_bound // D) + 1)
    for v in range(1, v_max + 1):
        u_hi = isqrt(4 * dtilde_bound + D * v * v)
        for u in range(-u_hi, 0):
            if (u - v) % 2 or u * u <= D * v * v or (u * u - D * v * v) % 4:
                continue
            dtilde = (u * u - D * v * v) // 4
            if dtilde > dtilde_bound or dtilde % 4 != 1:
                continue
            if isqrt(dtilde) ** 2 == dtilde or not _squarefree(dtilde):
                continue
            delta = QuadElem.from_uv(D, u, v)
            for w0 in range(4):
                for w1 in range(4):
                    w = QuadElem(D, w0, w1)
                    q = w * w - delta
                    key = (dtilde, w0 % 2, w1 % 2)
                    if q.x % 4 == 0 and q.y % 4 == 0 and key not in found:
                        found[key] = (dtilde, u, v, w0, w1)
    return [found[key] for key in sorted(found)]


def _trial_factor(m: int) -> dict[int, int]:
    """{prime: exponent} of m >= 1 by plain trial division."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= m:
        while m % q == 0:
            out[q] = out.get(q, 0) + 1
            m //= q
        q += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _unit_symbol(u: int, l: int) -> int:
    """(u, l)_l for a unit u at the prime l: the Legendre symbol of u by a
    scan of squares for odd l, and (-1)**((u**2 - 1)/8) for l = 2."""
    if l == 2:
        return 1 if u % 8 in (1, 7) else -1
    return legendre_euler(u, l)


def intersection_at_p_oracle(cm: CmFieldData, p: int) -> Fraction:
    """(1/2) * sum (t_p + 1) * prod_l beta_l, summed directly: every n is
    scanned, T(mu*n) comes from brute_force_tmatrices, m is factored by
    trial division and each beta_l is taken from its case table."""
    total = Fraction(0)
    for n in range(1, isqrt(cm.dtilde) + 1):
        rem = cm.dtilde - n * n
        if rem <= 0 or rem % (4 * cm.D) or (rem // (4 * cm.D)) % p:
            continue
        factors = _trial_factor(rem // (4 * cm.D))
        for mu in (1, -1):
            for a, _, c in brute_force_tmatrices(cm, n, mu):
                prod = factors[p] + 1
                for l, t in factors.items():
                    symbol = _unit_symbol(-(a if a % l else c), l)
                    if l == p:
                        prod *= 1 if symbol == -1 and t % 2 else 0
                    elif symbol == 1:
                        prod *= t + 1
                    else:
                        prod *= 1 if t % 2 == 0 else 0
                total += prod
    return total / 2


def b1_at_p_oracle(cm: CmFieldData, p: int) -> int:
    """sum (t_p + 1) * prod_l rho_l, summed directly: every n is scanned,
    T(mu*n) comes from brute_force_tmatrices and m is factored by trial
    division.  The chosen prime above l splits exactly when the unit symbol
    of -alpha_l is 1 (alpha_l = a at l = D); a term vanishes when the prime
    above p splits, and each rho_l is taken from its case table, with
    ord = t_p - 1 at p."""
    total = 0
    for n in range(1, isqrt(cm.dtilde) + 1):
        rem = cm.dtilde - n * n
        if rem <= 0 or rem % (4 * cm.D) or (rem // (4 * cm.D)) % p:
            continue
        factors = _trial_factor(rem // (4 * cm.D))
        for mu in (1, -1):
            for a, _, c in brute_force_tmatrices(cm, n, mu):
                split = {
                    l: _unit_symbol(-(a if l == cm.D or a % l else c), l) == 1
                    for l in factors
                }
                if split[p]:
                    continue
                prod = factors[p] + 1
                for l, t in factors.items():
                    order = t - 1 if l == p else t
                    if split[l]:
                        prod *= order + 1
                    else:
                        prod *= 1 if order % 2 == 0 else 0
                total += prod
    return total

"""Seeded inputs and output checks for the three benchmark workloads.

Each workload turns ``(seed, pass_index)`` into the list of CLI calls of one
pass.  The program receives only the generated ``argv``.  Inputs are drawn so
that the total work of a pass is about the same for every seed: the seed
changes which fields or pairs are computed, not how much there is to compute.
Otherwise a pass would swing 2-3x with the draw and no bound could be kept.

* ``sweep``: ``enumerate-fields --D 5,a,b,c`` and, in the same pass, the
  complementary triple ``--D 5,d,e,f``.  Together they cover all six primes,
  so the pass cost is fixed while the seed decides the split and the order.
* ``large_field``: one ``intersect`` call per D in {5, 13, 17, 29} on a field
  with Dtilde uniform within 5% of ``4*D*LARGE_FIELD_M``, so Dtilde runs from
  1e7 (D = 5) to 5.8e7 (D = 29) and every m = (Dtilde - n**2)/(4D) is below
  about 5e5.  The cost grows like Dtilde/D, so the four calls cost about the
  same and no single field's arithmetic sets the pass time.  D never divides
  Dtilde, because that halves the admissible n and with it the cost.
* ``gz``: eight ``gz`` calls on coprime fundamental discriminants in
  [-2500, -500], each pair of size within 3% of 75, the median size of a
  random pair.  The size ``h(d1) + h(d2) + |d1*d2|/60000`` tracks the oracle
  (class numbers) and the closed form (Dtilde) about equally at the seed
  commit.  Equal sizes keep both the pass time and the median call steady.

The check functions look only at the CLI's exit code and stdout, except the
``large_field`` spot check, which recomputes b1(p) through the library.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

WORKLOADS = ("sweep", "large_field", "gz")
DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Every pass warms up on this tiny field (Dtilde = 41) only, so a cache filled
# by the warm-up holds nothing of the size a timed call needs.
WARMUP_ARGV = (
    "intersect", "--D", "5", "--delta", "-13,1", "--w", "0,1",
    "--verify", "--format", "json", "--jobs", "1",
)

SWEEP_PRIMES = (13, 17, 29, 37, 41, 53)
SWEEP_BOUND = 5000

LARGE_FIELD_DS = (5, 13, 17, 29)
LARGE_FIELD_M = 500_000
LARGE_FIELD_BAND = 0.05
LARGE_FIELD_V = (1, 20)

GZ_RANGE = (-2500, -500)
GZ_PRECISION = 200
GZ_PAIRS = 8
GZ_SIZE = 75
GZ_SIZE_TOLERANCE = 0.03


@dataclass(frozen=True)
class Item:
    """One timed CLI call, with what the checks need to know about it."""

    argv: tuple[str, ...]
    params: tuple[int, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # A string seed is hashed with SHA-512, so the stream is the same on every
    # platform and Python version.
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 2
    return True


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def sweep_item(primes: tuple[int, ...]) -> Item:
    return Item(
        ("enumerate-fields", "--D", ",".join(map(str, (5, *primes))),
         "--bound", str(SWEEP_BOUND), "--format", "json", "--jobs", "1"),
        params=(5, *primes),
    )


def sweep_items(rng: random.Random) -> list[Item]:
    abc = tuple(sorted(rng.sample(SWEEP_PRIMES, 3)))
    rest = tuple(sorted(set(SWEEP_PRIMES) - set(abc)))
    calls = [abc, rest]
    rng.shuffle(calls)
    return [sweep_item(primes) for primes in calls]


def _w_for(D: int, u: int, v: int) -> tuple[int, int] | None:
    """Some w = w0 + w1*(D + sqrt(D))/2 with w**2 = delta mod 4, if any."""
    x, y = (u - v * D) // 2, v
    for w0 in range(4):
        for w1 in range(4):
            rx = w0 * w0 - w1 * w1 * (D * D - D) // 4 - x
            ry = 2 * w0 * w1 + w1 * w1 * D - y
            if rx % 4 == 0 and ry % 4 == 0:
                return (w0, w1)
    return None


def large_field_band(D: int) -> tuple[int, int]:
    centre = 4 * D * LARGE_FIELD_M
    return round(centre * (1 - LARGE_FIELD_BAND)), round(centre * (1 + LARGE_FIELD_BAND))


def large_field(rng: random.Random, D: int) -> tuple[int, int, int, tuple[int, int]]:
    """A valid (Dtilde, u, v, w) for D with Dtilde in the band, D not | Dtilde."""
    lo, hi = large_field_band(D)
    while True:
        target = rng.randrange(lo, hi)
        v = rng.randint(*LARGE_FIELD_V)
        u = -isqrt(4 * target + D * v * v)
        if (u - v) % 2:
            u -= 1
        dtilde4 = u * u - D * v * v
        if dtilde4 % 4:
            continue
        dtilde = dtilde4 // 4
        if not lo <= dtilde < hi or dtilde % 4 != 1 or dtilde % D == 0:
            continue
        if isqrt(dtilde) ** 2 == dtilde or not _is_squarefree(dtilde):
            continue
        w = _w_for(D, u, v)
        if w is not None:
            return dtilde, u, v, w


def large_field_items(rng: random.Random) -> list[Item]:
    items = []
    for D in LARGE_FIELD_DS:
        dtilde, u, v, (w0, w1) = large_field(rng, D)
        items.append(
            Item(
                ("intersect", "--D", str(D), "--delta", f"{u},{v}",
                 "--w", f"{w0},{w1}", "--format", "json", "--jobs", "1"),
                params=(D, dtilde, u, v, w0, w1),
            )
        )
    return items


def class_number(d: int) -> int:
    """Number of reduced primitive forms of discriminant d < 0."""
    count = 0
    for b in range(d % 2, isqrt(-d // 3) + 1, 2):
        rem = (b * b - d) // 4
        for a in range(max(b, 1), isqrt(rem) + 1):
            if rem % a == 0 and gcd(gcd(a, b), rem // a) == 1:
                count += 2 if 0 < b < a < rem // a else 1
    return count


GZ_DISCRIMINANTS = tuple(
    d for d in range(GZ_RANGE[0], GZ_RANGE[1] + 1) if d % 4 == 1 and _is_squarefree(-d)
)


def gz_size(d1: int, d2: int, h: dict[int, int]) -> float:
    for d in (d1, d2):
        if d not in h:
            h[d] = class_number(d)
    return h[d1] + h[d2] + d1 * d2 / 60000


def gz_items(rng: random.Random) -> list[Item]:
    h: dict[int, int] = {}
    used: set[int] = set()
    items = []
    while len(items) < GZ_PAIRS:
        d1, d2 = rng.sample(GZ_DISCRIMINANTS, 2)
        if d1 in used or d2 in used or gcd(d1, d2) != 1:
            continue
        if abs(gz_size(d1, d2, h) - GZ_SIZE) > GZ_SIZE_TOLERANCE * GZ_SIZE:
            continue
        used.update((d1, d2))
        items.append(
            Item(
                ("gz", "--d1", str(d1), "--d2", str(d2),
                 "--precision", str(GZ_PRECISION), "--format", "json"),
                params=(d1, d2),
            )
        )
    return items


_GENERATORS = {"sweep": sweep_items, "large_field": large_field_items, "gz": gz_items}


def generate(workload: str, seed: int, pass_index: int) -> list[Item]:
    """The CLI calls of one pass; the same arguments give the same calls."""
    return _GENERATORS[workload](_rng(workload, seed, pass_index))


def canonical(workload: str, stdout: str) -> str:
    """The part of an item's stdout the digest covers, in one fixed layout.

    The GZ discrepancy is left out: it sits at the 1e-200 noise level and is
    checked against the tolerance instead.
    """
    payload = json.loads(stdout)
    if workload == "gz":
        payload.pop("discrepancy", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(workload: str, stdout: str) -> str:
    return hashlib.sha256(canonical(workload, stdout).encode()).hexdigest()


def load_digests() -> dict[str, dict[str, str]]:
    """Pinned stdout digests: workload -> CLI argv (joined) -> sha256."""
    return json.loads(DIGESTS_PATH.read_text())


def _coeff(term: dict) -> Fraction:
    return Fraction(term["coeff"]["num"], term["coeff"]["den"])


def _check_terms(terms: list, D: int, dtilde: int) -> str | None:
    primes = [t["p"] for t in terms]
    if primes != sorted(set(primes)):
        return "support primes not strictly increasing"
    for t in terms:
        c = _coeff(t)
        if not (c > 0 and (2 * c).denominator == 1):
            return f"coefficient {c} at p={t['p']} not in (1/2)Z>0"
        if not _is_prime(t["p"]) or 4 * D * t["p"] > dtilde:
            return f"support prime {t['p']} out of range"
    return None


def check(workload: str, item: Item, rc: int, stdout: str) -> tuple[int, str | None]:
    """(units completed, failure reason or None) from one call's output."""
    if rc != 0:
        return 0, f"exit code {rc}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return 0, f"stdout is not JSON: {exc}"
    if workload == "sweep":
        fields = payload["fields"]
        summary = payload["summary"]
        if not fields or summary != {"count": len(fields), "verified": len(fields)}:
            return 0, f"summary {summary} for {len(fields)} fields"
        for f in fields:
            if f["D"] not in item.params or not f["verified"]:
                return 0, f"field D={f['D']} Dtilde={f['Dtilde']} not verified"
            if any(t["b1"] != 2 * _coeff(t) for t in f["terms"]):
                return 0, f"b1 != 2*coeff for D={f['D']} Dtilde={f['Dtilde']}"
            reason = _check_terms(f["terms"], f["D"], f["Dtilde"])
            if reason:
                return 0, reason
        return len(fields), None
    if workload == "large_field":
        D, dtilde = item.params[:2]
        if (payload["D"], payload["Dtilde"]) != (D, dtilde):
            return 0, f"echoed field {payload['D']}, {payload['Dtilde']}"
        reason = _check_terms(payload["terms"], D, dtilde)
        return (0 if reason else 1), reason
    d1, d2 = item.params
    if (payload["d1"], payload["d2"]) != (d1, d2) or payload["within_tolerance"] is not True:
        return 0, f"oracle mismatch, discrepancy {payload['discrepancy']}"
    reason = _check_terms(payload["terms"], 1, d1 * d2)
    return (0 if reason else 1), reason


def gate(
    workload: str, item: Item, rc: int, stdout: str, pinned: dict[str, str]
) -> tuple[int, str | None, str | None]:
    """(units completed, failure reason or None, digest) of one call: the
    output checks, then the pinned digest when the call's argv is pinned."""
    units, reason = check(workload, item, rc, stdout)
    if reason is not None:
        return units, reason, None
    dig = digest(workload, stdout)
    if item.key in pinned and pinned[item.key] != dig:
        return units, "stdout digest differs from the pinned digest", dig
    return units, None, dig


def b1_mismatch(item: Item, stdout: str) -> str | None:
    """Check b1(p) == 2*c_p on the support by the library's reflex route."""
    from hilbertcm.intersect import b1_at_p
    from hilbertcm.quadcm import validate_cm_field

    D, _dtilde, u, v, w0, w1 = item.params
    cm = validate_cm_field(D, (u, v), (w0, w1))
    for t in json.loads(stdout)["terms"]:
        if b1_at_p(cm, t["p"]) != 2 * _coeff(t):
            return f"b1({t['p']}) != 2*c_p for {item.key}"
    return None

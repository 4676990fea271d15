"""One timed pass of a workload, in the fresh process that runs this file.

    python3 perfbench/passrun.py WORKLOAD SEED PASS_INDEX {time,trace,setup}

Set-up is the import of the package, the input generation and one warm-up
call on a fixed tiny field; in ``setup`` mode the pass ends there.  Otherwise
every generated CLI call is timed once, through ``hilbertcm.cli.main`` in this
process, with the tracer installed in ``trace`` mode, and its stdout is kept
for the checks.  The checks run after the timing and after the peak RSS is
read.

While the calls run, a timer signal interrupts them five times a second to
time ``reference``, a few milliseconds of fixed pure-Python integer work, and
that time is taken out of the call's latency.  The host's speed drifts by 20%
and more, and switches between a fast and a slow state within seconds; the
mean of these samples is the host's speed over exactly the timed intervals,
and lets the benchmark scale its times to one nominal host speed.

Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hilbertcm.cli  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PROBE_INTERVAL_S = 0.2


def reference() -> float:
    """Seconds taken by a fixed mix of trial division, modular powers,
    Fractions and dict stores: the same kinds of work as the package's."""
    start = time.perf_counter()
    residues: dict[int, int] = {}
    acc = 0
    for n in range(100001, 100801, 2):
        m, p = n, 3
        while p * p <= m and p < 40:
            if m % p:
                p += 2
            else:
                m //= p
        residues[n % 97] = m
        acc += pow(3, n, n) + (Fraction(n, p) < 1)
    return time.perf_counter() - start


class SpeedProbe:
    """Times ``reference`` from a SIGALRM handler every PROBE_INTERVAL_S
    while active.  ``spent`` is the time the handler took, so callers can
    take it out of what they measure."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def call(argv: list[str]) -> tuple[int, str, str | None]:
    """(exit code, stdout, error) of one in-process CLI call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = hilbertcm.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed item, not a failed benchmark
        return -1, out.getvalue(), traceback.format_exc(limit=3)
    return rc, out.getvalue(), None


def run_pass(workload: str, seed: int, pass_index: int, mode: str) -> dict:
    if not Path(hilbertcm.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hilbertcm imported from {hilbertcm.__file__}, not {ROOT / 'src'}")
    items = workloads.generate(workload, seed, pass_index)
    rc, _, error = call(list(workloads.WARMUP_ARGV))
    if rc != 0:
        raise SystemExit(f"warm-up failed with exit code {rc}: {error}")
    if mode == "setup":
        return {"setup_s": time.perf_counter() - _T0}
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    setup_s = time.perf_counter() - _T0
    results = []
    wall_s = 0.0
    # The probe would add its own time to the spans, so traced passes go without.
    probe = SpeedProbe()
    with probe if tracer is None else contextlib.nullcontext():
        for item in items:
            spent = probe.spent
            t = time.perf_counter()
            rc, stdout, error = call(list(item.argv))
            latency = time.perf_counter() - t - (probe.spent - spent)
            wall_s += latency
            results.append((item, rc, stdout, error, latency))
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pinned = workloads.load_digests().get(workload, {})
    report_items = []
    for i, (item, rc, stdout, error, latency) in enumerate(results):
        units, reason, dig = workloads.gate(workload, item, rc, stdout, pinned)
        if error:
            reason = error
        # One large field per pass is re-checked by the reflex route b1.
        if reason is None and workload == "large_field" and i == pass_index % len(results):
            reason = workloads.b1_mismatch(item, stdout)
        report_items.append(
            {
                "argv": list(item.argv),
                "latency_s": latency,
                "units": units,
                "digest": dig,
                "pinned": item.key in pinned,
                "failure": reason,
            }
        )
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_s": probe.samples,
        "peak_rss_mb": peak_rss_mb,
        "items": report_items,
    }
    if tracer:
        report["trace"] = {"summary": tracer.summary(), "support_primes": tracer.support_primes}
    return report


def main() -> None:
    workload, seed, pass_index, mode = sys.argv[1:5]
    if mode not in ("time", "trace", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    report = run_pass(workload, int(seed), int(pass_index), mode)
    print(json.dumps(report))


if __name__ == "__main__":
    main()

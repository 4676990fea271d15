"""The hilbertcm benchmark: seeded CLI workloads, timed pass by pass.

    python3 perfbench/run.py --workload {sweep,large_field,gz} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from anywhere; it finds the package in ``src/`` next to this
directory and exits with code 2 if it is not there.

Every pass runs in a fresh process (``passrun.py``), one at a time, and never
repeats a timed input within that process, so a cache must earn its gain
inside one pass, as it would in a user's one-shot CLI call.  Passes are
started until about ``--seconds`` have gone by.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, as the
median over passes; ``item_p50_s`` is the median over passes of each pass's
median call latency.  Their times are scaled to a nominal host speed: while
the calls run, each pass samples a fixed reference computation five times a
second (``passrun.SpeedProbe``), and the pass's times are multiplied by
``REFERENCE_NOMINAL_S / mean reference time`` of the pass (set-up, which runs
before any sample, by that of the run).  On a 2-vCPU sandbox the unscaled
time of identical work drifted by 20% and more between runs; over ten runs,
scaling cut the spread (IQR/median) of ``wall_s`` from 6.6% to 1.0% on sweep
and from 10.8% to 6.0% on large_field.  The unscaled values are kept in the
results file.

With ``--trace 1`` it holds the per-layer metrics from a traced pass; the
same pass is also run untraced, for the tracing overhead and to check that
tracing does not change any output.  The untraced pass and the traced pass
are repeated, as a pair, while time allows.  Self times are reported as a
share of the traced pass, so a function a workload never reaches reads 0%.
The per-layer metrics, and where a change to that layer should show first:

    quadcm.enumerate_fields.self_pct, quadcm.validate_cm_field.calls,
    quadcm.fields_per_validation          sweep wall_s; nothing elsewhere
    tmatrix.admissible_n.*                large_field wall_s, then sweep
    tmatrix.build_tmatrix.*               sweep, large_field
    exactnum.factorize.*                  large_field, gz; sweep less
    exactnum.is_prime, padic_valuation    large_field, sweep
    exactnum.hilbert_symbol.*             sweep, large_field
    exactnum.kronecker_symbol.calls       gz, sweep
    intersect.intersection_total.self_pct,
    intersection_at_p.calls, support_ratio  large_field, sweep
    intersect.b1_at_p.*                   sweep only; 0 elsewhere
    gzmoduli.*                            gz only; 0 elsewhere
    cli.main.self_pct                     every workload; about 0

Each run also writes a results file with its provenance and every pass under
``.perfbench_results/`` at the repository root.  ``--workload all`` prints a
table of every end-to-end metric, with ``error_rate``, for all workloads.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench_results"
RUN_LIMIT_S = 170  # the whole run must end within 180 s
# The reference's mean time on the sandbox the bounds were set on, so that
# scaled times read close to seconds there.
REFERENCE_NOMINAL_S = 0.0022
SETUP_SAMPLES = 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "peak_rss_mb": "MB",
}

# Wrapped functions each workload must reach: a zero count means the trace
# missed a rebinding or the workload no longer exercises that layer.
_COMMON = {"cli.main", "quadcm.validate_cm_field", "exactnum.factorize",
           "exactnum.is_prime", "exactnum.padic_valuation"}
_FIELD = _COMMON | {"tmatrix.admissible_n", "tmatrix.build_tmatrix",
                    "exactnum.hilbert_symbol", "intersect.intersection_total",
                    "intersect.intersection_at_p"}
REACHED = {
    "sweep": _FIELD | {"quadcm.enumerate_fields", "intersect.b1_at_p",
                       "exactnum.kronecker_symbol"},
    "large_field": _FIELD,
    "gz": (_COMMON - {"quadcm.validate_cm_field"}) | {
        "exactnum.kronecker_symbol", "gzmoduli.gz_total",
        "gzmoduli.gz_intersection_at_p", "gzmoduli.singular_moduli_log",
        "gzmoduli.j_invariant"},
}


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        from importlib.metadata import version
        mpmath_version = version("mpmath")
    except ImportError:
        mpmath_version = None
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def run_child(workload: str, seed: int, pass_index: int, mode: str, deadline: float) -> dict:
    """One pass in a fresh process; a child that fails reports every item failed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "passrun.py"), workload, str(seed), str(pass_index), mode]
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
        error = f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        error = "pass timed out"
    items = workloads.generate(workload, seed, pass_index)
    return {"error": error, "items": [
        {"argv": list(i.argv), "latency_s": None, "units": 0, "digest": None,
         "pinned": False, "failure": error} for i in items]}


def _failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    items = [item for p in passes for item in p["items"]]
    reasons = [f"{' '.join(i['argv'])}: {i['failure']}" for i in items if i["failure"]]
    return len(items), len(reasons), reasons


def _medians(ok: list[dict], setups: list[float], speeds: list[float],
             setup_speed: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median([p["setup_s"] for p in ok] + setups) * setup_speed,
        "wall_s": statistics.median(p["wall_s"] * s for p, s in zip(ok, speeds)),
        "items_per_s": statistics.median(
            sum(i["units"] for i in p["items"]) / (p["wall_s"] * s) for p, s in zip(ok, speeds)),
        "item_p50_s": statistics.median(
            statistics.median(i["latency_s"] for i in p["items"]) * s
            for p, s in zip(ok, speeds)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
    }


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """(unscaled, scaled) medians over the passes that ran.  Each pass is
    scaled by its own mean reference time; set-up, which runs before any
    probe, by the run's."""
    ok = [p for p in passes if "error" not in p]
    if not ok:
        return {}, {}
    run_ref = statistics.mean(r for p in ok for r in p["reference_s"])
    speeds = [REFERENCE_NOMINAL_S / statistics.mean(p["reference_s"] or [run_ref]) for p in ok]
    raw = _medians(ok, setups, [1.0] * len(ok), 1.0)
    raw["reference_s"] = run_ref
    return raw, _medians(ok, setups, speeds, REFERENCE_NOMINAL_S / run_ref)


def timed_run(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        passes.append(run_child(workload, seed, len(passes), "time", deadline))
        now = time.monotonic()
        per_pass = (now - start) / len(passes)
        if now - start + per_pass > seconds or now + 2 * per_pass > deadline \
                or "error" in passes[-1]:
            break
    # Set-up is short and noisy, so it gets extra samples from processes that
    # stop after set-up, on inputs no timed pass used.
    setups = [
        run_child(workload, seed, k, "setup", deadline).get("setup_s")
        for k in range(len(passes), SETUP_SAMPLES)
    ]
    attempted, failed, reasons = _failures(passes)
    if None in setups:
        reasons.append("a set-up-only process failed")
    raw, metrics = end_to_end(passes, [s for s in setups if s is not None])
    return {
        "correct": failed == 0 and None not in setups and len(metrics) == len(END_TO_END_UNITS),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "unscaled": raw,
        "error_rate": failed / attempted,
        "samples": {"passes": len(passes), "items": attempted,
                    "setups": len(passes) + len(setups)},
        "failures": reasons[:20],
        "passes": passes,
    }


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: counts from the first traced pass, time shares
    as the median over the traced passes."""
    first = traced[0]["trace"]
    s = first["summary"]
    out: dict[str, tuple[float, str]] = {}

    def share(name: str, field: str = "self_s") -> float:
        return statistics.median(_pct(p["trace"]["summary"][name][field], p["wall_s"])
                                 for p in traced)

    for name in ("quadcm.enumerate_fields", "tmatrix.admissible_n", "tmatrix.build_tmatrix",
                 "exactnum.factorize", "exactnum.hilbert_symbol",
                 "intersect.intersection_total", "intersect.b1_at_p", "gzmoduli.gz_total",
                 "gzmoduli.j_invariant", "cli.main"):
        out[f"{name}.self_pct"] = (share(name), "%")
    out["gzmoduli.singular_moduli_log.total_pct"] = (
        share("gzmoduli.singular_moduli_log", "total_s"), "%")
    for name in ("quadcm.validate_cm_field", "tmatrix.admissible_n", "tmatrix.build_tmatrix",
                 "exactnum.factorize", "exactnum.is_prime", "exactnum.padic_valuation",
                 "exactnum.hilbert_symbol", "exactnum.kronecker_symbol",
                 "intersect.intersection_at_p", "intersect.b1_at_p",
                 "gzmoduli.gz_intersection_at_p", "gzmoduli.j_invariant"):
        out[f"{name}.calls"] = (s[name]["calls"], "count")
    for name in ("tmatrix.build_tmatrix", "exactnum.factorize"):
        out[f"{name}.distinct_ratio"] = (s[name]["distinct_ratio"], "ratio")
    validations = s["quadcm.validate_cm_field"]
    out["quadcm.fields_per_validation"] = (
        (validations["calls"] - validations["errors"]) / validations["calls"]
        if validations["calls"] else 0.0, "ratio")
    at_p = s["intersect.intersection_at_p"]["calls"]
    out["intersect.support_ratio"] = (first["support_primes"] / at_p if at_p else 0.0, "ratio")
    out["grosskeating.calls"] = (
        sum(v["calls"] for k, v in s.items() if k.startswith("grosskeating.")), "count")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def trace_checks(workload: str, traced: list[dict], untraced: list[dict]) -> list[str]:
    """Tracing must not change an output, counts must repeat, and every
    function the workload reaches must be seen."""
    problems = []
    reference = [i["digest"] for i in untraced[0]["items"]]
    for p in traced + untraced:
        if [i["digest"] for i in p["items"]] != reference:
            problems.append("a traced or repeated pass changed an output digest")
            break
    counts = [{k: v["calls"] for k, v in p["trace"]["summary"].items()} for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("call counts differ between traced repeats of one pass")
    problems += [f"{name} reports 0 calls" for name in sorted(REACHED[workload])
                 if counts[0][name] == 0]
    return problems


def traced_run(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    traced: list[dict] = []
    untraced: list[dict] = []
    start = time.monotonic()
    while True:
        untraced.append(run_child(workload, seed, 0, "time", deadline))
        traced.append(run_child(workload, seed, 0, "trace", deadline))
        now = time.monotonic()
        per_pair = (now - start) / len(traced)
        if any("error" in p for p in traced + untraced) or \
                now - start + per_pair > seconds or now + 2 * per_pair > deadline:
            break
    attempted, failed, reasons = _failures(traced + untraced)
    problems = [] if failed else trace_checks(workload, traced, untraced)
    metrics = {} if failed else per_layer(traced, untraced)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "error_rate": failed / attempted,
        "samples": {"traced_passes": len(traced), "untraced_passes": len(untraced)},
        "failures": (reasons + problems)[:20],
        "passes": untraced + traced,
    }


def run(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    info = provenance()
    body = (traced_run if trace else timed_run)(workload, seed, seconds, deadline)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": info, **body}
    RESULTS.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def summary_line(record: dict) -> dict:
    return {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "hilbertcm" / "cli.py").is_file():
        print(f"error: no hilbertcm package under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    if args.workload == "all":
        records = {}
        for workload in workloads.WORKLOADS:
            records[workload] = run(workload, args.seed, args.seconds, False,
                                    time.monotonic() + RUN_LIMIT_S)
        print(f"{'workload':<12}" + "".join(f"{k + ' (' + u + ')':>20}" for k, u in
                                             [*END_TO_END_UNITS.items(), ("error_rate", "1")]))
        for workload, record in records.items():
            values = [record["metrics"].get(k, {}).get("value", float("nan"))
                      for k in END_TO_END_UNITS] + [record["error_rate"]]
            print(f"{workload:<12}" + "".join(f"{v:>20.6g}" for v in values))
        print(json.dumps({w: summary_line(r) for w, r in records.items()}))
        return 0 if all(r["correct"] for r in records.values()) else 1

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    print(f"{args.workload} seed={args.seed}: samples {record['samples']}, "
          f"error_rate {record['error_rate']:.4g}", file=sys.stderr)
    for reason in record["failures"]:
        print(f"  FAILED {reason}", file=sys.stderr)
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own parts: input generation, span arithmetic,
tracing by rebinding, and the output gate.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import signal
import sys
import time
import types
from contextlib import redirect_stdout
from math import gcd
from pathlib import Path

import pytest

import workloads
from tracer import Tracer, self_times

# The package under test is the one in this checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7, 2) == workloads.generate(workload, 7, 2)
    draws = {tuple(i.argv for i in workloads.generate(workload, seed, 0)) for seed in range(6)}
    assert len(draws) > 1


def test_sweep_pass_covers_every_prime_once():
    for seed in range(10):
        items = workloads.generate("sweep", seed, 0)
        primes = [p for item in items for p in item.params if p != 5]
        assert sorted(primes) == list(workloads.SWEEP_PRIMES)
        assert all(item.argv[-2:] == ("--jobs", "1") for item in items)


def test_large_fields_stay_in_the_band():
    for seed in range(5):
        items = workloads.generate("large_field", seed, 0)
        assert [item.params[0] for item in items] == list(workloads.LARGE_FIELD_DS)
        for D, dtilde, u, v, _w0, _w1 in (item.params for item in items):
            lo, hi = workloads.large_field_band(D)
            assert lo <= dtilde < hi and dtilde % D and dtilde % 4 == 1
            assert u * u - D * v * v == 4 * dtilde and u < 0


def test_gz_pairs_have_the_nominal_size():
    h: dict[int, int] = {}
    for seed in range(5):
        items = workloads.generate("gz", seed, 0)
        assert len(items) == workloads.GZ_PAIRS
        discs = [d for item in items for d in item.params]
        assert len(set(discs)) == len(discs)
        for d1, d2 in (item.params for item in items):
            assert gcd(d1, d2) == 1
            size = workloads.gz_size(d1, d2, h)
            assert abs(size - workloads.GZ_SIZE) <= workloads.GZ_SIZE_TOLERANCE * workloads.GZ_SIZE


def test_class_numbers():
    # h(-23) = 3, h(-47) = 5, h(-71) = 7, h(-199) = 9 (classical values)
    assert [workloads.class_number(d) for d in (-3, -23, -47, -71, -199)] == [1, 3, 5, 7, 9]


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [9, 12]
    # (running past the root's end); [2, 5] has a child [3, 4].
    names = [0, 1, 1, 1, 2]
    parents = [-1, 0, 0, 0, 2]
    starts = [0.0, 1.0, 2.0, 9.0, 3.0]
    ends = [10.0, 3.0, 5.0, 12.0, 4.0]
    assert self_times(names, parents, starts, ends) == [5.0, 2.0, 2.0, 3.0, 1.0]


@pytest.fixture
def fake_package(monkeypatch):
    """A two-module package where one module imports the other's function
    by name, as hilbertcm's modules do."""
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")
    exec("def work(n):\n    return n * 2\n\ndef count(n):\n    return n\n", low.__dict__)
    high.__dict__.update(work=low.work, count=low.count)
    exec("def run(n):\n    return sum(work(i) + count(i) for i in range(n))\n", high.__dict__)
    for mod in (pkg, low, high):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return low, high


def test_tracer_rebinds_every_namespace_and_restores(fake_package):
    low, high = fake_package
    original = low.work
    tracer = Tracer([("high", "run"), ("low", "work")], [("low", "count")], package="fakepkg")
    tracer.install()
    assert high.work is low.work is not original
    assert high.run(4) == 2 * 6 + 6
    tracer.uninstall()
    assert high.work is low.work is original
    summary = tracer.summary()
    assert summary["high.run"]["calls"] == 1
    assert summary["low.work"]["calls"] == 4
    assert summary["low.count"] == {"calls": 4}
    run, work = summary["high.run"], summary["low.work"]
    assert run["self_s"] == pytest.approx(run["total_s"] - work["total_s"])


def test_speed_probe_samples_while_active_and_restores_the_handler():
    import passrun

    previous = signal.getsignal(signal.SIGALRM)
    with passrun.SpeedProbe() as probe:
        end = time.perf_counter() + 3 * passrun.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2
    assert probe.spent >= sum(probe.samples) > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _cli(argv):
    from hilbertcm.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


def test_gate_rejects_a_mutated_output():
    item = workloads.Item(
        ("intersect", "--D", "5", "--delta", "-30,8", "--w", "1,0",
         "--format", "json", "--jobs", "1"),
        (5, 145, -30, 8, 1, 0),
    )
    rc, stdout = _cli(item.argv)
    pinned = {item.key: workloads.digest("large_field", stdout)}
    assert workloads.gate("large_field", item, rc, stdout, pinned)[:2] == (1, None)
    assert workloads.b1_mismatch(item, stdout) is None

    payload = json.loads(stdout)
    assert workloads.gate("large_field", item, rc, json.dumps(payload), pinned)[1] is None
    payload["terms"][0]["coeff"]["num"] += 2
    mutated = json.dumps(payload)
    units, reason, _ = workloads.gate("large_field", item, rc, mutated, pinned)
    assert reason == "stdout digest differs from the pinned digest"
    assert workloads.b1_mismatch(item, mutated) is not None
    assert workloads.gate("large_field", item, 1, stdout, pinned)[1] == "exit code 1"


def test_gate_rejects_an_unverified_sweep_field():
    item = workloads.Item(
        ("enumerate-fields", "--D", "5", "--bound", "200", "--format", "json", "--jobs", "1"),
        (5,),
    )
    rc, stdout = _cli(item.argv)
    units, reason, _ = workloads.gate("sweep", item, rc, stdout, {})
    assert reason is None and units == json.loads(stdout)["summary"]["count"] > 0
    payload = json.loads(stdout)
    payload["fields"][0]["verified"] = False
    assert workloads.gate("sweep", item, rc, json.dumps(payload), {})[1] is not None


def test_gz_digest_ignores_only_the_discrepancy():
    rc, stdout = _cli(("gz", "--d1", "-7", "--d2", "-15", "--precision", "40", "--format", "json"))
    item = workloads.Item(("gz",), (-7, -15))
    payload = json.loads(stdout)
    assert workloads.check("gz", item, rc, stdout) == (1, None)
    base = workloads.digest("gz", stdout)
    payload["discrepancy"] = 1e-100
    assert workloads.digest("gz", json.dumps(payload)) == base
    payload["terms"][0]["coeff"]["num"] += 1
    assert workloads.digest("gz", json.dumps(payload)) != base

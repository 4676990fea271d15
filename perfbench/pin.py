"""Pin the stdout digests that the benchmark's correctness gate compares.

    python3 perfbench/pin.py

Runs every CLI call of the pinned passes in this process, confirms each output
by its independent route before pinning it, and rewrites ``digests.json``:

* ``sweep``: all 20 triples, so every sweep call is always gated.  Each field
  carries ``verified`` from the CLI's own b1 route, and b1 = 2*c_p is
  re-checked on every term.
* ``large_field``: b1(p) = 2*c_p on the whole support, by the reflex route,
  since the workload runs ``intersect`` without ``--verify``.
* ``gz``: the singular-moduli oracle agrees within the CLI's tolerance.

Re-pin only when an output is meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations

import workloads
from passrun import call

PINNED_SEEDS = range(10)
PINNED_PASSES = {"large_field": 2, "gz": 2}


def pinned_items(workload: str) -> list[workloads.Item]:
    if workload == "sweep":
        return [workloads.sweep_item(abc) for abc in combinations(workloads.SWEEP_PRIMES, 3)]
    return [
        item
        for seed in PINNED_SEEDS
        for k in range(PINNED_PASSES[workload])
        for item in workloads.generate(workload, seed, k)
    ]


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        digests[workload] = {}
        for item in pinned_items(workload):
            rc, stdout, error = call(list(item.argv))
            _, reason, dig = workloads.gate(workload, item, rc, stdout, {})
            if reason is None and workload == "large_field":
                reason = workloads.b1_mismatch(item, stdout)
            if error or reason:
                print(f"not pinned, {item.key}: {error or reason}", file=sys.stderr)
                return 1
            digests[workload][item.key] = dig
        print(f"{workload}: {len(digests[workload])} digests", file=sys.stderr)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

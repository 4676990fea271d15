"""Per-layer tracing by wrapping the package's public functions from outside.

The package binds names such as ``prime_factors`` into other modules with
``from .exactnum import ...``, so a wrapper is installed in every loaded
``hilbertcm`` module namespace that holds the original function object.

Span functions record one span per call (name, parent, start, end) into flat
arrays, so millions of calls stay cheap in memory.  Count functions, which are
called too often to time, only count.  Self time is computed once at the end:
a span's duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Sequence

# (module, function) pairs.  Every span function is timed; the count
# functions are only counted.
SPAN_FUNCS = (
    ("cli", "main"),
    ("quadcm", "enumerate_fields"),
    ("quadcm", "validate_cm_field"),
    ("tmatrix", "admissible_n"),
    ("tmatrix", "build_tmatrix"),
    ("exactnum", "factorize"),
    ("exactnum", "hilbert_symbol"),
    ("intersect", "intersection_total"),
    ("intersect", "intersection_at_p"),
    ("intersect", "b1_at_p"),
    ("gzmoduli", "gz_total"),
    ("gzmoduli", "gz_intersection_at_p"),
    ("gzmoduli", "singular_moduli_log"),
    ("gzmoduli", "j_invariant"),
)
COUNT_FUNCS = (
    ("exactnum", "is_prime"),
    ("exactnum", "padic_valuation"),
    ("exactnum", "kronecker_symbol"),
    ("grosskeating", "gk_invariants"),
    ("grosskeating", "gk_index"),
    ("grosskeating", "gk_density"),
    ("grosskeating", "is_isotropic"),
)

# Arguments that identify the work of one call, for the distinct ratios.
_DISTINCT_KEYS: dict[str, Callable[..., object]] = {
    "tmatrix.build_tmatrix": lambda cm, n, mu: (cm, n, mu),
    "exactnum.factorize": lambda n: n,
}


def self_times(
    names: Sequence[int], parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i in range(len(names)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Collects spans and counts for the span and count functions while
    installed."""

    def __init__(
        self,
        span_funcs: Iterable[tuple[str, str]] = SPAN_FUNCS,
        count_funcs: Iterable[tuple[str, str]] = COUNT_FUNCS,
        package: str = "hilbertcm",
    ) -> None:
        self.package = package
        self.span_funcs = [f"{m}.{f}" for m, f in span_funcs]
        self.count_funcs = [f"{m}.{f}" for m, f in count_funcs]
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(self.count_funcs, 0)
        self.errors = dict.fromkeys(self.span_funcs, 0)
        self.distinct: dict[str, set] = {
            name: set() for name in _DISTINCT_KEYS if name in self.span_funcs}
        self.support_primes = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _modules(self) -> list:
        return [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def _span_wrapper(self, index: int, name: str, fn: Callable) -> Callable:
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter
        key = _DISTINCT_KEYS.get(name)
        seen = self.distinct.get(name)
        errors = self.errors
        collect_support = name == "intersect.intersection_total"

        def wrapper(*args, **kwargs):
            if key is not None:
                seen.add(key(*args, **kwargs))
            span = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                ends[span] = clock()
                starts[span] = start
                stack.pop()
            if collect_support:
                self.support_primes += len(result.terms)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in each package module that holds it."""
        modules = self._modules()
        by_name = {mod.__name__: mod for mod in modules}
        for index, name in enumerate(self.span_funcs + self.count_funcs):
            mod_name, fn_name = name.split(".")
            original = getattr(by_name[f"{self.package}.{mod_name}"], fn_name)
            if index < len(self.span_funcs):
                wrapped = self._span_wrapper(index, name, original)
            else:
                wrapped = self._count_wrapper(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span function: calls, self_s, total_s and errors; plus the
        count functions' calls."""
        selfs = self_times(self.names, self.parents, self.starts, self.ends)
        out = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": self.errors[name]}
            for name in self.span_funcs
        }
        for i, index in enumerate(self.names):
            entry = out[self.span_funcs[index]]
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            entry["total_s"] += self.ends[i] - self.starts[i]
        for name, calls in self.counts.items():
            out[name] = {"calls": calls}
        for name, seen in self.distinct.items():
            calls = out[name]["calls"]
            out[name]["distinct_ratio"] = len(seen) / calls if calls else 0.0
        return out

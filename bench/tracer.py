"""Spans around the calls between the package's layers, from outside it.

The package carries no tracing of its own.  During a traced pass the
Tracer replaces selected public functions, in every toughgraph module
that holds them, by wrappers that record a span (name, start, end) and
a few counts taken from the return value.  The verifier times each of
its checks itself; wrapping its CheckOutcome constructor turns those
timings into spans too.  Parents are found when the pass ends: a
span's parent is the shortest longer span of the same operation that
covers its midpoint.  A layer's self time is its span's duration minus
the durations of its children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import ModuleType
from typing import Callable, Optional

# (module, function) -> span name; all regime constructors share one name
TRACED = {
    ("synth", "synthesize"): "synth.synthesize",
    ("synth", "plan"): "synth.plan",
    ("synth", "build"): "synth.build",
    ("synth", "certificate_to_json"): "synth.certificate_to_json",
    ("synth", "certificate_from_json"): "synth.certificate_from_json",
    ("blocks", "g_construct"): "blocks.construct",
    ("blocks", "complete_bipartite"): "blocks.construct",
    ("blocks", "unit_toughness_graph"): "blocks.construct",
    ("blocks", "matched_layers"): "blocks.construct",
    ("blocks", "petersen"): "blocks.construct",
    ("blocks", "inflate_triangles"): "blocks.construct",
    ("graphs", "encode_graph6"): "graphs.encode_graph6",
    ("graphs", "decode_graph6"): "graphs.decode_graph6",
    ("graphs", "components"): "graphs.components",
    ("verify", "check_certificate"): "verify.check_certificate",
    ("oracles", "toughness_exact"): "oracles.toughness_exact",
    ("oracles", "is_hamiltonian"): "oracles.is_hamiltonian",
    ("oracles", "has_hamilton_path"): "oracles.has_hamilton_path",
    ("oracles", "independence_number"): "oracles.independence_number",
}

# verifier check name -> span name
CHECKS = {
    "rebuild": "verify.rebuild",
    "witness": "verify.witness",
    "nonhamiltonicity": "verify.nonhamiltonicity",
    "toughness-oracle": "verify.toughness",
    "toughness-witness-only": "verify.toughness",
}


def _count_edges(counts: Counter, graph) -> None:
    counts["graphs.edges"] += graph.edge_count


# span name -> what to count from the call's return value
COUNTERS: dict[str, Callable[[Counter, object], None]] = {
    "synth.build": lambda c, r: _count_edges(c, r[0]),
    "graphs.decode_graph6": _count_edges,
    "graphs.encode_graph6": lambda c, r: c.update({"graphs.g6_bytes": len(r)}),
    "oracles.toughness_exact": lambda c, r: c.update({"oracles.toughness_exact.calls": 1}),
    "oracles.is_hamiltonian": lambda c, r: c.update({"oracles.hamilton.nodes": r.nodes}),
    "oracles.has_hamilton_path": lambda c, r: c.update({"oracles.hamilton.nodes": r.nodes}),
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float]] = []  # op, name, start, end
        self.counts: Counter = Counter()
        self.op = 0

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((self.op, name, start, end))

    def _wrap(self, fn: Callable, name: str) -> Callable:
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.record(name, start, perf_counter())
            if count:
                count(self.counts, result)
            return result

        return traced

    def install(self, tg: ModuleType) -> Callable[[], None]:
        """Wrap the traced functions wherever a toughgraph module binds
        them; returns the function that puts the originals back."""
        modules = [m for k, m in sys.modules.items()
                   if k == tg.__name__ or k.startswith(tg.__name__ + ".")]
        swaps = {}
        for (module, attr), name in TRACED.items():
            original = getattr(sys.modules[f"{tg.__name__}.{module}"], attr)
            swaps[id(original)] = (original, self._wrap(original, name))
        verify = sys.modules[f"{tg.__name__}.verify"]
        outcome = verify.CheckOutcome

        def check_outcome(name, ok, detail, seconds):
            end = perf_counter()
            self.record(CHECKS.get(name, f"verify.{name}"), end - seconds, end)
            return outcome(name, ok, detail, seconds)

        swaps[id(outcome)] = (outcome, check_outcome)
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in swaps and swaps[id(value)][0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, swaps[id(value)][1])

        def restore() -> None:
            for module, attr, value in undo:
                setattr(module, attr, value)

        return restore

    def tree(self) -> list[dict]:
        """Spans with their parent's index (None at an operation's root)."""
        by_op = defaultdict(list)
        for index, span in enumerate(self.spans):
            by_op[span[0]].append(index)
        parents: dict[int, Optional[int]] = {}
        for members in by_op.values():
            for i in members:
                _, _, start, end = self.spans[i]
                mid = (start + end) / 2
                best = None
                for j in members:
                    _, _, s, e = self.spans[j]
                    if e - s > end - start and s <= mid <= e and (
                        best is None or e - s < self.spans[best][3] - self.spans[best][2]
                    ):
                        best = j
                parents[i] = best
        return [
            {"op": op, "name": name, "start": start, "end": end, "parent": parents[i]}
            for i, (op, name, start, end) in enumerate(self.spans)
        ]

    def self_times(self, tree: list[dict]) -> Counter:
        """Total self time per span name."""
        child_time = Counter()
        for span in tree:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: Counter = Counter()
        for i, span in enumerate(tree):
            totals[span["name"]] += span["end"] - span["start"] - child_time[i]
        return totals

"""Benchmark of the toughgraph package, driven as a user drives it.

    python3 bench/run.py --workload certify-exact --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's src/, and scratch files go to .bench_build/toughgraph/.  One
process runs one operation at a time in a closed loop: each operation is
a call of toughgraph.cli.main with default flags, timed from outside,
and its output goes through the correctness gate before the next one
starts.  The first pass runs every operation once whatever --seconds
says; after it, operations are repeated in pass order while one still
fits before the deadline, and each operation's median counts.  Times
in the end-to-end metrics are reference seconds (see RefClock).

With --trace 0 the last line of stdout holds the end-to-end metrics;
with --trace 1 it holds the per-layer ones, from pairs of one untraced
and one traced pass (see tracer.py).  The line before it stamps the run
with interpreter, CPU count, commit, seed and input sizes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Optional

from tracer import Tracer
from workloads import WORKLOADS, Context, Op, Verdict, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "toughgraph"
EXPECTED = BENCH / "expected.json"

SETUP_REPEATS = 7
CAL_ROUNDS, CAL_ITEMS = 5, 30_000  # size of the calibration kernel, about 0.05 s
CAL_REF_S = 0.05
CAL_GAP_S = 0.5
CAL_WINDOW_S = 5.0
KINDS = ("synth", "verify", "reject", "tau", "hamilton", "alpha")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "exact_share": "share",
    "ok_share": "share",
}
LAYER_SPANS = (
    "oracles.toughness_exact", "oracles.is_hamiltonian", "oracles.has_hamilton_path",
    "oracles.independence_number", "blocks.construct", "synth.build",
    "graphs.encode_graph6", "graphs.decode_graph6", "verify.rebuild", "verify.toughness",
    "synth.plan", "synth.certificate_to_json", "synth.certificate_from_json",
    "verify.witness", "verify.nonhamiltonicity", "graphs.components",
)
PER_LAYER_UNITS = {
    **{f"{kind}_s": "s" for kind in KINDS},
    **{f"{name}.s": "s" for name in LAYER_SPANS},
    "oracles.toughness_exact.calls": "count",
    "oracles.hamilton.nodes": "count",
    "graphs.edges": "count",
    "graphs.g6_bytes": "bytes",
    "cli.overhead.s": "s",
    "trace.overhead_s": "s",
}


class SetUpError(RuntimeError):
    pass


def import_fresh() -> ModuleType:
    """Import the checkout's toughgraph anew, discarding loaded copies."""
    for name in [n for n in sys.modules if n == "toughgraph" or n.startswith("toughgraph.")]:
        del sys.modules[name]
    tg = importlib.import_module("toughgraph")
    importlib.import_module("toughgraph.cli")
    if Path(tg.__file__).resolve().parent != SRC / "toughgraph":
        raise SetUpError(f"imported toughgraph from {tg.__file__}, not from {SRC}")
    return tg


def call(tg: ModuleType, argv: list[str], tracer: Optional[Tracer] = None,
         clock: Optional[RefClock] = None):
    """One CLI invocation in-process: (exit code, stdout, start, seconds).
    With a clock, the kernel timings it makes during the call are taken
    out of the seconds."""
    out = io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(io.StringIO()), (
        clock.ticking() if clock else nullcontext()
    ):
        start = perf_counter()
        try:
            rc = tg.cli.main(argv)
        except SystemExit as exc:  # argparse refusing argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc(file=sys.__stderr__)
            rc = -1
        end = perf_counter()
    if tracer is not None:
        tracer.record(f"cli.{argv[0]}", start, end)
    return rc, out.getvalue(), start, end - start - (clock.paused if clock else 0.0)


class Gate:
    """Counts operations and failures; keeps each operation's first verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[str, Verdict] = {}
        self.prepared: set[str] = set()

    def run(self, tg: ModuleType, op: Op, tracer: Optional[Tracer] = None,
            clock: Optional[RefClock] = None) -> tuple[float, float]:
        """Run and gate one operation; returns when it started and its seconds."""
        if op.prepare and op.label not in self.prepared:
            op.prepare()
            self.prepared.add(op.label)
        if tracer is not None:
            tracer.op += 1
        rc, out, start, seconds = call(tg, op.argv, tracer, clock)
        try:
            verdict = op.check(rc, out)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            verdict = Verdict(f"{op.label}: unreadable output ({type(exc).__name__}: {exc})")
        self.attempted += 1
        if verdict.error:
            self.failed += 1
            self.errors.append(verdict.error)
        self.first.setdefault(op.label, verdict)
        return start, seconds


class RefClock:
    """Converts measured seconds into reference seconds.

    The sandbox this benchmark targets shares its cores with other
    machines' work: its speed drifts by up to 1.5x from minute to minute
    and dips for a second or two at a time.  A fixed pure-Python kernel
    that shares no code with the package is timed before an operation
    when the last timing is over CAL_GAP_S old, and every CAL_GAP_S
    during an operation, from a SIGALRM handler, with the time spent in
    the handler taken out of the operation's.  A time t measured over an
    interval counts as t * CAL_REF_S / k, with k the mean kernel time
    within CAL_WINDOW_S of the interval.  The metric thus reads the
    seconds the operation would take on a machine whose kernel time is
    CAL_REF_S, and a change to the package moves it as it moves the
    measured time.  One clock serves one phase (set-up or measurement),
    so kernel timings of one phase never scale the other.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.paused = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        start = perf_counter()
        masks: dict[int, int] = {}
        for _ in range(CAL_ROUNDS):
            for a, b in [(i, i ^ (i >> 3)) for i in range(CAL_ITEMS)]:
                masks[a & 4095] = masks.get(a & 4095, 0) | (1 << (b & 63))
        sum(m.bit_count() for m in masks.values())
        end = perf_counter()
        self.marks.append((end, end - start))

    def calibrate_if_stale(self) -> None:
        if perf_counter() - self.marks[-1][0] > CAL_GAP_S:
            gc.collect()
            self.calibrate()

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # the kernel's garbage must not set off a collection of the operation's heap
        try:
            self.calibrate()
        finally:
            if enabled:
                gc.enable()
        self.paused += perf_counter() - start

    @contextmanager
    def ticking(self):
        """Time the kernel every CAL_GAP_S while the body runs; afterwards
        self.paused holds the seconds those timings took."""
        self.paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_GAP_S, CAL_GAP_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def ref(self, start: float, seconds: float) -> float:
        """Reference seconds of a finished measurement; ask only once the
        kernel has been timed after it."""
        near = [k for t, k in self.marks
                if start - CAL_WINDOW_S <= t <= start + seconds + CAL_WINDOW_S]
        return seconds * CAL_REF_S / statistics.mean(near)


def set_up(builder: Callable[[Context], Workload], seed: int, expected: dict, work: Path):
    """Import, input generation and warm-up, repeated; the last one is
    kept and the median (in reference seconds) is the set-up time."""
    clock = RefClock()
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        tg = import_fresh()
        workload = builder(Context(seed, work, tg, expected))
        for op in workload.warmup:
            rc, out, _, _ = call(tg, op.argv)
            error = op.check(rc, out).error
            if error:
                raise SetUpError(f"warm-up {op.label}: {error}")
        times.append((start, perf_counter() - start))
        clock.calibrate()
    return tg, workload, statistics.median(clock.ref(*t) for t in times)


def closed_loop(tg: ModuleType, ops: list[Op], seconds: float, gate: Gate):
    """Per operation, its samples in seconds and in reference seconds."""
    clock = RefClock()
    deadline = perf_counter() + seconds
    timed: dict[str, list[tuple[float, float]]] = {op.label: [] for op in ops}

    def sample(op: Op) -> None:
        clock.calibrate_if_stale()
        timed[op.label].append(gate.run(tg, op, clock=clock))

    for op in ops:
        sample(op)
    while True:
        ran = False
        for op in ops:
            if perf_counter() + timed[op.label][-1][1] <= deadline:
                sample(op)
                ran = True
        if not ran:
            break
    clock.calibrate()
    raw = {label: [t for _, t in s] for label, s in timed.items()}
    ref = {label: [clock.ref(*x) for x in s] for label, s in timed.items()}
    return raw, ref


def kind_sums(ops: list[Op], seconds: dict[str, float]) -> dict[str, float]:
    return {f"{kind}_s": sum(seconds[op.label] for op in ops if op.kind == kind) for kind in KINDS}


def end_to_end(tg, workload: Workload, seconds: float, gate: Gate,
               setup_s: float) -> tuple[dict, dict]:
    raw, ref = closed_loop(tg, workload.ops, seconds, gate)
    exact = sum(v.exact for v in gate.first.values())
    answers = sum(v.answers for v in gate.first.values())
    values = {
        "setup_s": setup_s,
        "wall_s": sum(statistics.median(s) for s in ref.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact_share": exact / answers if answers else 0.0,
        "ok_share": (gate.attempted - gate.failed) / gate.attempted,
    }
    measured = {
        "wall_s": sum(statistics.median(s) for s in raw.values()),
        "samples": sum(len(s) for s in raw.values()),
    }
    return values, measured


def per_layer(tg, workload: Workload, seconds: float, gate: Gate, spans_file: Path) -> dict:
    ops = workload.ops
    rows, dumps = [], []
    deadline = perf_counter() + seconds
    pair_s = 0.0
    while not rows or perf_counter() + pair_s <= deadline:
        started = perf_counter()
        plain = {op.label: gate.run(tg, op)[1] for op in ops}
        tracer = Tracer()
        restore = tracer.install(tg)
        try:
            traced = {op.label: gate.run(tg, op, tracer)[1] for op in ops}
        finally:
            restore()
        tree = tracer.tree()
        dumps.append(tree)
        self_time = tracer.self_times(tree)
        row = kind_sums(ops, plain)
        row.update({f"{name}.s": self_time[name] for name in LAYER_SPANS})
        row["cli.overhead.s"] = sum(t for name, t in self_time.items() if name.startswith("cli."))
        for name in ("oracles.toughness_exact.calls", "oracles.hamilton.nodes",
                     "graphs.edges", "graphs.g6_bytes"):
            row[name] = tracer.counts[name]
        row["trace.overhead_s"] = sum(traced.values()) - sum(plain.values())
        rows.append(row)
        pair_s = perf_counter() - started
    spans_file.write_text(json.dumps(dumps))
    return {name: statistics.median(row[name] for row in rows) for name in PER_LAYER_UNITS}


def git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "toughgraph").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(name: str, builder, seed: int, seconds: float, trace: bool, expected: dict,
        work: Path = WORK):
    """Set up, measure and gate one workload; returns (result, stamp)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tg, workload, setup_s = set_up(builder, seed, expected, work)
    gate = Gate()
    measured = {}
    if trace:
        values = per_layer(tg, workload, seconds, gate, work / f"spans-{name}-{seed}.json")
        units = PER_LAYER_UNITS
    else:
        values, measured = end_to_end(tg, workload, seconds, gate, setup_s)
        units = END_TO_END_UNITS
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    stamp = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "measured": measured,
        "inputs": workload.inputs,
        "forgeries": workload.forgeries,
        "exact_answers": f"{sum(v.exact for v in gate.first.values())}/"
                         f"{sum(v.answers for v in gate.first.values())}",
        "verify_tiers": {k: v.tiers for k, v in gate.first.items() if v.tiers},
        "errors": gate.errors[:20],
    }
    return result, stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toughgraph" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'toughgraph'}; run inside a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, stamp = run(args.workload, WORKLOADS[args.workload], args.seed,
                            args.seconds, bool(args.trace), json.loads(EXPECTED.read_text()))
    except SetUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for error in stamp["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

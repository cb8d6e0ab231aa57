"""Span tracing of the program's layers, from outside the program.

:func:`install` replaces the public entry points of each layer with thin
wrappers that record a span (name, start, end, parent, thread) and a few
counters.  Nothing under ``src/`` changes; the wrappers only exist in a
traced benchmark process.

Pipeline and serve workers are forked after :func:`install` ran, so they
inherit the wrappers.  Each worker starts with an empty recorder and, after
every task it executes, appends its spans and counters to a spill file
``spans-<pid>.jsonl`` that the traced process merges when its measured
phase ends.

A span's self time is its duration minus the part of it that its child
spans cover.  Per thread, the self times plus the time no span covers add
up to the measured window; :func:`lane_accounting` reports both sides.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: One span: ``[name, start, end, parent_index, tid]`` (``parent_index``
#: is -1 for a top-level span; indices are local to one spill batch).
Span = List[Any]


class Recorder:
    """In-memory span and counter store of one process."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else -1, threading.get_ident()]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def depth(self) -> int:
        return len(self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Forget everything recorded so far (the set-up phase)."""
        with self._lock:
            self.spans = []
            self.counts = defaultdict(float)
        for path in glob.glob(os.path.join(self.spill_dir, "spans-*.jsonl")):
            os.remove(path)

    def after_fork_in_child(self) -> None:
        self._reset()

    def spill(self) -> None:
        """Append this worker's spans and counters to its spill file."""
        with self._lock:
            batch = {"pid": self.pid, "spans": self.spans,
                     "counts": dict(self.counts)}
            self.spans = []
            self.counts = defaultdict(float)
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(batch) + "\n")

    def collect(self) -> Tuple[List[Tuple[int, List[Span]]], Dict[str, float]]:
        """Every batch of spans (own and spilled) and the merged counters.

        A span still open (none should be) ends now, so that parent indices
        stay valid.
        """
        now = time.perf_counter()
        batches = [(self.pid, [[n, a, now if b is None else b, p, t]
                               for n, a, b, p, t in self.spans])]
        counts: Dict[str, float] = defaultdict(float, self.counts)
        for path in sorted(glob.glob(os.path.join(self.spill_dir,
                                                  "spans-*.jsonl"))):
            with open(path) as handle:
                for line in handle:
                    batch = json.loads(line)
                    batches.append((batch["pid"], batch["spans"]))
                    for name, value in batch["counts"].items():
                        counts[name] += value
        return batches, dict(counts)


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #
def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cursor = 0.0, lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span: its duration minus what its children cover."""
    kids: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            kids[span[3]].append((span[1], span[2]))
    return [(span[2] - span[1])
            - covered(kids.get(index, ()), span[1], span[2])
            for index, span in enumerate(spans)]


def lane_accounting(spans: Sequence[Span], lo: float, hi: float
                    ) -> Tuple[float, float]:
    """``(sum of self times, unattributed time)`` of one thread's spans.

    Both are taken inside the window ``[lo, hi]``; for spans nested inside
    the window they add up to ``hi - lo``.
    """
    own = sum(self_times(spans))
    top = [(s[1], s[2]) for s in spans if s[3] < 0]
    return own, (hi - lo) - covered(top, lo, hi)


def lanes(batches: Sequence[Tuple[int, Sequence[Span]]]
          ) -> Dict[Tuple[int, int], List[List[Span]]]:
    """Group spans by (pid, thread); each batch keeps its own indices."""
    grouped: Dict[Tuple[int, int], List[List[Span]]] = defaultdict(list)
    for pid, spans in batches:
        by_tid: Dict[int, List[Span]] = defaultdict(list)
        remap: Dict[int, int] = {}
        for index, span in enumerate(spans):
            local = by_tid[span[4]]
            remap[index] = len(local)
            local.append([span[0], span[1], span[2],
                          remap.get(span[3], -1), span[4]])
        for tid, local in by_tid.items():
            grouped[(pid, tid)].append(local)
    return grouped


def self_time_by_name(batches: Sequence[Tuple[int, Sequence[Span]]]
                      ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Self and inclusive time per span name, summed over every lane."""
    own: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    for groups in lanes(batches).values():
        for spans in groups:
            for span, value in zip(spans, self_times(spans)):
                own[span[0]] += value
                inclusive[span[0]] += span[2] - span[1]
    return dict(own), dict(inclusive)


# ---------------------------------------------------------------------- #
# Exports
# ---------------------------------------------------------------------- #
def chrome_trace(batches: Sequence[Tuple[int, Sequence[Span]]], origin: float,
                 root_pid: int) -> Dict[str, Any]:
    """Chrome trace-event JSON (Perfetto, chrome://tracing) of the spans."""
    events: List[Dict[str, Any]] = []
    pids = set()
    for (pid, tid), groups in lanes(batches).items():
        pids.add(pid)
        for spans in groups:
            for span, own in zip(spans, self_times(spans)):
                events.append({
                    "name": span[0], "cat": span[0].split(".")[0], "ph": "X",
                    "ts": round((span[1] - origin) * 1e6, 3),
                    "dur": round((span[2] - span[1]) * 1e6, 3),
                    "pid": pid, "tid": tid,
                    "args": {"self_us": round(own * 1e6, 3)},
                })
    for pid in sorted(pids):
        label = "benchmark" if pid == root_pid else f"worker {pid}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_time_table(batches: Sequence[Tuple[int, Sequence[Span]]],
                    lo: float, hi: float, root_pid: int,
                    main_tid: int) -> str:
    """Per-span-name self time, with the main thread's accounting line."""
    own, inclusive = self_time_by_name(batches)
    wall = hi - lo
    main = [s for groups in (lanes(batches).get((root_pid, main_tid)) or [])
            for s in groups]
    main_self, unattributed = lane_accounting(main, lo, hi)
    lines = [f"{'span':<24}{'self_s':>12}{'incl_s':>12}{'self/wall':>11}"]
    for name in sorted(own, key=own.get, reverse=True):
        lines.append(f"{name:<24}{own[name]:>12.4f}{inclusive[name]:>12.4f}"
                     f"{own[name] / wall:>11.1%}")
    lines.append("")
    lines.append(f"main thread: self {main_self:.4f} s + unattributed "
                 f"{unattributed:.4f} s = {main_self + unattributed:.4f} s "
                 f"(traced wall {wall:.4f} s)")
    lines.append("self times of other threads and worker processes overlap "
                 "the main thread; their sum can exceed the wall time")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Wrapping the layers
# ---------------------------------------------------------------------- #
def wrap_memo(rec: Recorder, memo: Callable) -> Callable:
    """Trace ``NeighborhoodCache.memo``: the lookup is ``accel.neighbourhood``.

    A miss's ``compute()`` runs inside the lookup span.  It stays
    ``accel.neighbourhood`` time for the kNN, FPS and interpolation graphs,
    which the ``accel.lookups`` and ``accel.misses`` counters count.  A
    memoised reporting forward pass (``logits_numpy``) is not counted there,
    and its ``compute()`` opens a child span of its own layer, so the accel
    span keeps only the content-hash lookup.
    """
    @functools.wraps(memo)
    def traced_memo(self, op_key, arrays, compute, *args, **kwargs):
        # SegmentationModel.logits_numpy keys its memo ("logits", id(model)).
        reporting = op_key[0] == "logits"

        def counted_compute():
            if not reporting:
                rec.count("accel.misses")
                return compute()
            index = rec.open("models.report")
            try:
                return compute()
            finally:
                rec.close(index)
        if not reporting:
            rec.count("accel.lookups")
        index = rec.open("accel.neighbourhood")
        try:
            return memo(self, op_key, arrays, counted_compute, *args, **kwargs)
        finally:
            rec.close(index)
    return traced_memo


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer; call once per process."""
    import repro.accel as accel
    from repro.accel.cache import NeighborhoodCache
    from repro.core.blackbox import _BlackBoxAttack
    from repro.core.norm_bounded import NormBoundedAttack
    from repro.core.norm_unbounded import NormUnboundedAttack
    from repro.core.random_noise import RandomNoiseBaseline
    from repro.experiments import cells
    from repro.models.base import SegmentationModel
    from repro.nn import compile as nn_compile
    from repro.nn.module import Module
    from repro.nn.tensor import Tensor
    from repro.pipeline import executors, scheduler, worker
    from repro.pipeline.store import ResultStore
    from repro.serve.client import Client

    rec = recorder
    os.register_at_fork(after_in_child=rec.after_fork_in_child)

    # repro.nn (eager) ------------------------------------------------- #
    SegmentationModel.__call__ = rec.wrap(Module.__call__, "nn.forward")
    backward = rec.wrap(Tensor.backward, "nn.backward")

    @functools.wraps(Tensor.backward)
    def counted_backward(self, *args, **kwargs):
        rec.count("nn.eager_steps")
        return backward(self, *args, **kwargs)
    Tensor.backward = counted_backward

    # repro.nn.compile -------------------------------------------------- #
    nn_compile.StepProgram.replay = rec.wrap(nn_compile.StepProgram.replay,
                                             "compile.replay")
    # StepProgram.finalize looks compile_plan up in its module at call time.
    nn_compile.compile_plan = rec.wrap(nn_compile.compile_plan,
                                       "compile.compile")

    # repro.accel ------------------------------------------------------- #
    NeighborhoodCache.memo = wrap_memo(rec, NeighborhoodCache.memo)
    plan_stats = rec.wrap(accel.last_attack_plan_stats, "core.stats")
    cache_stats = rec.wrap(accel.last_attack_cache_stats, "core.stats")

    # repro.core -------------------------------------------------------- #
    def engine(method: Callable, reads_stats: bool) -> Callable:
        @functools.wraps(method)
        def traced_engine(self, *args, **kwargs):
            local = rec._local
            outer = not getattr(local, "in_attack", False)
            local.in_attack = True
            index = rec.open("core.attack")
            try:
                result = method(self, *args, **kwargs)
            finally:
                rec.close(index)
                if outer:
                    local.in_attack = False
            if outer:
                span = rec.spans[index]
                rec.count("core.attacks")
                rec.count("core.attack_incl_s", span[2] - span[1])
                results = result if isinstance(result, list) else [result]
                for item in results:
                    history = getattr(item, "history", None) or []
                    queries = history[-1].get("queries") if history else None
                    rec.count("core.queries", queries or 0)
                if reads_stats:
                    rec.count("core.steps", cache_stats().get("step", 0))
                    for key, value in plan_stats().items():
                        if key != "programs":
                            rec.count(f"compile.{key}", value)
            return result
        return traced_engine

    for cls in (NormBoundedAttack, NormUnboundedAttack, _BlackBoxAttack):
        for name in ("run", "run_batched"):
            setattr(cls, name, engine(getattr(cls, name), True))
    # The noise baseline runs no attack_compute, so it has no stats to read.
    RandomNoiseBaseline.run = engine(RandomNoiseBaseline.run, False)

    # repro.models (reporting forwards) -------------------------------- #
    for name in ("logits_numpy", "predict"):
        setattr(SegmentationModel, name,
                rec.wrap(getattr(SegmentationModel, name), "models.report"))

    # repro.pipeline ---------------------------------------------------- #
    run_graph = rec.wrap(scheduler.run_graph, "pipeline.run")

    @functools.wraps(scheduler.run_graph)
    def traced_run_graph(*args, **kwargs):
        result = run_graph(*args, **kwargs)
        report = result.report
        rec.count("pipeline.retries", report.retries)
        if report.backend == "local":
            busy = sum(r.elapsed for r in report.records if r.status == "ran")
            rec.count("pipeline.busy_s", busy)
            rec.count("pipeline.capacity_s", report.wall_time * report.jobs)
        store = report.store_stats or {}
        rec.count("pipeline.store_hits", store.get("hits", 0))
        rec.count("pipeline.store_misses", store.get("misses", 0))
        return result
    # Both modules bound run_graph at import time.
    scheduler.run_graph = traced_run_graph
    cells.run_graph = traced_run_graph

    task = rec.wrap(worker.execute_task, "pipeline.task")

    @functools.wraps(worker.execute_task)
    def traced_task(*args, **kwargs):
        try:
            return task(*args, **kwargs)
        finally:
            if os.getpid() != rec.root_pid and rec.depth() == 0:
                rec.spill()
    # Pool workers reach execute_task through the worker module (run_task
    # itself is pickled by reference and stays unwrapped); the serial
    # backend through its own import.
    worker.execute_task = traced_task
    executors.execute_task = traced_task
    ResultStore.get = rec.wrap(ResultStore.get, "pipeline.store_get")
    ResultStore.put = rec.wrap(ResultStore.put, "pipeline.store_put")

    # repro.serve ------------------------------------------------------- #
    Client.run = rec.wrap(Client.run, "serve.request")
    Client.status = rec.wrap(Client.status, "serve.status")


__all__ = ["Recorder", "chrome_trace", "covered", "install", "lane_accounting",
           "lanes", "self_time_by_name", "self_time_table", "self_times",
           "wrap_memo"]

"""Plan compiler and executor: replay captured graphs without closures.

A captured graph (:mod:`repro.nn.graph`) is turned into a
:class:`CompiledPlan` by shape-specialized passes:

* **Dead-node elimination** — only ancestors of the requested outputs (and
  the backward root) are scheduled; bookkeeping ops recorded during capture
  but never consumed are dropped.
* **Backward scheduling** — the reverse-mode schedule is derived by running
  the *same* iterative DFS topological sort as :meth:`Tensor.backward` on the
  captured graph.  Gradient accumulation order is the bit-sensitive part of
  reverse-mode autodiff (float addition is not associative); replicating the
  traversal exactly is what makes replayed gradients bit-for-bit identical
  to eager ones.
* **Buffer liveness + arena allocation** — intermediate buffers whose value
  is not needed by the backward pass (and is not a view or a view's base)
  are returned to a ``(shape, dtype)``-keyed arena after their last use and
  recycled through ``out=``-capable kernels.  ``out=`` on a NumPy ufunc is
  bitwise-identical to fresh allocation, so this pass is numerics-neutral.

Plans are cached per engine-chosen key — ``(engine tag, model identity,
batch, points, dtype)`` — in the :class:`PlanCache` that
:func:`repro.accel.attack_compute` installs for the duration of one attack
run.  Engines drive the capture-once / replay-thereafter lifecycle through
:class:`StepProgram`; any surprise (shape change, invalid capture) falls
back to the eager path silently.  A plan replays through one record-driven
loop over its schedule, which times each op for the profiler only while
``REPRO_PROFILE_OPS`` is on.

Execution backends: the default NumPy executor runs the registry kernels
in-process; ``backend="torch"`` delegates to
:mod:`repro.nn.backends.torch_backend` (optional, import-guarded).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import GraphRecorder, Node, recording
from .tensor import Tensor

# Profiling sink installed by repro.telemetry.profiler.profile_ops while
# active (telemetry sits below repro.nn in the layer map, so the dependency
# points upward via this registration hook rather than an import).
_PROFILE_SINK = None

# The PlanCache installed by repro.accel.attack_compute for the current
# attack run, or None (capture disabled / outside an attack context).
_PLAN_CACHE: Optional["PlanCache"] = None


def set_profile_sink(sink) -> None:
    """Install (or clear, with ``None``) the executor's profiling sink.

    The sink must expose ``add_forward(name, seconds)`` and
    ``add_backward(name, seconds)``; :func:`repro.telemetry.profiler.profile_ops`
    registers its :class:`OpProfile` here so replayed steps show up in
    ``REPRO_PROFILE_OPS=1`` reports under the same registry op names as
    eagerly-executed ones.
    """
    global _PROFILE_SINK
    _PROFILE_SINK = sink


def plan_cache() -> Optional["PlanCache"]:
    """The PlanCache of the active attack run, or ``None``."""
    return _PLAN_CACHE


@contextmanager
def use_plan_cache(cache: Optional["PlanCache"]):
    """Install ``cache`` as the active plan cache for the ``with`` body."""
    global _PLAN_CACHE
    previous = _PLAN_CACHE
    _PLAN_CACHE = cache
    try:
        yield cache
    finally:
        _PLAN_CACHE = previous


class PlanMismatch(RuntimeError):
    """A replay was fed arrays whose shapes differ from the captured plan."""


class PlanResult:
    """Outputs (and placeholder gradients) of one plan execution."""

    __slots__ = ("outputs", "grads")

    def __init__(self, outputs: Dict[str, np.ndarray],
                 grads: Dict[str, np.ndarray]) -> None:
        self.outputs = outputs
        self.grads = grads


class _ExecOp:
    """One forward step: precomputed indices for the hot replay loop."""

    __slots__ = ("op", "in_idxs", "params", "out_idx", "dtype", "shape",
                 "use_arena", "release")

    def __init__(self, node: Node) -> None:
        self.op = node.op
        self.in_idxs = tuple(p.idx for p in node.inputs)
        self.params = node.params
        self.out_idx = node.idx
        self.dtype = node.dtype
        self.shape = node.shape
        self.use_arena = node.op.forward_out is not None
        self.release: List[Tuple[Tuple[tuple, object], int]] = []


class _BackOp:
    """One backward step: a VJP application plus its accumulation targets."""

    __slots__ = ("op", "in_idxs", "out_idx", "params", "needs", "targets")

    def __init__(self, node: Node) -> None:
        self.op = node.op
        self.in_idxs = tuple(p.idx for p in node.inputs)
        self.out_idx = node.idx
        self.params = node.params
        self.needs = tuple(p.requires_grad for p in node.inputs)
        self.targets = tuple((p.idx, p.dtype) for p in node.inputs)


class CompiledPlan:
    """A shape-specialized, replayable execution plan for one step graph."""

    def __init__(self, placeholders: Dict[str, Node],
                 outputs: Dict[str, Node], root: Optional[Node],
                 segments: List[_ExecOp], backward: List[_BackOp],
                 template: List[Optional[np.ndarray]], num_slots: int,
                 num_folded: int = 0) -> None:
        self.placeholders = placeholders
        self.outputs = outputs
        self.root = root
        self.segments = segments          # flat forward schedule
        self.backward = backward
        self._template = template         # constants prefilled, by reference
        self.num_slots = num_slots
        self.num_folded = num_folded
        self.grad_slots = {name: node for name, node in placeholders.items()
                           if node.requires_grad}
        self.replays = 0
        self._torch_executor = None       # lazily built by the torch backend
        # Flat per-op records for the replay loop: attribute lookups are
        # hoisted out of replay entirely.
        self._fwd_flat = [
            (step.op.name, step.op.forward, step.op.forward_out,
             _gather(step.in_idxs), step.in_idxs[0], step.params,
             step.out_idx, step.dtype, (step.shape, step.dtype),
             step.use_arena, tuple(step.release))
            for step in segments
        ]
        self._back_flat = [
            (step.op.name, step.op.vjp, _gather(step.in_idxs),
             step.in_idxs[0], step.out_idx, step.params, step.needs,
             step.targets)
            for step in backward
        ]

    # -------------------------------------------------------------- #
    # Introspection (docs, tests, profiling)
    # -------------------------------------------------------------- #
    @property
    def num_ops(self) -> int:
        return len(self.segments)

    def describe(self) -> Dict[str, object]:
        return {
            "ops": self.num_ops,
            "folded": self.num_folded,
            "backward_ops": len(self.backward),
            "slots": self.num_slots,
            "grad_slots": sorted(self.grad_slots),
            "outputs": sorted(self.outputs),
        }

    # -------------------------------------------------------------- #
    # Execution
    # -------------------------------------------------------------- #
    def execute(self, feeds: Dict[str, np.ndarray],
                backend: str = "numpy") -> PlanResult:
        """Run the plan on ``feeds`` and return outputs + placeholder grads."""
        if backend != "numpy":
            from . import backends as _backends
            result = _backends.get_backend(backend).execute(self, feeds)
        else:
            result = self._execute_numpy(feeds)
        self.replays += 1
        return result

    def _feed_values(self, feeds: Dict[str, np.ndarray]
                     ) -> List[Optional[np.ndarray]]:
        values = list(self._template)
        for name, node in self.placeholders.items():
            arr = feeds[name]
            if arr.shape != node.shape:
                raise PlanMismatch(
                    f"placeholder {name!r}: expected {node.shape}, "
                    f"got {arr.shape}")
            if arr.dtype != node.dtype:
                # Same coercion Tensor.__init__ applies to eager step inputs.
                arr = arr.astype(node.dtype)
            values[node.idx] = arr
        return values

    def _execute_numpy(self, feeds: Dict[str, np.ndarray]) -> PlanResult:
        """Run the schedule on the registry kernels, record by record.

        The profiler sink is read once per replay.  Only when it is set does
        the loop time each forward op and each VJP (under its registry op
        name, the label eager steps report under); the kernels and their
        order are the same either way, so profiled replays keep the bits.
        """
        sink = _PROFILE_SINK
        clock = time.perf_counter
        values = self._feed_values(feeds)
        arena: Dict[Tuple[tuple, object], List[np.ndarray]] = {}
        arena_get = arena.get

        for (name, forward, forward_out, gather, first, params, out_idx,
             dtype, akey, use_arena, release) in self._fwd_flat:
            if sink is not None:
                start = clock()
            datas = gather(values) if gather else (values[first],)
            out = None
            if use_arena:
                free = arena_get(akey)
                if free:
                    out = forward_out(datas, params, free.pop())
            if out is None:
                out = forward(datas, params)
            if out.dtype != dtype:
                out = out.astype(dtype)
            values[out_idx] = out
            for key, idx in release:
                buf = values[idx]
                values[idx] = None
                arena.setdefault(key, []).append(buf)
            if sink is not None:
                sink.add_forward(name, clock() - start)

        grads: List[Optional[np.ndarray]] = [None] * self.num_slots
        owned = [False] * self.num_slots
        if self.root is not None:
            # Seed exactly as Tensor.backward does for the default argument.
            seed = np.ones_like(values[self.root.idx])
            _accumulate(grads, owned, self.root.idx, self.root.dtype, seed)
            getg = grads.__getitem__
            for (name, vjp, gather, first, out_idx, params, needs,
                 targets) in self._back_flat:
                grad = getg(out_idx)
                if grad is None:
                    continue
                if sink is not None:
                    start = clock()
                datas = gather(values) if gather else (values[first],)
                pieces = vjp(grad, values[out_idx], datas, params, needs)
                for (idx, dtype), piece in zip(targets, pieces):
                    if piece is not None:
                        _accumulate(grads, owned, idx, dtype, piece)
                if sink is not None:
                    sink.add_backward(name, clock() - start)

        outputs = {name: values[node.idx]
                   for name, node in self.outputs.items()}
        grad_out = {name: grads[node.idx]
                    for name, node in self.grad_slots.items()
                    if grads[node.idx] is not None}
        return PlanResult(outputs, grad_out)


def _gather(in_idxs: Tuple[int, ...]):
    """``values -> inputs tuple`` in C for ops of two or more inputs.

    ``None`` for one-input ops, which the loop packs as ``(values[i],)``:
    ``itemgetter`` of one index returns the bare value, not a tuple.
    """
    return itemgetter(*in_idxs) if len(in_idxs) > 1 else None


def _accumulate(grads: List[Optional[np.ndarray]], owned: List[bool],
                idx: int, dtype, piece: np.ndarray) -> None:
    """Replicate :meth:`Tensor._accumulate` on the plan's gradient slots.

    Same reference-first storage, same ownership rules, same in-place add:
    ``a += b`` and ``a + b`` round identically, and the branch structure
    matches the eager accumulator exactly, so replayed gradients are
    bitwise-identical to eager ones.
    """
    current = grads[idx]
    if current is None:
        piece = np.asarray(piece)
        if piece.dtype != dtype:
            piece = piece.astype(dtype)
            owned[idx] = True
        else:
            owned[idx] = False
        grads[idx] = piece
    elif owned[idx] and current.shape == np.shape(piece):
        current += piece
    else:
        grads[idx] = current + piece
        owned[idx] = True


# ------------------------------------------------------------------ #
# Compilation passes
# ------------------------------------------------------------------ #
def compile_plan(recorder: GraphRecorder, outputs: Dict[str, Tensor],
                 root: Optional[Tensor] = None) -> Optional[CompiledPlan]:
    """Compile a finished capture into a :class:`CompiledPlan`.

    Returns ``None`` when the capture cannot be soundly replayed (invalid
    recording, missing outputs, empty graph) — callers fall back to eager.
    """
    if not recorder.valid or not recorder.order:
        return None

    out_nodes: Dict[str, Node] = {}
    for name, t in outputs.items():
        node = recorder.node_for(t)
        if node is None or node.kind != "op":
            return None
        out_nodes[name] = node

    root_node: Optional[Node] = None
    if root is not None:
        root_node = recorder.node_for(root)
        if root_node is None or not root_node.requires_grad:
            return None
        if int(np.prod(root_node.shape, dtype=np.int64)) != 1:
            return None

    # --- Dead-node elimination: ancestors of outputs + root ----------- #
    needed: Dict[int, Node] = {}
    stack: List[Node] = list(out_nodes.values())
    if root_node is not None:
        stack.append(root_node)
    while stack:
        node = stack.pop()
        if id(node) in needed:
            continue
        needed[id(node)] = node
        stack.extend(node.inputs)

    schedule_all = [n for n in recorder.order if id(n) in needed]
    if not schedule_all:
        return None

    # --- Constant folding: evaluate constant-only subgraphs once ------ #
    # Anything computed purely from baked constants (the coordinate
    # pipeline of a colour-field attack, BatchNorm eval arithmetic, ...)
    # produces the same value every step.  Run the exact registry kernel
    # once here and bake the result, so replays skip the op entirely.
    # Same kernel, same inputs -> same bits; gradient-bearing nodes can
    # never fold because constants never require grad.
    out_ids = {id(n) for n in out_nodes.values()}
    if root_node is not None:
        out_ids.add(id(root_node))
    folded: Dict[int, np.ndarray] = {}
    for node in schedule_all:
        if node.requires_grad or id(node) in out_ids:
            continue
        datas = []
        for parent in node.inputs:
            if parent.kind == "constant":
                datas.append(parent.data)
            elif id(parent) in folded:
                datas.append(folded[id(parent)])
            else:
                datas = None
                break
        if datas is None:
            continue
        value = node.op.forward(tuple(datas), node.params)
        if value.dtype != node.dtype:
            value = value.astype(node.dtype)
        folded[id(node)] = value

    fold_nodes = [n for n in schedule_all if id(n) in folded]
    schedule = [n for n in schedule_all if id(n) not in folded]
    if not schedule:
        return None

    # --- Backward schedule: the exact Tensor.backward() traversal ----- #
    back_nodes: List[Node] = []
    if root_node is not None:
        topo: List[Node] = []
        visited: set = set()
        dfs: List[Tuple[Node, bool]] = [(root_node, False)]
        while dfs:
            node, processed = dfs.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            dfs.append((node, True))
            for parent in node.inputs:
                if parent.requires_grad and id(parent) not in visited:
                    dfs.append((parent, False))
        back_nodes = [n for n in reversed(topo) if n.kind == "op"]

    # --- Slot assignment --------------------------------------------- #
    leaves = [n for n in needed.values() if n.kind != "op"]
    num_slots = 0
    for node in leaves + fold_nodes + schedule:
        node.idx = num_slots
        num_slots += 1

    template: List[Optional[np.ndarray]] = [None] * num_slots
    for node in leaves:
        if node.kind == "constant":
            template[node.idx] = node.data
    for node in fold_nodes:
        template[node.idx] = folded[id(node)]

    # --- Liveness: which buffers may be recycled ---------------------- #
    pinned: set = set(id(n) for n in out_nodes.values())
    if root_node is not None:
        pinned.add(id(root_node))
    for node in back_nodes:
        pinned.add(id(node))              # VJPs read the forward value
        for parent in node.inputs:
            pinned.add(id(parent))        # ... and the input values
    for node in schedule:
        if node.op.returns_view:
            pinned.add(id(node))          # views own no memory
            for parent in node.inputs:
                pinned.add(id(parent))    # and must keep their base alive

    last_use: Dict[int, int] = {}
    for i, node in enumerate(schedule):
        for parent in node.inputs:
            if parent.kind == "op" and id(parent) not in folded:
                # Folded values live in the shared template; recycling
                # them would hand the template's buffer to the arena.
                last_use[id(parent)] = i

    exec_ops = [_ExecOp(node) for node in schedule]
    for node_id, pos in last_use.items():
        if node_id in pinned:
            continue
        node = needed[node_id]
        exec_ops[pos].release.append(((node.shape, node.dtype), node.idx))

    placeholders = dict(recorder.placeholders)
    backward = [_BackOp(node) for node in back_nodes]
    return CompiledPlan(placeholders, out_nodes, root_node, exec_ops,
                        backward, template, num_slots,
                        num_folded=len(fold_nodes))


# ------------------------------------------------------------------ #
# The engine-facing lifecycle
# ------------------------------------------------------------------ #
class StepProgram:
    """Capture-once / replay-thereafter driver for one step computation.

    Engines obtain a program from :meth:`PlanCache.program` keyed by
    everything that pins the plan (engine tag, scene identity, shapes), feed
    the step inputs, and try :meth:`replay`.  On the first step (or after
    any fallback) they run the eager computation inside :meth:`capture` and
    :meth:`finalize` the plan.  Gradients land on the placeholder tensors'
    ``.grad`` exactly as the eager backward pass leaves them.
    """

    def __init__(self, cache: "PlanCache",
                 placeholders: Dict[str, Tensor]) -> None:
        self._cache = cache
        self.placeholders = placeholders
        self._recorder: Optional[GraphRecorder] = None
        self._plan: Optional[CompiledPlan] = None
        self._invalid = False

    @property
    def ready(self) -> bool:
        return self._plan is not None

    @property
    def plan(self) -> Optional[CompiledPlan]:
        return self._plan

    def tensor(self, name: str) -> Tensor:
        return self.placeholders[name]

    def feed(self, **arrays: np.ndarray) -> None:
        """Bind fresh step inputs to the persistent placeholder tensors."""
        for name, arr in arrays.items():
            t = self.placeholders[name]
            arr = np.asarray(arr)
            if arr.dtype != t.data.dtype:
                # Same cast Tensor.__init__ would apply under the policy.
                arr = arr.astype(t.data.dtype)
            t.data = arr

    @contextmanager
    def capture(self):
        """Record the eager step if this program still needs a plan."""
        if self._plan is not None or self._invalid:
            yield False
            return
        recorder = GraphRecorder(self.placeholders)
        with recording(recorder):
            yield True
        self._recorder = recorder

    def finalize(self, outputs: Dict[str, Tensor],
                 root: Optional[Tensor] = None) -> None:
        """Compile the capture made under :meth:`capture` (no-op otherwise)."""
        recorder, self._recorder = self._recorder, None
        if recorder is None:
            return
        plan = compile_plan(recorder, outputs, root)
        if plan is None:
            self._invalid = True
            self._cache.stats["fallbacks"] += 1
        else:
            self._plan = plan
            self._cache.stats["captures"] += 1

    def replay(self) -> Optional[Dict[str, np.ndarray]]:
        """Replay the compiled plan on the current placeholder data.

        Returns the outputs dict, or ``None`` when no plan is available (or
        the feed no longer matches) — the caller then runs the eager path.
        Placeholder tensors that require grad receive their ``.grad``.
        """
        plan = self._plan
        if plan is None:
            return None
        feeds = {name: t.data for name, t in self.placeholders.items()}
        try:
            result = plan.execute(feeds, backend=self._cache.backend)
        except PlanMismatch:
            self._cache.stats["fallbacks"] += 1
            return None
        for name, t in self.placeholders.items():
            if t.requires_grad:
                grad = result.grads.get(name)
                if grad is not None:
                    t.grad = grad
                    t._grad_owned = False
        self._cache.stats["replays"] += 1
        return result.outputs


class PlanCache:
    """Per-attack-run cache of :class:`StepProgram` instances.

    Installed by :func:`repro.accel.attack_compute` (when the policy enables
    graph capture) and discarded with the run, so baked-by-reference scene
    constants can never leak across runs.  Keys are engine-chosen; see
    docs/COMPILE.md for the keying rules per engine.
    """

    def __init__(self, backend: str = "numpy") -> None:
        self.backend = backend
        self._programs: Dict[tuple, StepProgram] = {}
        self.stats = {"programs": 0, "captures": 0, "replays": 0,
                      "fallbacks": 0}

    def program(self, key: tuple, builder) -> StepProgram:
        """The program for ``key``, creating it via ``builder()`` once.

        ``builder`` returns the placeholder dict (name → Tensor) used for
        both the capture step and all replays.
        """
        program = self._programs.get(key)
        if program is None:
            program = StepProgram(self, builder())
            self._programs[key] = program
            self.stats["programs"] += 1
        return program

    def __len__(self) -> int:
        return len(self._programs)


__all__ = [
    "CompiledPlan", "PlanCache", "PlanMismatch", "PlanResult", "StepProgram",
    "compile_plan", "plan_cache", "set_profile_sink", "use_plan_cache",
]

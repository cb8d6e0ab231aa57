"""Torch execution backend for compiled plans (optional dependency).

Executes a captured plan's forward schedule with torch kernels — one kernel
per :mod:`repro.nn.ops` registry entry — and derives placeholder gradients
through ``torch.autograd`` instead of the hand-written NumPy VJPs.  This is
the cross-validation harness from the project roadmap: two independent
gradient implementations over the same captured graph, compared allclose in
``tests/test_engine_contract.py`` and ``tests/test_compile.py`` (tolerances
documented in docs/COMPILE.md).

Everything torch-touching lives in this module; it is imported only after
:func:`repro.nn.backends.has_torch` succeeds.  Execution is CPU, with dtypes
mapped 1:1 from the captured plan (float32 plans run in torch.float32).

Numerics: torch results are *allclose* to NumPy, not bitwise — different
kernels, different accumulation order, and a handful of tie-breaking
differences at measure-zero points (``maximum`` at exact ties routes the
subgradient differently).  The store salt includes the backend name, so
torch and NumPy runs never share cached results.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import torch

from ..compile import PlanMismatch, PlanResult

_TORCH_DTYPES = {
    np.dtype(np.float64): torch.float64,
    np.dtype(np.float32): torch.float32,
    np.dtype(np.int64): torch.int64,
    np.dtype(np.bool_): torch.bool,
}


def _to_torch(arr: np.ndarray) -> "torch.Tensor":
    return torch.as_tensor(np.ascontiguousarray(arr))


def _index_to_torch(index):
    """Convert a NumPy fancy-index (or tuple of them) for torch indexing."""
    if isinstance(index, np.ndarray):
        return torch.as_tensor(index)
    if isinstance(index, tuple):
        return tuple(_index_to_torch(part) for part in index)
    return index


def _cached(pcache: dict, key: str, build):
    value = pcache.get(key)
    if value is None:
        value = pcache[key] = build()
    return value


# ---------------------------------------------------------------------- #
# Kernel table: op name -> fn(inputs, params, pcache) -> torch.Tensor
# ---------------------------------------------------------------------- #
def _k_add(inputs, params, pcache):
    return inputs[0] + inputs[1]


def _k_neg(inputs, params, pcache):
    return -inputs[0]


def _k_mul(inputs, params, pcache):
    return inputs[0] * inputs[1]


def _k_div(inputs, params, pcache):
    return inputs[0] / inputs[1]


def _k_pow(inputs, params, pcache):
    return inputs[0] ** params["exponent"]


def _k_matmul(inputs, params, pcache):
    return inputs[0] @ inputs[1]


def _k_exp(inputs, params, pcache):
    return torch.exp(inputs[0])


def _k_log(inputs, params, pcache):
    return torch.log(inputs[0])


def _k_sqrt(inputs, params, pcache):
    return torch.sqrt(inputs[0])


def _k_tanh(inputs, params, pcache):
    return torch.tanh(inputs[0])


def _k_sigmoid(inputs, params, pcache):
    return torch.sigmoid(inputs[0])


def _k_relu(inputs, params, pcache):
    x = inputs[0]
    # x * (x > 0) rather than torch.relu: matches the reference subgradient
    # (zero at the kink) through the product rule.
    return x * (x > 0)


def _k_leaky_relu(inputs, params, pcache):
    x = inputs[0]
    slope = params["negative_slope"]
    return x * torch.where(x > 0, torch.ones((), dtype=x.dtype),
                           torch.full((), slope, dtype=x.dtype))


def _k_abs(inputs, params, pcache):
    return torch.abs(inputs[0])


def _k_clip(inputs, params, pcache):
    return torch.clamp(inputs[0], params["low"], params["high"])


def _k_sum(inputs, params, pcache):
    axis, keepdims = params["axis"], params["keepdims"]
    if axis is None:
        out = torch.sum(inputs[0])
        return out.reshape((1,) * inputs[0].ndim) if keepdims else out
    return torch.sum(inputs[0], dim=axis, keepdim=keepdims)


def _k_max(inputs, params, pcache):
    # torch.amax distributes gradient evenly across ties, matching the
    # reference mask/counts subgradient.
    return torch.amax(inputs[0], dim=params["axis"], keepdim=params["keepdims"])


def _k_detached_max(inputs, params, pcache):
    return torch.amax(inputs[0], dim=params["axis"], keepdim=True).detach()


def _k_reshape(inputs, params, pcache):
    return inputs[0].reshape(params["shape"])


def _k_transpose(inputs, params, pcache):
    return inputs[0].permute(tuple(int(a) for a in params["axes"]))


def _k_broadcast_to(inputs, params, pcache):
    return torch.broadcast_to(inputs[0], params["shape"])


def _k_expand_dims(inputs, params, pcache):
    return torch.unsqueeze(inputs[0], params["axis"])


def _k_squeeze(inputs, params, pcache):
    return torch.squeeze(inputs[0], params["axis"])


def _k_getitem(inputs, params, pcache):
    index = _cached(pcache, "index",
                    lambda: _index_to_torch(params["index"]))
    return inputs[0][index]


def _k_concatenate(inputs, params, pcache):
    return torch.cat(list(inputs), dim=params["axis"])


def _k_stack(inputs, params, pcache):
    return torch.stack(list(inputs), dim=params["axis"])


def _k_maximum(inputs, params, pcache):
    return torch.maximum(inputs[0], inputs[1])


def _k_where(inputs, params, pcache):
    cond = _cached(pcache, "cond", lambda: torch.as_tensor(params["cond"]))
    return torch.where(cond, inputs[0], inputs[1])


def _k_gather_points(inputs, params, pcache):
    features = inputs[0]
    channels = params["channels"]
    flat_index = _cached(pcache, "flat_index",
                         lambda: torch.as_tensor(params["flat_index"]))
    flat = features.reshape(params["rows"], channels)
    gathered = torch.index_select(flat, 0, flat_index)
    return gathered.reshape(params["index_shape"] + (channels,))


KERNELS = {
    "add": _k_add,
    "neg": _k_neg,
    "mul": _k_mul,
    "div": _k_div,
    "pow": _k_pow,
    "matmul": _k_matmul,
    "exp": _k_exp,
    "log": _k_log,
    "sqrt": _k_sqrt,
    "tanh": _k_tanh,
    "sigmoid": _k_sigmoid,
    "relu": _k_relu,
    "leaky_relu": _k_leaky_relu,
    "abs": _k_abs,
    "clip": _k_clip,
    "sum": _k_sum,
    "max": _k_max,
    "detached_max": _k_detached_max,
    "reshape": _k_reshape,
    "transpose": _k_transpose,
    "broadcast_to": _k_broadcast_to,
    "expand_dims": _k_expand_dims,
    "squeeze": _k_squeeze,
    "getitem": _k_getitem,
    "concatenate": _k_concatenate,
    "stack": _k_stack,
    "maximum": _k_maximum,
    "where": _k_where,
    "gather_points": _k_gather_points,
}


class _TorchExecutor:
    """Per-plan torch state: converted constants and param caches."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self._template = [
            _to_torch(arr) if arr is not None else None
            for arr in plan._template
        ]
        # Per-exec-op caches for converted index/condition parameters.
        self._pcaches: Dict[int, dict] = {}

    def run(self, feeds) -> PlanResult:
        plan = self.plan
        values = list(self._template)
        grad_leaves = {}
        wants_grad = plan.root is not None and bool(plan.grad_slots)
        for name, node in plan.placeholders.items():
            arr = feeds[name]
            if arr.shape != node.shape:
                raise PlanMismatch(
                    f"placeholder {name!r}: expected {node.shape}, "
                    f"got {arr.shape}")
            t = _to_torch(arr).to(_TORCH_DTYPES[np.dtype(node.dtype)])
            if wants_grad and node.requires_grad:
                t = t.requires_grad_(True)
                grad_leaves[name] = t
            values[node.idx] = t

        grad_mode = torch.enable_grad() if wants_grad else torch.no_grad()
        with grad_mode:
            for step in plan.segments:
                kernel = KERNELS[step.op.name]
                pcache = self._pcaches.setdefault(id(step), {})
                inputs = tuple(values[i] for i in step.in_idxs)
                values[step.out_idx] = kernel(inputs, step.params, pcache)

        outputs = {
            name: values[node.idx].detach().numpy()
            for name, node in plan.outputs.items()
        }
        grads: Dict[str, np.ndarray] = {}
        if wants_grad:
            root_value = values[plan.root.idx]
            names = sorted(grad_leaves)
            pieces = torch.autograd.grad(
                root_value, [grad_leaves[name] for name in names],
                grad_outputs=torch.ones_like(root_value),
                allow_unused=True)
            for name, piece in zip(names, pieces):
                if piece is not None:
                    grads[name] = piece.detach().numpy()
        return PlanResult(outputs, grads)


class TorchBackend:
    """Backend adapter: lazily builds one :class:`_TorchExecutor` per plan."""

    name = "torch"

    def execute(self, plan, feeds) -> PlanResult:
        executor = plan._torch_executor
        if executor is None:
            executor = plan._torch_executor = _TorchExecutor(plan)
        return executor.run(feeds)


__all__ = ["KERNELS", "TorchBackend"]

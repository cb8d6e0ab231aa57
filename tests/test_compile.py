"""The compiled tensor engine: capture, plan passes, replay, backends.

The engine-contract suite proves eager-vs-compiled bit-equality end to end;
this module tests the machinery itself — :class:`GraphRecorder` capture,
the :func:`compile_plan` passes (dead-node elimination, constant
folding), the :class:`StepProgram` lifecycle with its silent fallbacks, the
plan-cache stats surfaced by ``attack_compute``, profiler coverage of
replayed steps, and the optional torch executor (skipped when torch is not
installed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.policy import ComputePolicy
from repro.core import AttackConfig
from repro.nn import Tensor
from repro.nn.backends import available_backends, has_torch
from repro.nn.compile import (PlanCache, compile_plan, plan_cache,
                              use_plan_cache)
from repro.nn.graph import GraphRecorder, recording
from repro.nn.ops import OPS
from repro.telemetry.profiler import profile_ops

RNG = np.random.default_rng(42)


def _network(x: Tensor, w: Tensor, b: Tensor):
    """A toy matmul→add→relu→reduce step: (y, loss)."""
    hidden = (x @ w + b).relu()
    y = hidden * hidden.sum(axis=-1, keepdims=True)
    return y, (y * y).sum()


def _make_weights():
    w = Tensor(RNG.standard_normal((3, 5)))
    b = Tensor(RNG.standard_normal((5,)))
    return w, b


@pytest.fixture()
def weights():
    return _make_weights()


def _capture(weights, feed):
    """Capture ``_network`` once; return (plan, placeholder node name)."""
    w, b = weights
    x = Tensor(feed.copy(), requires_grad=True)
    recorder = GraphRecorder({"x": x})
    with recording(recorder):
        y, loss = _network(x, w, b)
    return compile_plan(recorder, {"y": y}, loss)


def _eager(weights, feed):
    w, b = weights
    x = Tensor(feed.copy(), requires_grad=True)
    y, loss = _network(x, w, b)
    loss.backward()
    return y.data, x.grad


class TestCaptureReplay:
    def test_replay_bitwise_matches_eager(self, weights):
        feed0 = RNG.standard_normal((4, 3))
        plan = _capture(weights, feed0)
        assert plan is not None
        for _ in range(3):
            feed = RNG.standard_normal((4, 3))
            result = plan.execute({"x": np.asarray(feed,
                                                   dtype=plan.placeholders["x"].dtype)})
            y_ref, grad_ref = _eager(weights, feed)
            np.testing.assert_array_equal(result.outputs["y"], y_ref)
            np.testing.assert_array_equal(result.grads["x"], grad_ref)

    def test_replays_counted(self, weights):
        feed = RNG.standard_normal((4, 3))
        plan = _capture(weights, feed)
        dtype = plan.placeholders["x"].dtype
        assert plan.replays == 0
        plan.execute({"x": feed.astype(dtype)})
        plan.execute({"x": feed.astype(dtype)})
        assert plan.replays == 2

    def test_shape_mismatch_raises(self, weights):
        from repro.nn.compile import PlanMismatch

        plan = _capture(weights, RNG.standard_normal((4, 3)))
        dtype = plan.placeholders["x"].dtype
        with pytest.raises(PlanMismatch):
            plan.execute({"x": RNG.standard_normal((5, 3)).astype(dtype)})


class TestCompilerPasses:
    def test_dead_nodes_eliminated(self, weights):
        """Ops recorded but never consumed by outputs/root are dropped."""
        w, b = weights
        feed = RNG.standard_normal((4, 3))
        x = Tensor(feed.copy(), requires_grad=True)
        recorder = GraphRecorder({"x": x})
        with recording(recorder):
            y, loss = _network(x, w, b)
            (y.exp() * 3.0).sum()          # dead: result never requested
        plan = compile_plan(recorder, {"y": y}, loss)
        lean = _capture(weights, feed)
        assert plan.num_ops == lean.num_ops
        result = plan.execute({"x": feed.astype(plan.placeholders["x"].dtype)})
        y_ref, grad_ref = _eager(weights, feed)
        np.testing.assert_array_equal(result.outputs["y"], y_ref)
        np.testing.assert_array_equal(result.grads["x"], grad_ref)

    def test_constant_folding(self, weights):
        """Constant-only subgraphs are evaluated once, at compile time."""
        w, b = weights
        feed = RNG.standard_normal((4, 3))
        x = Tensor(feed.copy(), requires_grad=True)
        recorder = GraphRecorder({"x": x})
        with recording(recorder):
            scaled = (w * 2.0 + 1.0).tanh()     # 3 constant-only ops
            hidden = (x @ scaled + b).relu()
            loss = (hidden * hidden).sum()
        plan = compile_plan(recorder, {"h": hidden}, loss)
        assert plan.describe()["folded"] >= 3
        # Eager reference with the same arithmetic:
        x2 = Tensor(feed.copy(), requires_grad=True)
        scaled2 = (w * 2.0 + 1.0).tanh()
        hidden2 = (x2 @ scaled2 + b).relu()
        (hidden2 * hidden2).sum().backward()
        result = plan.execute({"x": feed.astype(plan.placeholders["x"].dtype)})
        np.testing.assert_array_equal(result.outputs["h"], hidden2.data)
        np.testing.assert_array_equal(result.grads["x"], x2.grad)
        # Folding must not shrink coverage: repeated replays stay stable
        # (a folded buffer recycled into the arena would corrupt step 2).
        again = plan.execute({"x": feed.astype(plan.placeholders["x"].dtype)})
        np.testing.assert_array_equal(again.outputs["h"], hidden2.data)

    def test_unregistered_grad_tensor_poisons_capture(self, weights):
        w, b = weights
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        stray = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        recorder = GraphRecorder({"x": x})
        with recording(recorder):
            y, loss = _network(x + stray, w, b)
        assert not recorder.valid
        assert compile_plan(recorder, {"y": y}, loss) is None


class TestStepProgramLifecycle:
    def _program(self, cache, weights, shape=(4, 3)):
        return cache.program(
            ("test", shape),
            lambda: {"x": Tensor(np.zeros(shape), requires_grad=True)})

    def test_capture_once_replay_thereafter(self, weights):
        cache = PlanCache()
        program = self._program(cache, weights)
        feed = RNG.standard_normal((4, 3))
        program.feed(x=feed)
        assert program.replay() is None          # nothing captured yet
        with program.capture() as active:
            assert active
            x = program.tensor("x")
            y, loss = _network(x, *weights)
        program.finalize({"y": y}, root=loss)
        loss.backward()
        assert cache.stats["captures"] == 1
        feed2 = RNG.standard_normal((4, 3))
        program.feed(x=feed2)
        replayed = program.replay()
        y_ref, grad_ref = _eager(weights, feed2)
        np.testing.assert_array_equal(replayed["y"], y_ref)
        np.testing.assert_array_equal(program.tensor("x").grad, grad_ref)
        assert cache.stats == {"programs": 1, "captures": 1, "replays": 1,
                               "fallbacks": 0}

    def test_fallback_on_shape_change(self, weights):
        cache = PlanCache()
        program = self._program(cache, weights)
        program.feed(x=RNG.standard_normal((4, 3)))
        with program.capture():
            x = program.tensor("x")
            y, loss = _network(x, *weights)
        program.finalize({"y": y}, root=loss)
        program.feed(x=RNG.standard_normal((6, 3)))   # new shape
        assert program.replay() is None               # silent eager fallback
        assert cache.stats["fallbacks"] == 1

    def test_invalid_capture_falls_back_forever(self, weights):
        cache = PlanCache()
        program = self._program(cache, weights)
        program.feed(x=RNG.standard_normal((4, 3)))
        stray = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        with program.capture():
            x = program.tensor("x")
            y, loss = _network(x + stray, *weights)
        program.finalize({"y": y}, root=loss)
        assert not program.ready
        assert cache.stats["fallbacks"] == 1
        with program.capture() as active:
            assert not active                  # poisoned: never re-captures
        assert program.replay() is None

    def test_plan_cache_context(self):
        assert plan_cache() is None
        cache = PlanCache()
        with use_plan_cache(cache):
            assert plan_cache() is cache
        assert plan_cache() is None


class TestProfilerCoverage:
    def test_replayed_steps_reach_the_profiler(self, weights, monkeypatch):
        """``REPRO_PROFILE_OPS`` must see steps 2..K, not just the capture."""
        plan = _capture(weights, RNG.standard_normal((4, 3)))
        feed = RNG.standard_normal((4, 3)).astype(plan.placeholders["x"].dtype)
        baseline = plan.execute({"x": feed})
        with profile_ops() as profile:
            profiled = plan.execute({"x": feed})
        assert profile.forward, "replay produced no profiler spans"
        assert profile.backward, "replayed VJPs produced no spans"
        # Spans are labelled per registry op, the way eager steps report.
        assert set(profile.forward) <= set(OPS)
        assert set(profile.backward) <= set(OPS)
        assert {"matmul", "relu"} <= set(profile.forward)
        # The profiled loop runs the same kernels in the same order.
        assert profiled.outputs.keys() == baseline.outputs.keys()
        for name, value in baseline.outputs.items():
            np.testing.assert_array_equal(profiled.outputs[name], value)
        assert profiled.grads.keys() == baseline.grads.keys()
        for name, value in baseline.grads.items():
            np.testing.assert_array_equal(profiled.grads[name], value)

        # Once profile_ops exits, replays make no sink call at all.
        calls = []
        monkeypatch.setattr(profile, "add_forward",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(profile, "add_backward",
                            lambda *args: calls.append(args))
        after = plan.execute({"x": feed})
        assert calls == []
        np.testing.assert_array_equal(after.grads["x"], baseline.grads["x"])


class TestPolicyKnobs:
    def test_capture_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_ACCEL", raising=False)
        config = AttackConfig.fast()
        monkeypatch.setenv("REPRO_CAPTURE", "0")
        assert not ComputePolicy.from_attack_config(config).graph_capture
        monkeypatch.setenv("REPRO_CAPTURE", "1")
        assert ComputePolicy.from_attack_config(config).graph_capture
        monkeypatch.delenv("REPRO_CAPTURE")
        off = AttackConfig.fast(graph_capture=False)
        assert not ComputePolicy.from_attack_config(off).graph_capture

    def test_backend_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_ACCEL", raising=False)
        monkeypatch.setenv("REPRO_BACKEND", "torch")
        policy = ComputePolicy.from_attack_config(AttackConfig.fast())
        assert policy.tensor_backend == "torch"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig.fast(tensor_backend="tensorflow")
        with pytest.raises(ValueError):
            ComputePolicy(tensor_backend="jax")

    def test_numpy_backend_always_available(self):
        assert "numpy" in available_backends()


@pytest.mark.skipif(not has_torch(), reason="torch backend not installed "
                    "(pip install 'repro-pcss-attack[torch]')")
class TestTorchExecutor:
    def test_plan_execution_allclose(self, weights):
        plan = _capture(weights, RNG.standard_normal((4, 3)))
        feed = RNG.standard_normal((4, 3)).astype(plan.placeholders["x"].dtype)
        reference = plan.execute({"x": feed})
        torched = plan.execute({"x": feed}, backend="torch")
        np.testing.assert_allclose(torched.outputs["y"],
                                   reference.outputs["y"],
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(torched.grads["x"], reference.grads["x"],
                                   rtol=1e-5, atol=1e-6)

"""Compiled-plan benchmark: eager vs graph-capture replay vs torch backend.

One white-box cell — the norm-bounded colour attack's step computation
(PointNet++ forward, adversarial loss, backward) on a 96-point synthetic
office scene, the shape the constant-folding pass was tuned on — measured
two ways:

* **step loop** — the per-step computation in isolation: an eager step
  rebuilds the autograd tape through closures; a compiled step replays the
  arena-allocated plan.  This isolates what the compile layer
  changes and carries the gated >= 2x floor.
* **end to end** — full ``run_attack`` wall-clock with ``graph_capture``
  on vs off, informational: per-step work outside the tensor graph (sign
  step, projection, history) and per-run fixed costs dilute the ratio.

With ``tensor_backend="torch"`` the same cell also runs on the optional
torch backend (reported only when torch is installed; absent torch is not
a failure).

Two exact (0/1) metrics are drift-gated via ``compare.py --check`` against
the committed ``BENCH_compile_baseline.json``:

* ``bitwise_identical`` — the compiled step's (logits, loss, gradient)
  AND the compiled end-to-end run's payloads/history must be bit-for-bit
  equal to eager (the whole point of the design);
* ``speedup_ok`` — the compiled step loop must stay >= 2x faster than the
  eager one on this cell (the PR's acceptance floor; this cell measures
  ~2.3x on one pinned CI vCPU).

Raw speedups and wall-clocks ride along as strings: absolute timings are
machine-dependent and must not hit the numeric drift gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_compile.py [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# Thread pinning must precede the first numpy import to reach the BLAS pool
# (mirrors repro.accel.threads.pin_blas_env).
_threads = str(max(int(os.environ.get("REPRO_SMOKE_THREADS", "1")), 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, _threads)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402

from repro.accel import (attack_compute, last_attack_plan_stats,  # noqa: E402
                         pin_compute_threads)
from repro.core import AttackConfig, run_attack  # noqa: E402
from repro.core.objectives import adversarial_loss  # noqa: E402
from repro.datasets import generate_room_scene  # noqa: E402
from repro.models import build_model  # noqa: E402
from repro.nn import Tensor  # noqa: E402
from repro.nn.backends import has_torch  # noqa: E402
from repro.nn.compile import PlanCache, use_plan_cache  # noqa: E402

#: The gated floor for the compiled-vs-eager step-loop speedup.
SPEEDUP_FLOOR = 2.0

#: Timed steps per trial in the step-loop measurement.
STEP_LOOP_STEPS = 50

#: Best-of trials per path; min-of-K discards scheduler noise, which only
#: ever inflates wall-clock.
STEP_LOOP_TRIALS = 7

#: Steps in the end-to-end runs (informational timing + bitwise gate).
E2E_STEPS = 30


def _cell_inputs():
    model = build_model("pointnet2", num_classes=13, hidden=16, seed=0)
    model.eval()
    scene = generate_room_scene(num_points=96, room_type="office",
                                rng=np.random.default_rng(7), name="compile")
    return model, scene


def run_step_loop_bench(steps: int = STEP_LOOP_STEPS,
                        trials: int = STEP_LOOP_TRIALS) -> dict:
    """Time the bounded engine's step computation: eager tape vs replay.

    Every step feeds a fresh perturbed colour tensor, runs the model
    forward, the adversarial loss and the backward pass, and reads the
    input gradient — exactly what ``NormBoundedAttack`` does between its
    sign steps.  The replayed variant is checked bit-for-bit against the
    eager one before any timing is trusted.
    """
    model, scene = _cell_inputs()
    config = AttackConfig.fast(method="bounded", field="color", seed=0)
    coords = np.asarray(scene.coords, dtype=np.float64)
    colors = np.asarray(scene.colors, dtype=np.float64)
    labels = np.asarray(scene.labels, dtype=np.int64)[None]
    mask = np.ones((1, coords.shape[0]), dtype=bool)
    rng = np.random.default_rng(0)
    deltas = [rng.uniform(-0.03, 0.03, size=colors.shape)
              for _ in range(steps)]

    def eager_step(delta):
        colors_t = Tensor((colors + delta)[None], requires_grad=True)
        logits = model(Tensor(coords[None]), colors_t)
        loss = adversarial_loss(config.objective, logits, labels, None, mask)
        loss.backward()
        return logits.data, np.asarray(loss.data), colors_t.grad

    with attack_compute(model, config) as cache:
        plans = PlanCache()
        with use_plan_cache(plans):
            program = plans.program(
                ("bench",), lambda: {"colors": Tensor(colors[None].copy(),
                                                      requires_grad=True)})

            def compiled_step(delta):
                program.feed(colors=(colors + delta)[None])
                replayed = program.replay()
                if replayed is None:
                    colors_t = program.tensor("colors")
                    colors_t.grad = None
                    with program.capture():
                        logits = model(Tensor(coords[None]), colors_t)
                        loss = adversarial_loss(config.objective, logits,
                                                labels, None, mask)
                    program.finalize({"logits": logits, "loss": loss},
                                     root=loss)
                    loss.backward()
                    return logits.data, np.asarray(loss.data), colors_t.grad
                return (replayed["logits"], np.asarray(replayed["loss"]),
                        program.tensor("colors").grad)

            # Correctness first: replay must be bit-identical to eager.
            compiled_step(deltas[0])                   # capture step
            identical = True
            for delta in deltas[:5]:
                cache.advance()
                eager_out = eager_step(delta)
                compiled_out = compiled_step(delta)
                identical = identical and all(
                    np.array_equal(a, b)
                    for a, b in zip(eager_out, compiled_out))

            # Interleave eager/compiled trials so slow machine phases
            # (thermal throttle, noisy neighbours) hit both paths alike.
            eager_s = compiled_s = float("inf")
            for _ in range(trials):
                start = time.perf_counter()
                for delta in deltas:
                    cache.advance()
                    eager_step(delta)
                eager_s = min(eager_s, time.perf_counter() - start)

                start = time.perf_counter()
                for delta in deltas:
                    cache.advance()
                    compiled_step(delta)
                compiled_s = min(compiled_s, time.perf_counter() - start)

    return {"eager_s": eager_s, "compiled_s": compiled_s,
            "speedup": eager_s / compiled_s, "bitwise_identical": identical,
            "plan": program.plan.describe() if program.plan else None}


def _timed_attack(model, scene, config, repeats: int):
    result = run_attack(model, scene, config)          # warm-up, untimed
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_attack(model, scene, config)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_e2e_bench(repeats: int = 3) -> dict:
    """Full ``run_attack`` with capture on/off: bitwise gate + wall-clocks."""
    model, scene = _cell_inputs()
    # target_accuracy=-1.0 is unreachable, so every run spends all steps
    # and the timed variants do identical amounts of work.
    config = AttackConfig.fast(method="bounded", field="color",
                               bounded_steps=E2E_STEPS, seed=0,
                               target_accuracy=-1.0)
    eager_s, eager = _timed_attack(
        model, scene, dataclasses.replace(config, graph_capture=False),
        repeats)
    compiled_s, compiled = _timed_attack(model, scene, config, repeats)
    plans = last_attack_plan_stats()
    identical = (np.array_equal(eager.adversarial_colors,
                                compiled.adversarial_colors)
                 and np.array_equal(eager.adversarial_coords,
                                    compiled.adversarial_coords)
                 and eager.history == compiled.history)
    summary = {"eager_s": eager_s, "compiled_s": compiled_s,
               "speedup": eager_s / compiled_s,
               "bitwise_identical": identical, "plan_stats": plans,
               "torch": None}
    if has_torch():
        torch_s, torched = _timed_attack(
            model, scene, dataclasses.replace(config,
                                              tensor_backend="torch"),
            repeats)
        summary["torch"] = {
            "torch_s": torch_s,
            "speedup_vs_eager": eager_s / torch_s,
            # Same tolerance band as the engine contract's fast policy.
            "allclose": bool(np.allclose(torched.adversarial_colors,
                                         eager.adversarial_colors,
                                         rtol=1e-4, atol=1e-5)),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write metrics in the pytest-benchmark schema "
                             "for compare.py")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats for the end-to-end runs "
                             "(best-of; default 3)")
    args = parser.parse_args(argv)
    pin_compute_threads(int(os.environ.get("REPRO_SMOKE_THREADS", "1")))

    step = run_step_loop_bench()
    e2e = run_e2e_bench(repeats=max(args.repeats, 1))
    identical = step["bitwise_identical"] and e2e["bitwise_identical"]
    speedup_ok = step["speedup"] >= SPEEDUP_FLOOR

    print(f"step loop ({STEP_LOOP_STEPS} steps): eager {step['eager_s']:.3f}s, "
          f"compiled {step['compiled_s']:.3f}s -> x{step['speedup']:.2f} "
          f"(floor x{SPEEDUP_FLOOR:.1f}: {'ok' if speedup_ok else 'FAIL'})")
    print(f"plan: {step['plan']}")
    print(f"end to end ({E2E_STEPS} steps): eager {e2e['eager_s']:.3f}s, "
          f"compiled {e2e['compiled_s']:.3f}s -> x{e2e['speedup']:.2f} "
          f"({e2e['plan_stats']})")
    print(f"bitwise identical: {identical}")
    if e2e["torch"] is None:
        print("torch backend: not installed (skipped)")
    else:
        print(f"torch:    {e2e['torch']['torch_s']:.3f}s "
              f"(x{e2e['torch']['speedup_vs_eager']:.2f} vs eager, "
              f"allclose: {e2e['torch']['allclose']})")

    if args.json:
        torch_note = ("unavailable" if e2e["torch"] is None
                      else f"x{e2e['torch']['speedup_vs_eager']:.2f} "
                           f"allclose={e2e['torch']['allclose']}")
        payload = {
            "benchmarks": [{
                "name": "bench_compile[bounded-96]",
                "stats": {"mean": step["compiled_s"]},
                # The two 0/1 verdicts are the gated metrics: exact values
                # a drift gate can hold at zero tolerance.  Wall-clocks and
                # raw ratios are strings — informational, machine-bound.
                "extra_info": {
                    "bitwise_identical": 1.0 if identical else 0.0,
                    "speedup_ok": 1.0 if speedup_ok else 0.0,
                    "step_speedup": f"x{step['speedup']:.2f}",
                    "e2e_speedup": f"x{e2e['speedup']:.2f}",
                    "eager_s": f"{step['eager_s']:.3f}",
                    "compiled_s": f"{step['compiled_s']:.3f}",
                    "replays": str(e2e["plan_stats"].get("replays", 0)),
                    "torch": torch_note,
                },
            }],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    return 0 if (identical and speedup_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())

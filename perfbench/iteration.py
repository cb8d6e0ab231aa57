"""One benchmark iteration in a fresh interpreter (started by ``run.py``).

``--prepare`` fills the checkpoint cache (untimed) and records the machine
fingerprint.  Otherwise the process sets a workload up, measures its
measured phase, optionally traced, and writes the result as JSON to
``--out``.  Set-up time counts from ``--spawned``, the monotonic clock
reading taken by the parent just before it started this interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def prepare(cache_dir: str, fingerprint_path: str) -> None:
    """Train the victim models once, from the fixed training seed 0.

    ``run.py`` copies them to each input seed's file names before every
    iteration, so every input attacks the same victims.
    """
    from repro.accel import pin_compute_threads
    from repro.experiments.context import ExperimentConfig, ExperimentContext
    from workloads import ALL_MODELS

    pin_compute_threads(1)
    context = ExperimentContext(ExperimentConfig.default(
        seed=0, cache_dir=cache_dir))
    for model in ALL_MODELS:
        context.model(model, "s3dis")
    if not os.path.exists(fingerprint_path):
        with open(fingerprint_path, "w") as handle:
            json.dump(fingerprint(), handle, indent=1, sort_keys=True)


def fingerprint() -> dict:
    """The telemetry manifest's machine fields plus core count and BLAS build."""
    import numpy as np

    from repro.telemetry.manifest import build_manifest

    manifest = build_manifest()
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy < 1.26 has no dict mode
        pass
    return {"nproc": os.cpu_count(), "python": manifest["python"],
            "numpy": manifest["numpy"], "platform": manifest["platform"],
            "blas": {k: blas.get(k) for k in ("name", "version",
                                              "openblas configuration")
                     if k in blas}}


def measure(args) -> dict:
    from repro.accel import pin_compute_threads
    from proctree import tree_usage
    from workloads import WORKLOADS

    pin_compute_threads(1)
    recorder = None
    if args.trace:
        import tracing
        spill = os.path.join(args.scratch, "spans")
        os.makedirs(spill, exist_ok=True)
        recorder = tracing.Recorder(spill)
        tracing.install(recorder)
    workload = WORKLOADS[args.workload](args.seed, args.cache, args.scratch)
    try:
        workload.setup()
        ready = time.monotonic()
        if recorder is not None:
            recorder.clear()
        pid = os.getpid()
        before = tree_usage(pid)
        start = time.perf_counter()
        outcome = workload.run()
        end = time.perf_counter()
        after = tree_usage(pid)
        result = {
            "setup_s": ready - args.spawned,
            "wall_s": end - start,
            "cpu_s": (after["user_s"] + after["sys_s"]
                      - before["user_s"] - before["sys_s"]),
            "sys_s": after["sys_s"] - before["sys_s"],
            "minor_faults": after["minor_faults"] - before["minor_faults"],
            "digest": outcome.digest,
            "checks": outcome.checks,
            "requests": outcome.requests,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "layer": dict(outcome.layer),
        }
        if recorder is not None:
            result["layer"].update(layer_metrics(recorder, start, end, result,
                                                 args.trace_out))
    finally:
        workload.teardown()
    # Every process of the tree has been reaped by now: the children's
    # figure is the largest peak among them.
    result["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    return result


def layer_metrics(recorder, start: float, end: float, result: dict,
                  trace_out: str) -> dict:
    """Per-layer metrics of a traced measured phase; writes the exports."""
    import threading

    import tracing

    batches, counts = recorder.collect()
    own, inclusive = tracing.self_time_by_name(batches)
    with open(trace_out + ".json", "w") as handle:
        json.dump(tracing.chrome_trace(batches, start, recorder.root_pid),
                  handle)
    with open(trace_out + ".txt", "w") as handle:
        handle.write(tracing.self_time_table(
            batches, start, end, recorder.root_pid,
            threading.main_thread().ident))
    main = [s for groups in tracing.lanes(batches).get(
        (recorder.root_pid, threading.main_thread().ident), [])
        for s in groups]
    main_self, unattributed = tracing.lane_accounting(main, start, end)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = counts.get
    plan_steps = c("compile.replays", 0) + c("compile.captures", 0) \
        + c("compile.fallbacks", 0)
    store_reads = c("pipeline.store_hits", 0) + c("pipeline.store_misses", 0)
    return {
        "compile.replay_s": own.get("compile.replay", 0.0),
        "compile.compile_s": own.get("compile.compile", 0.0),
        "compile.captures": c("compile.captures", 0),
        "compile.replays": c("compile.replays", 0),
        "compile.fallbacks": c("compile.fallbacks", 0),
        "compile.replay_ratio": ratio(c("compile.replays", 0), plan_steps),
        "nn.forward_s": own.get("nn.forward", 0.0),
        "nn.backward_s": own.get("nn.backward", 0.0),
        "nn.eager_steps": c("nn.eager_steps", 0),
        "accel.neighbourhood_s": own.get("accel.neighbourhood", 0.0),
        "accel.lookups": c("accel.lookups", 0),
        "accel.misses": c("accel.misses", 0),
        "accel.hit_ratio": 1.0 - ratio(c("accel.misses", 0),
                                       c("accel.lookups", 0))
        if c("accel.lookups", 0) else 0.0,
        "core.attack_s": own.get("core.attack", 0.0),
        "core.attacks": c("core.attacks", 0),
        "core.steps": c("core.steps", 0),
        "core.step_ms": 1000.0 * ratio(c("core.attack_incl_s", 0.0),
                                       c("core.steps", 0)),
        "core.queries": c("core.queries", 0),
        "models.report_s": own.get("models.report", 0.0),
        "proc.sys_s": result["sys_s"],
        "proc.minor_faults": result["minor_faults"],
        "pipeline.busy_s": c("pipeline.busy_s", 0.0),
        "pipeline.worker_util": ratio(c("pipeline.busy_s", 0.0),
                                      c("pipeline.capacity_s", 0.0)),
        "pipeline.store_get_s": own.get("pipeline.store_get", 0.0),
        "pipeline.store_put_s": own.get("pipeline.store_put", 0.0),
        "pipeline.store_hit_ratio": ratio(c("pipeline.store_hits", 0),
                                          store_reads),
        "pipeline.retries": c("pipeline.retries", 0),
        "trace.main_self_s": main_self,
        "trace.unattributed_s": unattributed,
        "trace.spans": float(sum(len(spans) for _, spans in batches)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--scratch")
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--prepare", metavar="FINGERPRINT_JSON")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.prepare:
        prepare(args.cache, args.prepare)
        return 0
    result = measure(args)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

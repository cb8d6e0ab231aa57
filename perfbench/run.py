"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3_color --seed 1 --seconds 20 --trace 0

The workload runs as repeated iterations, each in a fresh interpreter with
BLAS and kd-tree threads pinned to one, until ``--seconds`` are used.  The
checkpoint cache is filled once, untimed, before the first iteration.  The
seed derives one input seed per iteration: the first input runs twice (the
run's own determinism check) and every later iteration draws a new one.  An
end-to-end metric is the median over the inputs of each input's median.
Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of traced
iterations (interleaved with untraced ones for the tracing overhead) and
writes a Chrome trace-event JSON plus a self-time table per traced
iteration under ``perfbench/_work/out/``.

Exits non-zero without a result when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import (beyond_count, median, nearest_rank, relative_iqr,  # noqa: E402
                   tail_percentile)

WORK = os.path.join(HERE, "_work")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
         + BENCHMARK["per_layer"]}

#: Wall-clock limits: the whole run, one iteration, the first-ever build.
RUN_LIMIT_S = 150.0
ITERATION_LIMIT_S = 120.0
PREPARE_LIMIT_S = 850.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # The telemetry manifest runs `git describe`; keep its repository search
    # inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    # BLAS reads these when NumPy loads, before the child can pin anything
    # itself (the same list as repro.accel.threads).
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    for name in ("REPRO_ACCEL", "REPRO_BACKEND", "REPRO_CAPTURE",
                 "REPRO_KNN_WORKERS", "REPRO_PROFILE_OPS", "REPRO_CACHE_DIR",
                 "REPRO_FAULT_PLAN"):
        env.pop(name, None)
    return env


def input_seed(seed: int, index: int, traced_run: bool) -> int:
    """The input seed of iteration ``index`` of a run with ``seed``.

    Iterations 0 and 1 share the first input, so every run checks that the
    program repeats its output, traced against untraced in a ``--trace 1``
    run.  In an untraced run every later iteration gets an input of its own,
    so the run's medians span several inputs and differ less from seed to
    seed.  A traced run keeps pairs (untraced, traced) on one input, which
    the tracing overhead compares.
    """
    draw = index // 2 if traced_run else max(index - 1, 0)
    digest = hashlib.sha256(f"{seed}/{draw}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2 ** 31)


def stage_checkpoints(seed: int) -> List[str]:
    """Copy the trained victims to the file names ``seed``'s context loads.

    The victims are part of the program under test, not of its input: they
    are trained once from seed 0 (``iteration.py --prepare``), and a fresh
    copy before every iteration means a retrained checkpoint never leaves a
    stale one behind.  Returns the copies, which the caller removes.
    """
    cache = os.path.join(WORK, "cache")
    staged = []
    for path in glob.glob(os.path.join(cache, "*_s0.npz")):
        target = path[: -len("_s0.npz")] + f"_s{seed}.npz"
        if target != path:
            shutil.copyfile(path, target)
            staged.append(target)
    return staged


def run_child(args: List[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "iteration.py"),
                           *args], env=child_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


def iteration(workload: str, seed: int, traced: bool, index: int,
              timeout: float) -> Optional[Dict[str, Any]]:
    """One fresh-interpreter iteration; ``None`` when it crashed."""
    scratch = os.path.join(WORK, "scratch", f"{workload}-{os.getpid()}-{index}")
    out = scratch + ".json"
    os.makedirs(scratch, exist_ok=True)
    trace_out = os.path.join(WORK, "out", f"{workload}-input{seed}-it{index}")
    staged = stage_checkpoints(seed)
    spawned = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "iteration.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
         "--cache", os.path.join(WORK, "cache"), "--scratch", scratch,
         "--out", out, "--trace-out", trace_out, "--spawned", repr(spawned)],
        env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stderr = f"timed out after {timeout:.0f} s"
    finally:
        # The iteration's session holds its pool and server workers too:
        # nothing it started may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    try:
        if process.returncode != 0 or not os.path.exists(out):
            sys.stderr.write(f"iteration {index} failed (exit "
                             f"{process.returncode}):\n{stderr[-4000:]}\n")
            return None
        with open(out) as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        for path in staged + [out]:
            if os.path.exists(path):
                os.remove(path)
    result["traced"] = traced
    result["input_seed"] = seed
    return result


def check_digest(workload: str, results: List[Dict[str, Any]]) -> List[tuple]:
    """Digests agree per input, within the run and with earlier runs."""
    by_input: Dict[int, List[str]] = {}
    for r in results:
        by_input.setdefault(r["input_seed"], []).append(r["digest"])
    repeated = [d for d in by_input.values() if len(d) > 1]
    checks = [("table digest identical across iterations of one input "
               "(traced and untraced)", all(len(set(d)) == 1 for d in repeated),
               f"{sum(map(len, repeated))} runs of {len(repeated)} inputs")]
    for seed, digests in sorted(by_input.items()):
        ledger = os.path.join(WORK, "digests", f"{workload}-input{seed}.txt")
        if os.path.exists(ledger):
            with open(ledger) as handle:
                known = handle.read().strip()
            checks.append((f"input {seed}: table digest identical to earlier "
                           f"runs", known == digests[0], known[:12]))
        else:
            os.makedirs(os.path.dirname(ledger), exist_ok=True)
            with open(ledger, "w") as handle:
                handle.write(digests[0] + "\n")
    return checks


def metric_line(name: str, value: float, samples, spread: str = "") -> str:
    unit = UNITS.get(name, "")
    return f"  {name:<26} {value:>14.6g} {unit:<6} n={samples}{spread}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program to measure (src/repro is "
                         "missing under the repository root)\n")
        return 2
    os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
    fingerprint_path = os.path.join(WORK, "fingerprint.json")
    try:
        prepared = run_child(["--prepare", fingerprint_path, "--cache",
                              os.path.join(WORK, "cache")], PREPARE_LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: preparing the checkpoint cache timed out\n")
        return 1
    if prepared.returncode != 0:
        sys.stderr.write(f"perfbench: preparation failed:\n{prepared.stderr}\n")
        return 1

    # Iterations: until --seconds are used (at least two; with --trace 1,
    # untraced and traced alternate, at least one of each).  The run limit
    # counts from here: only the first run in a checkout trains, and it may
    # take longer.
    clock = time.monotonic()
    results: List[Dict[str, Any]] = []
    crashed = 0
    durations: List[float] = []
    while True:
        index = len(results) + crashed
        traced = bool(args.trace) and index % 2 == 1
        left = RUN_LIMIT_S - (time.monotonic() - clock)
        began = time.monotonic()
        result = iteration(args.workload,
                           input_seed(args.seed, index, bool(args.trace)),
                           traced, index,
                           min(ITERATION_LIMIT_S, max(left, 1.0)))
        durations.append(time.monotonic() - began)
        if result is None:
            crashed += 1
        else:
            results.append(result)
        used = time.monotonic() - clock
        typical = median(durations)
        if index + 1 >= 2 and used + typical > args.seconds:
            break
        if used + 1.5 * typical > RUN_LIMIT_S:
            break
    plain = [r for r in results if not r["traced"]]
    traced_runs = [r for r in results if r["traced"]]
    if not plain or (args.trace and not traced_runs):
        sys.stderr.write("perfbench: every iteration of a kind failed\n")
        return 1
    run_checks = check_digest(args.workload, results)
    checks = run_checks + [tuple(c) for r in results for c in r["checks"]]
    # Iteration checks are already counted in each iteration's tallies; a
    # crashed iteration counts as one failed operation.
    attempted = (sum(r["attempted"] for r in results) + len(run_checks)
                 + crashed)
    failed = (sum(r["failed"] for r in results) + crashed
              + sum(1 for _, ok, _ in run_checks if not ok))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} iterations ({len(traced_runs)} traced), "
          f"{crashed} crashed, {len({r['input_seed'] for r in results})} "
          f"inputs")
    if os.path.exists(fingerprint_path):
        with open(fingerprint_path) as handle:
            print("machine " + json.dumps(json.load(handle), sort_keys=True))
    for name, ok, detail in dict.fromkeys(checks):
        print(f"  check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    for index, r in enumerate(results):
        print(f"  iteration {index}{' traced' if r['traced'] else ''} input "
              f"{r['input_seed']}: setup "
              f"{r['setup_s']:.3f} s, wall {r['wall_s']:.3f} s, cpu "
              f"{r['cpu_s']:.3f} s (sys {r['sys_s']:.3f} s, "
              f"{r['minor_faults']:.0f} minor faults), peak rss "
              f"{r['peak_rss_mb']:.1f} MB")

    metrics: Dict[str, Dict[str, Any]] = {}

    def report(name: str, values: List[float], spread: bool = True) -> None:
        value = median(values)
        metrics[name] = {"value": value, "unit": UNITS[name]}
        extra = (f" iqr/median={relative_iqr(values):.3f}"
                 if spread and len(values) > 2 else "")
        print(metric_line(name, value, len(values), extra))

    def per_input(value_of) -> List[float]:
        """One value per input: the median over that input's iterations."""
        groups: Dict[int, List[float]] = {}
        for r in plain:
            groups.setdefault(r["input_seed"], []).append(value_of(r))
        return [median(values) for values in groups.values()]

    if not args.trace:
        print("end-to-end metrics (median over inputs of the median over "
              "each input's iterations; n = inputs):")
        for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
            report(name, per_input(lambda r: r[name]))
        # Request percentiles are taken per iteration, whose sample count the
        # workload fixes: the nearest rank then does not move with the number
        # of iterations that fit in a run.
        sizes = sorted({len(r["requests"]) for r in plain})
        for name, percentile in (("request_p50_s", 50.0),
                                 ("request_p90_s", 90.0)):
            values = per_input(lambda r: nearest_rank(r["requests"],
                                                      percentile))
            metrics[name] = {"value": median(values), "unit": UNITS[name]}
            print(metric_line(name, median(values), f"{len(values)}x"
                              f"{'/'.join(str(n) for n in sizes)}"))
        tail = tail_percentile(plain[0]["requests"])
        print("  request tail per iteration: " + (
            f"p{tail[0]:g} is the highest percentile with >=10 of the "
            f"{tail[2]} samples beyond it" if tail else
            f"no percentile has 10 samples beyond it (n={sizes[0]}); "
            f"request_p90_s is sample {sizes[0] - beyond_count(sizes[0], 90.0)}"
            f" of {sizes[0]} in order"))
    else:
        print("per-layer metrics (median over traced iterations):")
        for metric in BENCHMARK["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_ratio":
                continue
            report(name, [r["layer"].get(name, 0.0) for r in traced_runs],
                   spread=False)
        ratio = (median([r["wall_s"] for r in traced_runs])
                 / median([r["wall_s"] for r in plain]))
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        print(metric_line("trace.overhead_ratio", ratio, len(traced_runs)))
        for r in traced_runs:
            layer = r["layer"]
            print(f"  traced wall {r['wall_s']:.4f} s = main-thread self "
                  f"{layer['trace.main_self_s']:.4f} s + unattributed "
                  f"{layer['trace.unattributed_s']:.4f} s "
                  f"({layer['trace.spans']:.0f} spans)")
        print(f"  exports: {os.path.relpath(os.path.join(WORK, 'out'), ROOT)}/"
              f"{args.workload}-input*-it*.json|.txt")

    print(f"  failed_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point for regenerating individual experiments.

Examples
--------
Run Table III at the default (CPU-friendly) scale::

    python -m repro.experiments.run --experiment table3

Run every experiment and write the formatted tables to a directory::

    python -m repro.experiments.run --experiment all --output results/

Use ``--paper-scale`` to switch to the paper's cloud sizes and step counts
(very slow on CPU), ``--list`` to enumerate the experiment names, and
``--jobs N`` to fan the per-cell attack tasks out onto N worker processes
through :mod:`repro.pipeline` (``--jobs 1``, the default, preserves the
classic serial in-process behaviour).
"""

from __future__ import annotations

import argparse
import os
from contextlib import nullcontext
from typing import Callable, Dict, Optional

from .ablations import (
    run_epsilon_ablation,
    run_lambda2_ablation,
    run_neighbourhood_ablation,
    run_steps_ablation,
)
from ..pipeline.cli import nonnegative_int, positive_int
from .context import ExperimentConfig, ExperimentContext
from .extensions import run_alternating_ablation, run_pct_extension
from .figures import run_figures
from .overhead import run_overhead
from .reporting import TableResult
from .table2 import run_table2
from .table3 import run_table3
from .table45 import run_table4, run_table5
from .table67 import run_table6, run_table7
from .table8 import run_table8
from .table9 import run_table9
from .table_blackbox import run_table_blackbox
from .table_defenses import run_table_defenses

EXPERIMENTS: Dict[str, Callable[[ExperimentContext], TableResult]] = {
    "table2": run_table2,
    "table3": run_table3,
    "table_blackbox": run_table_blackbox,
    "table_defenses": run_table_defenses,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
    "table8": run_table8,
    "table9": run_table9,
    "figures": run_figures,
    "overhead": run_overhead,
    "ablation_lambda2": run_lambda2_ablation,
    "ablation_epsilon": run_epsilon_ablation,
    "ablation_steps": run_steps_ablation,
    "ablation_neighbourhood": run_neighbourhood_ablation,
    "extension_pct": run_pct_extension,
    "extension_alternating": run_alternating_ablation,
}


def experiment_summaries() -> Dict[str, str]:
    """One-line summary per registered experiment.

    Sourced from the first docstring line of each runner, so the registry
    itself is the single source of truth — ``docs/EXPERIMENTS.md`` is
    generated from this (and ``tests/test_docs.py`` fails when they
    diverge, the doc-sync gate this repo once needed: table_blackbox and
    table_defenses had silently gone missing from the README table).
    """
    summaries: Dict[str, str] = {}
    for name, runner in EXPERIMENTS.items():
        lines = (runner.__doc__ or "").strip().splitlines()
        summaries[name] = lines[0].rstrip() if lines else "(undocumented)"
    return summaries


def experiments_markdown_table() -> str:
    """The experiment registry as a GitHub-flavoured markdown table.

    Printed by ``--list --markdown`` and embedded verbatim in
    ``docs/EXPERIMENTS.md``; regenerate with::

        PYTHONPATH=src python -m repro.experiments.run --list --markdown
    """
    from .plans import _NEVER_CACHE
    summaries = experiment_summaries()
    lines = ["| experiment | cached | summary |",
             "|---|---|---|"]
    for name in sorted(EXPERIMENTS):
        cached = "no" if name in _NEVER_CACHE else "yes"
        lines.append(f"| `{name}` | {cached} | {summaries[name]} |")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--experiment", default="table3",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which experiment to regenerate")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's full-scale parameters (slow)")
    parser.add_argument("--output", default=None,
                        help="directory to write formatted tables into")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--list", action="store_true",
                        help="list the experiment names and exit")
    parser.add_argument("--markdown", action="store_true",
                        help="with --list: print the registry as the "
                             "markdown table embedded in docs/EXPERIMENTS.md")
    parser.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                        help="worker processes for the attack cells; with N > 1 "
                             "completed cells are also cached in the result "
                             "store under <cache_dir>/results and reused on "
                             "re-runs (1 = classic serial behaviour)")
    parser.add_argument("--fresh", action="store_true",
                        help="with --jobs N: recompute every cell, ignoring "
                             "previously cached results")
    parser.add_argument("--no-store", action="store_true",
                        help="with --jobs N: do not read or write the result "
                             "store at all")
    parser.add_argument("--batch-scenes", type=positive_int, default=1,
                        metavar="B",
                        help="scenes driven per attack loop inside each cell "
                             "(results are identical at any value)")
    parser.add_argument("--attack-mode", default="whitebox",
                        choices=("whitebox", "nes", "spsa", "boundary"),
                        help="threat model for every attack cell (black-box "
                             "engines never see gradients)")
    parser.add_argument("--query-budget", type=positive_int, default=None,
                        metavar="Q",
                        help="per-scene query budget of the black-box modes")
    parser.add_argument("--samples-per-step", type=positive_int, default=None,
                        metavar="S",
                        help="finite-difference directions per NES/SPSA step")
    parser.add_argument("--eot-samples", type=positive_int, default=None,
                        metavar="K",
                        help="defense samples per optimisation step of the "
                             "adaptive (defense-aware) attack cells "
                             "(default: the experiment's own value)")
    parser.add_argument("--retries", type=nonnegative_int, default=None,
                        metavar="R",
                        help="retries per task after a transient failure "
                             "(worker crash, broken pool, timeout, injected "
                             "fault); runs through the pipeline scheduler "
                             "even at --jobs 1")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per task attempt "
                             "(enforced with --jobs > 1); runs through the "
                             "pipeline scheduler")
    parser.add_argument("--fault-plan", default=None, metavar="PLAN",
                        help="deterministic fault injection "
                             "(PATTERN=MODE[:TIMES[:SECONDS]] clauses, see "
                             "`python -m repro.pipeline --help`); runs "
                             "through the pipeline scheduler")
    parser.add_argument("--backend", default=None,
                        choices=("auto", "serial", "local", "remote"),
                        help="executor backend of the pipeline scheduler; "
                             "'remote' dispatches cells to repro.serve "
                             "worker daemons (forces scheduler delegation)")
    parser.add_argument("--workers", default=None, metavar="HOST:PORT,...",
                        help="comma-separated repro.serve daemon addresses "
                             "of --backend remote")
    parser.add_argument("--store-url", default=None, metavar="URL",
                        help="shared HTTP result store URL (see `python -m "
                             "repro.pipeline store-serve`)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL telemetry trace of the run "
                             "(inspect with `python -m repro.telemetry "
                             "summarize PATH`)")
    return parser


def run_experiment(name: str, context: ExperimentContext,
                   output_dir: Optional[str] = None) -> TableResult:
    """Run one experiment, print it, and optionally save the formatted table."""
    result = EXPERIMENTS[name](context)
    text = result.formatted()
    print(text)
    print()
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        path = os.path.join(output_dir, f"{result.name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return result


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        if args.markdown:
            print(experiments_markdown_table())
        else:
            for name in sorted(EXPERIMENTS):
                print(name)
        return 0
    resilient = (args.retries is not None or args.task_timeout is not None
                 or args.fault_plan is not None)
    distributed = (args.backend is not None or args.workers is not None
                   or args.store_url is not None)
    if args.jobs > 1 or resilient or distributed:
        # Delegate to the pipeline CLI: one merged task graph, one worker
        # pool, shared dataset/model tasks deduplicated across experiments.
        # Resilience knobs force the delegation even at --jobs 1: retries,
        # deadlines and fault plans live in the scheduler, not in the
        # classic inline path.
        from ..pipeline import cli as pipeline_cli
        forwarded = ["--experiment", args.experiment,
                     "--jobs", str(args.jobs), "--seed", str(args.seed),
                     "--batch-scenes", str(args.batch_scenes),
                     "--attack-mode", args.attack_mode]
        if args.query_budget is not None:
            forwarded += ["--query-budget", str(args.query_budget)]
        if args.samples_per_step is not None:
            forwarded += ["--samples-per-step", str(args.samples_per_step)]
        if args.eot_samples is not None:
            forwarded += ["--eot-samples", str(args.eot_samples)]
        if args.paper_scale:
            forwarded += ["--scale", "paper"]
        if args.output:
            forwarded += ["--output", args.output]
        if args.fresh:
            forwarded.append("--fresh")
        if args.no_store:
            forwarded.append("--no-store")
        if args.retries is not None:
            forwarded += ["--retries", str(args.retries)]
        if args.task_timeout is not None:
            forwarded += ["--task-timeout", str(args.task_timeout)]
        if args.fault_plan is not None:
            forwarded += ["--fault-plan", args.fault_plan]
        if args.backend is not None:
            forwarded += ["--backend", args.backend]
        if args.workers is not None:
            forwarded += ["--workers", args.workers]
        if args.store_url is not None:
            forwarded += ["--store-url", args.store_url]
        if args.trace:
            forwarded += ["--trace", args.trace]
        return pipeline_cli.main(forwarded)
    knobs = dict(seed=args.seed, batch_scenes=args.batch_scenes,
                 attack_mode=args.attack_mode, query_budget=args.query_budget,
                 samples_per_step=args.samples_per_step,
                 eot_samples=args.eot_samples)
    config = (ExperimentConfig.paper_scale(**knobs) if args.paper_scale
              else ExperimentConfig.default(**knobs))
    context = ExperimentContext(config)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    tracer_cm = nullcontext()
    if args.trace:
        from ..pipeline.scheduler import config_salt
        from ..telemetry import build_manifest, trace_to
        tracer_cm = trace_to(args.trace, manifest=build_manifest(
            salt=config_salt(config),
            extra={"experiments": names, "jobs": 1}))
    with tracer_cm:
        for name in names:
            run_experiment(name, context, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

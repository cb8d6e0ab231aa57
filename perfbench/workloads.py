"""The four benchmark workloads.

Each workload has a set-up phase (everything before it can take work), a
measured phase and a tear-down.  The measured phase returns an
:class:`Outcome`: the digest of what the program produced, the correctness
checks, the request latencies and the operation counts.

The iteration's input seed, which ``run.py`` derives from the workload
seed, feeds ``ExperimentConfig.seed`` (which draws the attacked scenes)
and, for ``serve_cells``, the order of the request stream and the attack
seed of every fresh job.  The victim models are trained once per checkout
from a fixed training seed (see ``iteration.py --prepare``).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Models the table workloads attack (Table III's three PCSS models).
ALL_MODELS = ("pointnet2", "resgcn", "randlanet")


@dataclass
class Outcome:
    """What one measured phase produced."""

    digest: str
    checks: List[Tuple[str, bool, str]]
    requests: List[float]
    attempted: int
    failed: int
    layer: Dict[str, float] = field(default_factory=dict)


def table_digest(table) -> str:
    """SHA-256 of a table's rows, in a canonical JSON rendering."""
    rows = json.dumps(table.rows, sort_keys=True, default=repr)
    return hashlib.sha256(rows.encode()).hexdigest()


def _avg_rows(table, key: str) -> Dict[Tuple[str, str], float]:
    """``(key value, method) -> accuracy_pct`` of the table's average rows."""
    return {(row[key], row["method"]): float(row["accuracy_pct"])
            for row in table.rows if row["case"] == "avg"}


def _report_counts(report) -> Tuple[int, int, List[float]]:
    """``(attempted, failed, attack-cell latencies)`` of a run report."""
    attempted = len(report.records)
    failed = report.count("failed") + report.count("skipped")
    cells = [r.elapsed for r in report.records
             if r.kind == "attack_cell" and r.status == "ran"]
    return attempted, failed, cells


class Workload:
    """Shared set-up: the experiment context with data and models loaded."""

    name = ""
    models: Tuple[str, ...] = ()
    jobs = 1

    def __init__(self, seed: int, cache_dir: str, scratch_dir: str) -> None:
        self.seed = seed
        self.cache_dir = cache_dir
        self.scratch_dir = scratch_dir

    def experiment_config(self):
        from repro.experiments.context import ExperimentConfig
        return ExperimentConfig.default(seed=self.seed,
                                        cache_dir=self.cache_dir)

    def setup(self) -> None:
        from repro.experiments.context import ExperimentContext
        from repro.pipeline import PipelineSession, ResultStore

        store = (ResultStore(os.path.join(self.scratch_dir, "store"))
                 if self.jobs > 1 else None)
        self.session = PipelineSession(jobs=self.jobs, store=store)
        self.context = ExperimentContext(self.experiment_config(),
                                         pipeline=self.session)
        self.context.s3dis_attack_pool()
        for model in self.models:
            self.context.model(model, "s3dis")

    def run(self) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what set-up started (the parent removes the scratch dir)."""


def _outcome(table, report, checks: List[Tuple[str, bool, str]]) -> Outcome:
    attempted, failed, cells = _report_counts(report)
    return Outcome(digest=table_digest(table), checks=checks, requests=cells,
                   attempted=attempted + len(checks),
                   failed=failed + sum(1 for _, ok, _ in checks if not ok))


class Table3Color(Workload):
    """Table III serially in-process: the paper's headline colour attack."""

    name = "table3_color"
    models = ALL_MODELS

    def run(self) -> Outcome:
        from repro.experiments.table3 import MODELS, run_table3

        table = run_table3(self.context)
        acc = _avg_rows(table, "model")
        checks = []
        for model in MODELS:
            noise = acc[(model, "noise")]
            for method in ("bounded", "unbounded"):
                checks.append((
                    f"{model}/{method} colour attack beats noise",
                    acc[(model, method)] < noise,
                    f"{acc[(model, method)]:.2f}% vs noise {noise:.2f}%"))
        return _outcome(table, self.session.last_report, checks)


class Table2Jobs2(Workload):
    """Table II through a two-worker pipeline, then resumed from its store."""

    name = "table2_jobs2"
    models = ("resgcn",)
    jobs = 2

    def run(self) -> Outcome:
        from repro.experiments.table2 import run_table2

        cold = run_table2(self.context)
        cold_report = self.session.last_report
        resumed = run_table2(self.context)
        resumed_report = self.session.last_report
        acc = _avg_rows(cold, "field")
        checks = [
            ("resumed table equals the cold table",
             table_digest(resumed) == table_digest(cold), ""),
            ("resume recomputed no attack cell",
             not _report_counts(resumed_report)[2],
             f"{resumed_report.count('ran')} tasks ran"),
        ]
        for method in ("bounded", "unbounded"):
            color, coord = acc[("color", method)], acc[("coordinate", method)]
            checks.append((f"{method}: colour at least as effective as "
                           f"coordinates", color <= coord,
                           f"{color:.2f}% vs {coord:.2f}%"))
        outcome = _outcome(cold, cold_report, checks)
        attempted, failed, _ = _report_counts(resumed_report)
        outcome.attempted += attempted
        outcome.failed += failed
        return outcome


class BlackboxQuery(Workload):
    """The black-box query-budget table serially: forward-only query loops."""

    name = "blackbox_query"
    models = ("pointnet2",)

    def run(self) -> Outcome:
        from repro.experiments.table_blackbox import run_table_blackbox

        table = run_table_blackbox(self.context)
        checks = [(f"{row['mode']}/q{row['query_budget']} stays in budget",
                   row["queries_used"] <= row["query_budget"],
                   f"{row['queries_used']:.0f} queries")
                  for row in table.rows]
        return _outcome(table, self.session.last_report, checks)


# ---------------------------------------------------------------------- #
# serve_cells
# ---------------------------------------------------------------------- #
#: Fresh cells and repeats in one measured stream.  Together they leave at
#: least ten samples beyond p90; the split itself is an unverified choice
#: (no measured traffic gives it; see the README).
FRESH_REQUESTS = 72
REPEAT_REQUESTS = 32
CLIENTS = 2
#: The model every serve job attacks, also an unverified choice: the
#: cheapest of the three, so that per-request compute stays small.
SERVE_MODEL = "pointnet2"


def cell_params(model: str, attack_seed: int) -> Dict[str, Any]:
    """One serve job: a seeded bounded colour attack on one scene."""
    from repro.experiments.cells import pool_spec

    return {"model": model, "dataset": "s3dis",
            "pool": pool_spec("s3dis", count=1),
            "attack": {"objective": "degradation", "method": "bounded",
                       "field": "color", "seed": int(attack_seed)}}


def request_stream(seed: int, fresh: int = FRESH_REQUESTS,
                   repeats: int = REPEAT_REQUESTS
                   ) -> List[Tuple[int, Dict[str, Any]]]:
    """``(origin, params)`` pairs; a repeat's origin is its first request.

    Fresh requests attack the serve model with seeded attack seeds; each
    repeat re-sends a fresh request at a seeded later position.
    """
    rng = np.random.default_rng([int(seed) % (2 ** 31), 7])
    stream: List[Tuple[int, Dict[str, Any]]] = [
        (index, cell_params(SERVE_MODEL, int(rng.integers(2 ** 31))))
        for index in range(fresh)]
    for _ in range(repeats):
        position = int(rng.integers(fresh))
        origin = next(i for i, (o, _) in enumerate(stream) if o == position)
        at = int(rng.integers(origin + 1, len(stream) + 1))
        stream.insert(at, (position, stream[origin][1]))
    return stream


class ServeCells(Workload):
    """A warm two-worker AttackServer under two closed-loop clients."""

    name = "serve_cells"
    jobs = 2

    def setup(self) -> None:
        from repro.serve import AttackServer, Client, ServerThread

        server = AttackServer(self.experiment_config(), jobs=self.jobs,
                              store=os.path.join(self.scratch_dir, "store"))
        self.thread = ServerThread(server)
        self.address = self.thread.start()
        # Warm every worker: one model-load job per worker, sent together,
        # so each worker builds its context and loads the model before the
        # stream starts.  ``warm`` only makes the job keys distinct.
        client = Client(self.address)
        warm = [client.submit("train_model", {"name": SERVE_MODEL,
                                              "dataset": "s3dis",
                                              "warm": replica})
                for replica in range(self.jobs)]
        for ack in warm:
            reply = client.result(ack["job_id"])
            if not reply.get("ok"):
                raise RuntimeError(f"warm-up job failed: {reply}")
        self.before = client.stats()["jobs"]

    def run(self) -> Outcome:
        from repro.serve import Client

        stream = request_stream(self.seed)
        replies: List[Optional[Dict[str, Any]]] = [None] * len(stream)
        cursor = iter(range(len(stream)))
        lock = threading.Lock()

        def client_loop() -> None:
            client = Client(self.address)
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                start = time.monotonic()
                try:
                    reply = client.run("attack_cell", stream[index][1])
                    latency = time.monotonic() - start
                    status = (client.status(reply["job_id"])
                              if reply.get("ok") else {})
                except Exception as error:  # noqa: BLE001 — counted failed
                    reply, latency, status = {"ok": False,
                                              "error": repr(error)}, 0.0, {}
                replies[index] = {"reply": reply, "latency": latency,
                                  "status": status}

        threads = [threading.Thread(target=client_loop)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = Client(self.address).stats()["jobs"]
        return self._outcome(stream, replies, after)

    def _outcome(self, stream: Sequence[Tuple[int, Mapping[str, Any]]],
                 replies: Sequence[Mapping[str, Any]],
                 after: Mapping[str, int]) -> Outcome:
        first: Dict[int, bytes] = {}
        failed_requests = 0
        repeats_identical = True
        layer = {"serve.queue_wait_s": 0.0, "serve.compute_s": 0.0,
                 "serve.overhead_s": 0.0}
        hit_latencies: List[float] = []
        digest = hashlib.sha256()
        for (origin, _), item in zip(stream, replies):
            reply = item["reply"]
            if not reply.get("ok") or reply.get("state") != "done":
                failed_requests += 1
                continue
            body = json.dumps(reply["result"], sort_keys=True).encode()
            if origin not in first:
                first[origin] = body
                digest.update(body)
                status = item["status"]
                if not status.get("cached") and status.get("elapsed"):
                    server_s = status["finished_at"] - status["created_at"]
                    layer["serve.compute_s"] += status["elapsed"]
                    layer["serve.queue_wait_s"] += server_s - status["elapsed"]
                    layer["serve.overhead_s"] += item["latency"] - server_s
            else:
                hit_latencies.append(item["latency"])
                repeats_identical &= body == first[origin]
        submitted = after["submitted"] - self.before["submitted"]
        deduped = sum(after[k] - self.before[k]
                      for k in ("dedup_inflight", "dedup_store"))
        computed = after["computed"] - self.before["computed"]
        layer["serve.hit_p50_s"] = (float(np.median(hit_latencies))
                                    if hit_latencies else 0.0)
        layer["serve.dedup_ratio"] = deduped / submitted if submitted else 0.0
        layer["serve.computed"] = float(computed)
        checks = [
            ("every repeat is byte-identical to its first computation",
             repeats_identical, f"{len(hit_latencies)} repeats"),
            ("repeats caused no computation", computed == len(first),
             f"{computed} computed for {len(first)} distinct cells"),
        ]
        return Outcome(
            digest=digest.hexdigest(), checks=checks,
            requests=[item["latency"] for item in replies],
            attempted=len(stream) + len(checks),
            failed=failed_requests + sum(1 for _, ok, _ in checks if not ok),
            layer=layer)

    def teardown(self) -> None:
        if getattr(self, "thread", None) is not None:
            self.thread.stop(drain=True)


WORKLOADS = {cls.name: cls for cls in (Table3Color, Table2Jobs2,
                                       BlackboxQuery, ServeCells)}

__all__ = ["ALL_MODELS", "Outcome", "WORKLOADS", "cell_params",
           "request_stream", "table_digest"]

"""Tests for the serving layer (``repro.serve``).

Covers the ISSUE-8 checklist: protocol round-trips, duplicate-request
dedup (an identical second submission — concurrent or later — never
recomputes), progress-stream ordering (engine events arrive in emission
order), graceful shutdown with jobs in flight, plus job-spec validation,
transient-failure retries, cancellation and warm-worker reuse.

All job executors are registered at import time so the fork-started
worker pool inherits them; none of them needs a trained model, keeping
every test fast.
"""

import json
import os
import threading
import time

import pytest

from repro.experiments import ExperimentConfig
from repro.pipeline import register_executor
from repro.pipeline.resilience import RetryPolicy, TransientTaskError
from repro.pipeline.store import ResultStore
from repro.serve import (AttackServer, Client, JobError, JobSpec, ServeError,
                         ServerThread, job_key)
from repro.serve import protocol
from repro.serve.jobs import DONE, EVENT_HISTORY_LIMIT, Job

# ---------------------------------------------------------------------- #
# Stub executors (inherited by fork workers)
# ---------------------------------------------------------------------- #


@register_executor("serve:echo")
def _serve_echo(config, params, deps):
    return {"echo": params.get("x"), "pid": os.getpid()}


@register_executor("serve:count")
def _serve_count(config, params, deps):
    """Append one line per invocation — the zero-recompute witness."""
    with open(params["ledger"], "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    time.sleep(params.get("sleep", 0.0))
    return {"x": params.get("x")}


@register_executor("serve:steps")
def _serve_steps(config, params, deps):
    from repro.telemetry import get_tracer
    tracer = get_tracer()
    for step in range(params["steps"]):
        tracer.emit("attack_step", step=step, loss=1.0 / (step + 1))
    return {"steps": params["steps"]}


@register_executor("serve:slow")
def _serve_slow(config, params, deps):
    time.sleep(params.get("sleep", 0.5))
    return {"slept": params.get("sleep", 0.5)}


@register_executor("serve:flaky")
def _serve_flaky(config, params, deps):
    """Fails transiently until its marker file exists."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("tried\n")
        raise TransientTaskError("first attempt always fails")
    return {"recovered": True}


@register_executor("serve:boom")
def _serve_boom(config, params, deps):
    raise ValueError("deterministic failure")


# ---------------------------------------------------------------------- #
# Fixtures
# ---------------------------------------------------------------------- #
@pytest.fixture()
def config(tmp_path):
    return ExperimentConfig.tiny(cache_dir=str(tmp_path / "cache"))


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "results")


def _fast_retry(**overrides):
    defaults = dict(max_attempts=3, backoff_base=0.01, backoff_max=0.05)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _server(config, store_dir, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("retry", _fast_retry())
    return AttackServer(config, store=store_dir, **kwargs)


# ---------------------------------------------------------------------- #
# Protocol round-trips
# ---------------------------------------------------------------------- #
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "job": {"kind": "attack_cell",
                                           "params": {"row": "PointNet++"}}}
        line = protocol.encode(message)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert protocol.decode(line) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"{not json}\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'["not", "an", "object"]\n')

    def test_decode_rejects_oversized_frames(self):
        line = b"x" * (protocol.MAX_LINE_BYTES + 1)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(line)

    def test_parse_address(self):
        assert protocol.parse_address("127.0.0.1:7431") == \
            ("127.0.0.1", 7431, None)
        assert protocol.parse_address(":0") == ("127.0.0.1", 0, None)
        assert protocol.parse_address("/tmp/serve.sock") == \
            (None, None, "/tmp/serve.sock")
        with pytest.raises(ValueError):
            protocol.parse_address("no-port-here")

    def test_wire_payload_formats_and_degrades(self):
        class Fancy:
            def formatted(self):
                return "TABLE"

        out = protocol.wire_payload(Fancy())
        assert out["formatted"] == "TABLE"
        assert isinstance(out["value"], str)      # repr fallback
        plain = protocol.wire_payload({"a": 1})
        assert plain["value"] == {"a": 1}

    def test_live_roundtrip_over_socket(self, config, store_dir):
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            pong = client.ping()
            assert pong["server"] == "repro.serve"
            assert pong["version"] == protocol.PROTOCOL_VERSION
            with pytest.raises(ServeError, match="unknown op"):
                client.request({"op": "nonsense"})
            with pytest.raises(ServeError, match="unknown job"):
                client.status("not-a-job")


# ---------------------------------------------------------------------- #
# Job specs and keys
# ---------------------------------------------------------------------- #
class TestJobSpec:
    def test_from_wire_shapes(self):
        spec = JobSpec.from_wire({"experiment": "table3"})
        assert spec.kind == "experiment"
        assert spec.params == {"name": "table3"}
        assert spec.label == "experiment:table3"
        spec = JobSpec.from_wire({"kind": "serve:echo", "params": {"x": 1}})
        assert spec.kind == "serve:echo"

    def test_from_wire_rejects_malformed(self):
        with pytest.raises(JobError):
            JobSpec.from_wire({})
        with pytest.raises(JobError):
            JobSpec.from_wire({"experiment": ""})
        with pytest.raises(JobError):
            JobSpec(kind="")

    def test_dependency_coupled_params_rejected(self):
        with pytest.raises(JobError, match="dependency"):
            JobSpec(kind="attack_cell", params={"match_l2_from": "other"})
        with pytest.raises(JobError, match="dependency"):
            JobSpec(kind="attack_cell",
                    params={"attack": {"match_l2_from": "other"}})

    def test_validate_kind(self):
        JobSpec(kind="serve:echo").validate_kind()
        with pytest.raises(JobError, match="unknown job kind"):
            JobSpec(kind="no-such-kind").validate_kind()
        with pytest.raises(JobError, match="unknown experiment"):
            JobSpec(kind="experiment",
                    params={"name": "table99"}).validate_kind()

    def test_job_key_tracks_the_store_salt(self, tmp_path):
        """Salted knobs split keys; unsalted ones (batch_scenes) do not."""
        spec = JobSpec(kind="serve:echo", params={"x": 1})
        base = ExperimentConfig.tiny(cache_dir=str(tmp_path))
        assert job_key(spec, base) == job_key(spec, base)
        assert job_key(spec, base) != job_key(
            JobSpec(kind="serve:echo", params={"x": 2}), base)
        nes = ExperimentConfig.tiny(cache_dir=str(tmp_path),
                                    attack_mode="nes")
        assert job_key(spec, base) != job_key(spec, nes)
        batched = ExperimentConfig.tiny(cache_dir=str(tmp_path),
                                        batch_scenes=4)
        assert job_key(spec, base) == job_key(spec, batched)

    def test_never_cache_experiments_are_uncacheable(self):
        assert not JobSpec(kind="experiment",
                           params={"name": "overhead"}).cacheable
        assert JobSpec(kind="experiment",
                       params={"name": "table3"}).cacheable
        assert JobSpec(kind="serve:echo").cacheable


# ---------------------------------------------------------------------- #
# Dedup: one key, one computation
# ---------------------------------------------------------------------- #
class TestDedup:
    def test_concurrent_duplicate_never_recomputes(self, config, store_dir,
                                                   tmp_path):
        """The acceptance criterion: N identical submissions, 1 execution."""
        ledger = str(tmp_path / "ledger.txt")
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            params = {"ledger": ledger, "sleep": 0.4, "x": 7}
            first = client.submit("serve:count", params)
            acks = [client.submit("serve:count", params) for _ in range(4)]
            assert all(a["job_id"] == first["job_id"] for a in acks)
            assert all(a["deduped"] for a in acks)
            result = client.result(first["job_id"])
            assert result["result"]["value"] == {"x": 7}
            stats = client.stats()
        assert stats["jobs"]["submitted"] == 5
        assert stats["jobs"]["computed"] == 1
        assert stats["jobs"]["dedup_inflight"] == 4
        with open(ledger, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_completed_dedup_across_server_restart(self, config, store_dir,
                                                   tmp_path):
        """A fresh server serves a previous server's work from the store."""
        ledger = str(tmp_path / "ledger.txt")
        params = {"ledger": ledger, "x": 9}
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:count", params)
            client.result(ack["job_id"])
            assert not ack["cached"]
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:count", params)
            assert ack["cached"] and ack["state"] == "done"
            result = client.result(ack["job_id"])
            assert result["result"]["value"] == {"x": 9}
            assert client.stats()["jobs"]["dedup_store"] == 1
        with open(ledger, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_store_is_shared_with_the_pipeline_salt(self, config, store_dir):
        """The job key is literally a store key: the entry lands there."""
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:echo", {"x": 3})
            client.result(ack["job_id"])
        store = ResultStore(store_dir)
        key = job_key(JobSpec(kind="serve:echo", params={"x": 3}), config)
        assert ack["job_id"] == key
        assert store.contains(key, count=False)
        assert store.get(key)["echo"] == 3

    def test_failed_jobs_can_be_resubmitted(self, config, store_dir,
                                            tmp_path):
        with ServerThread(_server(config, store_dir,
                                  retry=_fast_retry(max_attempts=1))) \
                as address:
            client = Client(address)
            ack = client.submit("serve:boom", {})
            with pytest.raises(ServeError, match="deterministic failure"):
                client.result(ack["job_id"])
            again = client.submit("serve:boom", {})
            assert again["job_id"] == ack["job_id"]
            assert not again["deduped"]          # failure is not memoised
            with pytest.raises(ServeError):
                client.result(again["job_id"])


# ---------------------------------------------------------------------- #
# Progress streaming
# ---------------------------------------------------------------------- #
class TestProgress:
    def test_stream_preserves_emission_order(self, config, store_dir):
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:steps", {"steps": 25})
            events = list(client.watch(ack["job_id"]))
        types = [e["type"] for e in events]
        assert types[0] == "job_queued"
        assert types[-1] == "job_done"
        steps = [e["step"] for e in events if e["type"] == "attack_step"]
        assert steps == list(range(25))

    def test_late_watcher_gets_full_replay(self, config, store_dir):
        """Watching after completion replays the identical history."""
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:steps", {"steps": 5})
            client.result(ack["job_id"])          # job is finished now
            first = list(client.watch(ack["job_id"]))
            second = list(client.watch(ack["job_id"]))
        assert [e["type"] for e in first] == [e["type"] for e in second]
        assert [e["step"] for e in first if e["type"] == "attack_step"] == \
            list(range(5))

    def test_history_is_bounded(self):
        job = Job(JobSpec(kind="serve:echo"), key="k")
        for index in range(EVENT_HISTORY_LIMIT + 10):
            job.publish({"type": "attack_step", "step": index})
        assert job.history_truncated
        assert len(job.history) <= EVENT_HISTORY_LIMIT + 1
        assert job.events_seen == EVENT_HISTORY_LIMIT + 10
        # The surviving suffix is contiguous and ends with the last event.
        steps = [e["step"] for e in job.history]
        assert steps == list(range(steps[0], EVENT_HISTORY_LIMIT + 10))


# ---------------------------------------------------------------------- #
# Lifecycle: retries, cancellation, shutdown
# ---------------------------------------------------------------------- #
class TestLifecycle:
    def test_transient_failure_retries_transparently(self, config, store_dir,
                                                     tmp_path):
        marker = str(tmp_path / "marker")
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:flaky", {"marker": marker})
            result = client.result(ack["job_id"])
            assert result["result"]["value"] == {"recovered": True}
            status = client.status(ack["job_id"])
            assert status["state"] == DONE
            assert status["attempts"] == 2 and status["retries"] == 1
            assert client.stats()["jobs"]["retries"] == 1

    def test_permanent_failure_fails_fast(self, config, store_dir):
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:boom", {})
            with pytest.raises(ServeError, match="deterministic failure"):
                client.result(ack["job_id"])
            status = client.status(ack["job_id"])
            assert status["state"] == "failed"
            assert status["attempts"] == 1       # ValueError: no retry

    def test_cancel_queued_job(self, config, store_dir, tmp_path):
        with ServerThread(_server(config, store_dir, jobs=1)) as address:
            client = Client(address)
            running = client.submit("serve:slow", {"sleep": 0.6})
            deadline = time.time() + 5.0
            while (client.status(running["job_id"])["state"] != "running"
                   and time.time() < deadline):
                time.sleep(0.02)
            queued = client.submit("serve:echo", {"x": "doomed"})
            assert queued["job_id"] != running["job_id"]
            cancel = client.cancel(queued["job_id"])
            assert cancel["cancelling"]
            with pytest.raises(ServeError, match="never preempted"):
                client.cancel(running["job_id"])
            with pytest.raises(ServeError, match="cancelled"):
                client.result(queued["job_id"])
            client.result(running["job_id"])     # the runner still finishes

    def test_graceful_shutdown_drains_jobs_in_flight(self, config,
                                                     store_dir, tmp_path):
        ledger = str(tmp_path / "ledger.txt")
        runner = ServerThread(_server(config, store_dir))
        address = runner.start()
        client = Client(address)
        params = {"ledger": ledger, "sleep": 0.5, "x": 1}
        ack = client.submit("serve:count", params)
        assert not runner.server.counters["done"]
        runner.stop(drain=True)                  # blocks until drained
        assert runner.server.counters["done"] == 1
        # The drained job's payload made it into the store, durably.
        assert ResultStore(store_dir).contains(ack["job_id"], count=False)
        with open(ledger, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1
        # A stopping server rejects new submissions outright.
        refused = runner.server._submit({"kind": "serve:echo", "params": {}})
        assert not refused["ok"] and "shutting down" in refused["error"]

    def test_warm_workers_are_reused_across_jobs(self, config, store_dir):
        with ServerThread(_server(config, store_dir, jobs=1)) as address:
            client = Client(address)
            pids = set()
            for x in ("a", "b", "c"):
                ack = client.submit("serve:echo", {"x": x})
                result = client.result(ack["job_id"])
                pids.add(result["result"]["value"]["pid"])
        assert len(pids) == 1                    # one warm process, three jobs

    def test_stats_shape(self, config, store_dir):
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            stats = client.stats()
        assert stats["pool"]["workers"] == 2
        assert stats["store"]["root"] == store_dir
        assert set(stats["jobs"]) >= {"submitted", "computed", "done",
                                      "dedup_inflight", "dedup_store"}

    def test_shutdown_op_stops_the_server(self, config, store_dir):
        runner = ServerThread(_server(config, store_dir))
        address = runner.start()
        client = Client(address)
        assert client.shutdown(drain=True)["stopping"]
        deadline = time.time() + 10.0
        while runner._thread.is_alive() and time.time() < deadline:
            time.sleep(0.05)
        assert not runner._thread.is_alive()


class TestCli:
    """``python -m repro.serve`` flags mean what the batch CLIs' flags mean."""

    def _retry(self, argv):
        from repro.serve.__main__ import build_parser, build_retry
        return build_retry(build_parser().parse_args(argv))

    def test_zero_retries_is_one_attempt(self):
        assert self._retry(["--retries", "0"]).max_attempts == 1

    def test_default_is_three_attempts(self):
        retry = self._retry([])
        assert retry.max_attempts == 3
        assert retry.task_timeout is None

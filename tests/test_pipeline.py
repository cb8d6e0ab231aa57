"""Tests for the ``repro.pipeline`` subsystem.

Covers the content-addressed result store (round-trip, cache hits on
identical config hashes), task-graph validation and scheduling order,
failure isolation, serial-vs-parallel output equivalence on a tiny
experiment, and store-backed resume — plus the order-independent per-scene
seeding of ``run_attack_batch`` that makes cells safe to parallelise.
"""

import numpy as np
import pytest

from repro.core import AttackConfig, run_attack, run_attack_batch
from repro.experiments import ExperimentConfig, ExperimentContext
from repro.experiments.plans import (PLAN_BUILDERS, available_experiments,
                                     plan_experiment)
from repro.experiments.table67 import plan_table6
from repro.pipeline import (GraphError, PipelineError, PipelineSession,
                            ResultStore, Task, TaskGraph, config_salt,
                            content_hash, register_executor, run_graph)
from repro.pipeline.progress import CACHED, FAILED, RAN, SKIPPED
from repro.pipeline.worker import available_executors, get_executor

# ---------------------------------------------------------------------- #
# Stub executors (registered once at import; fork workers inherit them)
# ---------------------------------------------------------------------- #
_EXECUTION_LOG = []


@register_executor("stub:value")
def _stub_value(context, params, deps):
    return params["value"]


@register_executor("stub:sum")
def _stub_sum(context, params, deps):
    return sum(deps.values()) + params.get("add", 0)


@register_executor("stub:record")
def _stub_record(context, params, deps):
    _EXECUTION_LOG.append(params["tag"])
    return params["tag"]


@register_executor("stub:fail")
def _stub_fail(context, params, deps):
    raise RuntimeError("boom")


def _diamond() -> TaskGraph:
    """a → (b, c) → d summing graph used by several scheduler tests."""
    graph = TaskGraph(result="d")
    graph.add(Task("a", "stub:value", {"value": 1}))
    graph.add(Task("b", "stub:sum", {"add": 10}, deps=("a",)))
    graph.add(Task("c", "stub:sum", {"add": 100}, deps=("a",)))
    graph.add(Task("d", "stub:sum", {}, deps=("b", "c")))
    return graph


class TestHashing:
    def test_dict_order_independent(self):
        assert content_hash({"a": 1, "b": [1, 2]}) == \
            content_hash({"b": [1, 2], "a": 1})

    def test_tuple_and_list_equivalent(self):
        assert content_hash((1, 2, 3)) == content_hash([1, 2, 3])

    def test_numpy_scalars_collapse(self):
        assert content_hash({"x": np.int64(3)}) == content_hash({"x": 3})
        assert content_hash({"x": np.float64(0.5)}) == content_hash({"x": 0.5})

    def test_different_values_differ(self):
        assert content_hash({"seed": 0}) != content_hash({"seed": 1})

    def test_unhashable_object_raises(self):
        with pytest.raises(TypeError):
            content_hash({"x": object()})


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = content_hash({"attack": "unbounded", "seed": 0})
        payload = {"records": [{"l2": 1.5, "array": np.arange(3)}]}
        store.put(key, payload, metadata={"task_id": "cell"})
        assert store.contains(key)
        loaded = store.get(key)
        assert loaded["records"][0]["l2"] == 1.5
        np.testing.assert_array_equal(loaded["records"][0]["array"],
                                      np.arange(3))
        assert store.metadata(key)["task_id"] == "cell"

    def test_cache_hit_on_identical_config_hash(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key_a = content_hash({"model": "resgcn", "epsilon": 0.12})
        key_b = content_hash({"epsilon": 0.12, "model": "resgcn"})
        assert key_a == key_b
        store.put(key_a, "payload")
        assert store.get(key_b) == "payload"

    def test_missing_key_raises(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(KeyError):
            store.get("0" * 64)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = content_hash("x")
        store.put(key, {"ok": True})
        with open(store._payload_path(key), "wb") as handle:
            handle.write(b"not a pickle")
        with pytest.raises(KeyError):
            store.get(key)

    def test_inventory_and_clear(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for value in range(3):
            store.put(content_hash(value), value)
        assert len(store) == 3
        assert store.stats()["entries"] == 3
        assert store.stats()["bytes"] > 0
        assert store.clear() == 3
        assert len(store) == 0


class TestTaskGraph:
    def test_topological_order_respects_deps(self):
        order = [task.task_id for task in _diamond().topological_order()]
        assert order.index("a") < order.index("b")
        assert order.index("a") < order.index("c")
        assert order.index("d") == 3

    def test_cycle_detected(self):
        graph = TaskGraph()
        graph.add(Task("a", "stub:value", {"value": 1}, deps=("b",)))
        graph.add(Task("b", "stub:value", {"value": 1}, deps=("a",)))
        with pytest.raises(GraphError):
            graph.validate()

    def test_missing_dependency_detected(self):
        graph = TaskGraph()
        graph.add(Task("a", "stub:value", {"value": 1}, deps=("ghost",)))
        with pytest.raises(GraphError):
            graph.validate()

    def test_duplicate_id_rejected(self):
        graph = TaskGraph()
        graph.add(Task("a", "stub:value", {"value": 1}))
        with pytest.raises(GraphError):
            graph.add(Task("a", "stub:value", {"value": 2}))

    def test_add_once_dedupes_but_rejects_conflicts(self):
        graph = TaskGraph()
        graph.add_once(Task("a", "stub:value", {"value": 1}))
        graph.add_once(Task("a", "stub:value", {"value": 1}))
        assert len(graph) == 1
        with pytest.raises(GraphError):
            graph.add_once(Task("a", "stub:value", {"value": 2}))

    def test_merge_graphs_dedupes_shared_tasks(self):
        from repro.experiments.table2 import plan_table2
        from repro.experiments.table8 import plan_table8
        from repro.pipeline import merge_graphs
        config = ExperimentConfig.tiny()
        merged = merge_graphs([plan_table2(config), plan_table8(config)])
        merged.validate()
        # Both tables attack the same trained ResGCN: one task after merging.
        assert merged.task_ids().count("model/resgcn:s3dis:0") == 1
        assert "table2:result" in merged and "table8:result" in merged

    def test_fingerprints_invalidate_transitively(self):
        base = _diamond().fingerprints({})
        changed_graph = TaskGraph(result="d")
        changed_graph.add(Task("a", "stub:value", {"value": 2}))
        changed_graph.add(Task("b", "stub:sum", {"add": 10}, deps=("a",)))
        changed_graph.add(Task("c", "stub:sum", {"add": 100}, deps=("a",)))
        changed_graph.add(Task("d", "stub:sum", {}, deps=("b", "c")))
        changed = changed_graph.fingerprints({})
        assert all(base[task_id] != changed[task_id] for task_id in base)

    def test_fingerprints_stable_across_builds(self):
        assert _diamond().fingerprints({"s": 1}) == \
            _diamond().fingerprints({"s": 1})
        assert _diamond().fingerprints({"s": 1}) != \
            _diamond().fingerprints({"s": 2})

    def test_cache_dir_does_not_affect_salt(self, tmp_path):
        config_a = ExperimentConfig.tiny(cache_dir=str(tmp_path / "a"))
        config_b = ExperimentConfig.tiny(cache_dir=str(tmp_path / "b"))
        assert config_salt(config_a) == config_salt(config_b)

    def test_batch_scenes_does_not_affect_salt(self):
        """Scene batching is execution strategy: cached cells are shared."""
        serial = ExperimentConfig.tiny(batch_scenes=1)
        batched = ExperimentConfig.tiny(batch_scenes=8)
        assert config_salt(serial) == config_salt(batched)
        assert "batch_scenes" not in config_salt(serial)["config"]


class TestScheduler:
    def test_serial_runs_in_dependency_order(self):
        _EXECUTION_LOG.clear()
        graph = TaskGraph()
        graph.add(Task("one", "stub:record", {"tag": "one"}))
        graph.add(Task("two", "stub:record", {"tag": "two"}, deps=("one",)))
        graph.add(Task("three", "stub:record", {"tag": "three"}, deps=("two",)))
        result = run_graph(graph, {})
        assert result.succeeded
        assert _EXECUTION_LOG == ["one", "two", "three"]

    def test_diamond_outputs(self):
        result = run_graph(_diamond(), {})
        assert result.outputs == {"a": 1, "b": 11, "c": 101, "d": 112}
        assert result.result == 112

    def test_failure_isolation(self):
        graph = TaskGraph(result="dependent")
        graph.add(Task("bad", "stub:fail", {}))
        graph.add(Task("dependent", "stub:sum", {}, deps=("bad",)))
        graph.add(Task("independent", "stub:value", {"value": 7}))
        result = run_graph(graph, {})
        statuses = {r.task_id: r.status for r in result.report.records}
        assert statuses == {"bad": FAILED, "dependent": SKIPPED,
                            "independent": RAN}
        assert result.outputs["independent"] == 7
        assert not result.succeeded
        with pytest.raises(PipelineError):
            _ = result.result
        assert "boom" in result.describe_failure()

    def test_store_round_trip_and_cache_hits(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = run_graph(_diamond(), {"seed": 0}, store=store)
        assert all(r.status == RAN for r in first.report.records)
        second = run_graph(_diamond(), {"seed": 0}, store=store)
        assert all(r.status == CACHED for r in second.report.records)
        assert second.outputs == first.outputs
        # A different configuration hash misses the cache entirely.
        third = run_graph(_diamond(), {"seed": 1}, store=store)
        assert all(r.status == RAN for r in third.report.records)

    def test_refresh_recomputes(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_graph(_diamond(), {}, store=store)
        result = run_graph(_diamond(), {}, store=store, refresh=True)
        assert all(r.status == RAN for r in result.report.records)

    def test_non_cacheable_tasks_always_run(self, tmp_path):
        store = ResultStore(str(tmp_path))
        graph = TaskGraph()
        graph.add(Task("volatile", "stub:value", {"value": 5},
                       cacheable=False))
        run_graph(graph, {}, store=store)
        result = run_graph(graph, {}, store=store)
        assert result.report.records[0].status == RAN

    def test_corrupt_store_entry_recomputes(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = run_graph(_diamond(), {}, store=store)
        key = next(r.key for r in first.report.records if r.task_id == "a")
        with open(store._payload_path(key), "wb") as handle:
            handle.write(b"garbage")
        second = run_graph(_diamond(), {}, store=store)
        statuses = {r.task_id: r.status for r in second.report.records}
        assert statuses["a"] == RAN

    def test_parallel_matches_serial(self):
        serial = run_graph(_diamond(), {})
        parallel = run_graph(_diamond(), {}, jobs=2)
        assert parallel.outputs == serial.outputs
        assert parallel.report.jobs == 2

    def test_parallel_failure_isolation(self):
        graph = TaskGraph()
        graph.add(Task("bad", "stub:fail", {}))
        graph.add(Task("dependent", "stub:sum", {}, deps=("bad",)))
        graph.add(Task("survivor", "stub:value", {"value": 3}))
        result = run_graph(graph, {}, jobs=2)
        statuses = {r.task_id: r.status for r in result.report.records}
        assert statuses == {"bad": FAILED, "dependent": SKIPPED,
                            "survivor": RAN}
        failure = next(r for r in result.report.records if r.status == FAILED)
        assert "boom" in failure.error

    def test_report_summary_mentions_counts(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_graph(_diamond(), {}, store=store)
        result = run_graph(_diamond(), {}, store=store)
        assert "4 cached" in result.report.summary()


class TestExecutorRegistry:
    def test_domain_executors_registered(self):
        kinds = available_executors()
        for kind in ("attack_cell", "defense_cell", "transfer_cell",
                     "clean_eval", "dataset", "train_model", "experiment",
                     "table3:assemble"):
            assert kind in kinds

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            get_executor("no-such-kind")


class TestPlans:
    def test_every_experiment_has_a_plan(self):
        config = ExperimentConfig.tiny()
        from repro.experiments.run import EXPERIMENTS
        assert set(EXPERIMENTS) <= set(available_experiments())
        for name in available_experiments():
            graph = plan_experiment(name, config)
            graph.validate()
            assert graph.result in graph

    def test_decomposed_tables_have_cells(self):
        config = ExperimentConfig.tiny()
        for name, builder in PLAN_BUILDERS.items():
            graph = builder(config)
            kinds = {task.kind for task in graph}
            assert kinds & {"attack_cell", "defense_cell", "transfer_cell"}, name
            assert any(task.kind == "train_model" for task in graph)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            plan_experiment("table42", ExperimentConfig.tiny())


class TestBatchSeeding:
    """The run_attack_batch fix: per-scene seeds, order independence."""

    def _noise_config(self, **overrides):
        defaults = dict(objective="degradation", method="noise", field="color")
        defaults.update(overrides)
        return AttackConfig.fast(**defaults)

    def test_scene_seeded_by_position(self, trained_resgcn, office_scene):
        config = self._noise_config()
        batch = run_attack_batch(trained_resgcn,
                                 [office_scene, office_scene], config)
        solo = run_attack(trained_resgcn, office_scene, config,
                          rng=np.random.default_rng([config.seed, 1]))
        np.testing.assert_allclose(batch[1].adversarial_colors,
                                   solo.adversarial_colors)

    def test_skipped_scene_does_not_shift_later_seeds(self, trained_resgcn,
                                                      office_scene):
        from repro.datasets import generate_room_scene
        from repro.datasets.s3dis import CLASS_INDEX
        hallway = generate_room_scene(num_points=192, room_type="hallway",
                                      rng=np.random.default_rng(3),
                                      name="hallway_test")
        assert not (hallway.labels == CLASS_INDEX["board"]).any()
        config = self._noise_config(objective="hiding",
                                    source_class=CLASS_INDEX["board"],
                                    target_class=CLASS_INDEX["wall"])
        with_skip = run_attack_batch(trained_resgcn,
                                     [hallway, office_scene], config)
        no_skip = run_attack_batch(trained_resgcn,
                                   [office_scene, office_scene], config)
        assert len(with_skip) == 1          # the hallway has no board points
        np.testing.assert_allclose(with_skip[0].adversarial_colors,
                                   no_skip[1].adversarial_colors)

    def test_shard_with_start_index_matches_full_batch(self, trained_resgcn,
                                                       office_scene):
        config = self._noise_config()
        full = run_attack_batch(trained_resgcn,
                                [office_scene, office_scene], config)
        shard = run_attack_batch(trained_resgcn, [office_scene], config,
                                 start_index=1)
        np.testing.assert_allclose(shard[0].adversarial_colors,
                                   full[1].adversarial_colors)

    def test_options_after_config_are_keyword_only(self, trained_resgcn,
                                                   office_scene):
        # A stale positional shared generator must not bind to num_points.
        config = self._noise_config()
        with pytest.raises(TypeError):
            run_attack_batch(trained_resgcn, [office_scene], config,
                             np.random.default_rng(0))
        with pytest.raises(TypeError):
            run_attack_batch(trained_resgcn, [office_scene], config,
                             rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One checkpoint cache for the integration tests (models train once)."""
    return str(tmp_path_factory.mktemp("pipeline_cache"))


@pytest.fixture(scope="module")
def tiny_config(shared_cache):
    return ExperimentConfig.tiny(cache_dir=shared_cache)


class TestEndToEnd:
    def test_serial_vs_parallel_equivalence_and_resume(self, tiny_config,
                                                       tmp_path):
        from repro.experiments import run_table6

        serial = run_table6(ExperimentContext(tiny_config))

        store = ResultStore(str(tmp_path / "store"))
        session = PipelineSession(jobs=2, store=store)
        parallel = run_table6(ExperimentContext(tiny_config, pipeline=session))
        assert parallel.formatted() == serial.formatted()
        assert session.last_report is not None
        assert session.last_report.count(FAILED) == 0

        # Immediately re-running resumes from the result store: every attack
        # cell is served as a cache hit, none re-executes.
        resumed = run_graph(plan_table6(tiny_config), tiny_config, store=store)
        statuses = {r.task_id: r.status for r in resumed.report.records}
        assert statuses["table6/unbounded"] == CACHED
        assert statuses["table6/noise"] == CACHED
        assert resumed.result.formatted() == serial.formatted()

    def test_cli_run_and_resume(self, tiny_config, shared_cache, tmp_path,
                                capsys, monkeypatch):
        from repro.pipeline.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", shared_cache)
        store = str(tmp_path / "cli_store")
        args = ["--experiment", "table6", "--scale", "tiny", "--jobs", "2",
                "--store", store, "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "Table VI" in first

        assert main(["--experiment", "table6", "--scale", "tiny",
                     "--store", store, "--quiet"]) == 0
        second = capsys.readouterr().out
        assert "2 cached" in second
        # The resumed run reproduces the identical table text.
        assert first[first.index("Table VI"):] == second[second.index("Table VI"):]

        assert main(["--experiment", "table6", "--scale", "tiny",
                     "--store", store, "--status"]) == 0
        status = capsys.readouterr().out
        assert "cached" in status and "table6/unbounded" in status

    def test_cli_list(self, capsys):
        from repro.pipeline.cli import main

        assert main(["--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "table3" in names and "figures" in names

    def test_run_module_list_and_jobs_flags(self, capsys):
        from repro.experiments.run import build_parser, main

        args = build_parser().parse_args([])
        assert args.jobs == 1 and not args.list
        assert main(["--list"]) == 0
        assert "table3" in capsys.readouterr().out.split()

    def test_jobs_delegates_to_pipeline_cli(self, monkeypatch):
        from repro.experiments import run as run_module
        from repro.pipeline import cli as pipeline_cli

        captured = {}

        def fake_main(argv):
            captured["argv"] = argv
            return 0

        monkeypatch.setattr(pipeline_cli, "main", fake_main)
        assert run_module.main(["--experiment", "table6", "--jobs", "3",
                                "--fresh"]) == 0
        assert captured["argv"][:4] == ["--experiment", "table6", "--jobs", "3"]
        assert "--fresh" in captured["argv"]

    def test_no_resume_flag_recomputes(self, tmp_path, monkeypatch, capsys):
        from repro.pipeline.cli import build_parser

        args = build_parser().parse_args(["--no-resume"])
        assert args.resume is False
        assert build_parser().parse_args([]).resume is True

    def test_cli_batch_scenes_matches_serial_and_shares_store(
            self, tiny_config, shared_cache, tmp_path, capsys, monkeypatch):
        """`--batch-scenes B` must reproduce the serial table byte for byte,
        and — because batching is excluded from content hashing — resume
        from a store populated by a serial run without recomputing."""
        from repro.pipeline.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", shared_cache)
        store = str(tmp_path / "bs_store")
        assert main(["--experiment", "table6", "--scale", "tiny",
                     "--store", store, "--quiet"]) == 0
        serial_out = capsys.readouterr().out

        assert main(["--experiment", "table6", "--scale", "tiny",
                     "--store", store, "--batch-scenes", "4",
                     "--quiet"]) == 0
        batched_out = capsys.readouterr().out
        assert "2 cached" in batched_out          # store hits despite batching
        assert (serial_out[serial_out.index("Table VI"):]
                == batched_out[batched_out.index("Table VI"):])

        # A fresh batched run (no store) still produces the same table.
        assert main(["--experiment", "table6", "--scale", "tiny",
                     "--no-store", "--batch-scenes", "4", "--quiet"]) == 0
        fresh_out = capsys.readouterr().out
        assert (serial_out[serial_out.index("Table VI"):]
                == fresh_out[fresh_out.index("Table VI"):])

"""Self-time arithmetic, lane grouping and exports of the span recorder."""

import json
import random
import threading
import time

import pytest

from tracing import (Recorder, chrome_trace, covered, lane_accounting, lanes,
                     self_time_by_name, self_time_table, self_times,
                     wrap_memo)


def span(name, start, end, parent=-1, tid=1):
    return [name, start, end, parent, tid]


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 3), (2, 5)], 0.0, 10.0) == 4.0
    assert covered([(1, 3), (4, 6)], 0.0, 10.0) == 4.0
    assert covered([(-5, 2), (8, 20)], 0.0, 10.0) == 4.0
    assert covered([(2, 8), (3, 4)], 0.0, 10.0) == 6.0


def test_self_time_subtracts_children_only():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 2.0, 3.0, parent=1),
        span("d", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_children_are_not_subtracted_twice():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 6.0, parent=0),
             span("c", 4.0, 8.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_children_outside_the_parent_are_clipped():
    spans = [span("a", 2.0, 4.0), span("b", 1.0, 3.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_lane_accounting_adds_up_to_the_window():
    spans = [span("a", 1.0, 4.0), span("b", 2.0, 3.0, parent=0),
             span("c", 6.0, 7.5)]
    own, unattributed = lane_accounting(spans, 0.0, 10.0)
    assert own == pytest.approx(4.5)
    assert unattributed == pytest.approx(5.5)
    assert own + unattributed == pytest.approx(10.0)


def _random_tree(rng, lo, hi, parent, spans, depth):
    cursor = lo
    while depth < 5 and cursor < hi and rng.random() < 0.7:
        start = rng.uniform(cursor, hi)
        end = rng.uniform(start, hi)
        index = len(spans)
        spans.append(span(f"s{depth}", start, end, parent))
        _random_tree(rng, start, end, index, spans, depth + 1)
        cursor = end


@pytest.mark.parametrize("seed", range(20))
def test_identity_holds_for_random_nested_trees(seed):
    rng = random.Random(seed)
    spans = []
    _random_tree(rng, 0.0, 100.0, -1, spans, 0)
    own, unattributed = lane_accounting(spans, 0.0, 100.0)
    assert own + unattributed == pytest.approx(100.0)
    assert all(value >= -1e-9 for value in self_times(spans))


def test_lanes_split_threads_and_remap_parents():
    batch = [span("a", 0.0, 5.0, tid=1), span("x", 0.5, 4.0, tid=2),
             span("b", 1.0, 2.0, parent=0, tid=1),
             span("y", 1.0, 3.0, parent=1, tid=2)]
    grouped = lanes([(7, batch)])
    assert set(grouped) == {(7, 1), (7, 2)}
    (lane2,) = grouped[(7, 2)]
    assert [s[0] for s in lane2] == ["x", "y"]
    assert lane2[1][3] == 0
    own, inclusive = self_time_by_name([(7, batch)])
    assert own == pytest.approx({"a": 4.0, "b": 1.0, "x": 1.5, "y": 2.0})
    assert inclusive["x"] == pytest.approx(3.5)


def test_recorder_nests_per_thread_and_counts(tmp_path):
    recorder = Recorder(str(tmp_path))
    outer = recorder.open("outer")
    inner = recorder.open("inner")

    def other_thread():
        index = recorder.open("elsewhere")
        recorder.close(index)
    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.close(inner)
    recorder.close(outer)
    recorder.count("hits", 2)
    recorder.count("hits")
    parents = {s[0]: s[3] for s in recorder.spans}
    assert parents == {"outer": -1, "inner": 0, "elsewhere": -1}
    batches, counts = recorder.collect()
    assert counts == {"hits": 3}
    assert len(batches[0][1]) == 3


def test_spilled_batches_are_merged(tmp_path):
    recorder = Recorder(str(tmp_path))
    index = recorder.open("task")
    recorder.close(index)
    recorder.count("lookups", 4)
    recorder.spill()
    assert recorder.spans == []
    index = recorder.open("local")
    recorder.close(index)
    batches, counts = recorder.collect()
    assert counts == {"lookups": 4}
    assert sorted(s[0] for _, spans in batches for s in spans) == ["local", "task"]
    recorder.clear()
    assert recorder.collect() == ([(recorder.pid, [])], {})


def test_wrap_records_a_span_and_keeps_results_and_errors(tmp_path):
    recorder = Recorder(str(tmp_path))
    double = recorder.wrap(lambda x: 2 * x, "double")
    assert double(4) == 8

    def fail():
        raise KeyError("x")
    with pytest.raises(KeyError):
        recorder.wrap(fail, "fail")()
    assert [s[0] for s in recorder.spans] == ["double", "fail"]
    assert recorder.depth() == 0


def test_memo_charges_a_reporting_forward_to_its_own_layer(tmp_path):
    recorder = Recorder(str(tmp_path))
    store = {}

    def memo(self, op_key, arrays, compute):
        if op_key not in store:
            store[op_key] = compute()
        return store[op_key]

    def slow(value):
        def compute():
            time.sleep(0.02)
            return value
        return compute
    traced = wrap_memo(recorder, memo)
    assert traced(None, ("knn", 8), (), slow(1)) == 1
    assert traced(None, ("knn", 8), (), slow(2)) == 1
    assert traced(None, ("logits", 5), (), slow(3)) == 3
    names = [s[0] for s in recorder.spans]
    assert names == ["accel.neighbourhood"] * 3 + ["models.report"]
    assert recorder.spans[3][3] == 2
    lookup, forward = recorder.spans[2], recorder.spans[3]
    assert forward[2] - forward[1] >= 0.02
    assert self_times(recorder.spans)[2] == pytest.approx(
        (lookup[2] - lookup[1]) - (forward[2] - forward[1]))
    assert recorder.collect()[1] == {"accel.lookups": 2, "accel.misses": 1}


def test_chrome_trace_and_table(tmp_path):
    batches = [(1, [span("a", 10.0, 12.0), span("b", 10.5, 11.0, parent=0)]),
               (2, [span("w", 10.2, 10.4, tid=9)])]
    trace = chrome_trace(batches, origin=10.0, root_pid=1)
    json.dumps(trace)
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {(e["name"], e["ts"], e["dur"]) for e in complete} == {
        ("a", 0.0, 2e6), ("b", 5e5, 5e5), ("w", 2e5, 2e5)}
    assert next(e for e in complete if e["name"] == "a")["args"]["self_us"] \
        == pytest.approx(1.5e6)
    names = {e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
    assert names == {"benchmark", "worker 2"}
    table = self_time_table(batches, 10.0, 13.0, root_pid=1, main_tid=1)
    assert "self 2.0000 s + unattributed 1.0000 s = 3.0000 s" in table

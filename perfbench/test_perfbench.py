"""Tests of the benchmark's own arithmetic and seeded streams.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import measure  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_self_time_is_span_minus_covered_child_time(clock):
    tracer = measure.Tracer(clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        tracer.call("b", "inner", inner, (), {})
        clock.advance(3.0)

    def op():
        clock.advance(0.5)
        tracer.call("a", "outer", outer, (), {})

    tracer.root(op)
    snap = tracer.snapshot()
    assert snap["self_s"] == {"a": 4.0, "b": 2.0}
    assert snap["calls"] == {"outer": 1, "inner": 1}
    assert snap["unattributed_s"] == 0.5
    assert snap["root_s"] == snap["top_s"] == 6.5


def test_same_layer_nesting_counts_each_span_once(clock):
    tracer = measure.Tracer(clock)

    def leaf():
        clock.advance(1.0)

    def mid():
        clock.advance(1.0)
        tracer.call("x", "leaf", leaf, (), {})

    tracer.call("x", "mid", mid, (), {})
    assert tracer.snapshot()["self_s"] == {"x": 2.0}


def test_outcome_counts_hits(clock):
    tracer = measure.Tracer(clock)
    for value in (None, {"a": 1}, None, {}):
        tracer.call("cache", "get", lambda v=value: v, (), {},
                    outcome=lambda result: result is not None)
    snap = tracer.snapshot()
    assert snap["calls"] == {"get": 4}
    assert snap["hits"] == {"get": 2}


def test_failing_child_still_closes_its_span(clock):
    tracer = measure.Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    def op():
        with pytest.raises(ValueError):
            tracer.call("x", "boom", boom, (), {})
        clock.advance(1.0)

    tracer.root(op)
    snap = tracer.snapshot()
    assert snap["self_s"] == {"x": 1.0}
    assert snap["unattributed_s"] == 1.0


@pytest.mark.parametrize("seed", range(20))
def test_unattributed_is_never_negative(clock, seed):
    """Random span trees: layers' self time plus the unattributed
    remainder add up to the root's duration, and nothing is negative."""
    rng = random.Random(seed)
    tracer = measure.Tracer(clock)

    def node(depth):
        for _ in range(rng.randint(0, 3)):
            clock.advance(rng.random())
            if depth < 4 and rng.random() < 0.6:
                layer = rng.choice("abc")
                tracer.call(layer, layer, node, (depth + 1,), {})
        clock.advance(rng.random())

    tracer.root(node, 0)
    snap = tracer.snapshot()
    assert snap["unattributed_s"] >= 0.0
    assert all(v >= 0.0 for v in snap["self_s"].values())
    total = sum(snap["self_s"].values()) + snap["unattributed_s"]
    assert total == pytest.approx(snap["root_s"])


def test_percentile_rule_needs_ten_samples_beyond():
    assert measure.highest_percentile(19) is None
    assert measure.highest_percentile(20) == 50.0
    assert measure.highest_percentile(99) == 50.0
    assert measure.highest_percentile(100) == 90.0
    assert measure.highest_percentile(999) == 90.0
    assert measure.highest_percentile(1000) == 99.0
    assert measure.highest_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile([7.0], 90) == 7.0
    assert measure.median([3, 1, 2, 10]) == 2.5


def test_scaled_costs_are_medians_at_the_reference_speed():
    ref = measure.PROBE_REFERENCE_MS
    keys = ["a", "a", "a", "b"]
    # "a" takes 10 at the reference speed whether the probe ran at it,
    # 1.5x or 2x slower; one sample of it is an outlier.
    values = [10.0, 15.0, 40.0, 4.0]
    probes = [ref, 1.5 * ref, 2.0 * ref, 2.0 * ref]
    assert measure.scaled_costs(keys, values, probes) == pytest.approx(
        [10.0, 10.0, 10.0, 2.0])


def test_piece_costs_cost_each_simulator_call_and_the_rest():
    ref = measure.PROBE_REFERENCE_MS
    cells = ["a", "a", "b"]
    totals = [10.0, 20.0, 5.0]
    probes = [ref, 2 * ref, ref]
    parts = [[(4.0, ref), (3.0, ref)], [(8.0, 2 * ref), (6.0, 2 * ref)], []]
    # At the reference speed a's calls take 4 and 3 and its rest 3.
    assert measure.piece_costs(cells, totals, probes, parts) == \
        pytest.approx([10.0, 10.0, 5.0])


def test_part_timer_records_calls_with_their_probes(clock):
    probes = iter([0.5, 0.25])
    parts = measure.PartTimer(clock, probe=lambda: next(probes))
    for seconds in (3.0, 1.0):
        parts.call("x", "f", clock.advance, (seconds,), {})
    assert parts.take() == [(3.0, 0.5), (1.0, 0.25)]
    assert parts.take() == []


def test_probe_takes_cpu_time():
    assert measure.time_probe() > 0.0


def test_paper_stream_is_seeded():
    ops = workloads.paper_round_ops(7, 0)
    assert ops == workloads.paper_round_ops(7, 0)
    assert ops != workloads.paper_round_ops(8, 0)
    cold = [op for op in ops if op["pass"] == "cold"]
    assert [workloads.op_key(op) for op in cold] == [
        workloads.op_key(op) for op in workloads.COLD_PASS]
    # Every seed and round runs the same multiset of ops.
    for seed, round_no in ((8, 0), (7, 1)):
        assert Counter(map(str, workloads.paper_round_ops(seed, round_no))) \
            == Counter(map(str, ops))
    # A warm op follows its key's cold run; its memory-warm runs follow
    # a disk-warm run of the same key, which refilled the memory layer.
    seen = set()
    for i, op in enumerate(ops):
        key = workloads.op_key(op)
        if op["pass"] == "cold":
            seen.add(key)
            continue
        assert key in seen
        if op["pass"] == "memory":
            assert workloads.op_key(ops[i - 1]) == key
            assert ops[i - 1]["pass"] in ("disk", "memory")


def test_remote_plan_is_seeded_with_twins_and_repeats():
    plan = workloads.remote_round_plan(7, 0)
    assert plan == workloads.remote_round_plan(7, 0)
    assert plan != workloads.remote_round_plan(7, 1)
    for slot in workloads.TWIN_SLOTS:
        assert plan[0][slot] == plan[1][slot]
        assert plan[0][slot]["role"] == "twin"
    for seq in plan:
        for i, item in enumerate(seq):
            if item["role"] == "repeat":
                earlier = [dict(x, role="repeat") for x in seq[:i]
                           if x["role"] == "distinct"]
                assert item in earlier
    distinct = [item for seq in plan for item in seq
                if item["role"] == "distinct"]
    keys = {str(sorted(item["payload"].items())) for item in distinct}
    assert len(keys) == len(distinct)

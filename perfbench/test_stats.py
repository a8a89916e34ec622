"""Unit tests of the benchmark's own arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import os
import random

import pytest

from perfbench import stats
from perfbench import tracing


# -- tail percentile selection ------------------------------------------------


def test_tail_picks_highest_rank_with_ten_beyond():
    values = list(range(1, 101))          # 1..100, shuffled order
    random.Random(0).shuffle(values)
    value, pct, n = stats.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_with_thirty_samples_is_p66():
    value, pct, n = stats.tail([float(i) for i in range(30)])
    assert n == 30 and value == 19.0
    assert pct == pytest.approx(200 / 3)


@pytest.mark.parametrize("n", [1, 5, 19, 20])
def test_tail_falls_back_to_median_below_twenty(n):
    values = [float(i) for i in range(n)]
    assert stats.tail(values) == (stats.median(values), 50.0, n)


def test_tail_just_above_the_median():
    value, pct, n = stats.tail([float(i) for i in range(22)])
    assert (value, n) == (11.0, 22) and pct == pytest.approx(1200 / 22)


def test_tail_empty_and_infinite():
    assert math.isnan(stats.tail([])[0])
    values = [1.0] * 30 + [math.inf] * 5
    assert stats.tail(values)[0] == 1.0
    assert stats.tail([1.0] * 20 + [math.inf] * 15)[0] == math.inf


# -- self time -------------------------------------------------------------------


def _span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 3.0),
             _span(3, 1, 5.0, 6.0), _span(4, 2, 1.5, 2.5)]
    got = stats.self_times(spans)
    assert got == {1: pytest.approx(7.0), 2: pytest.approx(1.0),
                   3: pytest.approx(1.0), 4: pytest.approx(1.0)}


def test_self_time_merges_overlapping_children_and_clips():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 2.0, 6.0),
             _span(3, 1, 4.0, 8.0), _span(4, 1, 9.0, 12.0)]
    assert stats.self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_never_negative():
    spans = [_span(1, None, 0.0, 1.0), _span(2, 1, -1.0, 2.0)]
    assert stats.self_times(spans)[1] == 0.0


# -- due-time latency ------------------------------------------------------------


def test_due_latency_counts_generator_lateness():
    assert stats.due_latency(10.0, 10.25, 1.5) == pytest.approx(1.75)
    assert stats.due_latency(10.0, 10.0, 0.5) == pytest.approx(0.5)


def test_unresolved_request_misses_every_limit():
    assert stats.due_latency(10.0, 10.0, None) == math.inf


def test_stratified_gaps_are_seeded_exponential_quantiles():
    a = stats.stratified_exponential(200, 2.0, random.Random(1))
    b = stats.stratified_exponential(200, 2.0, random.Random(1))
    c = stats.stratified_exponential(200, 2.0, random.Random(2))
    assert a == b and a != c and sorted(a) == sorted(c)
    assert sum(a) / len(a) == pytest.approx(0.5, rel=0.05)


def test_stratified_gap_order_keeps_every_block_near_the_rate():
    gaps = stats.stratified_exponential(64, 1.0, random.Random(5), block=8)
    sums = [sum(gaps[i:i + 8]) for i in range(0, 64, 8)]
    assert max(sums) - min(sums) < 0.5 * (sum(gaps) / 8)
    assert any(a < 0.3 and b < 0.3 for a, b in zip(gaps, gaps[1:]))
    assert stats.stratified_exponential(0, 1.0, random.Random(5)) == []


def test_spaced_positions_take_one_from_each_slot():
    for n, k in [(21, 5), (30, 8), (4, 4), (7, 1)]:
        pos = stats.spaced_positions(k, n, random.Random(n))
        assert len(set(pos)) == k
        assert all(j * n // k <= p < (j + 1) * n // k for j, p in enumerate(pos))


def test_serve_plan_has_exact_counts_and_a_poisoned_verify():
    from perfbench.workloads import _plan

    for n in (21, 30, 4):
        plan = _plan(n, random.Random(n))
        assert sum(k == "prove" for k, _ in plan) == round(n / 4)
        assert sum(bad for _, bad in plan) == max(1, round((n - round(n / 4)) * 0.05))
        assert all(k == "verify" for k, bad in plan if bad)
    assert _plan(21, random.Random(1)) == _plan(21, random.Random(1))


# -- completion rate ---------------------------------------------------------------


def test_completion_rate_spans_first_due_to_last_done():
    assert stats.completion_rate([0.0, 1.0, 2.0], [2.0, 3.0, 4.0]) == 0.75
    assert stats.completion_rate([0.0, 1.0], [None, 4.0]) == 0.25
    assert stats.completion_rate([0.0], [None]) == 0.0


# -- layer metrics -----------------------------------------------------------------


def _tspan(sid, name, parent, start, end, phase="timed", **attrs):
    return {"id": sid, "name": name, "parent": parent, "phase": phase,
            "request": 0, "attrs": attrs, "start": start, "end": end}


def test_layer_metrics_self_time_and_nesting():
    spans = [
        _tspan(1, "groth16.prove", None, 0.0, 10.0),
        _tspan(2, "qap.compute_h", 1, 0.0, 4.0),
        _tspan(3, "poly.ntt", 2, 0.5, 1.5, points=8),
        _tspan(4, "poly.ntt", 2, 2.0, 3.0, points=8),
        _tspan(5, "msm.var", 1, 4.0, 9.0, group="g1", points=8),
        _tspan(6, "msm.fixed", None, 0.0, 1.0, phase="setup", group="g1", scalars=3),
    ]
    got = tracing.layer_metrics(spans, n_requests=2)
    assert got["qap.compute_h.self_s"] == (1.0, "s")
    assert got["groth16.prove.self_s"] == (0.5, "s")
    assert got["poly.ntt.calls"] == (1.0, "count")
    assert got["msm.var.g1.points"] == (4.0, "count")
    assert got["msm.fixed.g1.scalars"] == (0.0, "count")


def test_fixed_base_counts_only_outermost_calls():
    spans = [_tspan(1, "msm.fixed", None, 0.0, 2.0, group="g2", scalars=5)]
    spans += [_tspan(2 + i, "msm.fixed", 1, 0.1 * i, 0.1 * i + 0.05,
                     group="g2", scalars=1) for i in range(5)]
    got = tracing.layer_metrics(spans, n_requests=1)
    assert got["msm.fixed.g2.scalars"] == (5.0, "count")
    assert got["msm.fixed.g2.s"] == (2.0, "s")


def test_every_wrapped_layer_is_predicted_to_fire_somewhere():
    names = {name for _, _, name, _ in tracing._targets()}
    assert names == set(tracing.EXERCISED_BY)
    assert all(tracing.EXERCISED_BY.values())


def test_prediction_check_flags_both_directions():
    spans = [_tspan(1, "curves.miller_loop", None, 0.0, 1.0)]
    problems = tracing.check_predictions(spans, "keygen")
    assert any("miller_loop" in p and "bypassed" in p for p in problems)
    assert any("msm.fixed" in p and "exercised" in p for p in problems)


def test_benchmark_json_lists_every_span_serve_and_work_metric():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
    with open(path) as f:
        listed = {m["name"] for m in json.load(f)["per_layer"]}
    produced = (set(tracing.layer_metrics([], 1))
                | set(tracing.serve_metrics([], {}))
                | set(tracing.WORK_COUNTERS))
    assert produced <= listed

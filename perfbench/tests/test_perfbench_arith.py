"""Tests for the benchmark's own arithmetic. Run: python3 -m pytest perfbench/tests"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfstats import (covered_length, lateness, match_responses, open_loop_latencies, percentile,  # noqa: E402
                       self_times, tail, tail_level)


def test_tail_level_keeps_ten_samples_beyond():
    assert tail_level(1000) == 99.0  # rank 990, ten beyond
    assert tail_level(999) == 95.0  # p99 would leave only nine beyond
    assert tail_level(10_000) == 99.9
    assert tail_level(200) == 95.0
    assert tail_level(100) == 90.0
    assert tail_level(40) == 75.0
    assert tail_level(20) == 50.0
    assert tail_level(5) == 50.0  # nothing qualifies: fall back to the median


def test_tail_value_has_at_least_ten_larger_samples():
    for n in (20, 57, 100, 999, 1000, 1001, 12_345):
        samples = list(range(n))
        level, value = tail(samples)
        assert sum(1 for s in samples if s > value) >= 10
        assert value == percentile(samples, level)


def test_percentile_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50.0) == 3.0
    assert percentile(samples, 100.0) == 5.0
    assert percentile(samples, 1.0) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),  # child of root
        (2.0, 3.0, 1),  # grandchild: inside its parent, not counted again for the root
        (5.0, 7.0, 0),  # second child of root
        (6.0, 8.0, 0),  # overlaps the second child: the union is counted once
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 3, 3 - 1, 1, 2, 2])


def test_open_loop_latency_counts_a_stall_against_later_requests():
    rate = 100.0
    scheduled = [i / rate for i in range(5)]
    # The generator stalls for 50 ms before the third request, then sends
    # everything that is due at once; the service answers in 1 ms.
    sent = [0.0, 0.01, 0.07, 0.07, 0.07]
    completed = [s + 0.001 for s in sent]
    latencies = open_loop_latencies(scheduled, completed)
    assert latencies == pytest.approx([0.001, 0.001, 0.051, 0.041, 0.031])
    # Timing from the actual send would hide the stall entirely.
    assert [c - s for s, c in zip(sent, completed)] == pytest.approx([0.001] * 5)
    assert lateness(scheduled, sent) == pytest.approx([0.0, 0.0, 0.05, 0.04, 0.03])


def test_open_loop_latency_needs_one_completion_per_request():
    with pytest.raises(ValueError):
        open_loop_latencies([0.0, 1.0], [0.5])



def test_responses_match_by_id_in_any_order():
    # Two workers may answer out of order; unreadable requests answer with a null id, in order.
    sent = ["a", None, "b", "c", None]
    got = ["b", None, "a", "zz", "a", None, None]
    match, extra = match_responses(sent, got)
    assert match == [2, 1, 0, None, 5]  # "c" got no response
    assert extra == [3, 4, 6]  # unknown id, repeated id, one null id too many

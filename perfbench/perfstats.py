"""Arithmetic shared by the workloads: percentiles, span self time, open-loop latency.

Kept free of any brickeval import so its tests run without the program.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# Percentile levels tried for a tail figure, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(level: float, n: int) -> int:
    """1-based nearest rank of a percentile; the epsilon absorbs float error in level * n."""
    return max(1, math.ceil(level * n / 100.0 - 1e-9))


def percentile(samples: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest sample with level% of samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(level, len(samples)) - 1]


def tail_level(n: int) -> float:
    """Highest level in TAIL_LEVELS with at least MIN_BEYOND samples above its rank.

    Falls back to the median when even that has fewer than MIN_BEYOND
    samples beyond it.
    """
    for level in TAIL_LEVELS:
        if n - _rank(level, n) >= MIN_BEYOND:
            return level
    return 50.0


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """(level, value) of the tail percentile chosen by tail_level."""
    level = tail_level(len(samples))
    return level, percentile(samples, level)


def summary(samples: Sequence[float]) -> dict:
    """Median, quartiles, tail percentile and count of a sample list."""
    level, value = tail(samples)
    q1, q2, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
    return {"n": len(samples), "p50": percentile(samples, 50.0), "q1": q1, "q3": q3,
            "tail_level": level, "tail": value}


def covered_length(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each span given as (start, end, parent_index or -1).

    A span's self time is its duration minus the part of its interval
    covered by its direct children.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered_length(children[i], start, end)
            for i, (start, end, _) in enumerate(spans)]


def open_loop_latencies(scheduled: Sequence[float], completed: Sequence[float]) -> list[float]:
    """Latency of each request from its scheduled send time, not its actual one.

    Timing from the schedule charges a stall to every request that was
    due during it, instead of hiding the stall behind a late send.
    """
    return [done - due for due, done in zip(scheduled, completed, strict=True)]


def lateness(scheduled: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late the generator sent each request relative to its schedule."""
    return [max(0.0, s - due) for due, s in zip(scheduled, sent, strict=True)]



def match_responses(sent: Sequence[str | None], got: Sequence[str | None]) -> tuple[list[int | None], list[int]]:
    """Pair each request with the index of its response, by id.

    ``sent`` holds each request's id, or None for a request whose id the
    server cannot read; ``got`` holds each response's id. The server
    answers an unreadable request with a null id, so those pair up in
    order. Returns, per request, the index of its response (None when
    none came), and the indices of responses that match no request: an
    unknown id, a repeated id, or a null id too many.
    """
    by_id: dict[str, int] = {}
    nulls = []
    for i, rid in enumerate(sent):
        if rid is None:
            nulls.append(i)
        else:
            by_id[rid] = i
    unread = iter(nulls)
    match: list[int | None] = [None] * len(sent)
    extra = []
    for j, rid in enumerate(got):
        i = next(unread, None) if rid is None else by_id.pop(rid, None)
        if i is None:
            extra.append(j)
        else:
            match[i] = j
    return match, extra

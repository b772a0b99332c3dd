"""Reward composition: collision, shape, interlock, and connectivity terms.

total = r_col + r_shape + r_inter + r_conn, always within [-10, 10]:

* r_col = max(-10, -2 * n_col), a clipped per-voxel collision penalty.
* r_shape = 5 * IoU(generated occupancy, target occupancy); computed
  even for colliding or out-of-bounds structures.
* r_inter = 3 * interlock_score and r_conn = 2 * conn_score, both paid
  only when the structure is feasible (collision-free and fully in
  bounds).

A completion that fails to parse (empty, or any malformed token) is a
failed construction: total -10, with the collision term at its floor
and the other components zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import StructureAnalysis, analyze_chunk
from .core import DimensionMismatch, WorldConfig
from .tokens import parse_structure

# Not called here; perfbench wraps it by name until ROADMAP direction 2.
from .analysis import analyze_with_occupancy


@dataclass(frozen=True)
class RewardBreakdown:
    r_col: float
    r_shape: float
    r_inter: float
    r_conn: float
    total: float
    parse_failed: bool
    feasible: bool
    iou: float
    n_col: int
    in_bounds: bool
    brick_count: int


FAILED_CONSTRUCTION = RewardBreakdown(
    r_col=-10.0,
    r_shape=0.0,
    r_inter=0.0,
    r_conn=0.0,
    total=-10.0,
    parse_failed=True,
    feasible=False,
    iou=0.0,
    n_col=0,
    in_bounds=False,
    brick_count=0,
)


def reward_collision(n_col: int) -> float:
    # Integer product first so n_col = 0 yields 0.0, not -0.0.
    return max(-10.0, float(-2 * n_col))


def reward_shape(gen: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """(5 * IoU, IoU) of two binary grids; IoU of two empty grids is 0."""
    if gen.shape != target.shape:
        raise DimensionMismatch(f"grid shapes differ: {gen.shape} vs {target.shape}")
    inter = int(np.count_nonzero(np.logical_and(gen, target)))
    union = int(np.count_nonzero(np.logical_or(gen, target)))
    iou = inter / union if union else 0.0
    return 5.0 * iou, iou


def reward_breakdown(a: StructureAnalysis, iou: float) -> RewardBreakdown:
    """The four reward terms of a parsed structure from its analysis and its IoU with the target."""
    feasible = a.n_col == 0 and a.fully_in_bounds
    r_col = reward_collision(a.n_col)
    r_shape = 5.0 * iou
    r_inter = 3.0 * a.interlock_score if feasible else 0.0
    r_conn = 2.0 * a.conn_score if feasible else 0.0
    return RewardBreakdown(
        r_col=r_col,
        r_shape=r_shape,
        r_inter=r_inter,
        r_conn=r_conn,
        total=r_col + r_shape + r_inter + r_conn,
        parse_failed=False,
        feasible=feasible,
        iou=iou,
        n_col=a.n_col,
        in_bounds=a.fully_in_bounds,
        brick_count=a.brick_count,
    )


def score_completion(
    completion_text: str, target: np.ndarray, world: WorldConfig
) -> RewardBreakdown:
    """Parse, analyze, and compose the four reward terms.

    It is score_completions on a chunk of one.
    """
    return score_completions([completion_text], [target], world)[0]


# Structures evaluated together at most: a service worker's chunk of
# request lines, and eval's chunk of pairs.
CHUNK_SIZE = 32


def score_completions(
    completions: list[str], targets: list[np.ndarray], world: WorldConfig
) -> list[RewardBreakdown]:
    """Each completion's four reward terms against its target.

    A completion that fails to parse scores FAILED_CONSTRUCTION; the
    parsed ones are scored together in one analyze_chunk call. No term
    reads seam coverage or is_connected, so the analysis skips the seam
    search, and the component labels when every brick is grounded.
    """
    structures = [s if report.parsed_ok else None for s, report in map(parse_structure, completions)]
    return [FAILED_CONSTRUCTION if result is None else reward_breakdown(*result)
            for result in analyze_chunk(structures, targets, world, full=False)]

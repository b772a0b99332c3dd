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

score_terms scores completions in one pass, each as RewardBreakdown's
fields in order; score_completion is it on a chunk of one. reward_terms
states the arithmetic, and chunk_length what one pass holds (the
service's worker chunks and eval's batches).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

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
_FAILED_TERMS = astuple(FAILED_CONSTRUCTION)


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


def reward_terms(a: StructureAnalysis, iou: float) -> tuple:
    """The RewardBreakdown fields, in order, of a parsed structure from its analysis and its IoU with the target."""
    n_col, in_bounds = a.n_col, a.fully_in_bounds
    feasible = n_col == 0 and in_bounds
    r_col = reward_collision(n_col)
    r_shape = 5.0 * iou
    r_inter = 3.0 * a.interlock_score if feasible else 0.0
    r_conn = 2.0 * a.conn_score if feasible else 0.0
    total = r_col + r_shape + r_inter + r_conn
    return r_col, r_shape, r_inter, r_conn, total, False, feasible, iou, n_col, in_bounds, a.brick_count


def score_completion(
    completion_text: str, target: np.ndarray, world: WorldConfig
) -> RewardBreakdown:
    """Parse, analyze, and compose the four reward terms: score_terms on a chunk of one."""
    return RewardBreakdown(*score_terms([completion_text], [target], world)[0])


# Items in one batched pass at most: a service worker's chunk of request
# lines, and eval's chunk of pairs.
CHUNK_SIZE = 32


def chunk_length(items: Sequence[str | bytes], limit: int) -> int:
    """How many items (request lines or eval pairs) from the front make the next batched pass.

    A pass holds at most CHUNK_SIZE items, whose lengths sum to at most
    limit (the service and eval pass max_line_bytes(world)); a longer item
    goes alone. So a pass analyzes about one maximal item's cells at most.
    """
    total = 0
    for count, item in enumerate(items[:CHUNK_SIZE]):
        total += len(item)
        if total > limit:
            return count or 1
    return min(len(items), CHUNK_SIZE)


def score_terms(completions: list[str], targets: list[np.ndarray], world: WorldConfig) -> list[tuple]:
    """Each completion's RewardBreakdown fields, in order, against its target.

    A completion that fails to parse scores FAILED_CONSTRUCTION's fields;
    the parsed ones are analyzed together in one analyze_chunk call. No term
    reads seam coverage or is_connected, so the analysis skips the seam
    search, and the component labels when every brick is grounded.
    """
    structures = [s if report.parsed_ok else None for s, report in map(parse_structure, completions)]
    return [_FAILED_TERMS if result is None else reward_terms(*result)
            for result in analyze_chunk(structures, targets, world, full=False)]

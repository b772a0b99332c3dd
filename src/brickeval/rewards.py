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

from .analysis import StructureAnalysis, analyze_chunk, analyze_with_occupancy
from .core import BrickStructure, DimensionMismatch, WorldConfig, check_target_shape
from .tokens import parse_structure


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
    """Parse, rasterize, analyze, and compose the four reward terms.

    No term reads seam coverage, so the analysis skips the seam pass.
    """
    check_target_shape(target, world)
    structure, report = parse_structure(completion_text)
    if not report.parsed_ok:
        return FAILED_CONSTRUCTION
    return reward_breakdown(*_evaluate_alone(structure, target, world, seams=False))


# Structures evaluated together at most: a service worker's chunk of
# request lines, and eval's chunk of pairs.
CHUNK_SIZE = 32


def evaluate(
    structures: list[BrickStructure | None], targets: list[np.ndarray], world: WorldConfig,
    *, seams: bool = True,
) -> list[tuple[StructureAnalysis, float] | None]:
    """The analysis of each parsed structure (None: failed to parse) and its IoU with its target.

    Light structures, whose brick area is at most 1/16 of the world's
    voxels, are analyzed together in one pass (analyze_chunk) when there
    are two or more; every other one on its own, with
    analyze_with_occupancy's passes over the world grid. Both give the
    same results bit for bit. The batched pass costs about the cells, the
    grid passes about the world's voxels, and per structure the two cost
    the same near an area of 1/16 in a 32x32x32 world (measured with 32
    structures); smaller worlds put the crossing higher.

    With seams=False neither path runs its seam pass, and every analysis
    has seam_coverage None. The rewards ask for that; eval reports seam
    coverage, so the default is True.
    """
    for target in targets:
        check_target_shape(target, world)
    light = [i for i, s in enumerate(structures)
             if s is not None and 16 * int(np.dot(s.columns[:, 0], s.columns[:, 1])) <= world.n_voxels]
    batched = {}
    if len(light) > 1:
        analyses = analyze_chunk([structures[i] for i in light], [targets[i] for i in light], world,
                                 seams=seams)
        batched = dict(zip(light, analyses))
    return [batched[i] if i in batched
            else None if structure is None
            else _evaluate_alone(structure, target, world, seams=seams)
            for i, (structure, target) in enumerate(zip(structures, targets))]


def _evaluate_alone(
    structure: BrickStructure, target: np.ndarray, world: WorldConfig, *, seams: bool = True
) -> tuple[StructureAnalysis, float]:
    a, occupied = analyze_with_occupancy(structure, world, seams=seams)
    return a, reward_shape(occupied, target)[1]


def score_completions(
    completions: list[str], targets: list[np.ndarray], world: WorldConfig
) -> list[RewardBreakdown]:
    """score_completion's breakdown of each completion against its target.

    A completion that fails to parse scores FAILED_CONSTRUCTION; the
    parsed ones are scored together in one evaluate call, without seams.
    """
    structures = [s if report.parsed_ok else None for s, report in map(parse_structure, completions)]
    return [FAILED_CONSTRUCTION if result is None else reward_breakdown(*result)
            for result in evaluate(structures, targets, world, seams=False)]

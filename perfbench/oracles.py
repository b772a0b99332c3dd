"""Expected reward values from the independent oracles in tests/helpers.py."""

from __future__ import annotations

import numpy as np

from brickeval import BrickStructure
from helpers import oracle_connectivity, oracle_counts, oracle_interlock, oracle_iou, oracle_voxels

from inputs import WORLD


def oracle_occupancy(structure: BrickStructure) -> np.ndarray:
    grid = np.zeros(WORLD.shape, dtype=bool)
    for x, y, z in oracle_counts(structure, WORLD):
        grid[x, y, z] = True
    return grid


def oracle_values(structure: BrickStructure, target: np.ndarray) -> dict:
    """Interlock, connectivity, IoU and the composed reward terms by brute force."""
    counts = oracle_counts(structure, WORLD)
    n_col = sum(1 for c in counts.values() if c > 1)
    in_bounds = all(len(oracle_voxels(b, WORLD)) == b.h * b.w for b in structure)
    feasible = n_col == 0 and in_bounds
    interlock = oracle_interlock(structure, WORLD)
    _, _, conn, _ = oracle_connectivity(structure, WORLD)
    iou = oracle_iou(oracle_occupancy(structure), target)
    r_col = max(-10.0, float(-2 * n_col))
    r_shape = 5.0 * iou
    r_inter = 3.0 * interlock if feasible else 0.0
    r_conn = 2.0 * conn if feasible else 0.0
    return {
        "n_col": n_col,
        "in_bounds": in_bounds,
        "feasible": feasible,
        "interlock": interlock,
        "conn": conn,
        "iou": iou,
        "r_col": r_col,
        "r_shape": r_shape,
        "r_inter": r_inter,
        "r_conn": r_conn,
        "total": r_col + r_shape + r_inter + r_conn,
    }


def reward_mismatches(got: dict, structure: BrickStructure, target: np.ndarray) -> list[str]:
    """Fields of a reward record (service response or score breakdown) that differ from the oracles."""
    want = oracle_values(structure, target)
    return [f"{key}: got {got[key]!r}, oracle {want[key]!r}"
            for key in ("n_col", "in_bounds", "feasible", "iou", "r_col", "r_shape", "r_inter", "r_conn", "total")
            if got[key] != want[key]]

"""Shared test helpers: independent brute-force oracles and generators.

The oracles deliberately avoid the library's vectorized code paths:
footprints are Python sets, support is pairwise set intersection,
components come from breadth-first search, grids are compared by
looping over voxel lists, and the legalizer tests every candidate
brick cell by cell against a set of uncovered cells.
"""

from __future__ import annotations

import base64
import zlib
from collections import deque

import numpy as np

from brickeval import BRICK_LIBRARY, Brick, BrickStructure, WorldConfig, library_lookup


def oracle_footprint(brick: Brick, world: WorldConfig | None = None) -> set[tuple[int, int]]:
    """Footprint cells by double loop, optionally clipped to the world."""
    cells = set()
    for u in range(brick.x, brick.x + brick.h):
        for v in range(brick.y, brick.y + brick.w):
            if world is None or (u < world.dim_x and v < world.dim_y):
                cells.add((u, v))
    return cells


def oracle_voxels(brick: Brick, world: WorldConfig) -> set[tuple[int, int, int]]:
    if not (0 <= brick.z < world.dim_z):
        return set()
    return {(u, v, brick.z) for u, v in oracle_footprint(brick, world)}


def oracle_counts(structure: BrickStructure, world: WorldConfig) -> dict[tuple[int, int, int], int]:
    counts: dict[tuple[int, int, int], int] = {}
    for b in structure:
        for v in oracle_voxels(b, world):
            counts[v] = counts.get(v, 0) + 1
    return counts


def oracle_supports_below(
    structure: BrickStructure, i: int, world: WorldConfig | None
) -> list[int]:
    """Indices of bricks one layer below i with intersecting footprints."""
    fp = oracle_footprint(structure[i], world)
    out = []
    for j, other in enumerate(structure):
        if other.z == structure[i].z - 1 and fp & oracle_footprint(other, world):
            out.append(j)
    return out


def oracle_interlock(structure: BrickStructure, world: WorldConfig | None) -> float:
    nonground = [i for i, b in enumerate(structure) if b.z > 0]
    hits = sum(1 for i in nonground if len(oracle_supports_below(structure, i, world)) >= 2)
    return hits / max(len(nonground), 1)


def oracle_connectivity(
    structure: BrickStructure, world: WorldConfig
) -> tuple[int, int, float, bool]:
    """(|O|, |D|, conn_score, is_connected) by BFS over pairwise support edges."""
    n = len(structure)
    edges: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in oracle_supports_below(structure, i, world):
            edges[i].add(j)
            edges[j].add(i)
    component = [-1] * n
    for start in range(n):
        if component[start] != -1:
            continue
        component[start] = start
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in edges[cur]:
                if component[nxt] == -1:
                    component[nxt] = start
                    queue.append(nxt)
    grounded_components = {component[i] for i, b in enumerate(structure) if b.z == 0}
    occupied: set[tuple[int, int, int]] = set()
    grounded_voxels: set[tuple[int, int, int]] = set()
    for i, b in enumerate(structure):
        vox = oracle_voxels(b, world)
        occupied |= vox
        if component[i] in grounded_components:
            grounded_voxels |= vox
    disconnected = occupied - grounded_voxels
    conn = 1.0 - len(disconnected) / max(len(occupied), 1)
    is_connected = (
        len(disconnected) == 0
        and n > 0
        and len(set(component)) == 1
        and bool(grounded_components)
    )
    return len(occupied), len(disconnected), conn, is_connected


def oracle_iou(a: np.ndarray, b: np.ndarray) -> float:
    """IoU by looping over flattened voxel lists."""
    inter = 0
    union = 0
    for va, vb in zip(a.flatten().tolist(), b.flatten().tolist()):
        if va and vb:
            inter += 1
        if va or vb:
            union += 1
    return inter / union if union else 0.0


def oracle_decode_voxels(s: str, world: WorldConfig) -> np.ndarray:
    """Independent codec decoder with an explicit index loop."""
    raw = zlib.decompress(base64.b64decode(s, validate=True))
    assert len(raw) == world.dim_x * world.dim_y * world.dim_z
    grid = np.zeros(world.shape, dtype=bool)
    for x in range(world.dim_x):
        for y in range(world.dim_y):
            for z in range(world.dim_z):
                byte = raw[(x * world.dim_y + y) * world.dim_z + z]
                assert byte in (0, 1)
                grid[x, y, z] = bool(byte)
    return grid


def oracle_priority(seed: int) -> list[tuple[int, int]]:
    """Legalizer brick order: by area, each equal-area group in library
    order shuffled by one shared generator, largest group first."""
    rng = np.random.default_rng(seed)
    groups: dict[int, list[tuple[int, int]]] = {}
    for d in BRICK_LIBRARY:
        groups.setdefault(d.h * d.w, []).append((d.h, d.w))
    order = []
    for area in sorted(groups, reverse=True):
        group = groups[area]
        if len(group) > 1:
            group = [group[k] for k in rng.permutation(len(group))]
        order += group
    return order


def oracle_legalize(
    target: np.ndarray, world: WorldConfig, stagger: bool = False, seed: int = 0
) -> BrickStructure:
    """Greedy cover, layer by layer: at each uncovered target cell in scan
    order, place the first brick in priority order whose cells all lie in
    the world and are still uncovered. Odd layers scan phase-shifted by
    one cell on both axes when staggered."""
    priority = oracle_priority(seed)
    bricks = []
    for z in range(world.dim_z):
        cells = [(x, y) for x in range(world.dim_x) for y in range(world.dim_y) if target[x, y, z]]
        off = z % 2 if stagger else 0
        cells.sort(key=lambda c: ((c[0] - off) % world.dim_x, (c[1] - off) % world.dim_y))
        uncovered = set(cells)
        for x, y in cells:
            if (x, y) not in uncovered:
                continue
            for h, w in priority:
                if x + h > world.dim_x or y + w > world.dim_y:
                    continue
                fp = {(u, v) for u in range(x, x + h) for v in range(y, y + w)}
                if fp <= uncovered:
                    uncovered -= fp
                    bricks.append(Brick(library_lookup(h, w), x, y, z))
                    break
    return BrickStructure(tuple(bricks))


ALL_DIMS = (
    (1, 1), (1, 2), (2, 1), (1, 4), (4, 1), (1, 6), (6, 1),
    (1, 8), (8, 1), (2, 2), (2, 4), (4, 2), (2, 6), (6, 2),
)


def random_structure(
    rng: np.random.Generator,
    world: WorldConfig,
    max_bricks: int,
    in_bounds: bool = True,
    min_bricks: int = 1,
) -> BrickStructure:
    """Random brick list; in_bounds=False allows anchors past the world."""
    n = int(rng.integers(min_bricks, max_bricks + 1))
    bricks = []
    for _ in range(n):
        h, w = ALL_DIMS[int(rng.integers(len(ALL_DIMS)))]
        if in_bounds:
            x = int(rng.integers(0, max(world.dim_x - h, 0) + 1))
            y = int(rng.integers(0, max(world.dim_y - w, 0) + 1))
            z = int(rng.integers(0, world.dim_z))
        else:
            x = int(rng.integers(0, world.dim_x + 4))
            y = int(rng.integers(0, world.dim_y + 4))
            z = int(rng.integers(0, world.dim_z + 3))
        bricks.append(Brick(library_lookup(h, w), x, y, z))
    return BrickStructure(tuple(bricks))


def collision_free_structure(
    rng: np.random.Generator, world: WorldConfig, max_bricks: int
) -> BrickStructure:
    """Random structure with no two bricks sharing a voxel."""
    taken: set[tuple[int, int, int]] = set()
    bricks = []
    for _ in range(int(rng.integers(1, max_bricks + 1))):
        for _attempt in range(20):
            h, w = ALL_DIMS[int(rng.integers(len(ALL_DIMS)))]
            if world.dim_x < h or world.dim_y < w:
                continue
            x = int(rng.integers(0, world.dim_x - h + 1))
            y = int(rng.integers(0, world.dim_y - w + 1))
            z = int(rng.integers(0, world.dim_z))
            brick = Brick(library_lookup(h, w), x, y, z)
            vox = oracle_voxels(brick, world)
            if not (vox & taken):
                taken |= vox
                bricks.append(brick)
                break
    return BrickStructure(tuple(bricks))

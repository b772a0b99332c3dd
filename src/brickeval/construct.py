"""Greedy voxel-to-brick legalizer and pseudo-random target generator.

legalize() tiles each layer of a target grid independently: cells are
scanned in lexicographic order (optionally phase-shifted on odd layers
to stagger seams between layers) and the highest-priority library brick
that fits entirely inside the layer's still-uncovered target cells is
anchored at the scan cell. Priority is footprint area, largest first,
with equal-area variants shuffled by the seed; since 1x1 is in the
library, every target cell is eventually covered exactly, so the output
is always collision-free, in bounds, and rasterizes to the target.

Each layer is held as one Python int per row x, bit y set while cell
(x, y) is still uncovered. A brick h x w fits at (x, y) when the w bits
from y are set in each of the h rows from x, and placing it clears
them; the next cell to scan is read off a row's lowest set bit. The
output is deterministic and the same as testing every candidate cell
by cell: same bricks, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .core import (BRICK_LIBRARY, DEFAULT_WORLD, BrickStructure, OrientedDim, WorldConfig, brick_columns,
                   check_target_shape)


@dataclass(frozen=True)
class ConstructorOptions:
    stagger: bool = False
    seed: int = 0


def _dim_priority(opts: ConstructorOptions) -> list[OrientedDim]:
    rng = np.random.default_rng(opts.seed)
    result: list[OrientedDim] = []
    for _, group in groupby(sorted(BRICK_LIBRARY, key=lambda d: -d.area), key=lambda d: d.area):
        group = list(group)
        if len(group) > 1:
            group = [group[k] for k in rng.permutation(len(group))]
        result.extend(group)
    return result


def legalize(
    target: np.ndarray,
    opts: ConstructorOptions = ConstructorOptions(),
    world: WorldConfig = DEFAULT_WORLD,
) -> BrickStructure:
    """Cover every target voxel exactly once with library bricks."""
    target = np.asarray(target, dtype=bool)
    check_target_shape(target, world)
    priority = [(d.h, d.w, (1 << d.w) - 1) for d in _dim_priority(opts)]
    dim_x, dim_y, dim_z = world.shape
    # Row x of layer z as an int: bit y set = cell (x, y) still uncovered,
    # assembled from 64-bit words so rows of any width stay exact.
    words = np.zeros((dim_z, dim_x, -(-dim_y // 64) * 64), dtype=bool)
    words[:, :, :dim_y] = target.transpose(2, 0, 1)
    words = np.packbits(words, axis=2, bitorder="little").view("<u8").astype(object)
    layers = (words << (64 * np.arange(words.shape[2], dtype=object))).sum(axis=2).tolist()
    placed: list[tuple[int, int, int, int, int]] = []
    for z, rows in enumerate(layers):
        if not any(rows):
            continue
        rows.append(0)  # an empty row past the last, where every fit test stops
        offset = z % 2 if opts.stagger else 0
        # Rows are scanned from row `offset` up and then row 0, each row
        # from bit `offset` up and then bit 0. Every cell already scanned
        # is covered, so a brick fits only over cells later in that order,
        # and a row's next cell to scan is its lowest uncovered bit at or
        # past `offset`, else bit 0. `run` counts the uncovered cells from
        # y along the row, which bounds the width that fits.
        for x in (*range(offset, dim_x), *range(offset)):
            r = rows[x]
            while r:
                ahead = r >> offset << offset or r
                y = (ahead & -ahead).bit_length() - 1
                t = r >> y
                run = (t ^ (t + 1)).bit_length() - 1
                for h, w, m in priority:
                    if w > run:
                        continue
                    m <<= y
                    end = x + h
                    i = x + 1
                    while i < end and rows[i] & m == m:
                        i += 1
                    if i == end:
                        for i in range(x, end):
                            rows[i] &= ~m
                        placed.append((h, w, x, y, z))
                        break
                r = rows[x]
    return BrickStructure._from_columns(brick_columns(placed))


def _below(rng: np.random.Generator, n: int) -> int:
    """A uniform draw from range(n)."""
    return min(int(rng.random() * n), n - 1)


_DIRS_3D = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
_DIRS_2D = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _grow_blob(rng: np.random.Generator, grid: np.ndarray, n_cells: int, world: WorldConfig) -> None:
    dim_x, dim_y, dim_z = world.shape
    x, y, z = _below(rng, dim_x), _below(rng, dim_y), _below(rng, dim_z)
    cells = [(x, y, z)]
    added = 0
    if not grid[x, y, z]:
        grid[x, y, z] = True
        added = 1
    attempts = 0
    limit = 20 * n_cells + 100
    while added < n_cells and attempts < limit:
        attempts += 1
        cx, cy, cz = cells[_below(rng, len(cells))]
        dx, dy, dz = _DIRS_3D[_below(rng, 6)]
        nx, ny, nz = cx + dx, cy + dy, cz + dz
        if 0 <= nx < dim_x and 0 <= ny < dim_y and 0 <= nz < dim_z:
            if not grid[nx, ny, nz]:
                grid[nx, ny, nz] = True
                added += 1
            cells.append((nx, ny, nz))


def _grow_grounded(rng: np.random.Generator, grid: np.ndarray, n_cells: int, world: WorldConfig) -> None:
    """Grow a 2D footprint blob and fill each column upward from z = 0."""
    dim_x, dim_y, dim_z = world.shape
    base_height = 1 + _below(rng, dim_z)

    def column_height() -> int:
        return min(max(base_height + _below(rng, 5) - 2, 1), dim_z)

    x, y = _below(rng, dim_x), _below(rng, dim_y)
    columns = [(x, y)]
    seen = {(x, y)}
    h = column_height()
    grid[x, y, :h] = True
    total = h
    attempts = 0
    limit = 20 * n_cells + 100
    while total < n_cells and attempts < limit:
        attempts += 1
        cx, cy = columns[_below(rng, len(columns))]
        dx, dy = _DIRS_2D[_below(rng, 4)]
        nx, ny = cx + dx, cy + dy
        if 0 <= nx < dim_x and 0 <= ny < dim_y and (nx, ny) not in seen:
            seen.add((nx, ny))
            columns.append((nx, ny))
            h = column_height()
            grid[nx, ny, :h] = True
            total += h


def random_target(
    seed: int,
    max_components: int = 3,
    fill_prob: float = 0.15,
    grounded: bool = False,
    world: WorldConfig = DEFAULT_WORLD,
) -> np.ndarray:
    """Deterministic pseudo-random target grid.

    fill_prob sets the approximate fraction of occupied voxels. With
    grounded=True every occupied voxel sits on a filled column down to
    z = 0, so a legalized build of the grid is fully grounded.
    """
    if max_components < 1:
        raise ValueError(f"max_components must be at least 1, got {max_components}")
    grid = np.zeros(world.shape, dtype=bool)
    if fill_prob <= 0:
        return grid
    rng = np.random.default_rng(seed)
    budget = max(1, round(fill_prob * world.n_voxels))
    n_components = 1 + _below(rng, max_components)
    per_component = max(1, budget // n_components)
    for _ in range(n_components):
        if grounded:
            _grow_grounded(rng, grid, per_component, world)
        else:
            _grow_blob(rng, grid, per_component, world)
    return grid

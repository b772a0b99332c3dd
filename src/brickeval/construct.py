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

import numpy as np

from .core import BRICK_LIBRARY, DEFAULT_WORLD, Brick, BrickStructure, OrientedDim, WorldConfig


@dataclass(frozen=True)
class ConstructorOptions:
    stagger: bool = False
    seed: int = 0
    largest_first: bool = True


def _dim_priority(opts: ConstructorOptions) -> list[OrientedDim]:
    rng = np.random.default_rng(opts.seed)
    by_area = sorted(BRICK_LIBRARY, key=lambda d: -d.area)
    result: list[OrientedDim] = []
    i = 0
    while i < len(by_area):
        j = i
        while j < len(by_area) and by_area[j].area == by_area[i].area:
            j += 1
        group = by_area[i:j]
        if len(group) > 1:
            group = [group[k] for k in rng.permutation(len(group))]
        result.extend(group)
        i = j
    if not opts.largest_first:
        result.reverse()
    return result


def legalize(
    target: np.ndarray,
    opts: ConstructorOptions = ConstructorOptions(),
    world: WorldConfig = DEFAULT_WORLD,
) -> BrickStructure:
    """Cover every target voxel exactly once with library bricks."""
    target = np.asarray(target, dtype=bool)
    if target.shape != world.shape:
        raise ValueError(
            f"target shape {tuple(target.shape)} does not match world {world.shape}"
        )
    priority = [(d, d.w, (1 << d.w) - 1, d.h) for d in _dim_priority(opts)]
    dim_x, dim_y, dim_z = world.shape
    # Row x of layer z as an int: bit y set = cell (x, y) still uncovered,
    # assembled from 64-bit words so rows of any width stay exact.
    words = np.zeros((dim_z, dim_x, -(-dim_y // 64) * 64), dtype=bool)
    words[:, :, :dim_y] = target.transpose(2, 0, 1)
    words = np.packbits(words, axis=2, bitorder="little").view("<u8").astype(object)
    layers = (words << (64 * np.arange(words.shape[2], dtype=object))).sum(axis=2).tolist()
    bricks: list[Brick] = []
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
                for dim, w, m, h in priority:
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
                        bricks.append(Brick(dim, x, y, z))
                        break
                r = rows[x]
    return BrickStructure(tuple(bricks))


class _BatchedDraw:
    """Scalar draws served from batched generator output."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = np.empty(0)
        self._i = 0

    def uniform(self) -> float:
        if self._i >= self._buf.size:
            self._buf = self._rng.random(4096)
            self._i = 0
        v = float(self._buf[self._i])
        self._i += 1
        return v

    def below(self, n: int) -> int:
        return min(int(self.uniform() * n), n - 1)


_DIRS_3D = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
_DIRS_2D = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _grow_blob(draw: _BatchedDraw, grid: np.ndarray, n_cells: int, world: WorldConfig) -> None:
    dim_x, dim_y, dim_z = world.shape
    x, y, z = draw.below(dim_x), draw.below(dim_y), draw.below(dim_z)
    cells = [(x, y, z)]
    added = 0
    if not grid[x, y, z]:
        grid[x, y, z] = True
        added = 1
    attempts = 0
    limit = 20 * n_cells + 100
    while added < n_cells and attempts < limit:
        attempts += 1
        cx, cy, cz = cells[draw.below(len(cells))]
        dx, dy, dz = _DIRS_3D[draw.below(6)]
        nx, ny, nz = cx + dx, cy + dy, cz + dz
        if 0 <= nx < dim_x and 0 <= ny < dim_y and 0 <= nz < dim_z:
            if not grid[nx, ny, nz]:
                grid[nx, ny, nz] = True
                added += 1
            cells.append((nx, ny, nz))


def _grow_grounded(draw: _BatchedDraw, grid: np.ndarray, n_cells: int, world: WorldConfig) -> None:
    """Grow a 2D footprint blob and fill each column upward from z = 0."""
    dim_x, dim_y, dim_z = world.shape
    base_height = 1 + draw.below(dim_z)

    def column_height() -> int:
        return min(max(base_height + draw.below(5) - 2, 1), dim_z)

    x, y = draw.below(dim_x), draw.below(dim_y)
    columns = [(x, y)]
    seen = {(x, y)}
    h = column_height()
    grid[x, y, :h] = True
    total = h
    attempts = 0
    limit = 20 * n_cells + 100
    while total < n_cells and attempts < limit:
        attempts += 1
        cx, cy = columns[draw.below(len(columns))]
        dx, dy = _DIRS_2D[draw.below(4)]
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
    grid = np.zeros(world.shape, dtype=bool)
    if fill_prob <= 0:
        return grid
    draw = _BatchedDraw(np.random.default_rng(seed))
    budget = max(1, round(fill_prob * world.n_voxels))
    n_components = 1 + draw.below(max(max_components, 1))
    per_component = max(1, budget // n_components)
    for _ in range(n_components):
        if grounded:
            _grow_grounded(draw, grid, per_component, world)
        else:
            _grow_blob(draw, grid, per_component, world)
    return grid

"""Structure geometry: rasterization, collisions, support, grounding, seams.

One clipping rule holds throughout: a footprint is clipped to the
world's x/y extent, and only the clipped cells count. They are voxels
(occupancy, collisions, seams) on the world's layers, and they carry
support on every layer, inside the world or not. interlock_score
without a world is the score in a world where nothing clips.

Definitions used throughout:

* A voxel collides when more than one brick occupies it.
* Brick j supports brick i when j sits exactly one layer below i and
  their clipped footprints overlap; edges are undirected in the support
  graph.
* A brick is grounded when its support-graph component contains some
  brick at z = 0. The disconnected voxel set D holds occupied voxels
  covered only by ungrounded bricks; conn_score = 1 - |D| / max(|O|, 1).
* A brick interlocks when it is off the ground layer and rests on at
  least two distinct supporting bricks; interlock_score averages this
  indicator over non-ground bricks (denominator clamped to 1).
* A seam is a pair of horizontally adjacent occupied voxels in one
  layer owned by different bricks (ownership of a colliding voxel goes
  to the lowest-index brick). It is covered when a single brick in the
  layer above occupies both cells directly over the pair. The topmost
  layer has no layer above and is excluded from the seam total.

The passes are vectorized and share one set of footprint cells: each
brick's clipped footprint is enumerated exactly, its cells numbered by
one repeat of the brick index and one arange, with no padding. Support
is a join on those cells (sorted by column and layer, the cells under a
cell come just before it), components come from hooking and pointer
jumping over the support edges, and seams from comparing the flat
voxel-owner grid with itself shifted one step along x or y. The bricks come in as the
structure's columns, its one stored form, so no pass loops over bricks
in Python and none builds a Brick.

analyze_chunk runs the same passes once for many structures, on one set
of cells whose keys carry a structure id. It works on the sorted cells
alone instead of world grids, so its cost and memory follow the cells:
it is the cheaper way for structures that fill little of the world.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import FOOTPRINT_SIDES, BrickStructure, WorldConfig

_GAP = FOOTPRINT_SIDES  # one more than the longest footprint side


@dataclass
class OccupancyField:
    """Per-voxel brick multiplicity over the world grid."""

    counts: np.ndarray
    world: WorldConfig

    @property
    def occupied(self) -> np.ndarray:
        return self.counts > 0


@dataclass(frozen=True)
class StructureAnalysis:
    """All structural predicates of one brick structure."""

    n_col: int
    fully_in_bounds: bool
    occupied_count: int
    disconnected_count: int
    conn_score: float
    is_connected: bool
    interlock_score: float
    seam_coverage: float
    brick_count: int


class _Geometry:
    """Per-structure arrays shared by the analysis passes.

    They are built from a structure's columns. Anchors are
    clamped to the world extent with np.minimum and then cast to int64:
    everything at or past the upper bound is outside the world either
    way, so clamping keeps clipped-footprint semantics, and it is exact
    on object columns too, whose huge anchors come down to the bound.
    Layers are ranked instead, over the distinct layers from np.unique:
    the lowest gets key 2, and each next one the previous key plus one
    when the two layers are adjacent and plus two otherwise, so support
    stays exact for far-away layers and they never alias.

    Every footprint cell inside the world's x/y extent is one entry of
    the flat cell arrays, in brick order, whatever the brick's layer:
    support is found between cells, and the cells on in-world layers
    are the voxels.

    Several structures laid end to end share one geometry when each
    brick's structure id (nondecreasing) is given. A cell's column then
    counts whole worlds' columns for the structures before its own, so
    cells of different structures never share a key or touch, and a
    voxel's flat index lin runs over that many worlds laid end to end,
    which are never allocated.
    """

    def __init__(self, columns: np.ndarray, world: WorldConfig, structure: np.ndarray | None = None):
        dim_x, dim_y, dim_z = world.shape
        h, w, x, y, z = columns.T
        hs = h.astype(np.int64, copy=False)
        ws = w.astype(np.int64, copy=False)
        self.n = hs.size
        self.world = world
        x0 = np.minimum(x, dim_x).astype(np.int64, copy=False)
        y0 = np.minimum(y, dim_y).astype(np.int64, copy=False)
        x1 = np.minimum(x0 + hs, dim_x)
        y1 = np.minimum(y0 + ws, dim_y)
        self.area = hs * ws

        layers, inverse = np.unique(z, return_inverse=True)
        keys = np.empty(layers.size, dtype=np.int64)
        keys[0] = 2
        keys[1:] = np.where(np.diff(layers) == 1, 1, 2)
        np.cumsum(keys, out=keys)
        self.layer = keys[inverse]
        self.layer_span = int(keys[-1]) + 1
        in_world = (0 <= layers) & (layers < dim_z)
        # Each brick's layer in the world, or -1 outside it.
        self.z = zc = np.where(in_world, layers, -1).astype(np.int64, copy=False)[inverse]
        self.ground = zc == 0

        # Cell i of a brick's clipped ch x cw footprint is (x0 + i // cw, y0 + i % cw).
        ch, cw = x1 - x0, y1 - y0
        count = ch * cw
        brick = np.repeat(np.arange(self.n), count)
        i = np.arange(brick.size) - np.repeat(np.cumsum(count) - count, count)
        cw = cw[brick]
        dx = i // cw
        dy = i - dx * cw
        column = (x0[brick] + dx) * dim_y + y0[brick] + dy
        if structure is not None:
            column += structure[brick] * (dim_x * dim_y)
        # A cell's +x (+y) neighbor lies in the same brick.
        self.pair_x = dx < ch[brick] - 1
        self.pair_y = dy < cw - 1
        self.brick, self.column = brick, column
        self.voxel = zc[brick] >= 0
        self.vbrick = brick[self.voxel]
        self.lin = column[self.voxel] * dim_z + zc[self.vbrick]

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cells sorted by key (column, layer key), as runs of equal keys.

        Returns the cell order, the sorted keys, each sorted cell's run,
        and each run's first position in that order and its size. A run
        is longer than one cell only where bricks collide, and the cells
        one layer below a run are exactly the run before it when the two
        keys differ by one.
        """
        key = self.column * self.layer_span + self.layer[self.brick]
        order = np.argsort(key)
        key = key[order]
        starts = np.empty(key.size, dtype=bool)
        starts[:1] = True
        np.not_equal(key[1:], key[:-1], out=starts[1:])
        run = np.cumsum(starts) - 1
        return order, key, run, np.flatnonzero(starts), np.bincount(run)

    def support(self, runs: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Distinct support edges (upper brick, lower brick), sorted, from runs() if given."""
        if not self.brick.size:
            return self.brick, self.brick
        order, key, run, first, size = runs or self.runs()
        brick = self.brick[order]
        stacked = np.zeros(first.size, dtype=bool)
        stacked[1:] = key[first[1:]] - key[first[:-1]] == 1
        below = run - 1
        take = np.where(stacked[run], size[below], 0)
        offset = np.repeat(first[below] - (np.cumsum(take) - take), take)
        upper = np.repeat(brick, take)
        lower = brick[offset + np.arange(offset.size)]
        bits = max(self.n - 1, 1).bit_length()
        edge = np.sort((upper << bits) | lower)
        distinct = np.empty(edge.size, dtype=bool)
        distinct[:1] = True
        np.not_equal(edge[1:], edge[:-1], out=distinct[1:])
        edge = edge[distinct]
        return edge >> bits, edge & ((1 << bits) - 1)


def rasterize(structure: BrickStructure, world: WorldConfig) -> OccupancyField:
    """Count, per voxel, how many bricks occupy it (clipped to the world)."""
    counts = np.zeros(world.n_voxels, dtype=np.int64)
    if len(structure):
        counts = np.bincount(_Geometry(structure.columns, world).lin, minlength=world.n_voxels)
    return OccupancyField(counts.reshape(world.shape), world)


def collision_stats(field: OccupancyField) -> tuple[int, list[tuple[int, int, int]]]:
    """Colliding-voxel count and their coordinates in ascending order."""
    coords = np.argwhere(field.counts > 1)
    return len(coords), [tuple(int(c) for c in v) for v in coords]


_EMPTY_ANALYSIS = StructureAnalysis(
    n_col=0,
    fully_in_bounds=True,
    occupied_count=0,
    disconnected_count=0,
    conn_score=1.0,
    is_connected=False,
    interlock_score=0.0,
    seam_coverage=1.0,
    brick_count=0,
)


def analyze(structure: BrickStructure, world: WorldConfig) -> StructureAnalysis:
    """Run every analysis pass once over shared geometry."""
    return analyze_with_occupancy(structure, world)[0]


def analyze_with_occupancy(
    structure: BrickStructure, world: WorldConfig
) -> tuple[StructureAnalysis, np.ndarray]:
    """analyze() plus the occupied grid, sharing a single rasterization."""
    n = len(structure)
    if n == 0:
        return _EMPTY_ANALYSIS, np.zeros(world.shape, dtype=bool)
    geom = _Geometry(structure.columns, world)
    n_voxels = world.n_voxels
    lin = geom.lin
    counts = np.bincount(lin, minlength=n_voxels)
    n_col = int(np.count_nonzero(counts > 1))
    occupied = counts > 0
    occupied_count = int(np.count_nonzero(occupied))
    fully_in_bounds = lin.size == int(geom.area.sum())

    upper, lower = geom.support()
    interlock = _interlock(geom, upper)

    label = _components(n, upper, lower)
    grounded_root = np.zeros(n, dtype=bool)
    grounded_root[label[geom.ground]] = True
    grounded = grounded_root[label]
    all_grounded = bool(grounded.all())
    if all_grounded:
        disconnected = 0
    else:
        grounded_occ = np.zeros(n_voxels, dtype=bool)
        grounded_occ[lin[grounded[geom.vbrick]]] = True
        disconnected = occupied_count - int(np.count_nonzero(grounded_occ))
    conn_score = 1.0 - disconnected / max(occupied_count, 1)
    is_connected = all_grounded and bool((label == label[0]).all())

    result = StructureAnalysis(
        n_col=n_col,
        fully_in_bounds=fully_in_bounds,
        occupied_count=occupied_count,
        disconnected_count=disconnected,
        conn_score=conn_score,
        is_connected=is_connected,
        interlock_score=interlock,
        seam_coverage=_seam_score(geom),
        brick_count=n,
    )
    return result, occupied.reshape(world.shape)


def analyze_chunk(
    structures: list[BrickStructure], targets: list[np.ndarray], world: WorldConfig
) -> list[tuple[StructureAnalysis, float]]:
    """analyze() of each structure and the IoU of its occupancy with its target, in one pass.

    Equal bit for bit to analyze_with_occupancy and reward_shape run on
    each structure, but the structures share one geometry, whose cell
    keys carry a structure id, so every pass runs once for the chunk and
    nothing the size of the world is allocated. Voxels are the runs of
    equal cell keys on in-world layers. A seam's neighbor is found by a
    binary search of the voxel keys, and its cover in the next run, the
    layer above. IoU looks each structure's voxels up in its own target
    grid, and per-structure totals are bincounts on the structure id.
    """
    k = len(structures)
    sizes = np.array([len(s) for s in structures], dtype=np.int64)
    n = int(sizes.sum())
    if n == 0:
        return [(_EMPTY_ANALYSIS, 0.0)] * k
    sid = np.repeat(np.arange(k), sizes)
    geom = _Geometry(np.concatenate([s.columns for s in structures]), world, sid)
    dim_x, dim_y, dim_z = world.shape

    runs = geom.runs()
    upper, lower = geom.support(runs)
    nonground = ~geom.ground
    interlocked = (np.bincount(upper, minlength=n) >= 2) & nonground
    label = _components(n, upper, lower)
    grounded_root = np.zeros(n, dtype=bool)
    grounded_root[label[geom.ground]] = True
    grounded = grounded_root[label]
    first_brick = np.cumsum(sizes) - sizes
    # A brick that is ungrounded or apart from its structure's first brick.
    apart = ~grounded | (label != label[first_brick[sid]])

    order, key, _, first, size = runs
    brick = geom.brick[order]
    z = geom.z[brick[first]]
    voxel = z >= 0
    vkey, z, size = key[first][voxel], z[voxel], size[voxel]
    vfirst = first[voxel]
    owner = np.minimum.reduceat(brick, first)[voxel]
    vsid = sid[owner]

    def any_in_run(flags: np.ndarray) -> np.ndarray:
        return np.logical_or.reduceat(flags, first)[voxel]

    occupied = np.bincount(vsid, minlength=k)
    n_col = np.bincount(vsid[size > 1], minlength=k)
    disconnected = occupied - np.bincount(vsid[any_in_run(grounded[brick])], minlength=k)
    in_cells = np.bincount(vsid, weights=size, minlength=k)
    fully_in_bounds = in_cells == np.bincount(sid, weights=geom.area, minlength=k)

    # The voxel's column within its own world, for the edges and the target lookup.
    column = geom.column[order[vfirst]] - vsid * (dim_x * dim_y)
    below_top = z < dim_z - 1
    total = np.zeros(k, dtype=np.int64)
    covered = np.zeros(k, dtype=np.int64)
    for pair, has_next, step in (
        (geom.pair_x, column < (dim_x - 1) * dim_y, dim_y),
        (geom.pair_y, column % dim_y < dim_y - 1, 1),
    ):
        nxt = vkey + step * geom.layer_span
        at = np.minimum(np.searchsorted(vkey, nxt), vkey.size - 1)
        seam = below_top & has_next & (vkey[at] == nxt) & (owner[at] != owner)
        # Covered by a pair cell in the voxel above, which is the next run.
        cover = np.zeros(vkey.size, dtype=bool)
        cover[:-1] = (vkey[1:] - vkey[:-1] == 1) & any_in_run(pair[order])[1:]
        total += np.bincount(vsid[seam], minlength=k)
        covered += np.bincount(vsid[seam & cover], minlength=k)

    nonground_count = np.bincount(sid[nonground], minlength=k)
    fields = zip(
        n_col.tolist(),
        fully_in_bounds.tolist(),
        occupied.tolist(),
        disconnected.tolist(),
        (1.0 - disconnected / np.maximum(occupied, 1)).tolist(),
        ((sizes > 0) & (np.bincount(sid[apart], minlength=k) == 0)).tolist(),
        (np.bincount(sid[interlocked], minlength=k) / np.maximum(nonground_count, 1)).tolist(),
        np.where(total == 0, 1.0, covered / np.maximum(total, 1)).tolist(),
        sizes.tolist(),
    )
    flat = column * dim_z + z
    bounds = np.cumsum(occupied).tolist()
    results = []
    lo = 0
    for fields_s, target, hi, occupied_s in zip(fields, targets, bounds, occupied.tolist()):
        grid = target.reshape(-1)
        inter = int(np.count_nonzero(grid[flat[lo:hi]]))
        union = occupied_s + int(np.count_nonzero(grid)) - inter
        results.append((StructureAnalysis(*fields_s), inter / union if union else 0.0))
        lo = hi
    return results


def _interlock(geom: _Geometry, upper: np.ndarray) -> float:
    """Fraction of non-ground bricks that are the upper end of two or more support edges."""
    nonground = ~geom.ground
    n_nonground = int(np.count_nonzero(nonground))
    interlocked = np.bincount(upper, minlength=geom.n) >= 2
    return float(np.count_nonzero(interlocked & nonground) / max(n_nonground, 1))


def _close_gaps(values: np.ndarray) -> np.ndarray:
    """Small int64 anchors with every gap between consecutive distinct values capped at _GAP.

    The smallest value maps to 0. Footprints a gap of _GAP or more apart
    never overlap, so overlaps are kept whatever the original size.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    small = np.zeros(distinct.size, dtype=np.int64)
    small[1:] = np.minimum(np.diff(distinct), _GAP)
    return np.cumsum(small)[inverse]


def interlock_score(
    structure: BrickStructure, world: WorldConfig | None = None
) -> float:
    """Fraction of non-ground bricks resting on two or more distinct supports.

    With a world given, footprints are clipped to it, as in analyze().
    Without one, it is the score in a world where nothing clips: x and y
    anchors keep their overlaps but have wide gaps closed, and the world
    is just large enough to hold every footprint whole. It is one layer
    tall, which leaves the ground at z = 0, and support between layers
    outside it is exact whatever their distance.
    """
    if not len(structure):
        return 0.0
    columns = structure.columns
    if world is None:
        h, w, x, y, z = columns.T
        x, y = _close_gaps(x), _close_gaps(y)
        world = WorldConfig(int((x + h).max()), int((y + w).max()), 1)
        columns = np.stack((h, w, x, y, z), axis=1)
    geom = _Geometry(columns, world)
    return _interlock(geom, geom.support()[0])


def _components(n: int, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """A component label per brick: equal labels iff connected by edges.

    Each round hooks the larger of two differing root labels on an edge
    onto the smaller, then jumps pointers until every label is a root.
    Every root that is not a local minimum hooks, so the rounds are few.
    """
    label = np.arange(n)
    while True:
        a, b = label[upper], label[lower]
        differ = a != b
        if not differ.any():
            return label
        a, b = a[differ], b[differ]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


@lru_cache(maxsize=8)
def _seam_rows(world: WorldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Flat voxels that may start an x (y) seam: below the top layer, x (y) below its last value.

    Indexed like the first voxel of each pair, so for the x axis over
    [0, n_voxels - dim_y * dim_z) and for the y axis over [0, n_voxels - dim_z).
    """
    _, y, z = np.indices(world.shape).reshape(3, -1)
    below_top = z < world.dim_z - 1
    x_rows = below_top[: world.n_voxels - world.dim_y * world.dim_z]
    y_rows = (below_top & (y < world.dim_y - 1))[: world.n_voxels - world.dim_z]
    for rows in (x_rows, y_rows):
        rows.flags.writeable = False  # cached, so shared by every caller
    return x_rows, y_rows


def _seam_score(geom: _Geometry) -> float:
    world = geom.world
    n = geom.n
    # The lowest brick index owns a voxel; n marks an empty one.
    owner = np.full(world.n_voxels, n, dtype=np.int64)
    np.minimum.at(owner, geom.lin, geom.vbrick)
    covered = 0
    total = 0
    for pair, step, rows in zip(
        (geom.pair_x, geom.pair_y), (world.dim_y * world.dim_z, world.dim_z), _seam_rows(world)
    ):
        # A seam between voxel v and v + step is covered by a pair cell at v + 1.
        pair_at = np.zeros(world.n_voxels, dtype=bool)
        pair_at[geom.lin[pair[geom.voxel]]] = True
        a, b = owner[:-step], owner[step:]
        seams = (a != b) & (np.maximum(a, b) < n) & rows
        total += int(np.count_nonzero(seams))
        covered += int(np.count_nonzero(seams & pair_at[1 : 1 + seams.size]))
    return 1.0 if total == 0 else covered / total

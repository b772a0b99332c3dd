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

The passes are vectorized and share one set of footprint cells: every
library variant's offsets sit in a padded lookup table, so all cell
coordinates come from one broadcast add. Support is a join on those
cells (sorted by column and layer, the cells under a cell come just
before it), components come from hooking and pointer jumping over the
support edges, and seams from comparing the flat voxel-owner grid with
itself shifted one step along x or y. The bricks come in as the
structure's columns, so no pass loops over bricks in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import BRICK_LIBRARY, BrickStructure, WorldConfig

_PAD = max(d.h * d.w for d in BRICK_LIBRARY)
_GAP = max(d.h for d in BRICK_LIBRARY) + 1  # one more than the longest footprint side


def _build_offset_table() -> tuple[np.ndarray, np.ndarray]:
    """Footprint cell offsets per variant, indexed by (h << 4) | w.

    Unused slots hold an offset far past any world, so their cells
    always fall outside it.
    """
    size = max(((d.h << 4) | d.w) for d in BRICK_LIBRARY) + 1
    offx = np.full((size, _PAD), 1 << 40, dtype=np.int64)
    offy = np.full((size, _PAD), 1 << 40, dtype=np.int64)
    for d in BRICK_LIBRARY:
        code = (d.h << 4) | d.w
        offx[code, : d.area] = np.repeat(np.arange(d.h, dtype=np.int64), d.w)
        offy[code, : d.area] = np.tile(np.arange(d.w, dtype=np.int64), d.h)
    return offx, offy


_OFFX, _OFFY = _build_offset_table()


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

    They are built from the structure's columns alone. Anchors are
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
    """

    def __init__(self, structure: BrickStructure, world: WorldConfig):
        dim_x, dim_y, dim_z = world.shape
        h, w, x, y, z = structure.columns.T
        hs = h.astype(np.int64, copy=False)
        ws = w.astype(np.int64, copy=False)
        self.n = hs.size
        self.world = world
        x0 = np.minimum(x, dim_x).astype(np.int64, copy=False)
        y0 = np.minimum(y, dim_y).astype(np.int64, copy=False)
        x1 = np.minimum(x0 + hs, dim_x)
        y1 = np.minimum(y0 + ws, dim_y)
        self.total_area = int(np.dot(hs, ws))

        layers, inverse = np.unique(z, return_inverse=True)
        keys = np.empty(layers.size, dtype=np.int64)
        keys[0] = 2
        keys[1:] = np.where(np.diff(layers) == 1, 1, 2)
        np.cumsum(keys, out=keys)
        self.layer = keys[inverse]
        self.layer_span = int(keys[-1]) + 1
        in_world = (0 <= layers) & (layers < dim_z)
        zc = np.where(in_world, layers, -1).astype(np.int64, copy=False)[inverse]
        self.ground = zc == 0

        code = (hs << 4) | ws
        gx = x0[:, None] + _OFFX[code]
        gy = y0[:, None] + _OFFY[code]
        valid = (gx < x1[:, None]) & (gy < y1[:, None])
        brick = valid.nonzero()[0]
        column = (gx * dim_y + gy)[valid]
        # A cell's +x (+y) neighbor lies in the same brick.
        pair_x = (gx < (x1 - 1)[:, None])[valid]
        pair_y = (gy < (y1 - 1)[:, None])[valid]
        self.brick, self.column = brick, column
        voxel = zc[brick] >= 0
        self.vbrick = brick[voxel]
        self.lin = column[voxel] * dim_z + zc[self.vbrick]
        self.pair_x, self.pair_y = pair_x[voxel], pair_y[voxel]

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct support edges (upper brick, lower brick), sorted.

        Cells are sorted by (column, layer key). Equal keys form a run
        (longer than one cell only where bricks collide), and the cells
        one layer below a run are exactly the run before it when the two
        keys differ by one.
        """
        if not self.brick.size:
            return self.brick, self.brick
        key = self.column * self.layer_span + self.layer[self.brick]
        order = np.argsort(key)
        key, brick = key[order], self.brick[order]
        starts = np.empty(key.size, dtype=bool)
        starts[0] = True
        np.not_equal(key[1:], key[:-1], out=starts[1:])
        run = np.cumsum(starts) - 1
        first = np.flatnonzero(starts)
        size = np.bincount(run)
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
        counts = np.bincount(_Geometry(structure, world).lin, minlength=world.n_voxels)
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
    geom = _Geometry(structure, world)
    n_voxels = world.n_voxels
    lin = geom.lin
    counts = np.bincount(lin, minlength=n_voxels)
    n_col = int(np.count_nonzero(counts > 1))
    occupied = counts > 0
    occupied_count = int(np.count_nonzero(occupied))
    fully_in_bounds = lin.size == geom.total_area

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
    if world is None:
        h, w, x, y, z = structure.columns.T
        x, y = _close_gaps(x), _close_gaps(y)
        world = WorldConfig(int((x + h).max()), int((y + w).max()), 1)
        structure = BrickStructure._from_columns(np.stack((h, w, x, y, z), axis=1))
    geom = _Geometry(structure, world)
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
        pair_at[geom.lin[pair]] = True
        a, b = owner[:-step], owner[step:]
        seams = (a != b) & (np.maximum(a, b) < n) & rows
        total += int(np.count_nonzero(seams))
        covered += int(np.count_nonzero(seams & pair_at[1 : 1 + seams.size]))
    return 1.0 if total == 0 else covered / total

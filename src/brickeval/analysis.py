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
brick's clipped footprint is enumerated exactly, with no padding: its
cells are numbered by one repeat of the brick index and one arange, and
each cell's offsets in the footprint are read from two constant tables
indexed by the clipped width and the cell's number. Support
is a join on those cells (sorted by column and layer, by a radix sort
when every key fits in 16 bits, as one structure's keys in a 20^3
world do unless it spans many layers; the cells under a cell are the
run of equal keys just before it). Every brick of a run rests on every
brick of the run below, so a brick's least and greatest brick below
come from the runs' bounds, and a cell is joined to the first brick
of the run below and of the run above: stacked copies cost their cells.
Components come from hooking and pointer jumping over the edges, which
repeats do not change. Voxels are the runs of equal keys among the
sorted cells, and a seam's neighbor is found by a binary search of the
voxel keys. The bricks come in as the structure's columns, its one
stored form, so no pass loops over bricks in Python and none builds a
Brick.

One pass computes every analysis, the empty build's included:
analyze, analyze_with_occupancy and interlock_score run it on one
structure. analyze_chunk, the evaluation core of the rewards and the
metrics, runs it on many at once, whose cell keys then carry a
structure id. It works on the sorted cells and the support edges
between them, never on a world grid, so its cost and memory follow
those, not the world. The rewards ask it only for the fields a reward
term reads (full=False): it then skips the seam search, joins each cell
to the one before it alone, and leaves the support fields of an
infeasible structure, whose support no reward reads, as None; it skips
the component labels too when every other brick off the ground rests
on one below. It counts each structure into one StructureAnalysis, a
NamedTuple of plain Python values, which every caller reads as it is.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .core import BrickStructure, WorldConfig, check_target_shape


class StructureAnalysis(NamedTuple):
    """All structural predicates of one brick structure.

    seam_coverage and is_connected are None only when the caller asked
    for the reward fields alone (full=False), and then the support fields
    too on an infeasible structure (a colliding voxel or a clipped brick).
    """

    n_col: int
    fully_in_bounds: bool
    occupied_count: int
    disconnected_count: int | None
    conn_score: float | None
    is_connected: bool | None
    interlock_score: float | None
    seam_coverage: float | None
    brick_count: int


# The offsets (i // cw, i % cw) of cell i of a footprint clipped to width
# cw, at cw * _CELLS + i. _CELLS exceeds every library side and every
# footprint's cell count, so every clipped footprint's cells have a row.
_CELLS = 16
_DX, _DY = (table.astype(np.uint8).ravel()
            for table in np.divmod(np.arange(_CELLS), np.maximum(np.arange(_CELLS), 1)[:, None]))


class _Geometry:
    """Per-structure arrays shared by the analysis passes.

    They are built from a structure's columns. Anchors are clamped to
    the world extent with np.minimum: everything at or past the upper
    bound is outside the world either way, so clamping keeps
    clipped-footprint semantics, and huge anchors come down to the bound.
    Layers are ranked instead, by _close_gaps, from key 2 up: adjacent
    layers keep adjacent keys and farther ones are two apart, so support
    stays exact for far-away layers and they never alias.

    One exactness rule holds for the clamped anchors, in-world layers,
    cell columns, cell keys and voxel indices, all below dim_x * dim_y *
    k * max(layer span, dim_z) for k structures: int64 while that bound
    is below 2**63, else Python ints in object arrays, which sort,
    subtract and search exactly. So a world of any size is analyzed
    exactly. Footprint sides and layer keys stay int64.

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
        self.n = n = len(columns)
        self.world = world
        self.layer, self.layer_span = _close_gaps(columns[:, 4])
        k = 1 if structure is None or not n else int(structure[-1]) + 1
        exact = dim_x * dim_y * k * max(self.layer_span, dim_z) < 1 << 63
        h, w, x, y, z = (columns if exact else columns.astype(object)).T
        x0, y0 = np.minimum(x, dim_x), np.minimum(y, dim_y)
        ch, cw = np.minimum(h, dim_x - x0), np.minimum(w, dim_y - y0)
        # Each brick's layer in the world, or -1 outside it.
        zc = np.where((0 <= z) & (z < dim_z), z, -1)
        if h.dtype == object:
            # Sides fit in int64 in any world; clamped anchors and layers, in one within the bound.
            h, w, ch, cw = np.array((h, w, ch, cw), dtype=np.int64)
            if exact:
                x0, y0, zc = np.array((x0, y0, zc), dtype=np.int64)
        self.z = zc
        self.ground = zc == 0

        # Cell i of a brick's clipped ch x cw footprint is (x0 + i // cw, y0 + i % cw),
        # read from the offset tables at cw * _CELLS + i.
        count = ch * cw
        # A brick is in bounds when nothing of it is clipped: all its cells are voxels.
        self.in_bounds = (count == h * w) & (zc >= 0)
        self.brick = brick = np.arange(n).repeat(count)
        at = (cw * _CELLS - (count.cumsum() - count))[brick]
        at += np.arange(brick.size)
        dx, dy = _DX[at], _DY[at]
        del at
        base = x0 * dim_y + y0  # each brick's first column
        if structure is not None:
            base += (structure if exact else structure.astype(object)) * (dim_x * dim_y)
        # Per-cell temporaries go after their last read: on a long line they are most of the geometry's memory.
        column = base[brick]
        column += np.multiply(dx, dim_y, dtype=np.int64) if exact else dx.astype(object) * dim_y
        del dx
        column += dy
        self.column = column
        self.key_span = dim_x * dim_y * k * self.layer_span  # every cell key is below it
        # Per brick, for the seam search alone: a cell's offsets in its footprint follow from its column.
        self._base, self._sides = base, (ch, cw)

    @property
    def pair_x(self) -> np.ndarray:
        """Per cell: its +x neighbor is a cell of the same brick."""
        dx = (self.column - self._base[self.brick]) // self.world.dim_y
        return dx < self._sides[0][self.brick] - 1

    @property
    def pair_y(self) -> np.ndarray:
        """Per cell: its +y neighbor is a cell of the same brick."""
        dy = (self.column - self._base[self.brick]) % self.world.dim_y
        return dy < self._sides[1][self.brick] - 1

    @property
    def lin(self) -> np.ndarray:
        """The flat voxel index of each cell on an in-world layer, in cell order."""
        z = self.z[self.brick]
        voxel = z >= 0
        return self.column[voxel] * self.world.dim_z + z[voxel]

    def sorted_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """The cells' keys (column, then layer key) in ascending order, their bricks, that order, and where each run starts.

        A run of equal keys holds the bricks on one cell: a voxel, and a
        colliding one when longer than one cell. first holds each run's
        first index, or is None when every run is one cell, and the passes
        then skip their per-run steps. The cells one layer below a run are
        the run just before it, when that run's key is one less. Keys
        below 2**16 (key_span bounds them) sort as uint16, which numpy's
        stable sort runs as a radix sort; larger ones, as in most chunks,
        by an argsort. No result depends on the order within a run.
        """
        key = self.column * self.layer_span + self.layer[self.brick]
        order = key.astype(np.uint16).argsort(kind="stable") if self.key_span <= 1 << 16 else key.argsort()
        key = key[order]
        new = np.empty(key.size, dtype=bool)  # per cell: its key differs from the one before it
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        return key, self.brick[order], order, None if np.count_nonzero(new) == key.size else new.nonzero()[0]

    def support(self, cells: tuple, full: bool = True) -> tuple[np.ndarray, ...]:
        """Support edges (upper brick, lower brick), and each brick's least and greatest brick below (n and -1: none).

        From sorted_cells(), whose run starts it reads. Every brick of a
        run (the bricks on one cell) rests on every brick of the run below
        it, so a brick's bounds are those of the runs under its cells, and
        about one edge a cell gives the components: each cell to the first
        brick of the run below, each but a run's first to the first of the
        run above. When every run is one cell, or with full=False, each
        cell is joined to the cell before it alone, which is exact on a
        structure where no two bricks share a cell. Edges may repeat.
        """
        key, brick, _, first = cells
        if first is None or not full:
            stacked = key[1:] - key[:-1] == 1
            upper, lower = brick[1:][stacked], brick[:-1][stacked]
            resting, low, high = upper, lower, lower
        else:
            head, lo, hi = brick[first], np.minimum.reduceat(brick, first), np.maximum.reduceat(brick, first)
            on = np.zeros(first.size + 1, dtype=bool)  # at r: run r rests on run r - 1
            on[1:-1] = key[first[1:]] - key[first[:-1]] == 1
            run = np.bincount(first[1:], minlength=key.size).cumsum()  # per cell: its run
            rests, up = on[run], on[1:][run]  # per cell: its run rests on the run below; the run above on it
            up[first] = False  # a run's first cell is joined to the run above by that run's own cells
            below = run[rests] - 1
            upper = np.concatenate((brick[rests], head[run[up] + 1]))
            lower = np.concatenate((head[below], brick[up]))
            resting, low, high = upper[:below.size], lo[below], hi[below]
        least = np.full(self.n, self.n)
        greatest = np.full(self.n, -1)
        np.minimum.at(least, resting, low)
        np.maximum.at(greatest, resting, high)
        return upper, lower, least, greatest


def rasterize(structure: BrickStructure, world: WorldConfig) -> np.ndarray:
    """Per voxel, how many bricks occupy it (clipped to the world): int64, in the world's shape."""
    lin = _Geometry(structure.columns, world).lin
    return np.bincount(lin, minlength=world.n_voxels).reshape(world.shape)


def collision_stats(counts: np.ndarray) -> tuple[int, list[tuple[int, int, int]]]:
    """Colliding-voxel count and their coordinates in ascending order, from rasterize's counts."""
    coords = np.argwhere(counts > 1)
    return len(coords), [tuple(int(c) for c in v) for v in coords]


def analyze(structure: BrickStructure, world: WorldConfig) -> StructureAnalysis:
    """Every structural predicate of one structure, seam coverage included."""
    return _cell_pass([structure], world, full=True)[0][0]


def analyze_with_occupancy(structure: BrickStructure, world: WorldConfig) -> tuple[StructureAnalysis, np.ndarray]:
    """analyze() plus the occupied grid, from the same pass."""
    (a,), flat, _ = _cell_pass([structure], world, full=True)
    occupied = np.zeros(world.n_voxels, dtype=bool)
    occupied[flat] = True
    return a, occupied.reshape(world.shape)


def analyze_chunk(
    structures: list[BrickStructure | None], targets: list[np.ndarray], world: WorldConfig, *, full: bool = True
) -> list[tuple[StructureAnalysis, float] | None]:
    """The analysis of each parsed structure (None: failed to parse) and the IoU of its occupancy with its target.

    The evaluation core of the rewards and the metrics. Every target's
    shape is checked first, so a bad target raises whether or not its
    completion parsed. The parsed structures share one pass (see
    _cell_pass), each looked up in its own target grid. With full=False,
    as the rewards ask, seam_coverage and is_connected are None, and so
    are the support fields of an infeasible structure: the seam search is
    skipped, and so are the component labels unless some brick off the
    ground of a feasible structure rests on nothing.
    """
    for target in targets:
        check_target_shape(target, world)
    analyses, flat, ends = _cell_pass([s for s in structures if s is not None], world, full)
    found = iter(zip(analyses, [0, *ends], ends))
    results = []
    for structure, target in zip(structures, targets, strict=True):
        if structure is None:
            results.append(None)
            continue
        a, lo, hi = next(found)
        grid = target.reshape(-1)
        inter = int(np.count_nonzero(grid[flat[lo:hi]]))
        union = a.occupied_count + int(np.count_nonzero(grid)) - inter
        results.append((a, inter / union if union else 0.0))
    return results


def _cell_pass(
    structures: list[BrickStructure], world: WorldConfig, full: bool
) -> tuple[list[StructureAnalysis], np.ndarray, list[int]]:
    """Each structure's StructureAnalysis, and the flat indices of its voxels.

    Returns one analysis per structure, the flat voxel indices of every
    structure in turn, each structure's in ascending order, and where
    each structure's indices end. Two or more structures share one
    geometry, whose cell keys carry a structure id, so every step runs
    once for all of them. Voxels are the runs of sorted cells, read at
    their starts, on in-world layers; per-structure totals count flags
    over bricks or voxels by structure id.
    """
    k = len(structures)
    if k == 0:
        return [], np.zeros(0, dtype=np.int64), []
    sizes = [len(s) for s in structures]
    if k == 1:
        sid = None
        geom = _Geometry(structures[0].columns, world)
    else:
        sid = np.arange(k).repeat(sizes)
        geom = _Geometry(np.concatenate([s.columns for s in structures]), world, sid)
    n = geom.n

    cells = geom.sorted_cells()
    _, brick, order, first = cells
    upper, lower, least, greatest = geom.support(cells, full)

    # One cell of each run: its brick and its place in cell order.
    head, cell = (brick, order) if first is None else (brick[first], order[first])
    z = geom.z[head]
    voxel = z >= 0
    vz = z[voxel]
    flat = geom.column[cell[voxel]] * world.dim_z + vz
    vsid = None
    if sid is not None:
        vsid = sid[head[voxel]]
        flat -= vsid.astype(flat.dtype, copy=False) * world.n_voxels

    occupied = [vz.size] if sid is None else np.bincount(vsid, minlength=k).tolist()
    # A run longer than one cell is a colliding voxel.
    n_col = [0] * k if first is None else _count((np.append(first[1:], brick.size) - first > 1)[voxel], vsid, k)
    clipped = _count(~geom.in_bounds, sid, k)
    # The reward mode's join is exact on a feasible structure, the only kind whose support a reward reads.
    exact = [full or col == clip == 0 for col, clip in zip(n_col, clipped)]
    # When every brick off the ground rests on one below it, every brick is
    # grounded by induction on the layer, and only is_connected reads the labels.
    rested = (greatest >= 0) | geom.ground
    if not all(exact):
        rested |= np.repeat(np.logical_not(exact), sizes)
    all_grounded = np.count_nonzero(rested) == n
    label = _components(n, upper, lower) if full or not all_grounded else None
    disconnected = [0] * k
    if not all_grounded:
        root = np.zeros(n, dtype=bool)
        root[label[geom.ground]] = True
        grounded = root[label]
        covered = grounded[brick] if first is None else np.logical_or.reduceat(grounded[brick], first)
        disconnected = _count(~covered[voxel], vsid, k)
    interlocked = _count((least < greatest) & ~geom.ground, sid, k)
    off_ground = _count(~geom.ground, sid, k)
    if full:
        # A label is the lowest brick index in its component, so a structure is
        # connected when every brick is grounded and has its first brick's label.
        apart = label != (0 if sid is None else np.repeat(np.cumsum(sizes) - sizes, sizes))
        split = _count(apart if all_grounded else apart | ~grounded, sid, k)
        connected = [size > 0 and parts == 0 for size, parts in zip(sizes, split)]
        coverage = _seam_coverage(geom, cells, voxel, vz, flat, vsid, k)
    else:
        connected = coverage = [None] * k

    analyses = [StructureAnalysis(col, clip == 0, occ, dis, 1.0 - dis / max(occ, 1), linked, inter / max(off, 1),
                                  cover, size)
                if ok else StructureAnalysis(col, clip == 0, occ, None, None, linked, None, cover, size)
                for col, clip, occ, dis, linked, inter, off, cover, size, ok in zip(
                    n_col, clipped, occupied, disconnected, connected, interlocked, off_ground, coverage, sizes, exact)]
    return analyses, flat, list(accumulate(occupied))


def _seam_coverage(geom: _Geometry, cells: tuple, voxel: np.ndarray, vz: np.ndarray,
                   flat: np.ndarray, vsid: np.ndarray | None, k: int) -> list[float]:
    """Per structure, the share of its seams that are covered (1.0 with none).

    A voxel's neighbor is found by a binary search of the voxel keys (an
    int64 key searched past the last row may wrap below 0, matching no
    key), and the cover of a seam in the next run, the voxel above. When
    every run is one cell (first is None), a voxel whose brick goes on to
    the neighbor is no seam, so it is not searched.
    """
    dim_x, dim_y, dim_z = geom.world.shape
    key, brick, order, first = cells

    def per_voxel(values: np.ndarray, reduce: np.ufunc) -> np.ndarray:
        """Per voxel, values (in key order) reduced over its run."""
        return (values if first is None else reduce.reduceat(values, first))[voxel]

    vkey = (key if first is None else key[first])[voxel]
    owner = per_voxel(brick, np.minimum)
    below_top = vz < dim_z - 1
    total, covered = [], []
    for pair, step, has_next in (
        (geom.pair_x, dim_y, lambda f: f < (dim_x - 1) * dim_y * dim_z),
        (geom.pair_y, 1, lambda f: f // dim_z % dim_y < dim_y - 1),
    ):
        pair = per_voxel(pair[order], np.logical_or)
        at = np.flatnonzero(below_top & ~pair if first is None else below_top)
        nxt = vkey[at] + step * geom.layer_span
        found = np.minimum(np.searchsorted(vkey, nxt), vkey.size - 1)
        at = at[(vkey[found] == nxt) & (owner[found] != owner[at])]
        at = at[has_next(flat[at])]  # a key one column on may be the next row's or structure's
        # Covered by a pair cell in the voxel above, which is the next run.
        above = np.minimum(at + 1, vkey.size - 1)
        cover = (vkey[above] - vkey[at] == 1) & pair[above]
        ids = None if vsid is None else vsid[at]
        total.append(_count(np.ones_like(cover), ids, k))
        covered.append(_count(cover, ids, k))
    return [1.0 if tx + ty == 0 else (cx + cy) / (tx + ty) for tx, ty, cx, cy in zip(*total, *covered)]


def _count(flags: np.ndarray, ids: np.ndarray | None, k: int) -> list[int]:
    """Per structure, how many flags are set; ids holds each flag's structure, or is None for one."""
    if ids is None:
        return [int(np.count_nonzero(flags))]
    return np.bincount(ids[flags], minlength=k).tolist()


def _close_gaps(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Layer keys from 2 up, and one past the largest key (2 with no values).

    A key is its value's int64 rank with every gap between consecutive
    distinct values capped at 2: the smallest value maps to 2, and
    consecutive values keep their distance of 1. It is exact on object
    arrays of Python ints too: they sort and subtract as integers, and no
    key exceeds twice the number of distinct values.
    """
    order = values.argsort(kind="stable")
    ordered = values[order]
    step = np.empty(values.size, dtype=np.int64)
    step[:1] = 2
    step[1:] = np.minimum(ordered[1:] - ordered[:-1], 2)
    keys = step.cumsum()
    rank = np.empty_like(keys)
    rank[order] = keys
    return rank, int(keys[-1]) + 1 if keys.size else 2


def interlock_score(
    structure: BrickStructure, world: WorldConfig | None = None
) -> float:
    """Fraction of non-ground bricks resting on two or more distinct supports.

    With a world given, footprints are clipped to it, as in analyze().
    Without one, it is the score in a world where nothing clips: the
    smallest world that holds every footprint whole, one layer tall,
    which leaves the ground at z = 0. Support is exact whatever the
    anchors and however far apart the layers (see _Geometry).
    """
    if world is None:
        h, w, x, y, _ = structure.columns.astype(object).T
        world = WorldConfig((x + h).max(initial=1), (y + w).max(initial=1), 1)
    return analyze(structure, world).interlock_score


def _components(n: int, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """A component label per brick: equal labels iff connected by edges.

    Each round hooks the larger of two differing labels on an edge onto
    the smaller, then jumps every pointer twice; a label never grows, so
    the rounds end, and then each label is the lowest brick index of its
    component. An edge may repeat: hooking twice on one edge is hooking
    once.
    """
    label = np.arange(n)
    while True:
        a, b = label.take(upper), label.take(lower)
        differ = a != b
        if not differ.any():
            return label
        np.minimum.at(label, np.maximum(a, b)[differ], np.minimum(a, b)[differ])
        label = label.take(label.take(label))

"""Core voxel-world and brick types shared by every other module.

The world is a fixed axis-aligned voxel box. A brick is an oriented
rectangular footprint, one unit tall, anchored at its minimum corner:
a brick with dimension h x w at (x, y, z) occupies the cells
{(u, v, z) : x <= u < x + h, y <= v < y + w}. The h extent always runs
along the x axis and the w extent along the y axis; orientation is
baked into the dimension pair rather than carried as a separate flag.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Iterator, NamedTuple

import numpy as np


class UnknownDimension(ValueError):
    """Raised when an (h, w) pair is not one of the library variants."""


@dataclass(frozen=True)
class WorldConfig:
    """Voxel grid extents. All bricks must fit inside to be in bounds."""

    dim_x: int = 20
    dim_y: int = 20
    dim_z: int = 20

    def __post_init__(self) -> None:
        if min(self.dim_x, self.dim_y, self.dim_z) < 1:
            raise ValueError("world dimensions must be >= 1")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.dim_x, self.dim_y, self.dim_z)

    @property
    def n_voxels(self) -> int:
        return self.dim_x * self.dim_y * self.dim_z

    def contains(self, x: int, y: int, z: int) -> bool:
        return 0 <= x < self.dim_x and 0 <= y < self.dim_y and 0 <= z < self.dim_z


DEFAULT_WORLD = WorldConfig()


@dataclass(frozen=True)
class OrientedDim:
    """A footprint (h, w). Only library variants can be constructed."""

    h: int
    w: int

    def __post_init__(self) -> None:
        if (self.h, self.w) not in _LIBRARY_SET:
            raise UnknownDimension(f"{self.h}x{self.w} is not an allowed brick dimension")

    @property
    def area(self) -> int:
        return self.h * self.w


# The base footprints are 1x1, 1x2, 1x4, 1x6, 1x8, 2x2, 2x4 and 2x6;
# each non-square one appears in both orientations, giving 14 variants.
_BASE_DIMS: tuple[tuple[int, int], ...] = (
    (1, 1),
    (1, 2),
    (1, 4),
    (1, 6),
    (1, 8),
    (2, 2),
    (2, 4),
    (2, 6),
)

# Order in which the allowed dimensions are listed in the instruction
# prompt. Fixed verbatim; do not reorder.
PROMPT_DIM_ORDER: tuple[tuple[int, int], ...] = (
    (2, 4),
    (4, 2),
    (2, 6),
    (6, 2),
    (1, 2),
    (2, 1),
    (1, 4),
    (4, 1),
    (1, 6),
    (6, 1),
    (1, 8),
    (8, 1),
    (1, 1),
    (2, 2),
)

_LIBRARY_SET: frozenset[tuple[int, int]] = frozenset(
    pair for (h, w) in _BASE_DIMS for pair in {(h, w), (w, h)}
)

BRICK_LIBRARY: tuple[OrientedDim, ...] = tuple(OrientedDim(h, w) for h, w in PROMPT_DIM_ORDER)

# Construction of OrientedDim validates; reuse the 14 instances so hot
# paths (parsing) never pay for construction.
_DIM_CACHE: dict[tuple[int, int], OrientedDim] = {(d.h, d.w): d for d in BRICK_LIBRARY}


def library_lookup(h: int, w: int) -> OrientedDim:
    """Return the library variant for (h, w), else raise UnknownDimension."""
    dim = _DIM_CACHE.get((h, w))
    if dim is None:
        raise UnknownDimension(f"{h}x{w} is not an allowed brick dimension")
    return dim


class Brick(NamedTuple):
    """A placed brick: library dimension plus minimum-corner anchor.

    Anchors are non-negative; negative coordinates are rejected upstream
    at parse time. A brick may still stick out past the upper world
    bounds, which rasterization treats as out of bounds.
    """

    dim: OrientedDim
    x: int
    y: int
    z: int

    @property
    def h(self) -> int:
        return self.dim.h

    @property
    def w(self) -> int:
        return self.dim.w


def make_brick(h: int, w: int, x: int, y: int, z: int) -> Brick:
    """Build a brick from raw integers, validating the dimension pair."""
    if x < 0 or y < 0 or z < 0:
        raise ValueError("brick anchors must be non-negative")
    return Brick(library_lookup(h, w), x, y, z)


class BrickStructure:
    """An ordered brick sequence. Order is significant for serialization.

    The bricks are held in one of two forms, and the other is built on
    first use: ``bricks``, a tuple of Brick, and ``columns``, a read-only
    (n, 5) array whose columns are h, w, x, y and z. parse_structure
    builds structures from columns, everything else from tuples. The
    columns are int64 when every value fits, and otherwise an object
    array of Python ints, so anchors of any size stay exact. Either way
    a structure is immutable, and equality, hashing and repr go by
    ``bricks`` as for a frozen dataclass with that one field.
    """

    __slots__ = ("_bricks", "_columns")

    def __init__(self, bricks: tuple[Brick, ...] = ()):
        object.__setattr__(self, "_bricks", bricks)
        object.__setattr__(self, "_columns", None)

    @classmethod
    def _from_columns(cls, columns: np.ndarray) -> BrickStructure:
        """A structure over validated (n, 5) columns, which it takes over."""
        columns.flags.writeable = False
        self = cls.__new__(cls)
        object.__setattr__(self, "_bricks", None)
        object.__setattr__(self, "_columns", columns)
        return self

    @property
    def bricks(self) -> tuple[Brick, ...]:
        if self._bricks is None:
            h, w, x, y, z = self._columns.T.tolist()
            dims = map(_DIM_CACHE.__getitem__, zip(h, w))
            object.__setattr__(self, "_bricks", tuple(map(Brick._make, zip(dims, x, y, z))))
        return self._bricks

    @property
    def columns(self) -> np.ndarray:
        if self._columns is None:
            rows = [(d.h, d.w, x, y, z) for d, x, y, z in self._bricks]
            try:
                columns = np.array(rows, dtype=np.int64)
            except OverflowError:
                columns = np.array(rows, dtype=object)
            columns = columns.reshape(-1, 5)
            columns.flags.writeable = False
            object.__setattr__(self, "_columns", columns)
        return self._columns

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.bricks,))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bricks == other.bricks

    def __hash__(self) -> int:
        return hash((self.bricks,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(bricks={self.bricks!r})"

    def __len__(self) -> int:
        return len(self._columns if self._bricks is None else self._bricks)

    def __iter__(self) -> Iterator[Brick]:
        return iter(self.bricks)

    def __getitem__(self, i: int) -> Brick:
        return self.bricks[i]

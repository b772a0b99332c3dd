"""Text layer: brick/point grammars, serializers, and the instruction prompt.

A brick token is ``INT "x" INT WS* "(" INT WS* "," WS* INT WS* "," WS* INT ")"``
with optional surrounding whitespace: a lowercase ``x`` between the two
dimension integers, and whitespace allowed before the parenthesis and
around the inner commas. Integers are non-negative ASCII decimals, so
negative coordinates and unicode digits fail the grammar. A completion
is one brick token per line, or several per line separated by commas
that sit outside the parentheses; a single leading ``### Bricks:``
header line is ignored. Parsing arbitrary text never raises: every
oddity is recorded in the returned report instead.

A point token is ``"(" INT WS* "," WS* INT WS* "," WS* INT ")"`` and a
point cloud is a comma-separated list of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from .core import (
    BRICK_LIBRARY,
    DEFAULT_WORLD,
    PROMPT_DIM_ORDER,
    Brick,
    BrickStructure,
    UnknownDimension,
    WorldConfig,
    library_lookup,
)


class MalformedLine(ValueError):
    """Raised when a single token does not match the brick grammar."""


class MalformedPointToken(ValueError):
    """Raised when a point-cloud string has residue outside (x,y,z) tokens."""


class OutOfWorldCoordinate(ValueError):
    """Raised when a point-cloud coordinate falls outside the world box."""


OUTPUT_HEADER = "### Bricks:"

_BRICK_RE = re.compile(
    r"(\d+)x(\d+)\s*\((\d+)\s*,\s*(\d+)\s*,\s*(\d+)\)", re.ASCII
)
# A completion whose every line is blank or a comma-separated list of
# brick tokens with integers of at most nine digits, after an optional
# header line, parses exactly as it would line by line: every token is a
# brick and nothing is rejected unless a dimension is unknown. It is
# checked with one full match and its integers are read in one pass.
_PLAIN_TOKEN = r"\d{1,9}x\d{1,9}[ \t]*\(\d{1,9}[ \t]*,[ \t]*\d{1,9}[ \t]*,[ \t]*\d{1,9}\)"
_PLAIN_LINE = rf"[ \t]*(?:{_PLAIN_TOKEN}(?:[ \t]*,[ \t]*{_PLAIN_TOKEN})*[ \t]*)?"
_PLAIN_RE = re.compile(
    rf"([ \t\n]*{re.escape(OUTPUT_HEADER)}[ \t]*\n)?(?:{_PLAIN_LINE}\n)*{_PLAIN_LINE}", re.ASCII
)
_PLAIN_SEPARATORS = str.maketrans("x(),\t\n", "      ")
# Whether footprint h x w is a library variant, by h * _SIDES + w.
_SIDES = max(max(d.h, d.w) for d in BRICK_LIBRARY) + 1
_IS_DIM = np.zeros(_SIDES**2, dtype=bool)
_IS_DIM[[d.h * _SIDES + d.w for d in BRICK_LIBRARY]] = True
_POINT_RE = re.compile(r"\((\d+)\s*,\s*(\d+)\s*,\s*(\d+)\)", re.ASCII)
_SEPARATOR_RE = re.compile(r"\s*,\s*", re.ASCII)


class MalformedEntry(NamedTuple):
    """One rejected token: 1-based source line, offending text, reason."""

    line_number: int
    text: str
    reason: str


@dataclass
class ParseReport:
    """Outcome of parsing a completion into bricks."""

    parsed_ok: bool
    brick_count: int
    malformed_lines: list[MalformedEntry] = field(default_factory=list)
    empty_response: bool = False


def parse_brick_line(text: str) -> Brick:
    """Parse a single brick token, e.g. ``"1x4 (5,6,0)"``.

    Raises MalformedLine when the grammar does not match and
    UnknownDimension when the footprint is not a library variant.
    """
    m = _BRICK_RE.fullmatch(text.strip())
    if m is None:
        raise MalformedLine(f"not a brick token: {text.strip()!r}")
    try:
        h, w, x, y, z = (int(g) for g in m.groups())
    except ValueError as exc:  # oversized integer literal
        raise MalformedLine(str(exc)) from None
    return Brick(library_lookup(h, w), x, y, z)


def _split_top_level(line: str) -> list[str]:
    """Split on commas that sit outside parentheses."""
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(line):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        elif ch == "," and depth == 0:
            parts.append(line[start:i])
            start = i + 1
    parts.append(line[start:])
    return parts


def _parse_plain(text: str) -> np.ndarray | None:
    """The int64 columns h, w, x, y, z of a plain completion (see _PLAIN_RE), else None."""
    m = _PLAIN_RE.fullmatch(text)
    if m is None:
        return None
    body = text[m.end(1) :] if m.group(1) else text
    n = body.count("(")
    if n == 0:
        return np.empty((0, 5), dtype=np.int64)
    values = np.fromstring(body.translate(_PLAIN_SEPARATORS), dtype=np.int64, sep=" ")
    if values.size != 5 * n:
        return None
    values = values.reshape(n, 5)
    if values[:, :2].max() >= _SIDES or not _IS_DIM[values[:, 0] * _SIDES + values[:, 1]].all():
        return None
    return values


def parse_structure(text: str) -> tuple[BrickStructure, ParseReport]:
    """Parse a full completion; never raises on arbitrary input.

    parsed_ok is true iff at least one brick parsed and nothing was
    rejected. Blank lines are skipped; one leading header line equal to
    ``### Bricks:`` is ignored.
    """
    if not text or text.isspace():
        return BrickStructure(()), ParseReport(
            parsed_ok=False, brick_count=0, empty_response=True
        )

    plain = _parse_plain(text)
    if plain is not None:
        n = len(plain)
        return BrickStructure._from_columns(plain), ParseReport(parsed_ok=n > 0, brick_count=n)

    bricks: list[Brick] = []
    malformed: list[MalformedEntry] = []
    saw_content = False
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not saw_content and line == OUTPUT_HEADER:
            saw_content = True
            continue
        saw_content = True
        # Fast path: most lines are a single brick token.
        m = _BRICK_RE.fullmatch(line)
        if m is not None:
            try:
                h, w, x, y, z = (int(g) for g in m.groups())
                bricks.append(Brick(library_lookup(h, w), x, y, z))
                continue
            except (UnknownDimension, ValueError) as exc:
                malformed.append(MalformedEntry(line_number, line, str(exc)))
                continue
        for part in _split_top_level(line):
            token = part.strip()
            if not token:
                malformed.append(
                    MalformedEntry(line_number, token, "empty brick token")
                )
                continue
            try:
                bricks.append(parse_brick_line(token))
            except (MalformedLine, UnknownDimension) as exc:
                malformed.append(MalformedEntry(line_number, token, str(exc)))

    report = ParseReport(
        parsed_ok=len(bricks) >= 1 and not malformed,
        brick_count=len(bricks),
        malformed_lines=malformed,
        empty_response=False,
    )
    return BrickStructure(tuple(bricks)), report


Layout = Literal["one_per_line", "comma_inline"]


def brick_token(brick: Brick) -> str:
    return f"{brick.h}x{brick.w} ({brick.x},{brick.y},{brick.z})"


def serialize_structure(structure: BrickStructure, layout: Layout = "one_per_line") -> str:
    """Render bricks in order; the result always reparses to the input."""
    tokens = [brick_token(b) for b in structure]
    if layout == "one_per_line":
        return "\n".join(tokens)
    if layout == "comma_inline":
        return ", ".join(tokens)
    raise ValueError(f"unknown layout {layout!r}")


def parse_pointcloud(text: str, world: WorldConfig = DEFAULT_WORLD) -> np.ndarray:
    """Parse a comma-separated (x,y,z) list into a boolean world grid.

    Duplicate points are idempotent. An empty string yields an empty
    grid; anything between tokens other than separating commas raises
    MalformedPointToken, and coordinates outside the world raise
    OutOfWorldCoordinate.
    """
    grid = np.zeros(world.shape, dtype=bool)
    if not text or text.isspace():
        return grid
    pos = 0
    first = True
    for m in _POINT_RE.finditer(text):
        gap = text[pos : m.start()]
        if first:
            if gap.strip():
                raise MalformedPointToken(f"unexpected text before points: {gap.strip()!r}")
        elif _SEPARATOR_RE.fullmatch(gap) is None:
            raise MalformedPointToken(f"expected a comma between points, got {gap.strip()!r}")
        first = False
        try:
            x, y, z = (int(g) for g in m.groups())
        except ValueError as exc:
            raise MalformedPointToken(str(exc)) from None
        if not world.contains(x, y, z):
            raise OutOfWorldCoordinate(
                f"point ({x},{y},{z}) outside "
                f"{world.dim_x}x{world.dim_y}x{world.dim_z} world"
            )
        grid[x, y, z] = True
        pos = m.end()
    tail = text[pos:]
    if first or tail.strip():
        raise MalformedPointToken(f"not a point list: {tail.strip()!r}")
    return grid


def serialize_pointcloud(grid: np.ndarray) -> str:
    """Render occupied voxels as (x,y,z) tokens in ascending (x, y, z) order."""
    pts = np.argwhere(grid)
    return ", ".join(f"({int(x)},{int(y)},{int(z)})" for x, y, z in pts)


_ALLOWED_DIMS_SENTENCE = ", ".join(f"{h}x{w}" for h, w in PROMPT_DIM_ORDER)

PROMPT_TEMPLATE = (
    "Create a LEGO model of the input 3D point cloud.\n"
    "Format your response as a list of bricks: <brick dimensions> <brick position>,"
    " where the brick position is (x,y,z).\n"
    f"Allowed brick dimensions are {_ALLOWED_DIMS_SENTENCE}.\n"
    "All bricks are 1 unit tall.\n"
    "\n"
    "### Input Point Cloud:\n"
)


def build_prompt(grid: np.ndarray) -> str:
    """Instruction prompt for a target grid: fixed template plus point list."""
    return PROMPT_TEMPLATE + serialize_pointcloud(grid)

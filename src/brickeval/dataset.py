"""Dataset record formats and the target-voxel codec.

Codec, fixed so independent implementations interoperate: the grid is
flattened to one byte per voxel (0 or 1) at linear index
(x * dim_y + y) * dim_z + z, i.e. C order over axes (x, y, z),
compressed with zlib-framed DEFLATE, then encoded as standard padded
base64.

Records are newline-delimited JSON objects. An SFT record holds
system/user/assistant strings (assistant is one brick token per line);
a GRPO record replaces the assistant text with the encoded target
occupancy under "target_voxels". Only feasible structures (non-empty,
collision-free, fully in bounds) may become training records. Every
JSON line read from outside (service requests, eval pairs, convert
corpora) goes through read_record, and every pair through read_pair.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import json
import logging
import os
import zlib
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .analysis import rasterize
from .analysis import analyze_with_occupancy  # not called here; perfbench wraps it by name until ROADMAP direction 2
from .core import DEFAULT_WORLD, BrickStructure, WorldConfig
from .tokens import build_prompt, parse_structure, serialize_structure

logger = logging.getLogger(__name__)

SYSTEM_PROMPT = "You are a helpful assistant."


class CodecError(ValueError):
    """Base class for target-voxel decoding failures."""


class BadBase64(CodecError):
    pass


class BadCompression(CodecError):
    pass


class BadLength(CodecError):
    pass


class BadValue(CodecError):
    pass


class InfeasibleStructure(ValueError):
    """Structure is empty, colliding, or out of bounds; unfit for training data."""


class BadRecord(ValueError):
    """A record line that is not one JSON object, or a pair without the fields it needs."""


def read_record(line: str | bytes) -> dict:
    """The JSON object on one record line; bytes are decoded as strict UTF-8.

    Raises BadRecord for every failure: bad UTF-8 or JSON, an integer past
    the interpreter's digit limit, nesting past the recursion limit, or a
    value that is not an object.
    """
    try:
        obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise BadRecord(f"not a JSON record ({exc})") from None
    if not isinstance(obj, dict):
        raise BadRecord("not a JSON object")
    return obj


def read_pair(obj: dict) -> tuple[str, str | None, str | None]:
    """(completion, target_voxels, target_points) of a pair record.

    The completion and exactly one target are strings, the other target
    is None; a null counts as absent. Raises BadRecord otherwise.
    """
    completion = obj.get("completion")
    voxels, points = obj.get("target_voxels"), obj.get("target_points")
    if not isinstance(completion, str):
        raise BadRecord("completion must be a string")
    if (voxels is None) == (points is None):
        raise BadRecord("needs exactly one of target_voxels and target_points")
    if not isinstance(voxels if points is None else points, str):
        raise BadRecord("target_voxels or target_points must be a string")
    return completion, voxels, points


def encode_target_voxels(grid: np.ndarray) -> str:
    """Encode a binary grid to base64(zlib(one byte per voxel))."""
    raw = np.ascontiguousarray(grid, dtype=np.uint8).tobytes()
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def decode_target_voxels(s: str, world: WorldConfig = DEFAULT_WORLD) -> np.ndarray:
    """Exact inverse of encode_target_voxels for the given world size."""
    try:
        compressed = base64.b64decode(s, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise BadBase64(str(exc)) from None
    # Inflate at most one byte more than a world holds, so a small
    # request cannot claim unbounded memory.
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(compressed, world.n_voxels + 1)
    except zlib.error as exc:
        raise BadCompression(str(exc)) from None
    if len(raw) > world.n_voxels:
        raise BadLength(f"expected {world.n_voxels} voxel bytes, got more")
    if not inflate.eof:
        raise BadCompression("incomplete or truncated stream")
    if len(raw) != world.n_voxels:
        raise BadLength(f"expected {world.n_voxels} voxel bytes, got {len(raw)}")
    flat = np.frombuffer(raw, dtype=np.uint8)
    if flat.max(initial=0) > 1:
        raise BadValue("voxel bytes must be 0 or 1")
    return flat.reshape(world.shape).astype(bool)


@dataclass(frozen=True)
class SftRecord:
    system: str
    user: str
    assistant: str


@dataclass(frozen=True)
class GrpoRecord:
    system: str
    user: str
    target_voxels: str


def _feasible_occupancy(structure: BrickStructure, world: WorldConfig) -> np.ndarray:
    if len(structure) == 0:
        raise InfeasibleStructure("empty structure")
    counts = rasterize(structure, world)
    n_col = int(np.count_nonzero(counts > 1))
    if n_col > 0:
        raise InfeasibleStructure(f"{n_col} colliding voxels")
    if int(counts.sum()) != int(np.dot(structure.columns[:, 0], structure.columns[:, 1])):
        raise InfeasibleStructure("brick out of world bounds")
    return counts > 0


def build_sft_record(structure: BrickStructure, world: WorldConfig) -> SftRecord:
    occupied = _feasible_occupancy(structure, world)
    return SftRecord(
        system=SYSTEM_PROMPT,
        user=build_prompt(occupied),
        assistant=serialize_structure(structure, "one_per_line"),
    )


def build_grpo_record(structure: BrickStructure, world: WorldConfig) -> GrpoRecord:
    occupied = _feasible_occupancy(structure, world)
    return GrpoRecord(
        system=SYSTEM_PROMPT,
        user=build_prompt(occupied),
        target_voxels=encode_target_voxels(occupied),
    )


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A new text file beside path that replaces it when the block completes, and is removed if it fails.

    Through a symlink the file goes beside, and replaces, the symlink's
    target. An existing path that is not a regular file (a device or a
    pipe) cannot be replaced, and is written in place.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as f:
            yield f
        return
    temporary = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(temporary, "x", encoding="utf-8") as f:
            yield f
        os.replace(temporary, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)


def convert_corpus(
    input_path: str,
    output_path: str,
    mode: str = "sft",
    world: WorldConfig = DEFAULT_WORLD,
) -> int:
    """Convert a corpus of brick layouts into training records.

    Input: newline-delimited JSON objects with a "bricks" field holding
    brick-sequence text. Streams line by line; records that fail to
    parse or are infeasible are logged and skipped. Returns the number
    of records written. The output takes its path only once the whole
    input is converted, so an error leaves an existing file as it was.
    """
    if mode not in ("sft", "grpo"):
        raise ValueError(f"unknown mode {mode!r}")
    build = build_sft_record if mode == "sft" else build_grpo_record
    count = 0
    with open(input_path, "r", encoding="utf-8", newline="\n") as src, _replacing(output_path) as dst:
        for line_number, line in enumerate(src, start=1):
            if not line.strip():
                continue
            try:
                text = read_record(line)["bricks"]
                if not isinstance(text, str):
                    raise BadRecord("bricks must be a string")
            except (BadRecord, KeyError) as exc:
                logger.warning("line %d: unreadable record (%s), skipped", line_number, exc)
                continue
            structure, report = parse_structure(text)
            if not report.parsed_ok:
                logger.warning("line %d: brick text did not parse, skipped", line_number)
                continue
            try:
                record = build(structure, world)
            except InfeasibleStructure as exc:
                logger.warning("line %d: infeasible structure (%s), skipped", line_number, exc)
                continue
            dst.write(json.dumps(vars(record)) + "\n")
            count += 1
    return count

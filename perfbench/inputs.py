"""Seeded input generators for the workloads.

Everything is built with brickeval's public generators (random_target,
legalize, serialize_structure, serialize_pointcloud,
encode_target_voxels); the same seed always gives the same inputs.
Each generated case carries the kind it was built as, so the checks
know what the program must answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from brickeval import (
    DEFAULT_WORLD,
    BrickStructure,
    ConstructorOptions,
    WorldConfig,
    encode_target_voxels,
    legalize,
    make_brick,
    random_target,
    serialize_pointcloud,
    serialize_structure,
)

WORLD = DEFAULT_WORLD


@dataclass(frozen=True)
class Case:
    """One completion/target pair and what the program must make of it."""

    kind: str
    structure: BrickStructure | None  # bricks behind the completion; None if unparseable
    completion: str
    target: np.ndarray | None


def _grounded_build(rng: np.random.Generator, fill: tuple[float, float],
                    bricks: tuple[int, int], max_components: int = 3) -> tuple[BrickStructure, np.ndarray]:
    """A legalized grounded random target whose build has a brick count in range."""
    while True:
        target = random_target(
            int(rng.integers(1 << 31)),
            max_components=max_components,
            fill_prob=float(rng.uniform(*fill)),
            grounded=True,
            world=WORLD,
        )
        opts = ConstructorOptions(stagger=bool(rng.integers(2)), seed=int(rng.integers(1 << 31)))
        structure = legalize(target, opts, WORLD)
        if bricks[0] <= len(structure) <= bricks[1]:
            return structure, target


def dense_cases(seed: int, n: int = 40) -> list[Case]:
    """Dense staggered builds (450-700 bricks, fill 0.5), each scored against its own occupancy."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    while len(cases) < n:
        target = random_target(int(rng.integers(1 << 31)), fill_prob=0.5, grounded=True, world=WORLD)
        structure = legalize(target, ConstructorOptions(stagger=True), WORLD)
        if 450 <= len(structure) <= 700:
            cases.append(Case("valid", structure, serialize_structure(structure), target))
    return cases


def _with_extra(structure: BrickStructure, *extra) -> BrickStructure:
    return BrickStructure(structure.bricks + tuple(extra))


def _light_case(rng: np.random.Generator, kind: str) -> Case:
    """A light rollout completion (30-70 bricks) of the given kind."""
    structure, target = _grounded_build(rng, (0.006, 0.016), (30, 70), max_components=2)
    if kind == "colliding":
        structure = _with_extra(structure, structure[int(rng.integers(len(structure)))])
    elif kind == "out_of_bounds":
        y = int(rng.integers(WORLD.dim_y))
        structure = _with_extra(structure, make_brick(8, 1, WORLD.dim_x - 3, y, WORLD.dim_z - 1))
    text = serialize_structure(structure, "comma_inline" if kind == "comma_inline" else "one_per_line")
    if kind == "malformed":
        lines = text.split("\n")
        lines[int(rng.integers(len(lines)))] = ("3x3 (1,1,0)", "brick at (1,2,3)", "2x4 (1,2)")[
            int(rng.integers(3))]
        return Case(kind, None, "\n".join(lines), target)
    if kind == "empty":
        return Case(kind, None, ("", "  \n  ", "\n")[int(rng.integers(3))], target)
    return Case(kind, structure, text, target)


# Request mixes, as shares per 100 requests. The shares were chosen for
# the benchmark, not measured on real rollout traffic: no trace of such
# traffic is available. ROLLOUT_MIX is mostly valid one-per-line
# requests, with a few of every other kind, so each path the service has
# is taken in every run. A few percent of the time is too little to gate
# a slowdown on one of those paths, so the two costly minority paths,
# comma-inline completions and point-cloud targets, also get a workload
# of their own (INLINE_ONLY, POINTS_ONLY).
ROLLOUT_MIX = (
    ("valid", 68),
    ("comma_inline", 6),
    ("points_target", 6),
    ("colliding", 5),
    ("out_of_bounds", 4),
    ("malformed", 4),
    ("empty", 2),
    ("bad_json", 3),
    ("wrong_world", 2),
)
INLINE_ONLY = (("comma_inline", 100),)
POINTS_ONLY = (("points_target", 100),)

# What the service must answer for each kind: None means a scored reply.
EXPECTED_ERROR = {
    "bad_json": "bad_request",
    "wrong_world": "bad_target_encoding",
}

_SMALL_WORLD = WorldConfig(10, 10, 10)


@dataclass(frozen=True)
class Request:
    """A rollout request, with its JSON written except for the id."""

    case: Case
    fields: dict | None  # request body without "id"; None for unparseable JSON
    raw: str | None  # the line itself when it is not valid JSON

    def line(self, request_id: str) -> str:
        if self.raw is not None:
            return self.raw
        return json.dumps({"id": request_id, **self.fields})


def rollout_pool(seed: int, mix: tuple[tuple[str, int], ...], size: int) -> list[Request]:
    """A pool of distinct requests in the given mix, in seeded order."""
    rng = np.random.default_rng([seed, 2])
    kinds = [kind for kind, share in mix for _ in range(share * size // 100)]
    kinds += ["valid"] * (size - len(kinds))
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    pool = []
    for kind in kinds:
        if kind == "bad_json":
            case = _light_case(rng, "valid")
            body = json.dumps({"id": "x", "completion": case.completion})
            pool.append(Request(Case(kind, None, case.completion, None), None, body[: len(body) // 2]))
            continue
        case = _light_case(rng, "valid" if kind in ("points_target", "wrong_world") else kind)
        if kind == "points_target":
            fields = {"completion": case.completion, "target_points": serialize_pointcloud(case.target)}
        elif kind == "wrong_world":
            small = np.asarray(rng.random(_SMALL_WORLD.shape) < 0.1)
            fields = {"completion": case.completion, "target_voxels": encode_target_voxels(small)}
        else:
            fields = {"completion": case.completion, "target_voxels": encode_target_voxels(case.target)}
        pool.append(Request(Case(kind, case.structure, case.completion, case.target), fields, None))
    return pool


def construct_grids(seed: int, n: int = 8) -> list[np.ndarray]:
    """Grounded target grids at fill 0.1 for the construct step."""
    rng = np.random.default_rng([seed, 3])
    return [random_target(int(rng.integers(1 << 31)), fill_prob=0.1, grounded=True, world=WORLD)
            for _ in range(n)]


def layout_corpus(seed: int, n: int) -> list[Case]:
    """Brick layouts for convert: mostly feasible builds, some colliding ones (skipped by convert)."""
    rng = np.random.default_rng([seed, 4])
    cases = []
    for i in range(n):
        structure, target = _grounded_build(rng, (0.01, 0.03), (40, 150))
        if i % 12 == 5:
            structure = _with_extra(structure, structure[0])
            cases.append(Case("colliding", structure, serialize_structure(structure), target))
        else:
            cases.append(Case("valid", structure, serialize_structure(structure), target))
    return cases


# Eval pair mix, per 20 pairs; chosen, like ROLLOUT_MIX, not measured.
EVAL_MIX = ("valid",) * 12 + ("points_target",) * 2 + ("colliding",) * 3 + ("malformed", "empty", "out_of_bounds")


def pair_corpus(seed: int, n: int) -> list[tuple[Case, dict]]:
    """Completion/target pairs for eval, including unparsed and colliding samples."""
    rng = np.random.default_rng([seed, 5])
    pairs = []
    for i in range(n):
        kind = EVAL_MIX[int(rng.integers(len(EVAL_MIX)))] if i >= len(EVAL_MIX) else EVAL_MIX[i]
        case = _light_case(rng, "valid" if kind == "points_target" else kind)
        case = Case(kind, case.structure, case.completion, case.target)
        record = {"completion": case.completion, "wall_time_s": float(rng.uniform(0.5, 3.0))}
        if kind == "points_target":
            record["target_points"] = serialize_pointcloud(case.target)
        else:
            record["target_voxels"] = encode_target_voxels(case.target)
        pairs.append((case, record))
    return pairs

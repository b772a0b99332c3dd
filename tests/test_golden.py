"""Golden digest: one sha256 over a canonical dump of the program's outputs.

The corpus is seeded and built from the library's own generators and
tests/helpers.random_structure, so it is the same on every run. The dump
holds, one line per item:

- legalize columns for random_target grids (seeds 0-5, grounded or not,
  stagger on and off) in three worlds, with every StructureAnalysis
  field of each build;
- gen-fixtures stdout for seeds 0, 17 and 901, and eval of the seed-17
  corpus in both formats;
- for about 2,000 completions (one per line, comma-inline, with the
  header, with \\r\\n line ends, mutated, random bytes, huge integers):
  the repr of parse_structure's result, every StructureAnalysis field of
  a structure that parsed, and every score_completion term, floats as
  float.hex;
- serve_lines output, one worker, on a fixed stream of 200 requests.

Rule: a change that moves GOLDEN_SHA256 says in CHANGES.md which output
changed and why. A refactor never changes it.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import fields

import numpy as np

from brickeval import (
    DEFAULT_WORLD,
    ConstructorOptions,
    WorldConfig,
    analyze,
    encode_target_voxels,
    legalize,
    parse_structure,
    random_target,
    score_completion,
    serialize_pointcloud,
    serialize_structure,
)
from brickeval.cli import cli_dispatch
from brickeval.service import serve_lines
from helpers import random_structure

GOLDEN_SHA256 = "d57de0963abcbb4bed8dac3b0bfacc6f4d762073e3fdaa1b482118c9276729b6"

WORLDS = (DEFAULT_WORLD, WorldConfig(7, 70, 3), WorldConfig(5, 7, 3))
MUTATION_CHARS = "0123456789x(), \n\t-#Bab"


def _value(v) -> str:
    return v.hex() if isinstance(v, float) else repr(v)


def _fields(obj) -> str:
    return " ".join(f"{f.name}={_value(getattr(obj, f.name))}" for f in fields(obj))


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_dispatch(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def _legalize_lines():
    for world in WORLDS:
        for seed in range(6):
            for grounded in (False, True):
                grid = random_target(seed, grounded=grounded, world=world)
                for stagger in (False, True):
                    s = legalize(grid, ConstructorOptions(stagger=stagger, seed=seed), world)
                    yield f"legalize {world.shape} {seed} {grounded} {stagger} {s.columns.tolist()}"
                    yield f"analyze {_fields(analyze(s, world))}"


def _cli_lines(tmp_path):
    path = tmp_path / "pairs.jsonl"
    for seed in (0, 17, 901):
        pairs = _cli("gen-fixtures", "--seed", str(seed), "--count", "4")
        yield f"gen-fixtures {seed} {pairs}"
        if seed == 17:
            path.write_text(pairs.split("\n", 1)[1])
    for fmt in ("records", "tabular"):
        yield f"eval {fmt} {_cli('eval', '--pairs', str(path), '--format', fmt)}"


def _completion(rng: np.random.Generator, kind: int, world: WorldConfig) -> str:
    structure = random_structure(rng, world, int(rng.integers(1, 40)), in_bounds=bool(rng.integers(4)))
    if kind == 1:
        return serialize_structure(structure, "comma_inline")
    text = serialize_structure(structure)
    if kind == 2:
        return "### Bricks:\n" + text + "\n"
    if kind == 3:
        return text.replace("\n", "\r\n")
    if kind == 4:
        chars = list(text)
        for _ in range(int(rng.integers(1, 4))):
            chars[int(rng.integers(len(chars)))] = MUTATION_CHARS[int(rng.integers(len(MUTATION_CHARS)))]
        return "".join(chars)
    if kind == 5:
        return rng.bytes(int(rng.integers(0, 60))).decode("latin-1")
    if kind == 6:
        return text + f"\n1x2 ({10 ** int(rng.integers(15, 40))},0,0)"
    return text


def _completion_lines():
    rng = np.random.default_rng(20261018)
    targets = {world: [random_target(seed, grounded=bool(seed % 2), world=world) for seed in range(4)]
               for world in WORLDS}
    for i in range(2100):
        world = WORLDS[i % len(WORLDS)]
        text = _completion(rng, i % 7, world)
        structure, report = parse_structure(text)
        yield f"parse {i} {structure!r} {report!r}"
        if report.parsed_ok:
            yield f"analyze {i} {_fields(analyze(structure, world))}"
        yield f"score {i} {_fields(score_completion(text, targets[world][i % 4], world))}"


def _requests():
    rng = np.random.default_rng(7)
    world = DEFAULT_WORLD
    grids = [random_target(seed, grounded=True, world=world) for seed in range(3)]
    for i in range(200):
        completion = serialize_structure(random_structure(rng, world, int(rng.integers(1, 20))))
        grid = grids[i % 3]
        kind = i % 10
        if kind <= 3:
            yield json.dumps({"id": f"r{i}", "completion": completion,
                              "target_voxels": encode_target_voxels(grid)})
        elif kind <= 5:
            yield json.dumps({"id": f"r{i}", "completion": completion,
                              "target_points": serialize_pointcloud(grid)})
        elif kind == 6:
            yield json.dumps({"id": f"r{i}", "completion": completion, "target_voxels": "!!not-a-codec"})
        elif kind == 7:
            yield json.dumps({"id": i, "completion": completion, "target_points": "(0,0,0)"})
        elif kind == 8:
            yield b'{"id": "r%d", "completion": "\xff"}' % i
        else:
            yield '{"id": "r%d", "completion": ' % i


def _serve_lines():
    out: list[str] = []
    serve_lines(_requests(), out.append, DEFAULT_WORLD, threads=1)
    return (f"serve {line}" for line in out)


def test_outputs_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for part in (_legalize_lines(), _cli_lines(tmp_path), _completion_lines(), _serve_lines()):
        for line in part:
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256

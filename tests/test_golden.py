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

CONVERT_SHA256 pins `convert --mode sft` and `--mode grpo` on a seeded
layout corpus in two worlds: the printed count, the records written and
the warning logged for each skipped line. The corpus holds feasible and
colliding builds, bricks past x/y and past the top layer, huge-integer
anchors, brick text that does not parse and lines that are not records.

The metamorphic checks need no pinned value: every score_completion
term stays the same when a completion's lines are reordered, when it
and its target are shifted together in x/y inside the world, and when
its line ends are \\r\\n. Nor does the chunk check: the same fuzzed
completions, scored per world in chunks of rewards.CHUNK_SIZE by
score_completions, give score_completion's terms bit for bit.

Rule: a change that moves GOLDEN_SHA256 or CONVERT_SHA256 says in
CHANGES.md which output changed and why. A refactor never changes them.
"""

import contextlib
import hashlib
import io
import json
import logging
from dataclasses import fields

import numpy as np

from brickeval import (
    DEFAULT_WORLD,
    BrickStructure,
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
from brickeval.rewards import CHUNK_SIZE, score_completions
from brickeval.service import serve_lines
from helpers import collision_free_structure, random_structure

GOLDEN_SHA256 = "d57de0963abcbb4bed8dac3b0bfacc6f4d762073e3fdaa1b482118c9276729b6"
CONVERT_SHA256 = "3b35cb65588de58c2eb4dad20a20ac3152744e521813f5650dd0b5ee91e175cb"

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


def _completions():
    """(world, completion, target) for the 2,100 fuzzed completions, cycling through WORLDS."""
    rng = np.random.default_rng(20261018)
    targets = {world: [random_target(seed, grounded=bool(seed % 2), world=world) for seed in range(4)]
               for world in WORLDS}
    for i in range(2100):
        world = WORLDS[i % len(WORLDS)]
        yield world, _completion(rng, i % 7, world), targets[world][i % 4]


def _completion_lines():
    for i, (world, text, target) in enumerate(_completions()):
        structure, report = parse_structure(text)
        yield f"parse {i} {structure!r} {report!r}"
        if report.parsed_ok:
            yield f"analyze {i} {_fields(analyze(structure, world))}"
        yield f"score {i} {_fields(score_completion(text, target, world))}"


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


def test_chunked_scores_equal_single_scores():
    # The digest scores one completion at a time; the service's workers and
    # eval score chunks, whose light structures share one batched pass.
    by_world: dict = {}
    for world, text, target in _completions():
        by_world.setdefault(world, []).append((text, target))
    for world, items in by_world.items():
        for lo in range(0, len(items), CHUNK_SIZE):
            texts, targets = zip(*items[lo:lo + CHUNK_SIZE])
            got = score_completions(list(texts), list(targets), world)
            want = [score_completion(text, target, world) for text, target in zip(texts, targets)]
            assert [_fields(b) for b in got] == [_fields(b) for b in want], (world, lo)


def _layout_line(rng: np.random.Generator, kind: int, world: WorldConfig) -> str:
    """One line of a convert corpus; kinds 5 and 6 hold no brick text that parses."""
    dim_x, dim_y, dim_z = world.shape
    text = serialize_structure(collision_free_structure(rng, world, 30))
    h, w = ((1, 2), (2, 2), (1, 4), (6, 1))[int(rng.integers(4))]
    x, y, z = (int(rng.integers(0, max(dim, 1))) for dim in (dim_x - h + 1, dim_y - w + 1, dim_z))
    if kind == 1 or kind == 2 and rng.integers(3) == 0:  # colliding: a brick laid twice
        text += "\n" + text.split("\n", 1)[0]
    if kind == 2:  # past x or y, and a third of them colliding as well
        if rng.integers(2):
            x = dim_x - h + int(rng.integers(1, 4))
        else:
            y = dim_y - w + int(rng.integers(1, 4))
        text += f"\n{h}x{w} ({x},{y},{z})"
    elif kind == 3:  # past the top layer
        text += f"\n{h}x{w} ({x},{y},{dim_z + int(rng.integers(3))})"
    elif kind == 4:  # a huge-integer anchor, past int64 from 10**19 on
        huge = [x, y, z]
        huge[int(rng.integers(3))] = 10 ** int(rng.integers(15, 40))
        text += "\n{}x{} ({},{},{})".format(h, w, *huge)
    elif kind == 5:  # brick text that does not parse
        bad = ("", "hello", text + "\n2x3 (0,0,0)", text.replace("(", "[", 1))
        return json.dumps({"bricks": bad[int(rng.integers(4))]})
    elif kind == 6:  # lines that are not a record with bricks
        return ("{not json", "[1, 2]", json.dumps({"brick": text}), "   ")[int(rng.integers(4))]
    if rng.integers(3) == 0:
        text = text.replace("\n", ", ")
    return json.dumps({"bricks": text})


def test_convert_outputs_match_pinned_digest(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="brickeval.dataset")
    digest = hashlib.sha256()
    for world in (DEFAULT_WORLD, WorldConfig(7, 70, 3)):
        rng = np.random.default_rng(world.n_voxels)
        src = tmp_path / "layouts.jsonl"
        src.write_text("".join(_layout_line(rng, i % 8, world) + "\n" for i in range(160)))
        for mode in ("sft", "grpo"):
            dst = tmp_path / f"{mode}.jsonl"
            caplog.clear()
            printed = _cli("convert", "--input", str(src), "--output", str(dst), "--mode", mode,
                           "--world", ",".join(map(str, world.shape)))
            for line in (printed, dst.read_text(), *(r.getMessage() for r in caplog.records)):
                digest.update(f"convert {world.shape} {mode} {line}\n".encode())
    assert digest.hexdigest() == CONVERT_SHA256


def _metamorphic_cases():
    """(world, box, structure, target): every brick and target voxel lies in the box, a corner of the world."""
    rng = np.random.default_rng(2026)
    for world, box in ((DEFAULT_WORLD, WorldConfig(12, 12, 20)), (WorldConfig(7, 70, 3), WorldConfig(7, 40, 3))):
        for i in range(60):
            bricks = tuple(b for b in random_structure(rng, box, int(rng.integers(1, 30)))
                           if b.x + b.h <= box.dim_x and b.y + b.w <= box.dim_y)
            if i % 3 == 0:  # colliding
                bricks += bricks[:2]
            structure = BrickStructure(bricks)
            target = np.zeros(world.shape, dtype=bool)
            target[:box.dim_x, :box.dim_y] = random_target(i, grounded=bool(i % 2), world=box)
            yield world, box, structure, target


def _shifted(structure: BrickStructure, dx: int, dy: int) -> BrickStructure:
    return BrickStructure(tuple(b._replace(x=b.x + dx, y=b.y + dy) for b in structure))


def test_reward_terms_survive_reordering_shifts_and_crlf():
    # Terms only: seam_coverage is not one, and a colliding voxel's owner is its
    # lowest brick index, so reordering may legitimately move its seams.
    rng = np.random.default_rng(14)
    for world, box, structure, target in _metamorphic_cases():
        text = serialize_structure(structure)
        want = score_completion(text, target, world)
        lines = text.split("\n")
        reordered = "\n".join(lines[i] for i in rng.permutation(len(lines)))
        assert score_completion(reordered, target, world) == want, text
        assert score_completion(text.replace("\n", "\r\n"), target, world) == want, text
        dx = int(rng.integers(0, world.dim_x - box.dim_x + 1))
        dy = int(rng.integers(0, world.dim_y - box.dim_y + 1))
        moved = np.roll(target, (dx, dy), axis=(0, 1))
        assert score_completion(serialize_structure(_shifted(structure, dx, dy)), moved, world) == want, text

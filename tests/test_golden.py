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
- serve_lines output, one worker, on a fixed stream of 200 requests;
  `python -m brickeval serve --threads 1` writes the same bytes to
  stdout when that stream is its stdin.

CONVERT_SHA256 pins `convert --mode sft` and `--mode grpo` on a seeded
layout corpus in two worlds: the printed count, the records written and
the warning logged for each skipped line. The corpus holds feasible and
colliding builds, bricks past x/y and past the top layer, huge-integer
anchors, brick text that does not parse and lines that are not records.

The metamorphic checks need no pinned value: every score_completion
term stays the same when a completion's lines are reordered, when it
and its target are shifted together in x/y inside the world, and when
its line ends are \\r\\n; and every analyze field and score_completion
term stays the same when the build, its target and the world are
transposed in x/y, or an in-bounds build and its target are mirrored
in x or in y. Nor does the chunk check: the same fuzzed
completions, scored per world in chunks of rewards.CHUNK_SIZE by
score_terms, give score_completion's terms bit for bit, and those of
the oracles in tests/helpers.py.

Rule: a change that moves GOLDEN_SHA256 or CONVERT_SHA256 says in
CHANGES.md which output changed and why. A refactor never changes them.
"""

import contextlib
import hashlib
import io
import json
import logging
import subprocess
import sys
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
    make_brick,
    parse_structure,
    random_target,
    score_completion,
    serialize_pointcloud,
    serialize_structure,
)
from brickeval.analysis import StructureAnalysis
from brickeval.cli import cli_dispatch
from brickeval.rewards import CHUNK_SIZE, RewardBreakdown, reward_terms, score_terms
from brickeval.service import serve_lines
from helpers import collision_free_structure, oracle_analysis, oracle_counts, random_structure
from servers import serve_process

GOLDEN_SHA256 = "635128ce22910283d94fbaa4666ee594c2b2a4cd140c14014bec3cfc5e40b1e3"
CONVERT_SHA256 = "3b35cb65588de58c2eb4dad20a20ac3152744e521813f5650dd0b5ee91e175cb"

WORLDS = (DEFAULT_WORLD, WorldConfig(7, 70, 3), WorldConfig(5, 7, 3))
MUTATION_CHARS = "0123456789x(), \n\t-#Bab"


def _value(v) -> str:
    return v.hex() if isinstance(v, float) else repr(v)


def _fields(obj) -> str:
    names = obj._fields if isinstance(obj, tuple) else [f.name for f in fields(obj)]
    return " ".join(f"{name}={_value(getattr(obj, name))}" for name in names)


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


def _served() -> list[str]:
    out: list[str] = []
    serve_lines(_requests(), out.append, DEFAULT_WORLD, threads=1)
    return out


def _serve_lines():
    return (f"serve {line}" for line in _served())


def test_outputs_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for part in (_legalize_lines(), _cli_lines(tmp_path), _completion_lines(), _serve_lines()):
        for line in part:
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256


def test_stdio_service_writes_the_golden_responses():
    # The real stdio path: the digest pins serve_lines in-process, and
    # this pins the bytes a one-worker `serve` process writes to them.
    stdin = b"".join((line if isinstance(line, bytes) else line.encode()) + b"\n" for line in _requests())
    proc = subprocess.run([sys.executable, "-m", "brickeval", "serve", "--threads", "1"],
                          input=stdin, capture_output=True, timeout=120, check=True)
    assert proc.stdout == "".join(line + "\n" for line in _served()).encode()


def test_two_worker_stdio_service_writes_the_golden_responses():
    # Two workers score chunks in their own order, so the responses may
    # leave in another order; as a set they are the pinned ones.
    stdin = b"".join((line if isinstance(line, bytes) else line.encode()) + b"\n" for line in _requests())
    with serve_process("--threads", "2", stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE) as proc:
        stdout, stderr = proc.communicate(stdin, timeout=120)
    assert proc.returncode == 0
    assert sorted(stdout.decode().splitlines()) == sorted(_served())
    assert stderr == b""


def _oracle_breakdown(structure: BrickStructure, target: np.ndarray, world: WorldConfig) -> RewardBreakdown:
    occupied = set(oracle_counts(structure, world))
    wanted = set(map(tuple, np.argwhere(target).tolist()))
    union = len(occupied | wanted)
    iou = len(occupied & wanted) / union if union else 0.0
    return RewardBreakdown(*reward_terms(StructureAnalysis(**oracle_analysis(structure, world)), iou))


def test_chunked_scores_equal_single_scores():
    # The digest scores one completion at a time; the service's workers and
    # eval score chunks, which share one pass whose cell keys carry a
    # structure id. Both give the reward terms of the oracles.
    by_world: dict = {}
    for world, text, target in _completions():
        by_world.setdefault(world, []).append((text, target))
    for world, items in by_world.items():
        for lo in range(0, len(items), CHUNK_SIZE):
            texts, targets = zip(*items[lo:lo + CHUNK_SIZE])
            got = [RewardBreakdown(*terms) for terms in score_terms(list(texts), list(targets), world)]
            want = [score_completion(text, target, world) for text, target in zip(texts, targets)]
            assert [_fields(b) for b in got] == [_fields(b) for b in want], (world, lo)
            for text, target, breakdown in zip(texts, targets, got):
                structure, report = parse_structure(text)
                if report.parsed_ok:
                    assert _fields(breakdown) == _fields(_oracle_breakdown(structure, target, world)), text


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


def _transposed(structure: BrickStructure) -> BrickStructure:
    return BrickStructure(tuple(make_brick(b.w, b.h, b.y, b.x, b.z) for b in structure))


def _mirrored(structure: BrickStructure, world: WorldConfig, axis: int) -> BrickStructure:
    """The build reflected in x (axis 0) or y (axis 1) of the world; its bricks lie inside the x/y extent."""
    if axis == 0:
        return BrickStructure(tuple(b._replace(x=world.dim_x - b.x - b.h) for b in structure))
    return BrickStructure(tuple(b._replace(y=world.dim_y - b.y - b.w) for b in structure))


def test_analysis_and_terms_survive_transpose_and_mirrors():
    # The square's symmetries: swapping x and y in the build (h and w too),
    # the target and the world, also for builds past the world, and
    # mirroring an in-bounds build and its target in x or in y. A colliding
    # voxel's owner is still its lowest brick index, so seams are kept too.
    rng = np.random.default_rng(21)
    for world, box, structure, target in _metamorphic_cases():
        transposed = WorldConfig(world.dim_y, world.dim_x, world.dim_z)
        outside = random_structure(rng, world, 30, in_bounds=False)
        cases = [
            (structure, target, world, _transposed(structure), target.transpose(1, 0, 2), transposed),
            (outside, target, world, _transposed(outside), target.transpose(1, 0, 2), transposed),
            (structure, target, world, _mirrored(structure, world, 0), target[::-1], world),
            (structure, target, world, _mirrored(structure, world, 1), target[:, ::-1], world),
        ]
        for s, t, w, image, image_target, image_world in cases:
            want = analyze(s, w), score_completion(serialize_structure(s), t, w)
            got = analyze(image, image_world), score_completion(serialize_structure(image), image_target, image_world)
            assert got == want, serialize_structure(s)

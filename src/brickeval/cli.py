"""Command-line interface.

Subcommands: parse, score, eval, convert, construct, gen-fixtures,
serve. Exit codes: 0 success, 1 usage error, 2 I/O or input-data error,
3 failed --check constraint in eval.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import re
import sys
from dataclasses import fields

import numpy as np

from .construct import ConstructorOptions, legalize, random_target
from .core import DEFAULT_WORLD, WorldConfig
from .dataset import (
    CodecError,
    convert_corpus,
    decode_target_voxels,
    encode_target_voxels,
    read_pair,
    read_record,
)
from .metrics import AggregateReport, aggregate, emit_report, sample_metrics_batch
from .metrics import sample_metrics  # not called here; perfbench wraps it by name until ROADMAP direction 2
from .rewards import CHUNK_SIZE, chunk_length, score_completion
from .service import max_line_bytes, serve_rewards
from .tokens import (
    MalformedPointToken,
    OutOfWorldCoordinate,
    parse_pointcloud,
    parse_structure,
    serialize_structure,
)


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _parse_world(text: str) -> WorldConfig:
    try:
        x, y, z = (int(p) for p in text.split(","))
        world = WorldConfig(x, y, z)
        np.empty(world.shape, dtype=bool)  # each command that reads --world holds grids of it
        return world
    except (ValueError, MemoryError) as exc:  # also a count of parts other than 3, or a grid numpy cannot hold
        raise argparse.ArgumentTypeError(f"expects X,Y,Z of a world numpy can hold, got {text!r} ({exc})") from None


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expects a non-negative integer, got {text!r}")
    return value


def _read_text(path: str) -> str:
    """The whole input, file or - (stdin), as strict UTF-8 with line ends kept."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            data = f.read()
    return data.decode("utf-8")


def _write_text(path: str, data: str) -> None:
    if path == "-":
        sys.stdout.write(data)
        return
    with open(path, "w", encoding="utf-8") as f:
        f.write(data)


def _load_grid(path: str, world: WorldConfig) -> np.ndarray:
    """Load a target grid from a codec string or a point-token list."""
    text = _read_text(path).strip()
    try:
        return decode_target_voxels(text, world)
    except CodecError as exc:
        codec_error = exc
    try:
        return parse_pointcloud(text, world)
    except (MalformedPointToken, OutOfWorldCoordinate) as exc:
        raise _DataError(f"{path}: neither an encoded grid ({codec_error}) nor a point list ({exc})")


_CHECK_RE = re.compile(r"^\s*(\w+)\s*(>=|<=|==|!=|>|<)\s*(-?\d+(?:\.\d+)?)\s*$")
_CHECK_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq,
              "!=": operator.ne, ">": operator.gt, "<": operator.lt}
_FLAG_DEFAULTS = {"world": DEFAULT_WORLD, "seed": 0, "threads": 1}


def _parse_check(text: str) -> tuple[str, str, float, str]:
    """An --check constraint as (field, op, value, text); argparse reports a bad one."""
    m = _CHECK_RE.match(text)
    if m is None:
        raise argparse.ArgumentTypeError(f"bad constraint {text!r}")
    field = m.group(1)
    if field not in {f.name for f in fields(AggregateReport)}:
        raise argparse.ArgumentTypeError(f"unknown field {field!r} in {text!r}")
    return field, m.group(2), float(m.group(3)), text


def build_parser() -> _ArgumentParser:
    # Each global flag goes on the top parser and on the subparsers of the commands
    # that read it. cli_dispatch fills in _FLAG_DEFAULTS after parsing, never as
    # action defaults: a subparser's default would clobber a value given before it.
    flags = {"world": dict(type=_parse_world, metavar="X,Y,Z", help="world grid dimensions (default 20,20,20)"),
             "seed": dict(type=_non_negative_int), "threads": dict(type=int)}
    parser = _ArgumentParser(prog="brickeval")
    for flag, keywords in flags.items():
        parser.add_argument(f"--{flag}", default=argparse.SUPPRESS, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, run, reads: tuple[str, ...], **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        for flag in reads:
            p.add_argument(f"--{flag}", default=argparse.SUPPRESS, **flags[flag])
        p.set_defaults(run=run, reads=reads)
        return p

    p = add_parser("parse", _cmd_parse, (), help="parse a completion and print the report")
    p.add_argument("--completion", required=True, help="path or - for stdin")

    p = add_parser("score", _cmd_score, ("world",), help="score a completion against a target")
    p.add_argument("--target", required=True)
    p.add_argument("--completion", required=True)

    p = add_parser("eval", _cmd_eval, ("world",), help="evaluate a corpus of completion/target pairs")
    p.add_argument("--pairs", required=True, help="newline-delimited JSON pairs")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("tabular", "records"), default="records")
    p.add_argument("--check", action="append", default=[], type=_parse_check, metavar="FIELD OP VALUE",
                   help="aggregate constraint, e.g. coll_free_rate>=0.99; exit 3 on failure")

    p = add_parser("convert", _cmd_convert, ("world",), help="convert a brick-layout corpus to training records")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--mode", choices=("sft", "grpo"), default="sft")

    p = add_parser("construct", _cmd_construct, ("world", "seed"), help="legalize a target grid into bricks")
    p.add_argument("--grid", required=True)
    p.add_argument("--stagger", action="store_true")
    p.add_argument("--out", default="-")

    p = add_parser("gen-fixtures", _cmd_gen_fixtures, ("world", "seed"), help="generate evaluation pairs")
    p.add_argument("--count", type=_non_negative_int, default=10)
    p.add_argument("--out", default="-")
    p.add_argument("--grounded", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--fill-prob", type=float, default=0.1)
    p.add_argument("--max-components", type=int, default=3)
    p.add_argument("--stagger", action="store_true")

    p = add_parser("serve", _cmd_serve, ("world", "threads"), help="run the streaming reward service")
    p.add_argument("--transport", choices=("stdio", "tcp"), default="stdio")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    return parser


def _cmd_parse(args) -> int:
    structure, report = parse_structure(_read_text(args.completion))
    record = {
        "parsed_ok": report.parsed_ok,
        "brick_count": report.brick_count,
        "empty_response": report.empty_response,
        "malformed_lines": [list(entry) for entry in report.malformed_lines],
        "bricks": serialize_structure(structure).splitlines(),
    }
    print(json.dumps(record))
    return 0


def _cmd_score(args) -> int:
    if args.target == args.completion == "-":
        raise _UsageError("--target and --completion cannot both be - (stdin)")
    target = _load_grid(args.target, args.world)
    breakdown = score_completion(_read_text(args.completion), target, args.world)
    print(json.dumps(vars(breakdown)))
    return 0


def _read_eval_pair(args, line_number: int, line: str) -> tuple[str, np.ndarray, float]:
    """An eval pair's completion, decoded target and wall time."""
    try:
        obj = read_record(line)
        completion, voxels, points = read_pair(obj)
        target = (decode_target_voxels(voxels, args.world) if voxels is not None
                  else parse_pointcloud(points, args.world))
        wall = obj.get("wall_time_s", 0.0)
        if type(wall) not in (int, float):  # bool is neither
            raise ValueError(f"wall_time_s must be a number, got {type(wall).__name__}")
        wall = float(wall)
        if not 0.0 <= wall < math.inf:
            raise ValueError(f"wall_time_s must be finite and non-negative, got {wall}")
    except (OverflowError, ValueError) as exc:  # OverflowError: an integer past float range
        raise _DataError(f"{args.pairs}:{line_number}: bad pair record ({exc})")
    return completion, target, wall


def _cmd_eval(args) -> int:
    numbered = [(n, line) for n, line in enumerate(_read_text(args.pairs).split("\n"), start=1) if line.strip()]
    if not numbered:
        raise _DataError(f"{args.pairs}: no pairs found")
    limit = max_line_bytes(args.world)
    samples = []
    start = 0
    while start < len(numbered):  # one batched pass per chunk, by the service's chunk rule
        end = start + chunk_length([line for _, line in numbered[start:start + CHUNK_SIZE]], limit)
        completions, targets, walls = zip(*(_read_eval_pair(args, n, line) for n, line in numbered[start:end]))
        samples.extend(sample_metrics_batch(completions, targets, args.world, walls))
        start = end
    report = aggregate(samples)
    fmt = "tabular_text" if args.format == "tabular" else "structured_records"
    _write_text(args.out, emit_report(report, samples, fmt).decode("utf-8"))
    for field, op, value, constraint in args.check:
        actual = getattr(report, field)
        if actual is None or not _CHECK_OPS[op](actual, value):
            print(f"check failed: {field}={actual} violates {constraint}", file=sys.stderr)
            return 3
    return 0


def _cmd_convert(args) -> int:
    if "-" in (args.input, args.output):
        raise _UsageError("convert reads and writes files only, not - (stdin or stdout)")
    count = convert_corpus(args.input, args.output, args.mode, args.world)
    print(count)
    return 0


def _cmd_construct(args) -> int:
    grid = _load_grid(args.grid, args.world)
    structure = legalize(grid, ConstructorOptions(stagger=args.stagger, seed=args.seed), args.world)
    text = serialize_structure(structure, "one_per_line")
    _write_text(args.out, text + "\n" if text else "")
    return 0


def _cmd_gen_fixtures(args) -> int:
    if not 0 <= args.fill_prob <= 1:
        raise _UsageError(f"--fill-prob must be in [0, 1], got {args.fill_prob}")
    if args.max_components < 1:
        raise _UsageError(f"--max-components must be at least 1, got {args.max_components}")
    lines = []
    opts = ConstructorOptions(stagger=args.stagger, seed=args.seed)
    for i in range(args.count):
        target = random_target(
            args.seed + i,
            max_components=args.max_components,
            fill_prob=args.fill_prob,
            grounded=args.grounded,
            world=args.world,
        )
        structure = legalize(target, opts, args.world)
        lines.append(json.dumps({
            "completion": serialize_structure(structure, "one_per_line"),
            "target_voxels": encode_target_voxels(target),
        }) + "\n")
    _write_text(args.out, "".join(lines))
    return 0


def _cmd_serve(args) -> int:
    if not 0 <= args.port <= 65535:
        raise _UsageError(f"--port must be in [0, 65535], got {args.port}")
    return serve_rewards(args.transport, args.port, args.host, args.world, args.threads)


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name, default in _FLAG_DEFAULTS.items():
            if name in args.reads:
                vars(args).setdefault(name, default)
            elif name in args:  # given before a subcommand that does not read it
                raise _UsageError(f"{args.command} does not take --{name}")
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 ({exc})", file=sys.stderr)
        return 2
    except (_DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))

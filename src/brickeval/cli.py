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
from dataclasses import asdict, fields

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
from .metrics import AggregateReport, aggregate, emit_report, sample_metrics
from .rewards import score_completion
from .service import serve_rewards
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
        return WorldConfig(x, y, z)
    except ValueError as exc:  # also a count of parts other than 3
        raise argparse.ArgumentTypeError(f"expects X,Y,Z, got {text!r} ({exc})") from None


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
    except CodecError:
        pass
    try:
        return parse_pointcloud(text, world)
    except (MalformedPointToken, OutOfWorldCoordinate) as exc:
        raise _DataError(f"{path}: neither an encoded grid nor a point list ({exc})")


_CHECK_RE = re.compile(r"^\s*(\w+)\s*(>=|<=|==|!=|>|<)\s*(-?\d+(?:\.\d+)?)\s*$")
_CHECK_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq,
              "!=": operator.ne, ">": operator.gt, "<": operator.lt}


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
    # The global flags go on the top parser and on every subparser, so they
    # work before or after the subcommand. Their defaults are the namespace
    # cli_dispatch starts from, never an action default: parent actions are
    # shared, and a subparser default would clobber a value given before it.
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--world", type=_parse_world, metavar="X,Y,Z",
                       help="world grid dimensions (default 20,20,20)")
    flags.add_argument("--seed", type=_non_negative_int)
    flags.add_argument("--threads", type=int)
    parser = _ArgumentParser(prog="brickeval", parents=[flags])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, run, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[flags], **kwargs)
        p.set_defaults(run=run)
        return p

    p = add_parser("parse", _cmd_parse, help="parse a completion and print the report")
    p.add_argument("--completion", required=True, help="path or - for stdin")

    p = add_parser("score", _cmd_score, help="score a completion against a target")
    p.add_argument("--target", required=True)
    p.add_argument("--completion", required=True)

    p = add_parser("eval", _cmd_eval, help="evaluate a corpus of completion/target pairs")
    p.add_argument("--pairs", required=True, help="newline-delimited JSON pairs")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("tabular", "records"), default="records")
    p.add_argument("--check", action="append", default=[], type=_parse_check, metavar="FIELD OP VALUE",
                   help="aggregate constraint, e.g. coll_free_rate>=0.99; exit 3 on failure")

    p = add_parser("convert", _cmd_convert, help="convert a brick-layout corpus to training records")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--mode", choices=("sft", "grpo"), default="sft")

    p = add_parser("construct", _cmd_construct, help="legalize a target grid into bricks")
    p.add_argument("--grid", required=True)
    p.add_argument("--stagger", action="store_true")
    p.add_argument("--largest-first", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default="-")

    p = add_parser("gen-fixtures", _cmd_gen_fixtures, help="generate evaluation pairs")
    p.add_argument("--count", type=_non_negative_int, default=10)
    p.add_argument("--out", default="-")
    p.add_argument("--grounded", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--fill-prob", type=float, default=0.1)
    p.add_argument("--max-components", type=int, default=3)
    p.add_argument("--stagger", action="store_true")

    p = add_parser("serve", _cmd_serve, help="run the streaming reward service")
    p.add_argument("--transport", choices=("stdio", "tcp"), default="stdio")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    return parser


def _cmd_parse(args, world: WorldConfig) -> int:
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


def _cmd_score(args, world: WorldConfig) -> int:
    if args.target == args.completion == "-":
        raise _UsageError("--target and --completion cannot both be - (stdin)")
    target = _load_grid(args.target, world)
    breakdown = score_completion(_read_text(args.completion), target, world)
    print(json.dumps(asdict(breakdown)))
    return 0


def _cmd_eval(args, world: WorldConfig) -> int:
    samples = []
    for line_number, line in enumerate(_read_text(args.pairs).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = read_record(line)
            completion, voxels, points = read_pair(obj)
            target = (decode_target_voxels(voxels, world) if voxels is not None
                      else parse_pointcloud(points, world))
            wall = obj.get("wall_time_s", 0.0)
            if type(wall) not in (int, float):  # bool is neither
                raise ValueError(f"wall_time_s must be a number, got {type(wall).__name__}")
            wall = float(wall)
            if not 0.0 <= wall < math.inf:
                raise ValueError(f"wall_time_s must be finite and non-negative, got {wall}")
        except (OverflowError, ValueError) as exc:  # OverflowError: an integer past float range
            raise _DataError(f"{args.pairs}:{line_number}: bad pair record ({exc})")
        samples.append(sample_metrics(completion, target, world, wall))
    if not samples:
        raise _DataError(f"{args.pairs}: no pairs found")
    report = aggregate(samples)
    fmt = "tabular_text" if args.format == "tabular" else "structured_records"
    _write_text(args.out, emit_report(report, samples, fmt).decode("utf-8"))
    for field, op, value, constraint in args.check:
        actual = getattr(report, field)
        if actual is None or not _CHECK_OPS[op](actual, value):
            print(f"check failed: {field}={actual} violates {constraint}", file=sys.stderr)
            return 3
    return 0


def _cmd_convert(args, world: WorldConfig) -> int:
    if "-" in (args.input, args.output):
        raise _UsageError("convert reads and writes files only, not - (stdin or stdout)")
    count = convert_corpus(args.input, args.output, args.mode, world)
    print(count)
    return 0


def _cmd_construct(args, world: WorldConfig) -> int:
    grid = _load_grid(args.grid, world)
    opts = ConstructorOptions(stagger=args.stagger, seed=args.seed,
                              largest_first=args.largest_first)
    structure = legalize(grid, opts, world)
    text = serialize_structure(structure, "one_per_line")
    _write_text(args.out, text + "\n" if text else "")
    return 0


def _cmd_gen_fixtures(args, world: WorldConfig) -> int:
    if not 0 <= args.fill_prob <= 1:
        raise _UsageError(f"--fill-prob must be in [0, 1], got {args.fill_prob}")
    lines = []
    opts = ConstructorOptions(stagger=args.stagger, seed=args.seed)
    for i in range(args.count):
        target = random_target(
            args.seed + i,
            max_components=args.max_components,
            fill_prob=args.fill_prob,
            grounded=args.grounded,
            world=world,
        )
        structure = legalize(target, opts, world)
        lines.append(json.dumps({
            "completion": serialize_structure(structure, "one_per_line"),
            "target_voxels": encode_target_voxels(target),
        }))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_serve(args, world: WorldConfig) -> int:
    return serve_rewards(args.transport, args.port, args.host, world, args.threads)


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(world=DEFAULT_WORLD, seed=0, threads=1))
        return args.run(args, args.world)
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

"""Command-line interface.

Subcommands: parse, score, eval, convert, construct, gen-fixtures,
serve. Exit codes: 0 success, 1 usage error, 2 I/O or input-data error,
3 failed --check constraint in eval.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from .construct import ConstructorOptions, legalize, random_target
from .core import DEFAULT_WORLD, WorldConfig
from .dataset import CodecError, convert_corpus, decode_target_voxels, encode_target_voxels
from .metrics import aggregate, emit_report, sample_metrics
from .rewards import score_completion
from .service import serve_rewards
from .tokens import (
    MalformedPointToken,
    OutOfWorldCoordinate,
    brick_token,
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
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--world expects X,Y,Z, got {text!r}")
    try:
        x, y, z = (int(p) for p in parts)
        return WorldConfig(x, y, z)
    except ValueError as exc:
        raise _UsageError(f"bad --world value: {exc}") from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


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
_CHECK_OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
}


def _add_global_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # Subparsers get SUPPRESS defaults so they never clobber a value the
    # top-level parser already set (the flags work in either position).
    def default(value):
        return value if top_level else argparse.SUPPRESS

    parser.add_argument("--world", default=default("20,20,20"), metavar="X,Y,Z",
                        help="world grid dimensions (default 20,20,20)")
    parser.add_argument("--seed", type=int, default=default(0))
    parser.add_argument("--threads", type=int, default=default(1))


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="brickeval")
    _add_global_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _add_global_flags(p, top_level=False)
        return p

    p = add_parser("parse", help="parse a completion and print the report")
    p.add_argument("--completion", required=True, help="path or - for stdin")

    p = add_parser("score", help="score a completion against a target")
    p.add_argument("--target", required=True)
    p.add_argument("--completion", required=True)

    p = add_parser("eval", help="evaluate a corpus of completion/target pairs")
    p.add_argument("--pairs", required=True, help="newline-delimited JSON pairs")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("tabular", "records"), default="records")
    p.add_argument("--check", action="append", default=[], metavar="FIELD OP VALUE",
                   help="aggregate constraint, e.g. coll_free_rate>=0.99; exit 3 on failure")

    p = add_parser("convert", help="convert a brick-layout corpus to training records")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--mode", choices=("sft", "grpo"), default="sft")

    p = add_parser("construct", help="legalize a target grid into bricks")
    p.add_argument("--grid", required=True)
    p.add_argument("--stagger", action="store_true")
    p.add_argument("--largest-first", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default="-")

    p = add_parser("gen-fixtures", help="generate evaluation pairs")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out", default="-")
    p.add_argument("--grounded", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--fill-prob", type=float, default=0.1)
    p.add_argument("--max-components", type=int, default=3)
    p.add_argument("--stagger", action="store_true")

    p = add_parser("serve", help="run the streaming reward service")
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
        "bricks": [brick_token(b) for b in structure],
    }
    print(json.dumps(record))
    return 0


def _cmd_score(args, world: WorldConfig) -> int:
    target = _load_grid(args.target, world)
    breakdown = score_completion(_read_text(args.completion), target, world)
    print(json.dumps(asdict(breakdown)))
    return 0


def _cmd_eval(args, world: WorldConfig) -> int:
    samples = []
    for line_number, line in enumerate(_read_text(args.pairs).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError("not a JSON object")
            completion = obj["completion"]
            voxels, points = obj.get("target_voxels"), obj.get("target_points")
            if (voxels is None) == (points is None):
                raise ValueError("needs exactly one of target_voxels and target_points")
            kind = "target_voxels" if voxels is not None else "target_points"
            target_text = obj[kind]
            if not isinstance(completion, str) or not isinstance(target_text, str):
                raise TypeError(f"completion and {kind} must be strings")
            decode = decode_target_voxels if kind == "target_voxels" else parse_pointcloud
            target = decode(target_text, world)
            wall = float(obj.get("wall_time_s", 0.0))
            if not 0.0 <= wall < math.inf:
                raise ValueError(f"wall_time_s must be finite and non-negative, got {wall}")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise _DataError(f"{args.pairs}:{line_number}: bad pair record ({exc})")
        samples.append(sample_metrics(completion, target, world, wall))
    if not samples:
        raise _DataError(f"{args.pairs}: no pairs found")
    report = aggregate(samples)
    fmt = "tabular_text" if args.format == "tabular" else "structured_records"
    _write_text(args.out, emit_report(report, samples, fmt).decode("utf-8"))
    for constraint in args.check:
        m = _CHECK_RE.match(constraint)
        if m is None:
            raise _UsageError(f"bad --check constraint {constraint!r}")
        field, op, value = m.group(1), m.group(2), float(m.group(3))
        if not hasattr(report, field):
            raise _UsageError(f"--check references unknown field {field!r}")
        actual = getattr(report, field)
        if actual is None or not _CHECK_OPS[op](actual, value):
            print(f"check failed: {field}={actual} violates {constraint}", file=sys.stderr)
            return 3
    return 0


def _cmd_convert(args, world: WorldConfig) -> int:
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
    return serve_rewards(args.transport, args.port, args.host, world,
                         max(args.threads, 1))


_COMMANDS = {
    "parse": _cmd_parse,
    "score": _cmd_score,
    "eval": _cmd_eval,
    "convert": _cmd_convert,
    "construct": _cmd_construct,
    "gen-fixtures": _cmd_gen_fixtures,
    "serve": _cmd_serve,
}


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        world = _parse_world(args.world)
        return _COMMANDS[args.command](args, world)
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

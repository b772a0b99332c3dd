"""Per-sample evaluation metrics and corpus aggregates.

Denominators follow three nested sample sets: N is every evaluated
sample, P the parsed ones, and the in-bounds rate is taken over P.
The collision-free rate divides by N, so unparsed samples count
against it; all geometric means (collisions, IoU, connectivity,
interlock, seam coverage, brick count) average over P only and are
reported as absent when nothing parsed. Average wall time is over N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import StructureAnalysis, analyze_chunk
from .core import WorldConfig
from .tokens import parse_structure

# Not called here; perfbench wraps these by name until ROADMAP direction 2.
from .analysis import analyze_with_occupancy
from .rewards import reward_shape


class EmptyInput(ValueError):
    """Raised when aggregating an empty sample list."""


@dataclass(frozen=True)
class SampleMetrics:
    parsed: bool
    collision_free: bool
    n_col: int
    voxel_iou: float
    conn_ratio: float
    is_connected: bool
    interlock: float
    seam_cov: float
    in_bounds: bool
    brick_count: int
    wall_time_s: float


@dataclass(frozen=True)
class AggregateReport:
    n_total: int
    parse_rate: float
    coll_free_rate: float
    mean_coll_voxels: float | None
    mean_voxel_iou: float | None
    conn_ratio: float | None
    connected_rate: float | None
    interlock_score: float | None
    seam_cov: float | None
    in_bounds_rate: float | None
    mean_bricks: float | None
    avg_time_s: float


def sample_metrics(
    completion: str,
    target: np.ndarray,
    world: WorldConfig,
    wall_time_s: float = 0.0,
) -> SampleMetrics:
    """Evaluate one completion against its target grid (of the world's shape)."""
    return sample_metrics_batch([completion], [target], world, [wall_time_s])[0]


def sample_metrics_batch(
    completions: Sequence[str],
    targets: Sequence[np.ndarray],
    world: WorldConfig,
    wall_times_s: Sequence[float],
) -> list[SampleMetrics]:
    """sample_metrics of each completion, evaluated together (analysis.analyze_chunk)."""
    structures = [s if report.parsed_ok else None for s, report in map(parse_structure, completions)]
    return [_sample(result, wall_time_s)
            for result, wall_time_s in zip(analyze_chunk(structures, targets, world), wall_times_s, strict=True)]


def _sample(result: tuple[StructureAnalysis, float] | None, wall_time_s: float) -> SampleMetrics:
    if result is None:
        return SampleMetrics(
            parsed=False,
            collision_free=False,
            n_col=0,
            voxel_iou=0.0,
            conn_ratio=0.0,
            is_connected=False,
            interlock=0.0,
            seam_cov=0.0,
            in_bounds=False,
            brick_count=0,
            wall_time_s=wall_time_s,
        )
    a, iou = result
    return SampleMetrics(
        parsed=True,
        collision_free=a.n_col == 0,
        n_col=a.n_col,
        voxel_iou=iou,
        conn_ratio=a.conn_score,
        is_connected=a.is_connected,
        interlock=a.interlock_score,
        seam_cov=a.seam_coverage,
        in_bounds=a.fully_in_bounds,
        brick_count=a.brick_count,
        wall_time_s=wall_time_s,
    )


def aggregate(samples: list[SampleMetrics]) -> AggregateReport:
    """Fold sample metrics into corpus rates and means."""
    if not samples:
        raise EmptyInput("cannot aggregate zero samples")
    n = len(samples)
    parsed = [s for s in samples if s.parsed]

    def over_parsed(values: list[float]) -> float | None:
        return sum(values) / len(parsed) if parsed else None

    return AggregateReport(
        n_total=n,
        parse_rate=len(parsed) / n,
        coll_free_rate=sum(1 for s in parsed if s.collision_free) / n,
        mean_coll_voxels=over_parsed([s.n_col for s in parsed]),
        mean_voxel_iou=over_parsed([s.voxel_iou for s in parsed]),
        conn_ratio=over_parsed([s.conn_ratio for s in parsed]),
        connected_rate=over_parsed([1.0 if s.is_connected else 0.0 for s in parsed]),
        interlock_score=over_parsed([s.interlock for s in parsed]),
        seam_cov=over_parsed([s.seam_cov for s in parsed]),
        in_bounds_rate=over_parsed([1.0 if s.in_bounds else 0.0 for s in parsed]),
        mean_bricks=over_parsed([float(s.brick_count) for s in parsed]),
        avg_time_s=_mean([s.wall_time_s for s in samples]),
    )


def _mean(values: list[float]) -> float:
    """sum / n, unless finite values overflow the sum: then their exact mean, rounded once."""
    total = sum(values)
    if math.isfinite(total) or not all(map(math.isfinite, values)):
        return total / len(values)
    from fractions import Fraction  # only an overflowing sum pays for the import

    return float(sum(map(Fraction, values)) / len(values))


_TABULAR_COLUMNS: tuple[tuple[str, str], ...] = (
    ("Coll.-Free Rate", "coll_free_rate"),
    ("Voxel IoU", "mean_voxel_iou"),
    ("Conn. Ratio", "conn_ratio"),
    ("Interlock. Score", "interlock_score"),
    ("Seam Cov.", "seam_cov"),
    ("Mean Bricks", "mean_bricks"),
    ("Avg. Time", "avg_time_s"),
)


def emit_report(
    report: AggregateReport,
    samples: list[SampleMetrics],
    format: str = "structured_records",
) -> bytes:
    """Serialize a report deterministically.

    structured_records: one JSON record per sample, then one aggregate
    record, newline-delimited. tabular_text: a fixed-width two-line
    table of the headline columns, absent values shown as "-".
    """
    if format == "structured_records":
        # vars(), not asdict(): the fields are plain numbers and flags, so
        # asdict's deep copy is wasted work.
        lines = [json.dumps({"record": "sample", **vars(s)}) for s in samples]
        lines.append(json.dumps({"record": "aggregate", **vars(report)}))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "tabular_text":
        cells = []
        for _, field in _TABULAR_COLUMNS:
            value = getattr(report, field)
            cells.append("-" if value is None else f"{value:.4f}")
        widths = [
            max(len(header), len(cell))
            for (header, _), cell in zip(_TABULAR_COLUMNS, cells)
        ]
        head = "  ".join(h.ljust(w) for (h, _), w in zip(_TABULAR_COLUMNS, widths))
        row = "  ".join(c.ljust(w) for c, w in zip(cells, widths))
        return (head + "\n" + row + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")

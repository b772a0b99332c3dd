"""Deterministic brick-assembly geometry, reward, and evaluation engine."""

from .analysis import (
    StructureAnalysis,
    analyze,
    analyze_with_occupancy,
    collision_stats,
    interlock_score,
    rasterize,
)
from .construct import ConstructorOptions, legalize, random_target
from .core import (
    BRICK_LIBRARY,
    DEFAULT_WORLD,
    PROMPT_DIM_ORDER,
    Brick,
    BrickStructure,
    DimensionMismatch,
    OrientedDim,
    UnknownDimension,
    WorldConfig,
    library_lookup,
    make_brick,
)
from .dataset import (
    BadBase64,
    BadCompression,
    BadLength,
    BadValue,
    CodecError,
    GrpoRecord,
    InfeasibleStructure,
    SftRecord,
    SYSTEM_PROMPT,
    build_grpo_record,
    build_sft_record,
    convert_corpus,
    decode_target_voxels,
    encode_target_voxels,
)
from .metrics import AggregateReport, EmptyInput, SampleMetrics, aggregate, emit_report, sample_metrics
from .rewards import (
    FAILED_CONSTRUCTION,
    RewardBreakdown,
    reward_collision,
    reward_shape,
    score_completion,
)
from .service import serve_rewards
from .tokens import (
    MalformedPointToken,
    OutOfWorldCoordinate,
    ParseReport,
    PROMPT_TEMPLATE,
    build_prompt,
    parse_pointcloud,
    parse_structure,
    serialize_pointcloud,
    serialize_structure,
)

from types import ModuleType as _Module

__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _Module)]

__version__ = "0.1.0"

"""Budget-constrained hybrid visual telemetry simulator.

A low-bitrate video stream carries continuous detections; a sparse side
channel carries high-detail ROI stills. This package simulates which ROIs
to send: tracks objects across processed frames, scores candidates by
utility per bit, schedules them against a rolling bitrate budget, and
aggregates the resulting logs into selection and semantic-gain reports.
"""

from .budget import BudgetLedger, CostModel, LedgerView, estimate_cost
from .domain import (
    BBox,
    BudgetConfig,
    DEFAULT_AREA_REF,
    DEFAULT_WEIGHTS,
    Detection,
    EvalConfig,
    FrameClock,
    POLICY_VARIANTS,
    PolicyConfig,
)
from .engine import RunConfig, run, sweep
from .errors import (
    BudgetConfigError,
    BudgetViolation,
    ConfigError,
    DuplicateKey,
    DuplicateLabel,
    InvalidParam,
    OutOfOrderFrame,
    ParseError,
    RoitelError,
)
from .ingest import (
    DetectionStream,
    SemanticRecord,
    SemanticSidecar,
    gen_synthetic,
    inject_confidence_noise,
    parse_generic_csv,
    parse_sidecar_csv,
    parse_uavdt_gt,
    parse_visdrone_mot,
    write_generic_csv,
)
from .kernels import backend_name, greedy_associate
from .metrics import (
    MetricsReport,
    aggregate,
    aggregate_run,
    emit_report,
    emit_selection_report,
)
from .policy import (
    CandidateBlock,
    Decision,
    FrameColumns,
    decide,
    score_block,
)
from .runlog import ClassEvent, RunLog, TransmissionRecord, read_jsonl
from .tracker import Tracker, TrackerConfig

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "BudgetConfig",
    "BudgetConfigError",
    "BudgetLedger",
    "BudgetViolation",
    "CandidateBlock",
    "ClassEvent",
    "ConfigError",
    "CostModel",
    "DEFAULT_AREA_REF",
    "DEFAULT_WEIGHTS",
    "Decision",
    "Detection",
    "DetectionStream",
    "DuplicateKey",
    "DuplicateLabel",
    "EvalConfig",
    "FrameClock",
    "FrameColumns",
    "InvalidParam",
    "LedgerView",
    "MetricsReport",
    "OutOfOrderFrame",
    "POLICY_VARIANTS",
    "ParseError",
    "PolicyConfig",
    "RoitelError",
    "RunConfig",
    "RunLog",
    "SemanticRecord",
    "SemanticSidecar",
    "Tracker",
    "TrackerConfig",
    "TransmissionRecord",
    "aggregate",
    "aggregate_run",
    "backend_name",
    "decide",
    "emit_report",
    "emit_selection_report",
    "estimate_cost",
    "gen_synthetic",
    "greedy_associate",
    "inject_confidence_noise",
    "parse_generic_csv",
    "parse_sidecar_csv",
    "parse_uavdt_gt",
    "parse_visdrone_mot",
    "read_jsonl",
    "run",
    "score_block",
    "sweep",
    "write_generic_csv",
]

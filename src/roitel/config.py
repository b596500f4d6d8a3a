"""Flat key/value run configuration files.

Grammar: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored. Keys are dotted paths into the run config (``budget.window_s``),
values are scalars; optional fields accept ``none`` and the score weights
are a comma-separated triple. Every float must be finite (no ``nan`` or
``inf``). A ``schema_version`` field pins the layout.

The same key set drives command-line overrides (``--set key=value``);
unknown keys are rejected, never ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .budget import CostModel
from .domain import BudgetConfig, EvalConfig, FrameClock, PolicyConfig
from .errors import ConfigError, InvalidParam, ParseError
from .tracker import TrackerConfig


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; validation lives in the member types."""

    clock: FrameClock
    budget: BudgetConfig
    policy: PolicyConfig
    tracker: TrackerConfig
    cost: CostModel
    eval: EvalConfig
    base_bitrate_measured: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.base_bitrate_measured is not None and self.base_bitrate_measured < 0:
            raise InvalidParam(
                f"base_bitrate_measured must be >= 0, got {self.base_bitrate_measured}"
            )


SCHEMA_VERSION = 1

# key -> (type tag, default-as-text, help). Order here is the documented
# order in --help and in dumped files.
CONFIG_SCHEMA: dict[str, tuple[str, str, str]] = {
    "schema_version": ("int", "1", "config layout version (must be 1)"),
    "clock.fps": ("float", "15.0", "source frame rate in frames/s"),
    "clock.frame_stride": ("int", "5", "process every Nth frame"),
    "budget.b_total": ("float", "800000.0", "total bitrate cap in bits/s"),
    "budget.b_video": ("float", "650000.0", "base video bitrate in bits/s"),
    "budget.b_roi": ("float", "150000.0", "ROI side-channel bitrate in bits/s"),
    "budget.window_s": ("float", "2.0", "rolling budget window length in s"),
    "policy.variant": ("str", "M5", "policy name (M0..M5 or preset_*)"),
    "policy.period_frames": ("int", "15", "M1 refresh period in frames"),
    "policy.conf_threshold": ("opt_float", "none", "M3 confidence gate"),
    "policy.area_threshold": ("opt_float", "none", "M4 area gate in px^2"),
    "policy.score_threshold": ("opt_float", "none", "M5 minimum score"),
    "policy.top_k": ("opt_int", "none", "per-frame selection cap override"),
    "policy.cooldown_frames": ("int", "30", "novelty-term cooldown in frames"),
    "policy.weights": ("weights", "0.5,0.3,0.2", "score weights w_u,w_s,w_n"),
    "tracker.iou_min": ("float", "0.3", "minimum IoU to extend a track"),
    "tracker.max_misses": ("int", "10", "processed-frame misses before retiring"),
    "tracker.use_hints": ("bool", "false", "trust annotation track ids"),
    "cost.header_bytes": ("int", "400", "fixed per-ROI container overhead"),
    "cost.bits_per_pixel": ("float", "0.55", "compressed still bits per pixel"),
    "cost.resize_edge": ("opt_float", "none", "model crops at this square edge"),
    "cost.pad_ratio": ("float", "0.15", "context padding per box side"),
    "eval.lambda_cls": ("opt_float", "none", "utility weight for semantic gain"),
    "eval.duration_s": ("opt_float", "none", "explicit evaluation duration in s"),
    "base_bitrate_measured": ("opt_float", "none", "measured base bitrate in bits/s"),
    "seed": ("int", "0", "run seed (synthetic inputs, noise injection)"),
}


def _finite(key: str, text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"bad value for {key}: {text!r} (must be finite)")
    return value


def parse_value(key: str, text: str):
    """The typed value of one schema key given as text."""
    kind = CONFIG_SCHEMA[key][0]
    if not isinstance(text, str):
        raise ConfigError(f"bad value for {key}: {text!r} (expected text)")
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return _finite(key, text)
        if kind == "str":
            return text
        if kind == "bool":
            low = text.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError(text)
        if kind == "opt_float":
            return None if text.lower() == "none" else _finite(key, text)
        if kind == "opt_int":
            return None if text.lower() == "none" else int(text)
        if kind == "weights":
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != 3:
                raise ValueError(text)
            return tuple(_finite(key, p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {text!r} (expected {kind})") from None
    raise ConfigError(f"unknown schema kind {kind!r} for {key}")


def _format_value(kind: str, value) -> str:
    if value is None:
        return "none"
    if kind == "bool":
        return "true" if value else "false"
    if kind == "weights":
        return ",".join(repr(float(w)) for w in value)
    if kind in ("float", "opt_float"):
        return repr(float(value))
    return str(value)


def parse_kv_text(text: str) -> dict[str, str]:
    """Split a config document into raw key/value strings."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(line_no, "empty key")
        if key in values:
            raise ParseError(line_no, f"duplicate key {key!r}")
        values[key] = value.strip()
    return values


#: Section prefix -> its RunConfig member type, in build order: when several
#: values are bad, the first section's error wins (and sets the exit code).
#: Keys without a prefix are top-level RunConfig fields.
_SECTIONS = {
    "clock": FrameClock,
    "budget": BudgetConfig,
    "policy": PolicyConfig,
    "tracker": TrackerConfig,
    "cost": CostModel,
    "eval": EvalConfig,
}


def build_config(values: dict[str, str]) -> RunConfig:
    """Construct a RunConfig from raw strings, applying schema defaults."""
    unknown = sorted(set(values) - set(CONFIG_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    sections: dict[str, dict] = {name: {} for name in _SECTIONS}
    top: dict[str, object] = {}
    for key, (_, default, _) in CONFIG_SCHEMA.items():
        section, _, name = key.rpartition(".")
        (sections[section] if section else top)[name] = parse_value(
            key, values.get(key, default)
        )

    version = top.pop("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    return RunConfig(
        **{name: _SECTIONS[name](**fields) for name, fields in sections.items()}, **top
    )


def dump_config(cfg: RunConfig) -> dict[str, str]:
    """Canonical flat form of a RunConfig; build_config(dump_config(cfg)) == cfg."""
    return {
        key: _format_value(
            kind, SCHEMA_VERSION if key == "schema_version" else attrgetter(key)(cfg)
        )
        for key, (kind, _, _) in CONFIG_SCHEMA.items()
    }


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``key=value`` overrides on top of a config; build_config
    rejects unknown keys."""
    flat = dump_config(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        flat[key.strip()] = value.strip()
    return build_config(flat)


def schema_help() -> str:
    """One line per config key, for --help output."""
    lines = []
    for key, (kind, default, help_text) in CONFIG_SCHEMA.items():
        lines.append(f"  {key} ({kind}, default {default}): {help_text}")
    return "\n".join(lines)

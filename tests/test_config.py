import pytest

import roitel
from roitel import config, engine
from roitel import BudgetConfigError, ConfigError, FrameClock, InvalidParam, ParseError
from roitel import BudgetConfig, CostModel, EvalConfig, PolicyConfig, RunConfig, TrackerConfig
from roitel.config import (
    CONFIG_SCHEMA,
    apply_overrides,
    build_config,
    dump_config,
    parse_kv_text,
    schema_help,
)


def test_run_config_is_importable_from_engine_and_package():
    assert engine.RunConfig is config.RunConfig is roitel.RunConfig


def test_empty_text_yields_documented_defaults():
    cfg = build_config(parse_kv_text(""))
    assert cfg.clock.fps == 15.0
    assert cfg.clock.frame_stride == 5
    # a stream without a clock comment carries FrameClock(), and the CLI
    # takes a stream's clock over the schema default
    assert cfg.clock == FrameClock()
    assert cfg.budget.b_total == 800000.0
    assert cfg.budget.b_video == 650000.0
    assert cfg.budget.b_roi == 150000.0
    assert cfg.budget.window_s == 2.0
    assert cfg.policy.variant == "M5"
    assert cfg.policy.period_frames == 15
    assert cfg.policy.conf_threshold is None
    assert cfg.policy.score_threshold is None
    assert cfg.policy.top_k is None
    assert cfg.policy.cooldown_frames == 30
    assert cfg.policy.weights == (0.5, 0.3, 0.2)
    assert cfg.tracker.iou_min == 0.3
    assert cfg.tracker.max_misses == 10
    assert cfg.tracker.use_hints is False
    assert cfg.cost.header_bytes == 400
    assert cfg.cost.bits_per_pixel == 0.55
    assert cfg.cost.resize_edge is None
    assert cfg.cost.pad_ratio == 0.15
    assert cfg.eval.lambda_cls is None
    assert cfg.eval.duration_s is None
    assert cfg.base_bitrate_measured is None
    assert cfg.seed == 0


def test_the_schema_defaults_are_the_types_own_defaults():
    # so --help and a dumped file say what a library caller gets; the split
    # has no default of its own
    cfg = build_config({})
    split = (cfg.budget.b_total, cfg.budget.b_video, cfg.budget.b_roi)
    assert cfg == RunConfig(
        FrameClock(),
        BudgetConfig(*split),
        PolicyConfig(),
        TrackerConfig(),
        CostModel(),
        EvalConfig(),
    )


def test_parse_kv_grammar():
    text = "# comment\n\nclock.fps = 30.0\npolicy.variant=M3   \n"
    assert parse_kv_text(text) == {"clock.fps": "30.0", "policy.variant": "M3"}


def test_parse_kv_rejects_missing_equals():
    with pytest.raises(ParseError) as exc:
        parse_kv_text("clock.fps 30.0\n")
    assert exc.value.line_no == 1


def test_parse_kv_rejects_empty_key():
    with pytest.raises(ParseError, match="empty key"):
        parse_kv_text("= 5\n")


def test_parse_kv_rejects_duplicate_key():
    with pytest.raises(ParseError, match="duplicate"):
        parse_kv_text("seed = 1\nseed = 2\n")


def test_unknown_keys_rejected_with_names():
    with pytest.raises(ConfigError, match="unknown config keys: policy.variatn"):
        build_config({"policy.variatn": "M5"})


def test_schema_version_pinned():
    assert build_config(parse_kv_text("schema_version = 1\n")).seed == 0
    with pytest.raises(ConfigError, match="schema_version"):
        build_config(parse_kv_text("schema_version = 2\n"))


def test_values_parse_and_flow_through():
    cfg = build_config(
        parse_kv_text(
            "clock.fps = 30.0\n"
            "clock.frame_stride = 2\n"
            "policy.variant = M3\n"
            "policy.conf_threshold = 0.4\n"
            "policy.top_k = 3\n"
            "policy.weights = 0.6, 0.2, 0.2\n"
            "tracker.use_hints = true\n"
            "cost.resize_edge = 96\n"
            "eval.duration_s = 52.54\n"
            "base_bitrate_measured = 801000\n"
        )
    )
    assert cfg.clock.fps == 30.0
    assert cfg.policy.variant == "M3"
    assert cfg.policy.conf_threshold == 0.4
    assert cfg.policy.top_k == 3
    assert cfg.policy.weights == (0.6, 0.2, 0.2)
    assert cfg.tracker.use_hints is True
    assert cfg.cost.resize_edge == 96.0
    assert cfg.eval.duration_s == 52.54
    assert cfg.base_bitrate_measured == 801000.0


@pytest.mark.parametrize(
    "line",
    [
        "clock.fps = fast",
        "clock.frame_stride = 2.5",
        "tracker.use_hints = yes",
        "policy.weights = 0.5,0.5",
        "policy.top_k = maybe",
    ],
)
def test_bad_values_name_the_key(line):
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        build_config(parse_kv_text(line + "\n"))


@pytest.mark.parametrize("value", [0.0, 5, None, True])
def test_a_value_that_is_not_text_names_the_key(value):
    # a library caller may pass typed values; each is a ConfigError, not a
    # stray AttributeError from the parser
    with pytest.raises(ConfigError, match=r"bad value for policy\.score_threshold: .*text"):
        build_config({"policy.score_threshold": value})


def test_invalid_domain_values_surface_from_member_types():
    # parsing succeeds; the domain type rejects the semantics
    with pytest.raises(Exception, match="b_video"):
        build_config(parse_kv_text("budget.b_video = 900000\n"))


def test_dump_load_round_trip():
    cfg = build_config(
        parse_kv_text(
            "policy.variant = preset_balanced_top2\n"
            "policy.score_threshold = 0.0\n"
            "budget.window_s = 1.5\n"
            "seed = 7\n"
        )
    )
    again = build_config(dump_config(cfg))
    assert again == cfg


def test_dump_covers_every_schema_key():
    flat = dump_config(build_config(parse_kv_text("")))
    assert set(flat) == set(CONFIG_SCHEMA)
    assert flat["policy.conf_threshold"] == "none"
    assert flat["tracker.use_hints"] == "false"
    assert flat["policy.weights"] == "0.5,0.3,0.2"


def test_defaults_dump_to_schema_defaults():
    flat = dump_config(build_config(parse_kv_text("")))
    for key, (kind, default, _) in CONFIG_SCHEMA.items():
        assert flat[key] == default, key


def test_apply_overrides():
    cfg = build_config(parse_kv_text(""))
    out = apply_overrides(cfg, ["policy.variant=M2", "clock.fps=30"])
    assert out.policy.variant == "M2"
    assert out.clock.fps == 30.0
    assert out.budget == cfg.budget  # untouched parts preserved


def test_apply_overrides_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys: policy.varaint"):
        apply_overrides(build_config(parse_kv_text("")), ["policy.varaint=M2"])


def test_apply_overrides_rejects_malformed_item():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(build_config(parse_kv_text("")), ["policy.variant"])


def test_schema_help_lists_every_key():
    text = schema_help()
    for key in CONFIG_SCHEMA:
        assert key in text


#: A valid, non-default value per key, in the canonical form dump_config
#: writes. schema_version has no valid non-default value.
NON_DEFAULT = {
    "clock.fps": "30.0",
    "clock.frame_stride": "3",
    "budget.b_total": "900000.0",
    "budget.b_video": "600000.0",
    "budget.b_roi": "100000.0",
    "budget.window_s": "1.5",
    "policy.variant": "M3",
    "policy.period_frames": "20",
    "policy.conf_threshold": "0.4",
    "policy.area_threshold": "512.0",
    "policy.score_threshold": "0.0",
    "policy.top_k": "3",
    "policy.cooldown_frames": "12",
    "policy.weights": "0.6,0.2,0.2",
    "tracker.iou_min": "0.45",
    "tracker.max_misses": "4",
    "tracker.use_hints": "true",
    "cost.header_bytes": "200",
    "cost.bits_per_pixel": "0.7",
    "cost.resize_edge": "96.0",
    "cost.pad_ratio": "0.1",
    "eval.lambda_cls": "0.5",
    "eval.duration_s": "52.5",
    "base_bitrate_measured": "801000.0",
    "seed": "7",
}


def test_non_default_table_covers_the_schema():
    assert set(NON_DEFAULT) == set(CONFIG_SCHEMA) - {"schema_version"}


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_each_key_routes_to_its_own_field(key):
    defaults = dump_config(build_config({}))
    assert defaults[key] != NON_DEFAULT[key]
    flat = dump_config(build_config({key: NON_DEFAULT[key]}))
    assert flat == {**defaults, key: NON_DEFAULT[key]}


def test_sections_are_built_in_schema_order():
    # a bad clock and a bad budget: the clock is built first, so its error wins
    with pytest.raises(InvalidParam, match="fps"):
        build_config({"clock.fps": "0", "budget.b_total": "-1"})
    with pytest.raises(BudgetConfigError):
        build_config({"budget.b_total": "-1"})


FLOAT_KEYS = [
    key
    for key, (kind, _, _) in CONFIG_SCHEMA.items()
    if kind in ("float", "opt_float", "weights")
]


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_float_keys_reject_non_finite_values(key, token):
    value = f"{token},0.3,0.2" if CONFIG_SCHEMA[key][0] == "weights" else token
    with pytest.raises(ConfigError, match=f"bad value for {key.replace('.', '[.]')}"):
        build_config({key: value})

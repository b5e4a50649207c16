import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etrlab.config import (
    DEFAULT_SUITE,
    METHODS,
    ConfigError,
    TrainConfig,
    apply_overrides,
    build_strategy,
    load_config,
    parse_config,
    parse_suite,
    render_config,
    render_suite,
    validate_config,
)
from etrlab.objectives import ClipHigh, Elastic, Static, clip_bounds
from etrlab.policy import MIN_TEMPERATURE
from etrlab.tasks import FAMILIES, TaskSpec


def test_empty_file_gives_defaults():
    cfg = parse_config("")
    assert cfg == TrainConfig()
    assert cfg.epsilon_base == 0.2
    assert cfg.lambda1 == 0.1
    assert cfg.lambda2 == 0.1
    assert cfg.kl_coef == 0.001
    assert cfg.group_size == 8
    assert cfg.suite == DEFAULT_SUITE


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nseed = 7  # trailing\n")
    assert cfg.seed == 7


def test_render_parse_round_trip():
    cfg = TrainConfig(
        method="cliphigh",
        seed=9,
        learning_rate=0.003,
        suite=(TaskSpec("copy", 3, 0.25), TaskSpec("parity", 1, 2.0)),
    )
    text = render_config(cfg)
    assert parse_config(text) == cfg
    # canonical text is a fixed point
    assert render_config(parse_config(text)) == text
    assert text.endswith("\n")


def test_render_uses_repr_floats():
    text = render_config(TrainConfig())
    assert "learning_rate = 0.01" in text
    assert "kl_coef = 0.001" in text
    assert "adam_eps = 1e-08" in text


def test_suite_parsing_and_rendering():
    suite = parse_suite("parity:2, digitsum:1@0.5 ,copy:3@2.0")
    assert suite == (
        TaskSpec("parity", 2, 1.0),
        TaskSpec("digitsum", 1, 0.5),
        TaskSpec("copy", 3, 2.0),
    )
    assert render_suite(suite) == "parity:2@1.0,digitsum:1@0.5,copy:3@2.0"
    assert parse_suite(render_suite(suite)) == suite


@pytest.mark.parametrize(
    "text",
    [
        "",
        "parity",
        "parity:x",
        "parity:0",
        "sorting:2",
        "parity:2@heavy",
        "parity:2@0.0",
        "parity:2,parity:2",
    ],
)
def test_suite_rejections(text):
    with pytest.raises(ConfigError):
        parse_suite(text)


def test_unknown_key_names_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("seed = 1\nlearning_rte = 0.1\n")
    assert "line 2" in str(exc.value)
    assert exc.value.line == 2


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("seed = 1\nseed = 2\n")
    assert exc.value.line == 2


def test_missing_equals_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("seed 1\n")
    assert exc.value.line == 1


def test_negative_lambda_rejected_with_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("# header\nlambda1 = -0.1\n")
    assert exc.value.line == 2
    assert "lambda1" in str(exc.value)


def test_band_inversion_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("epsilon_base = 0.05\n")
    assert "band inversion" in str(exc.value)
    assert exc.value.line == 1
    # static methods ignore the elastic band, so the same value is fine
    cfg = parse_config("epsilon_base = 0.05\nmethod = grpo\n")
    assert cfg.epsilon_base == 0.05


# Per method: overrides whose band reaches half-width 1 under the ratio,
# and the keys the message names (a lambda the method zeroes is not named).
WIDE_BANDS = [
    ("grpo", ["epsilon_base=1.0"], "epsilon_base"),
    ("cliphigh", ["epsilon_base=1.5"], "epsilon_base"),
    ("etr", ["epsilon_base=0.6", "lambda1=0.3", "lambda2=0.5"], "epsilon_base + lambda1 + lambda2"),
    ("etr-micro", ["epsilon_base=0.6", "lambda1=0.4"], "epsilon_base + lambda1"),
    ("etr-macro", ["epsilon_base=0.5", "lambda2=0.5"], "epsilon_base + lambda2"),
    ("etr-inverse", ["lambda2=0.7"], "epsilon_base + lambda1 + lambda2"),
    # lambda1 = 0 makes etr-inverse's coefficient -0.0, which is falsy.
    ("etr-inverse", ["lambda1=0.0", "lambda2=0.8"], "epsilon_base + lambda2"),
]


@pytest.mark.parametrize("method, wide, keys", WIDE_BANDS)
def test_band_reaching_half_width_one_is_rejected_in_files_overrides_and_code(method, wide, keys):
    message = f"{method} clip band reaches half-width {re.escape(keys)} = .*; it must stay below 1"
    # The line named is the band key's last line, not the file's last line.
    text = "\n".join(["seed = 3", f"method = {method}", *(w.replace("=", " = ") for w in wide)])
    with pytest.raises(ConfigError, match=f"line {2 + len(wide)}: {message}"):
        parse_config(text + "\nsteps = 5\n")
    with pytest.raises(ConfigError, match=message):
        apply_overrides(TrainConfig(), [f"method={method}", *wide])
    values = {k: float(v) for k, v in (w.split("=") for w in wide)}
    with pytest.raises(ConfigError, match=message):
        validate_config(dataclasses.replace(TrainConfig(), method=method, **values))


def test_inverse_band_width_is_a_positive_sum():
    # etr-inverse's band is built with -lambda1; it reaches base + lambda1 +
    # lambda2 as A -> -inf, so the message sums the magnitudes.
    keys = "epsilon_base + lambda1 + lambda2"
    message = f"etr-inverse clip band reaches half-width {keys} = {0.2 + 0.1 + 0.7!r};"
    with pytest.raises(ConfigError, match=re.escape(message)):
        apply_overrides(TrainConfig(), ["method=etr-inverse", "lambda2=0.7"])


def test_band_check_counts_only_the_half_widths_a_method_keeps():
    # etr-micro zeroes lambda2, etr-macro zeroes lambda1, and cliphigh's
    # upper half-width bounds no ratio from below.
    for overrides in (
        ["method=etr-micro", "lambda2=5.0"],
        ["method=etr-macro", "lambda1=5.0"],
        ["method=cliphigh", "epsilon_high=5.0"],
        ["method=grpo", "lambda1=0.15", "lambda2=5.0"],
        # 0.6 + 0.3 + 0.1 sums to just below 1 in floating point, as the
        # program's own half-widths do.
        ["epsilon_base=0.6", "lambda1=0.3", "lambda2=0.1"],
    ):
        apply_overrides(TrainConfig(), overrides)
    for method in METHODS:
        validate_config(dataclasses.replace(TrainConfig(), method=method))


@settings(max_examples=300)
@given(
    st.sampled_from(METHODS),
    *(st.floats(0.0, 2.0) for _ in range(4)),
    st.floats(-1e300, 1e300),
    st.floats(0.0, 1.0),
)
def test_every_accepted_band_keeps_its_ratio_bounds_around_one(
    method, base, high, lambda1, lambda2, advantage, pass_rate
):
    cfg = dataclasses.replace(
        TrainConfig(),
        method=method,
        epsilon_base=base,
        epsilon_high=high,
        lambda1=lambda1,
        lambda2=lambda2,
    )
    try:
        validate_config(cfg)
    except ConfigError:
        return
    for a in (advantage, -np.inf, np.inf, 0.0):
        lo, hi = clip_bounds(build_strategy(cfg), a, pass_rate)
        assert 0.0 < lo <= 1.0 <= hi


def test_cross_key_validation():
    with pytest.raises(ConfigError):
        parse_config("group_size = 1\n")
    with pytest.raises(ConfigError):
        parse_config("method = sgd\n")
    with pytest.raises(ConfigError) as exc:
        parse_config("content_tokens = 5\n")  # default suite has digitsum
    assert "content_tokens" in str(exc.value)
    cfg = parse_config("content_tokens = 5\nsuite = copy:2\n")
    assert cfg.content_tokens == 5
    with pytest.raises(ConfigError):
        validate_config(dataclasses.replace(TrainConfig(), method="nope"))


def test_answers_longer_than_the_rollout_budget_rejected():
    # copy:8 needs 8 content tokens plus EOS, one more than the default budget
    with pytest.raises(ConfigError) as exc:
        parse_config("seed = 2\nsuite = copy:8\n")
    assert exc.value.line == 2
    assert "max_response_len" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config("suite = parity:1,digitsum:4\nmax_response_len = 4\n")
    assert exc.value.line == 2
    assert parse_config("suite = copy:7\n").suite == (TaskSpec("copy", 7),)
    assert parse_config("suite = copy:8\nmax_response_len = 9\n").max_response_len == 9
    assert parse_config("suite = parity:9\nmax_response_len = 2\n").max_response_len == 2
    with pytest.raises(ConfigError):
        parse_config("suite = parity:1\nmax_response_len = 1\n")
    with pytest.raises(ConfigError):
        apply_overrides(TrainConfig(), ["suite=digitsum:8"])


@pytest.mark.parametrize(
    "line",
    [
        "steps = 0",
        "steps = three",
        "groups_per_step = -4",
        "learning_rate = 0.0",
        "adam_beta1 = 1.0",
        "adam_beta2 = -0.1",
        "adam_eps = 0",
        "weight_decay = -1",
        "grad_clip = 0",
        "kl_coef = -0.001",
        "advantage_xi = 0",
        "temperature = 0",
        "temperature = 1e-4",
        "inner_epochs = 0",
        "eval_n = 0",
        "max_response_len = 0",
        "init_scale = -0.5",
        "seed = -1",
    ],
)
def test_scalar_rejections(line):
    with pytest.raises(ConfigError) as exc:
        parse_config(line + "\n")
    assert exc.value.line == 1


NON_FINITE = ("inf", "-inf", "nan", "Infinity", "+inf", "1e999")


@pytest.mark.parametrize("raw", NON_FINITE)
@pytest.mark.parametrize(
    "key",
    ["learning_rate", "adam_eps", "grad_clip", "advantage_xi", "temperature"],
)
def test_positive_floats_must_be_finite(key, raw):
    with pytest.raises(ConfigError, match=f"line 2: {key} must be a finite number"):
        parse_config(f"seed = 3\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
        apply_overrides(TrainConfig(), [f"{key}={raw}"])


@pytest.mark.parametrize("raw", NON_FINITE)
@pytest.mark.parametrize(
    "key",
    ["weight_decay", "kl_coef", "epsilon_base", "epsilon_high", "lambda1", "lambda2", "init_scale"],
)
def test_non_negative_floats_must_be_finite(key, raw):
    with pytest.raises(ConfigError, match=f"line 2: {key} must be a finite number"):
        parse_config(f"seed = 3\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
        apply_overrides(TrainConfig(), [f"{key}={raw}"])


@pytest.mark.parametrize("raw", NON_FINITE)
@pytest.mark.parametrize("key", ["adam_beta1", "adam_beta2"])
def test_unit_floats_must_be_finite(key, raw):
    with pytest.raises(ConfigError, match=f"line 2: {key} must be a finite number"):
        parse_config(f"seed = 3\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
        apply_overrides(TrainConfig(), [f"{key}={raw}"])


@pytest.mark.parametrize("raw", ["inf", "nan", "1e999"])
def test_suite_weights_must_be_finite(raw):
    with pytest.raises(ConfigError, match="line 2: .*positive and finite"):
        parse_config(f"seed = 3\nsuite = parity:2,copy:1@{raw}\n")
    with pytest.raises(ConfigError, match="positive and finite"):
        apply_overrides(TrainConfig(), [f"suite=parity:2@{raw}"])


def test_every_float_key_is_checked_for_finiteness():
    float_keys = [f.name for f in dataclasses.fields(TrainConfig) if f.type == "float"]
    assert len(float_keys) == 14
    for key in float_keys:
        with pytest.raises(ConfigError, match="finite"):
            parse_config(f"{key} = inf\n")
        # A config built in code is caught by validate_config, by key name.
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            validate_config(dataclasses.replace(TrainConfig(), **{key: float("inf")}))


def test_temperature_floor_holds_for_files_overrides_and_code():
    assert parse_config("temperature = 0.001\n").temperature == 0.001
    with pytest.raises(ConfigError, match="line 1: temperature must be at least 0.001"):
        parse_config("temperature = 1e-4\n")
    with pytest.raises(ConfigError, match="temperature must be at least 0.001"):
        apply_overrides(TrainConfig(), ["temperature=1e-300"])
    with pytest.raises(ConfigError, match="temperature must be at least 0.001"):
        validate_config(dataclasses.replace(TrainConfig(), temperature=1e-10))


def test_build_strategy_per_method():
    cfg = TrainConfig()
    assert build_strategy(dataclasses.replace(cfg, method="grpo")) == Static(0.2)
    assert build_strategy(dataclasses.replace(cfg, method="cliphigh")) == ClipHigh(0.2, 0.28)
    assert build_strategy(dataclasses.replace(cfg, method="etr")) == Elastic(0.2, 0.1, 0.1)
    assert build_strategy(dataclasses.replace(cfg, method="etr-micro")) == Elastic(0.2, 0.1, 0.0)
    assert build_strategy(dataclasses.replace(cfg, method="etr-macro")) == Elastic(0.2, 0.0, 0.1)
    assert build_strategy(dataclasses.replace(cfg, method="etr-inverse")) == Elastic(0.2, -0.1, 0.1)
    assert set(METHODS) == {"grpo", "cliphigh", "etr", "etr-micro", "etr-macro", "etr-inverse"}


def test_apply_overrides():
    cfg = apply_overrides(TrainConfig(), ["steps=5", "method=grpo"])
    assert cfg.steps == 5
    assert cfg.method == "grpo"
    with pytest.raises(ConfigError):
        apply_overrides(TrainConfig(), ["steps"])
    with pytest.raises(ConfigError):
        apply_overrides(TrainConfig(), ["velocity=3"])
    with pytest.raises(ConfigError):
        apply_overrides(TrainConfig(), ["epsilon_base=0.05"])


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nmethod = etr-macro\n")
    cfg = load_config(path)
    assert cfg.seed == 3
    assert cfg.method == "etr-macro"


def _floats(low: float, high: float = math.inf, exclude_low: bool = False):
    return st.floats(low, high, exclude_min=exclude_low, exclude_max=True)


_SUITES = st.lists(
    st.builds(
        TaskSpec,
        st.sampled_from(FAMILIES),
        st.integers(1, 4),
        _floats(0.0, exclude_low=True),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda spec: (spec.family, spec.difficulty),
).map(tuple)

# A band key drawn from [0, inf) mostly makes the band 1 or wider, which
# the config rejects; three draws in four stay below 0.3, so most bands
# pass and the width and inversion checks are still reached.
_BAND_TERM = st.one_of(_floats(0.0, 0.3), _floats(0.0, 0.3), _floats(0.0, 0.3), _floats(0.0))

# One strategy per key, each drawing only values inside the key's own bound.
_KEY_VALUES = {
    "method": st.sampled_from(METHODS),
    "seed": st.integers(0, 2**64),
    "group_size": st.integers(2, 10**6),
    "learning_rate": _floats(0.0, exclude_low=True),
    "adam_beta1": _floats(0.0, 1.0),
    "adam_beta2": _floats(0.0, 1.0),
    "adam_eps": _floats(0.0, exclude_low=True),
    "weight_decay": _floats(0.0),
    "grad_clip": _floats(0.0, exclude_low=True),
    "kl_coef": _floats(0.0),
    "epsilon_base": _BAND_TERM,
    "epsilon_high": _floats(0.0),
    "lambda1": _BAND_TERM,
    "lambda2": _BAND_TERM,
    "advantage_xi": _floats(0.0, exclude_low=True),
    "suite": _SUITES,
    "temperature": _floats(MIN_TEMPERATURE),
    "init_scale": _floats(0.0),
    **{
        key: st.integers(1, 10**6)
        for key in (
            "steps",
            "groups_per_step",
            "max_response_len",
            "inner_epochs",
            "eval_every",
            "eval_n",
            "eval_prompts",
            "context_window",
            "embed_dim",
            "hidden_dim",
            "content_tokens",
        )
    },
}


def test_key_strategies_cover_every_key():
    assert set(_KEY_VALUES) == {f.name for f in dataclasses.fields(TrainConfig)}


@settings(max_examples=300)
@given(st.fixed_dictionaries({}, optional=_KEY_VALUES))
def test_every_key_round_trips_through_its_text(updates):
    cfg = dataclasses.replace(TrainConfig(), **updates)
    try:
        validate_config(cfg)
    except ConfigError as exc:
        # Within each key's bound only a cross-key invariant can fail, and
        # the text form fails it the same way, naming a line.
        with pytest.raises(ConfigError) as from_text:
            parse_config(render_config(cfg))
        assert str(from_text.value) == f"line {from_text.value.line}: {exc}"
        return
    back = parse_config(render_config(cfg))
    assert back == cfg
    for f in dataclasses.fields(TrainConfig):
        assert type(getattr(back, f.name)) is type(getattr(cfg, f.name))
    assert [type(spec.weight) for spec in back.suite] == [float] * len(cfg.suite)


_RAW_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-(10**6), 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(METHODS + ("parity:2,copy:1@0.5", "digitsum:0", "copy:1,copy:1")),
)
_LINES = st.one_of(
    st.text(max_size=24),
    st.builds(
        "{} = {}".format,
        st.sampled_from([f.name for f in dataclasses.fields(TrainConfig)] + ["velocity", ""]),
        _RAW_VALUES,
    ),
)


@settings(max_examples=400)
@given(st.lists(_LINES, max_size=6).map("\n".join))
def test_arbitrary_config_text_parses_or_names_its_line(text):
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert exc.line is not None and 1 <= exc.line <= len(text.splitlines())
        assert str(exc).startswith(f"line {exc.line}: ")
        return
    assert parse_config(render_config(cfg)) == cfg


@settings(max_examples=300)
@given(st.lists(st.one_of(st.text(max_size=24), _LINES.map(lambda s: s.replace(" ", ""))), max_size=4))
def test_arbitrary_overrides_apply_or_raise_config_error(overrides):
    try:
        cfg = apply_overrides(TrainConfig(), overrides)
    except ConfigError:
        return
    assert parse_config(render_config(cfg)) == cfg

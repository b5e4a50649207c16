import dataclasses

import pytest

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
from etrlab.objectives import ClipHigh, Elastic, Static
from etrlab.tasks import TaskSpec


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


def test_build_strategy_per_method():
    cfg = TrainConfig()
    assert build_strategy(dataclasses.replace(cfg, method="grpo")) == Static(0.2)
    assert build_strategy(dataclasses.replace(cfg, method="cliphigh")) == ClipHigh(0.2, 0.28)
    assert build_strategy(dataclasses.replace(cfg, method="etr")) == Elastic(0.2, 0.1, 0.1)
    assert build_strategy(dataclasses.replace(cfg, method="etr-micro")) == Elastic(
        0.2, 0.1, 0.0, "standard"
    )
    assert build_strategy(dataclasses.replace(cfg, method="etr-macro")) == Elastic(
        0.2, 0.0, 0.1, "standard"
    )
    assert build_strategy(dataclasses.replace(cfg, method="etr-inverse")) == Elastic(
        0.2, 0.1, 0.1, "inverse"
    )
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

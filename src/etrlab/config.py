"""Run configuration: a flat key = value text format with strict parsing.

Unknown keys, malformed values, and violated invariants are rejected with
the offending line number. ``parse_config(render_config(cfg))`` is the
identity; mixture weights are stored as written and normalized at
sampling time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .autodiff import ContractViolation
from .objectives import ClipHigh, ClipStrategy, Elastic, Static
from .tasks import FAMILIES, TaskSpec, answer_length

METHODS = ("grpo", "cliphigh", "etr", "etr-micro", "etr-macro", "etr-inverse")

# copy:2 is effectively unlearnable at this scale; its half weight keeps a
# stream of all-wrong groups in the mix without drowning the learnable tasks.
DEFAULT_SUITE = (
    TaskSpec("parity", 2, 1.0),
    TaskSpec("digitsum", 1, 1.0),
    TaskSpec("digitsum", 2, 1.0),
    TaskSpec("copy", 2, 0.5),
)


class ConfigError(ValueError):
    """Configuration rejected; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class TrainConfig:
    method: str = "etr"
    seed: int = 1
    steps: int = 300
    groups_per_step: int = 16
    group_size: int = 8
    learning_rate: float = 1e-2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    grad_clip: float = 1.0
    kl_coef: float = 0.001
    epsilon_base: float = 0.2
    epsilon_high: float = 0.28
    lambda1: float = 0.1
    lambda2: float = 0.1
    advantage_xi: float = 1e-6
    suite: tuple[TaskSpec, ...] = field(default_factory=lambda: DEFAULT_SUITE)
    max_response_len: int = 8
    temperature: float = 1.0
    inner_epochs: int = 2
    eval_every: int = 50
    eval_n: int = 32
    eval_prompts: int = 64
    init_scale: float = 0.1
    context_window: int = 4
    embed_dim: int = 16
    hidden_dim: int = 64
    content_tokens: int = 10


def parse_suite(text: str) -> tuple[TaskSpec, ...]:
    """Parse ``family:difficulty[@weight]`` entries separated by commas."""
    entries = []
    seen = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ConfigError("empty suite entry")
        weight = 1.0
        if "@" in chunk:
            chunk, wtext = chunk.split("@", 1)
            try:
                weight = float(wtext)
            except ValueError:
                raise ConfigError(f"bad suite weight {wtext!r}") from None
        if ":" not in chunk:
            raise ConfigError(f"suite entry {chunk!r} needs family:difficulty")
        family, dtext = chunk.split(":", 1)
        family = family.strip()
        if family not in FAMILIES:
            raise ConfigError(f"unknown task family {family!r}")
        try:
            difficulty = int(dtext)
        except ValueError:
            raise ConfigError(f"bad difficulty {dtext!r}") from None
        if (family, difficulty) in seen:
            raise ConfigError(f"duplicate suite entry {family}:{difficulty}")
        seen.add((family, difficulty))
        try:
            entries.append(TaskSpec(family, difficulty, weight))
        except ContractViolation as exc:
            raise ConfigError(str(exc)) from None
    if not entries:
        raise ConfigError("suite must not be empty")
    return tuple(entries)


def render_suite(suite: tuple[TaskSpec, ...]) -> str:
    return ",".join(f"{s.family}:{s.difficulty}@{s.weight!r}" for s in suite)


def _pos_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError("must be a positive integer")
    return value


def _nonneg_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("must be a non-negative integer")
    return value


def _pos_float(raw: str) -> float:
    value = float(raw)
    if not value > 0.0:
        raise ValueError("must be a positive number")
    return value


def _nonneg_float(raw: str) -> float:
    value = float(raw)
    if value < 0.0:
        raise ValueError("must be a non-negative number")
    return value


def _unit_float(raw: str) -> float:
    value = float(raw)
    if not 0.0 <= value < 1.0:
        raise ValueError("must lie in [0, 1)")
    return value


def _method(raw: str) -> str:
    if raw not in METHODS:
        raise ValueError(f"must be one of {', '.join(METHODS)}")
    return raw


_COERCERS = {
    "method": _method,
    "seed": _nonneg_int,
    "steps": _pos_int,
    "groups_per_step": _pos_int,
    "group_size": _pos_int,
    "learning_rate": _pos_float,
    "adam_beta1": _unit_float,
    "adam_beta2": _unit_float,
    "adam_eps": _pos_float,
    "weight_decay": _nonneg_float,
    "grad_clip": _pos_float,
    "kl_coef": _nonneg_float,
    "epsilon_base": _nonneg_float,
    "epsilon_high": _nonneg_float,
    "lambda1": _nonneg_float,
    "lambda2": _nonneg_float,
    "advantage_xi": _pos_float,
    "suite": parse_suite,
    "max_response_len": _pos_int,
    "temperature": _pos_float,
    "inner_epochs": _pos_int,
    "eval_every": _pos_int,
    "eval_n": _pos_int,
    "eval_prompts": _pos_int,
    "init_scale": _nonneg_float,
    "context_window": _pos_int,
    "embed_dim": _pos_int,
    "hidden_dim": _pos_int,
    "content_tokens": _pos_int,
}

_KEY_ORDER = tuple(f.name for f in dataclasses.fields(TrainConfig))


def build_strategy(cfg: TrainConfig) -> ClipStrategy:
    """Clip strategy implied by the configured method name."""
    if cfg.method == "grpo":
        return Static(cfg.epsilon_base)
    if cfg.method == "cliphigh":
        return ClipHigh(cfg.epsilon_base, cfg.epsilon_high)
    if cfg.method == "etr":
        return Elastic(cfg.epsilon_base, cfg.lambda1, cfg.lambda2, "standard")
    if cfg.method == "etr-micro":
        return Elastic(cfg.epsilon_base, cfg.lambda1, 0.0, "standard")
    if cfg.method == "etr-macro":
        return Elastic(cfg.epsilon_base, 0.0, cfg.lambda2, "standard")
    if cfg.method == "etr-inverse":
        return Elastic(cfg.epsilon_base, cfg.lambda1, cfg.lambda2, "inverse")
    raise ConfigError(f"unknown method {cfg.method!r}")


def validate_config(cfg: TrainConfig, lines: dict[str, int] | None = None) -> None:
    """Cross-key invariants; raises ConfigError naming a line when known."""
    lines = lines or {}

    def err(msg: str, *keys: str):
        line = max((lines.get(k, 0) for k in keys), default=0) or None
        raise ConfigError(msg, line)

    if cfg.method not in METHODS:
        err(f"unknown method {cfg.method!r}", "method")
    if cfg.steps < 1:
        err("steps must be at least 1", "steps")
    if not cfg.learning_rate > 0.0:
        err("learning_rate must be positive", "learning_rate")
    if cfg.group_size < 2:
        err("group_size must be at least 2", "group_size")
    if cfg.groups_per_step < 1:
        err("groups_per_step must be at least 1", "groups_per_step")
    if cfg.inner_epochs < 1:
        err("inner_epochs must be at least 1", "inner_epochs")
    if not cfg.temperature > 0.0:
        err("temperature must be positive", "temperature")
    try:
        build_strategy(cfg)
    except ContractViolation as exc:
        err(str(exc), "epsilon_base", "lambda1", "method")
    for spec in cfg.suite:
        if spec.family == "digitsum" and cfg.content_tokens < 10:
            err("digitsum tasks need content_tokens >= 10", "suite", "content_tokens")
        if spec.family == "parity" and cfg.content_tokens < 2:
            err("parity tasks need content_tokens >= 2", "suite", "content_tokens")
        # A rollout cut off before EOS is always wrong, so every reward and
        # advantage of that task would be exactly zero signal.
        if answer_length(spec) > cfg.max_response_len:
            err(
                f"{spec.label} answers take {answer_length(spec)} tokens, "
                f"more than max_response_len = {cfg.max_response_len}",
                "suite",
                "max_response_len",
            )


def parse_config(text: str) -> TrainConfig:
    """Parse flat key = value text; '#' starts a comment; keys are unique."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _COERCERS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        try:
            values[key] = _COERCERS[key](raw)
        except ConfigError as exc:
            raise ConfigError(str(exc), lineno) from None
        except ValueError as exc:
            detail = str(exc) or "malformed value"
            raise ConfigError(f"{key}: {detail}", lineno) from None
        lines[key] = lineno
    cfg = TrainConfig(**values)
    validate_config(cfg, lines)
    return cfg


def render_config(cfg: TrainConfig) -> str:
    """Canonical text form; floats use repr so parsing round-trips exactly."""
    out = []
    for key in _KEY_ORDER:
        value = getattr(cfg, key)
        if key == "suite":
            rendered = render_suite(value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        out.append(f"{key} = {rendered}")
    return "\n".join(out) + "\n"


def apply_overrides(cfg: TrainConfig, overrides: list[str]) -> TrainConfig:
    """Apply ``key=value`` override strings through the normal coercers."""
    updates: dict[str, object] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in _COERCERS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            updates[key] = _COERCERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {str(exc) or 'malformed value'}") from None
    cfg = dataclasses.replace(cfg, **updates)
    validate_config(cfg)
    return cfg


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

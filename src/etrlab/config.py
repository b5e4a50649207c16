"""Run configuration: a flat key = value text format with strict parsing.

Unknown keys, malformed values, and violated invariants are rejected with
the offending line number. ``parse_config(render_config(cfg))`` is the
identity; mixture weights are stored as written and normalized at
sampling time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .autodiff import ContractViolation
from .objectives import ClipHigh, ClipStrategy, Elastic, Static
from .policy import MIN_TEMPERATURE
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


# Each key's parser, the bound its value must meet, and the message naming
# that bound. A value that does not parse gets the same message.
_POS_INT = (int, lambda v: v >= 1, "{key} must be a positive integer")
_NONNEG_INT = (int, lambda v: v >= 0, "{key} must be a non-negative integer")
_POS_FLOAT = (float, lambda v: v > 0.0, "{key} must be a positive number")
_NONNEG_FLOAT = (float, lambda v: v >= 0.0, "{key} must be a non-negative number")
_UNIT_FLOAT = (float, lambda v: 0.0 <= v < 1.0, "{key} must lie in [0, 1)")

_KEYS = {
    "method": (
        str,
        METHODS.__contains__,
        "unknown method {raw!r}; must be one of " + ", ".join(METHODS),
    ),
    "seed": _NONNEG_INT,
    "steps": _POS_INT,
    "groups_per_step": _POS_INT,
    "group_size": (int, lambda v: v >= 2, "{key} must be at least 2"),
    "learning_rate": _POS_FLOAT,
    "adam_beta1": _UNIT_FLOAT,
    "adam_beta2": _UNIT_FLOAT,
    "adam_eps": _POS_FLOAT,
    "weight_decay": _NONNEG_FLOAT,
    "grad_clip": _POS_FLOAT,
    "kl_coef": _NONNEG_FLOAT,
    "epsilon_base": _NONNEG_FLOAT,
    "epsilon_high": _NONNEG_FLOAT,
    "lambda1": _NONNEG_FLOAT,
    "lambda2": _NONNEG_FLOAT,
    "advantage_xi": _POS_FLOAT,
    # parse_suite names the entry at fault itself; the message serves a
    # suite built in code that is not a tuple.
    "suite": (parse_suite, bool, "{key} must be a tuple of TaskSpec entries"),
    "max_response_len": _POS_INT,
    "temperature": (
        float,
        lambda v: v >= MIN_TEMPERATURE,
        f"{{key}} must be at least {MIN_TEMPERATURE!r}",
    ),
    "inner_epochs": _POS_INT,
    "eval_every": _POS_INT,
    "eval_n": _POS_INT,
    "eval_prompts": _POS_INT,
    "init_scale": _NONNEG_FLOAT,
    "context_window": _POS_INT,
    "embed_dim": _POS_INT,
    "hidden_dim": _POS_INT,
    "content_tokens": _POS_INT,
}


def _coerce(key: str, raw: str, line: int | None = None):
    """One key's value from its text, checked against the key's bound."""
    if key not in _KEYS:
        raise ConfigError(f"unknown key {key!r}", line)
    parse, fits, message = _KEYS[key]
    try:
        value = parse(raw)
    except ConfigError as exc:
        raise ConfigError(str(exc), line) from None
    except ValueError:
        raise ConfigError(message.format(key=key, raw=raw), line) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number", line)
    if not fits(value):
        raise ConfigError(message.format(key=key, raw=raw), line)
    return value


def _render(key: str, value) -> str:
    if key == "suite":
        return render_suite(value)
    return repr(value) if isinstance(value, float) else str(value)


def build_strategy(cfg: TrainConfig) -> ClipStrategy:
    """Clip strategy implied by the configured method name.

    The etr ablations drop one term of the elastic band by zeroing its
    lambda; etr-inverse flips the sign of the advantage term.
    """
    if cfg.method == "grpo":
        return Static(cfg.epsilon_base)
    if cfg.method == "cliphigh":
        return ClipHigh(cfg.epsilon_base, cfg.epsilon_high)
    if cfg.method not in METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}")
    return Elastic(
        cfg.epsilon_base,
        0.0 if cfg.method == "etr-macro" else cfg.lambda1,
        0.0 if cfg.method == "etr-micro" else cfg.lambda2,
        inverse=cfg.method == "etr-inverse",
    )


def validate_config(cfg: TrainConfig, lines: dict[str, int] | None = None) -> None:
    """Each key's bound and the cross-key invariants.

    Raises ConfigError naming a line when known.
    """
    lines = lines or {}

    def err(msg: str, *keys: str):
        line = max((lines.get(k, 0) for k in keys), default=0) or None
        raise ConfigError(msg, line)

    # A config built in code gets the checks a config file gets: each value
    # must come back from its rendered text unchanged, type included.
    for key in _KEYS:
        value = getattr(cfg, key)
        text = _render(key, value)
        back = _coerce(key, text, lines.get(key))
        if type(back) is not type(value) or back != value:
            err(_KEYS[key][2].format(key=key, raw=text), key)
    try:
        build_strategy(cfg)
    except ContractViolation as exc:
        err(str(exc), "epsilon_base", "lambda1", "method")
    for spec in cfg.suite:
        if spec.family == "digitsum" and cfg.content_tokens < 10:
            err("digitsum tasks need content_tokens >= 10", "suite", "content_tokens")
        if spec.family == "parity" and cfg.content_tokens < 2:
            err("parity tasks need content_tokens >= 2", "suite", "content_tokens")
        # A response takes its grammar's answer_length tokens; the key
        # bounds that length for every task of the suite.
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
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        values[key] = _coerce(key, raw, lineno)
        lines[key] = lineno
    cfg = TrainConfig(**values)
    validate_config(cfg, lines)
    return cfg


def render_config(cfg: TrainConfig) -> str:
    """Canonical text form; floats use repr so parsing round-trips exactly."""
    return "".join(
        f"{f.name} = {_render(f.name, getattr(cfg, f.name))}\n" for f in dataclasses.fields(cfg)
    )


def apply_overrides(cfg: TrainConfig, overrides: list[str]) -> TrainConfig:
    """Apply ``key=value`` override strings through the normal coercers."""
    updates: dict[str, object] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        updates[key] = _coerce(key, raw)
    cfg = dataclasses.replace(cfg, **updates)
    validate_config(cfg)
    return cfg


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

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


# The clip band each method builds from the config. The etr ablations drop
# one term of the elastic band by zeroing its lambda; etr-inverse negates
# the advantage term's coefficient.
_BANDS = {
    "grpo": lambda cfg: Static(cfg.epsilon_base),
    "cliphigh": lambda cfg: ClipHigh(cfg.epsilon_base, cfg.epsilon_high),
    "etr": lambda cfg: Elastic(cfg.epsilon_base, cfg.lambda1, cfg.lambda2),
    "etr-micro": lambda cfg: Elastic(cfg.epsilon_base, cfg.lambda1, 0.0),
    "etr-macro": lambda cfg: Elastic(cfg.epsilon_base, 0.0, cfg.lambda2),
    "etr-inverse": lambda cfg: Elastic(cfg.epsilon_base, -cfg.lambda1, cfg.lambda2),
}
METHODS = tuple(_BANDS)

# A key's parser, the bound its value must meet, and the message naming
# that bound. A value that does not parse gets the same message.
_POS_INT = (int, lambda v: v >= 1, "{key} must be a positive integer")
_NONNEG_INT = (int, lambda v: v >= 0, "{key} must be a non-negative integer")
_POS_FLOAT = (float, lambda v: v > 0.0, "{key} must be a positive number")
_NONNEG_FLOAT = (float, lambda v: v >= 0.0, "{key} must be a non-negative number")
_UNIT_FLOAT = (float, lambda v: 0.0 <= v < 1.0, "{key} must lie in [0, 1)")


def _key(default, check):
    """A config field with its default and its (parser, bound, message)."""
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True)
class TrainConfig:
    method: str = _key(
        "etr",
        (str, METHODS.__contains__, "unknown method {raw!r}; must be one of " + ", ".join(METHODS)),
    )
    seed: int = _key(1, _NONNEG_INT)
    steps: int = _key(300, _POS_INT)
    groups_per_step: int = _key(16, _POS_INT)
    group_size: int = _key(8, (int, lambda v: v >= 2, "{key} must be at least 2"))
    learning_rate: float = _key(1e-2, _POS_FLOAT)
    adam_beta1: float = _key(0.9, _UNIT_FLOAT)
    adam_beta2: float = _key(0.999, _UNIT_FLOAT)
    adam_eps: float = _key(1e-8, _POS_FLOAT)
    weight_decay: float = _key(0.0, _NONNEG_FLOAT)
    grad_clip: float = _key(1.0, _POS_FLOAT)
    kl_coef: float = _key(0.001, _NONNEG_FLOAT)
    epsilon_base: float = _key(0.2, _NONNEG_FLOAT)
    epsilon_high: float = _key(0.28, _NONNEG_FLOAT)
    lambda1: float = _key(0.1, _NONNEG_FLOAT)
    lambda2: float = _key(0.1, _NONNEG_FLOAT)
    advantage_xi: float = _key(1e-6, _POS_FLOAT)
    # parse_suite names the entry at fault itself; the message serves a
    # suite built in code that is not a tuple.
    suite: tuple[TaskSpec, ...] = _key(
        DEFAULT_SUITE, (parse_suite, bool, "{key} must be a tuple of TaskSpec entries")
    )
    max_response_len: int = _key(8, _POS_INT)
    temperature: float = _key(
        1.0,
        (float, lambda v: v >= MIN_TEMPERATURE, f"{{key}} must be at least {MIN_TEMPERATURE!r}"),
    )
    inner_epochs: int = _key(2, _POS_INT)
    eval_every: int = _key(50, _POS_INT)
    eval_n: int = _key(32, _POS_INT)
    eval_prompts: int = _key(64, _POS_INT)
    init_scale: float = _key(0.1, _NONNEG_FLOAT)
    context_window: int = _key(4, _POS_INT)
    embed_dim: int = _key(16, _POS_INT)
    hidden_dim: int = _key(64, _POS_INT)
    content_tokens: int = _key(10, _POS_INT)


_KEYS = {f.name: f.metadata["check"] for f in dataclasses.fields(TrainConfig)}


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
    """Clip strategy implied by the configured method name."""
    if cfg.method not in _BANDS:
        raise ConfigError(f"unknown method {cfg.method!r}")
    return _BANDS[cfg.method](cfg)


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
        band = build_strategy(cfg)
    except ContractViolation as exc:
        err(str(exc), "epsilon_base", "lambda1", "method")
    # A ratio is positive, so a lower bound 1 - epsilon at or below 0 never
    # binds and the band clips one side only. The band classes take any
    # width (a unit test may want one); a run's config may not. Below ratio
    # 1 the static bands are epsilon_base wide. An elastic band approaches
    # the sum of its terms, summed as dynamic_epsilon sums them: tanh
    # saturates and the macro term peaks at pass rate 0.5. A lambda the
    # method zeroes is not named.
    keys, width = ("epsilon_base",), cfg.epsilon_base
    if isinstance(band, Elastic):
        keys += tuple(key for key in ("lambda1", "lambda2") if getattr(band, key))
        width = band.epsilon_base + abs(band.lambda1) + band.lambda2
    if not width < 1.0:
        err(
            f"{cfg.method} clip band reaches half-width {' + '.join(keys)} = {width!r}; "
            "it must stay below 1",
            *keys,
            "method",
        )
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
    """Parse a config file; a byte that is not UTF-8 fails on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Numbered as parse_config numbers lines, by str.splitlines; the "x"
        # stands for the line the byte is on.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(f"byte {data[exc.start]:#04x} is not UTF-8 text", line) from None
    return parse_config(text)

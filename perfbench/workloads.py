"""The benchmark's workloads: set-up, one repeated body, fingerprints and checks.

Every workload runs in one process and repeats one fixed body over a
fixed cycle of config seeds. The workload seed is the config ``seed`` of
the first; the others are ``seed + j * SEED_STRIDE``. Nothing else varies
with it.
Bodies call the program through module attributes (``trainer.run_training``,
``metrics.load_checkpoint``) so the traced run's wrappers see those calls.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from etrlab import metrics, tasks, trainer
from etrlab.config import TrainConfig, parse_config
from etrlab.policy import PolicyParams, Vocab, init_params

# Chance-rate oracle of the uniform policy: each task's mean@N must lie
# within this many binomial standard errors of its exact chance rate. A
# benchmark pass checks four tasks on about eighty config seeds; 3 would
# fail a correct program on some seed in about every other pass, 4 in about
# one pass of fifty.
CHANCE_SE_LIMIT = 4.0

# Prompts per task in eval-ckpt: enough sampling to dominate the body.
EVAL_CKPT_PROMPTS = 512

# Config seeds of one run are seed, seed + SEED_STRIDE, seed + 2 * SEED_STRIDE,
# and so on, so two workload seeds below the stride never share one.
SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one body produced, read back outside the timed region."""

    fingerprints: dict[str, str]
    tokens: int
    mean_at_n: float
    checks: list[Check]


def _one_call_per_step(state, calls: list[float]) -> list[float]:
    return calls


@dataclass(frozen=True)
class Workload:
    name: str
    # The ``trainer`` function whose calls mark the start of each step.
    step_attr: str
    setup: Callable[[int, Path], object]
    body: Callable[[object], object]
    inspect: Callable[[object, object], Outcome]
    # Step durations from the durations between successive step_attr calls.
    steps: Callable[[object, list[float]], list[float]] = _one_call_per_step
    # Config seeds the bodies cycle through. The final mean@N of a single
    # training seed spreads by about 20% between seeds (quartile distance
    # over median), so mean_at_n is the mean over this many.
    subseeds: int = 1


def config_seeds(wl: Workload, seed: int) -> list[int]:
    """The config seeds one run of ``wl`` cycles through, ``seed`` first."""
    return [seed + j * SEED_STRIDE for j in range(wl.subseeds)]


def setup_all(wl: Workload, seed: int, work: Path) -> list:
    """One state per config seed, each with a work directory of its own."""
    return [wl.setup(s, work / f"seed{s}") for s in config_seeds(wl, seed)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def answer_length(spec: tasks.TaskSpec, vocab: Vocab) -> int:
    """Tokens in every response to ``spec``: the grammar fixes the length."""
    prompt = tasks.generate_prompt(spec, vocab, np.random.default_rng(0))
    return len(tasks.response_grammar(prompt, vocab))


def chance_rate(spec: tasks.TaskSpec, vocab: Vocab) -> float:
    """Exact mean@N of the uniform policy on ``spec``."""
    if spec.family == "parity":
        return 0.5
    if spec.family == "digitsum":
        return 0.1
    return (1.0 / vocab.n_content) ** spec.difficulty


# --- training workloads -----------------------------------------------------


@dataclass
class TrainState:
    cfg: TrainConfig
    out: Path


def _train_setup(overrides: str) -> Callable[[int, Path], TrainState]:
    def setup(seed: int, work: Path) -> TrainState:
        cfg = parse_config(f"seed = {seed}\n{overrides}")
        # Timed as part of set-up only; run_training initializes its own copy.
        init_params(
            Vocab(cfg.content_tokens),
            cfg.context_window,
            cfg.embed_dim,
            cfg.hidden_dim,
            cfg.seed,
            cfg.init_scale,
        )
        return TrainState(cfg, work / "run")

    return setup


def _train_body(state: TrainState):
    result = trainer.run_training(state.cfg)
    trainer.write_run_artifacts(result, state.out)
    return result


def _train_inspect(state: TrainState, result) -> Outcome:
    cfg = state.cfg
    log = result.metrics
    vocab = Vocab(cfg.content_tokens)
    params = result.params.to_vector()
    scalars = [v for m in log for v in (m.total, m.surrogate, m.kl, m.entropy, m.clip_frac)]
    scalars += [v for m in log if m.evals for pair in m.evals.values() for v in pair]
    finite = bool(np.all(np.isfinite(scalars)) and np.all(np.isfinite(params)))
    eval_rows = [m for m in log if m.evals]
    rollout_tokens = sum(round(m.resp_len * cfg.groups_per_step * cfg.group_size) for m in log)
    eval_tokens = len(eval_rows) * sum(
        cfg.eval_prompts * cfg.eval_n * answer_length(spec, vocab) for spec in cfg.suite
    )
    final = eval_rows[-1].evals
    return Outcome(
        fingerprints={
            "metrics_csv": _sha256((state.out / "metrics.csv").read_bytes()),
            "final_params": _sha256(params.astype("<f8").tobytes()),
        },
        tokens=rollout_tokens + eval_tokens,
        mean_at_n=float(np.mean([mean for mean, _ in final.values()])),
        checks=[Check("finite metrics and parameters", finite)],
    )


# --- eval-ckpt --------------------------------------------------------------


@dataclass
class EvalState:
    cfg: TrainConfig
    path: Path


def _eval_setup(seed: int, work: Path) -> EvalState:
    cfg = parse_config(f"seed = {seed}\neval_prompts = {EVAL_CKPT_PROMPTS}\n")
    vocab = Vocab(cfg.content_tokens)
    params = init_params(
        vocab, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, cfg.seed, cfg.init_scale
    )
    zeros = np.zeros(params.param_count)
    work.mkdir(parents=True, exist_ok=True)
    path = work / "zero.ckpt"
    metrics.save_checkpoint(path, zeros, zeros, zeros, 0, metrics.config_digest(cfg))
    return EvalState(cfg, path)


def _eval_body(state: EvalState):
    """What ``etrlab eval`` does after parsing its arguments."""
    cfg = state.cfg
    checkpoint = metrics.load_checkpoint(
        state.path, expected_digest=metrics.config_digest(cfg), strict=True
    )
    vocab = Vocab(cfg.content_tokens)
    params = PolicyParams.from_vector(
        vocab, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, checkpoint.params
    )
    return trainer.evaluate(
        params,
        cfg.suite,
        vocab,
        cfg.eval_n,
        cfg.eval_prompts,
        cfg.seed,
        round_index=0,
        temperature=cfg.temperature,
    )


def _eval_steps(state: EvalState, calls: list[float]) -> list[float]:
    """One step is one prompt of every task.

    ``evaluate`` runs task by task and answer lengths differ between
    tasks, so single prompts form two equal clusters and their median
    would jump between them.
    """
    per_task = np.reshape(calls, (len(state.cfg.suite), state.cfg.eval_prompts))
    return per_task.sum(axis=0).tolist()


def _eval_inspect(state: EvalState, results: dict[str, tuple[float, float]]) -> Outcome:
    cfg = state.cfg
    vocab = Vocab(cfg.content_tokens)
    draws = cfg.eval_prompts * cfg.eval_n
    checks = []
    for spec in cfg.suite:
        p = chance_rate(spec, vocab)
        se = math.sqrt(p * (1.0 - p) / draws)
        got = results[spec.label][0]
        checks.append(
            Check(
                f"{spec.label} mean@{cfg.eval_n} at chance {p:g}",
                abs(got - p) <= CHANCE_SE_LIMIT * se,
                f"{got:.5f} is {(got - p) / se:+.2f} se from {p:g}",
            )
        )
    rendered = json.dumps({k: [v.hex() for v in results[k]] for k in sorted(results)})
    return Outcome(
        fingerprints={"evaluate": _sha256(rendered.encode("utf-8"))},
        tokens=sum(draws * answer_length(spec, vocab) for spec in cfg.suite),
        mean_at_n=float(np.mean([mean for mean, _ in results.values()])),
        checks=checks,
    )


def training(name: str, overrides: str = "", subseeds: int = 1) -> Workload:
    """A training workload: ``run_training`` plus ``write_run_artifacts``."""
    return Workload(
        name,
        "rollout_batch",
        _train_setup(overrides),
        _train_body,
        _train_inspect,
        subseeds=subseeds,
    )


WORKLOADS = {
    w.name: w
    for w in (
        training("train-default", subseeds=6),
        training(
            "update-heavy",
            "method = grpo\ninner_epochs = 8\nembed_dim = 32\nhidden_dim = 256\n"
            "steps = 100\neval_every = 100\n",
            subseeds=4,
        ),
        Workload(
            "eval-ckpt",
            "sample_group",
            _eval_setup,
            _eval_body,
            _eval_inspect,
            _eval_steps,
            subseeds=4,
        ),
    )
}

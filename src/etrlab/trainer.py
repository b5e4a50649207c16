"""Training loop: rollouts, group advantages, clipped updates, evaluation.

A run is a deterministic function of its configuration. Rollout
randomness comes from per-(seed, step, group) streams and evaluation from
a separately tagged stream family, so evaluation cadence never perturbs
training trajectories.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import ContractViolation, finite_diff_check
from .config import (
    METHODS,
    TrainConfig,
    apply_overrides,
    build_strategy,
    render_config,
    validate_config,
)
from .groups import (
    RolloutBatch,
    group_stats,  # noqa: F401  (prepare_batch calls it; the benchmark probes trainer.group_stats)
)
from .metrics import (
    StepMetrics,
    _fmt,
    config_digest,
    render_lineplot,
    save_checkpoint,
    suite_labels,
    write_atomic,
    write_metrics_csv,
)
from .objectives import (
    LossBreakdown,
    evaluate_prepared,
    prepare_batch,
    score_prepared,
)
from .policy import PolicyParams, Vocab, init_params, sample_group, sample_groups
from .tasks import (
    TaskSpec,
    generate_prompt,
    response_grammar,
    reward,
    sample_task,
    verify,  # noqa: F401  (no program path calls it; the benchmark probes trainer.verify)
    verify_rows,
)

# Stream tag separating evaluation rng from (seed, step, group) rollout
# streams; eval entropy tuples also differ in length.
_EVAL_TAG = 0x45564C31

# Prompts whose answers evaluate checks with one verify_rows call: enough
# to spread the call's fixed cost, few enough that a chunk's buffers stay
# small at any eval size (a whole task's rows at once raise peak memory).
_EVAL_CHUNK = 64


def stream_seed(key: Sequence[int]) -> np.random.SeedSequence:
    """``np.random.SeedSequence(tuple(key))`` at about half its cost.

    Each int is split as numpy splits an int in a tuple: into little-endian
    32-bit words, one word for 0, and a negative one raises the same
    ``ValueError``. numpy takes a uint32 array of those words much faster
    than the tuple, and they give the same generator state. Every rollout,
    evaluation and gradcheck stream is seeded here.
    """
    words = []
    for value in key:
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators for one flat parameter vector."""

    moment1: np.ndarray
    moment2: np.ndarray
    step: int = 0

    def __post_init__(self):
        if self.moment1.shape != self.moment2.shape:
            raise ContractViolation("moment vectors must share a shape")
        if self.step < 0:
            raise ContractViolation("optimizer step counter must be non-negative")

    @classmethod
    def zeros(cls, count: int) -> "OptimizerState":
        return cls(np.zeros(count), np.zeros(count), 0)


def adamw_update(
    vec: np.ndarray,
    grad: np.ndarray,
    state: OptimizerState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """One decoupled-weight-decay adaptive-moment step; mutates ``state``.

    Returns ``vec - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * vec)``,
    evaluated in that order in two full-length buffers: ``work`` holds the
    moment terms and the denominator, and ``out`` the step, which becomes
    the result. Each is a new array when not given. ``out`` may be
    ``grad``, which is spent before ``out`` is written; otherwise neither
    may share memory with ``vec``, ``grad`` or the moments. With
    ``weight_decay == 0`` the decay term is skipped: for finite ``vec``,
    adding ``0 * vec`` leaves every bit of the result as it is, signed
    zeros included.
    """
    vec = np.asarray(vec, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != vec.shape or state.moment1.shape != vec.shape:
        raise ContractViolation("gradient and moments must match the parameters")
    if not lr > 0.0:
        raise ContractViolation("learning rate must be positive")
    state.step += 1
    scratch = np.multiply(grad, 1.0 - beta1, out=work)
    state.moment1 *= beta1
    state.moment1 += scratch
    np.multiply(grad, 1.0 - beta2, out=scratch)
    scratch *= grad
    state.moment2 *= beta2
    state.moment2 += scratch
    # scratch: v_hat, then the denominator; step: m_hat, then the update.
    np.divide(state.moment2, 1.0 - beta2**state.step, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    correction = 1.0 - beta1**state.step
    if correction == 1.0:
        # Late in a run the correction rounds to 1.0 (from step 356 at
        # beta1 = 0.9), and m / 1.0 is m bit for bit.
        step = np.divide(state.moment1, scratch, out=out)
    else:
        step = np.divide(state.moment1, correction, out=out)
        step /= scratch
    if weight_decay != 0.0:
        np.multiply(vec, weight_decay, out=scratch)
        step += scratch
    step *= lr
    return np.subtract(vec, step, out=step)


def clip_grad_norm(
    grad: np.ndarray,
    max_norm: float,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Scale the gradient so its global L2 norm is at most ``max_norm``.

    Returns the gradient and its norm before scaling. A gradient within
    the bound comes back as it is; a longer one is scaled into ``out``, a
    new array when not given and possibly ``grad`` itself. The squares are
    formed in ``work`` when given. When their sum overflows although every
    entry is finite, the norm is taken of the gradient over its largest
    magnitude, so a huge finite gradient is scaled to ``max_norm``, not to
    zeros.
    """
    if not max_norm > 0.0:
        raise ContractViolation("max_norm must be positive")
    grad = np.asarray(grad, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(np.multiply(grad, grad, out=work))))
    scale = max_norm / norm if norm > max_norm else 1.0
    if norm == np.inf and np.isfinite(grad).all():
        peak = float(np.max(np.abs(grad)))
        unit = float(np.sqrt(np.sum(np.square(grad / peak))))
        norm, scale = peak * unit, max_norm / peak / unit
    if not norm > max_norm:
        return grad, norm
    return np.multiply(grad, scale, out=out), norm


def apply_gradient(
    params: PolicyParams,
    gradient: np.ndarray,
    opt: OptimizerState,
    cfg: TrainConfig,
    work: np.ndarray,
) -> None:
    """One clipped AdamW step of ``params`` up the objective's ``gradient``.

    The optimizer descends the negated objective. ``gradient`` is negated
    and clipped in place and then receives the new parameters, while
    ``work`` holds the squares and moment terms. The new parameters are
    copied into ``params`` only once every entry is finite: a step that
    would leave a non-finite parameter raises :class:`TrainingDiverged`
    and leaves ``params`` as they were.
    """
    grad = np.negative(gradient, out=gradient)
    clip_grad_norm(grad, cfg.grad_clip, out=grad, work=work)
    update = adamw_update(
        params.vector,
        grad,
        opt,
        cfg.learning_rate,
        cfg.adam_beta1,
        cfg.adam_beta2,
        cfg.adam_eps,
        cfg.weight_decay,
        out=grad,
        work=work,
    )
    if not np.isfinite(update).all():
        raise TrainingDiverged("non-finite parameters after update")
    params.set_vector(update)


class TrainingDiverged(RuntimeError):
    """Non-finite loss or parameters; carries the offending group."""

    def __init__(
        self,
        message: str,
        group_index: int | None = None,
        prompt_tokens: tuple[int, ...] | None = None,
        rewards=None,
    ):
        self.group_index = group_index
        self.prompt_tokens = prompt_tokens
        self.rewards = None if rewards is None else np.asarray(rewards)
        if group_index is not None:
            message = (
                f"{message} [group {group_index}, prompt {prompt_tokens}, "
                f"rewards {None if rewards is None else self.rewards.tolist()}]"
            )
        super().__init__(message)


def rollout_batch(params: PolicyParams, cfg: TrainConfig, step: int) -> RolloutBatch:
    """Sample groups-per-step prompt groups for one training step.

    Every row is checked against its prompt in one vectorised pass; the
    batch keeps the sampler's buffers and entropies.
    """
    if step < 1:
        raise ContractViolation("step index starts at 1")
    vocab = params.vocab
    rngs, prompts, grammars = [], [], []
    for g in range(cfg.groups_per_step):
        rng = np.random.default_rng(stream_seed((cfg.seed, step, g)))
        prompt = generate_prompt(sample_task(cfg.suite, rng), vocab, rng)
        rngs.append(rng)
        prompts.append(prompt)
        grammars.append(response_grammar(prompt, vocab))
    tokens, logprobs, entropies = sample_groups(
        params,
        [prompt.tokens for prompt in prompts],
        cfg.group_size,
        cfg.temperature,
        rngs,
        position_masks=grammars,
        collect_entropy=True,
    )
    correct = verify_rows(prompts, cfg.group_size, tokens[:, params.window :], vocab)
    return RolloutBatch(
        prompts=tuple(prompts),
        grammars=tuple(grammars),
        group_size=cfg.group_size,
        tokens=tokens,
        logprobs=logprobs,
        rewards=reward(correct),
        entropies=tuple(entropies),
    )


def _locate_nonfinite_group(batch: RolloutBatch, prep, params: PolicyParams) -> int | None:
    """Group of the first token whose score, ratio or KL term is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        lp = score_prepared(prep, params)[-1]
        u = np.exp(prep.ref_logprobs - lp)
        ratio = np.exp(lp - prep.old_logprobs)
    bad = np.flatnonzero(~(np.isfinite(lp) & np.isfinite(u) & np.isfinite(ratio)))
    if bad.size == 0:
        return None
    response = np.searchsorted(np.cumsum(batch.lengths), bad[0], side="right")
    return int(response) // batch.group_size


def train_step(
    params: PolicyParams,
    ref_params: PolicyParams,
    opt: OptimizerState,
    batch: RolloutBatch,
    cfg: TrainConfig,
) -> LossBreakdown:
    """Run the inner-epoch updates for one rollout batch.

    The objective is maximized, so the optimizer steps on its negation.
    Returns the breakdown evaluated at the start of the last inner epoch;
    with one inner epoch every ratio is 1 and the clip fraction is 0. Its
    gradient buffer is spent on the update, so it comes back as None.
    """
    prep = prepare_batch(batch, build_strategy(cfg), ref_params, cfg.advantage_xi, cfg.temperature)
    # The update's two work vectors, reused by every inner epoch. They live
    # for this call only: kept between steps, they would only raise the
    # resident set, and made afresh each epoch, they churn the heap.
    gradient, work = np.empty((2, params.param_count))
    last: LossBreakdown | None = None
    for _ in range(cfg.inner_epochs):
        # Overflow here is diagnosed explicitly below, not via warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            breakdown = evaluate_prepared(
                prep, params, cfg.kl_coef, with_grad=True, gradient_out=gradient
            )
        if not np.isfinite(breakdown.total) or not np.all(np.isfinite(breakdown.gradient)):
            index = _locate_nonfinite_group(batch, prep, params)
            raise TrainingDiverged(
                "non-finite loss or gradient",
                group_index=index,
                prompt_tokens=None if index is None else batch.prompts[index].tokens,
                rewards=None if index is None else batch.rewards.reshape(len(batch), -1)[index],
            )
        apply_gradient(params, gradient, opt, cfg, work)
        breakdown.gradient = None
        last = breakdown
    return last


def evaluate(
    params: PolicyParams,
    suite: Sequence[TaskSpec],
    vocab: Vocab,
    n: int,
    n_prompts: int,
    seed: int,
    round_index: int = 0,
    temperature: float = 1.0,
) -> dict[str, tuple[float, float]]:
    """Mean@N and best@N per task label over a fixed prompt set.

    Mean@N averages correctness over all prompts and samples; best@N is
    the fraction of prompts with at least one correct sample. With n=1
    the two coincide.

    Each prompt is drawn and answered from its own (seed, round, task,
    prompt) stream by one :func:`sample_group` call. A task's prompts are
    taken ``_EVAL_CHUNK`` at a time: their response ids are copied into
    one buffer, checked with one ``verify_rows`` call, and only the
    correct and hit counts are kept.
    """
    if n < 1 or n_prompts < 1:
        raise ContractViolation("evaluation needs n >= 1 and n_prompts >= 1")
    out: dict[str, tuple[float, float]] = {}
    for li, spec in enumerate(suite):
        grammar = response_grammar(spec, vocab)
        correct = 0
        hits = 0
        for start in range(0, n_prompts, _EVAL_CHUNK):
            chunk = range(start, min(start + _EVAL_CHUNK, n_prompts))
            prompts = []
            tokens = np.empty((len(chunk) * n, len(grammar)), dtype=np.int64)
            for j, pi in enumerate(chunk):
                rng = np.random.default_rng(stream_seed((seed, _EVAL_TAG, li, pi, round_index)))
                prompt = generate_prompt(spec, vocab, rng)
                rows, _ = sample_group(params, prompt.tokens, n, temperature, rng, grammar)
                tokens[j * n : (j + 1) * n] = rows.tokens
                prompts.append(prompt)
            ok = verify_rows(prompts, n, tokens, vocab).reshape(len(chunk), n)
            correct += int(ok.sum())
            hits += int(ok.any(axis=1).sum())
        out[spec.label] = (correct / (n_prompts * n), hits / n_prompts)
    return out


@dataclass
class TrainingResult:
    config: TrainConfig
    metrics: list[StepMetrics]
    params: PolicyParams
    opt: OptimizerState


def run_training(cfg: TrainConfig) -> TrainingResult:
    """Execute a full run; pure function of the configuration."""
    validate_config(cfg)
    vocab = Vocab(cfg.content_tokens)
    params = init_params(
        vocab, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, cfg.seed, cfg.init_scale
    )
    ref_params = params.copy()
    opt = OptimizerState.zeros(params.param_count)
    log: list[StepMetrics] = []
    for step in range(1, cfg.steps + 1):
        batch = rollout_batch(params, cfg, step)
        breakdown = train_step(params, ref_params, opt, batch, cfg)
        evals = None
        if step % cfg.eval_every == 0 or step == cfg.steps:
            evals = evaluate(
                params,
                cfg.suite,
                vocab,
                cfg.eval_n,
                cfg.eval_prompts,
                cfg.seed,
                round_index=step,
                temperature=cfg.temperature,
            )
        log.append(
            StepMetrics(
                step=step,
                total=breakdown.total,
                surrogate=breakdown.surrogate,
                kl=breakdown.kl,
                entropy=float(np.mean(batch.entropies)) if batch.entropies else 0.0,
                clip_frac=breakdown.clip_fraction,
                mean_eps=breakdown.mean_epsilon,
                resp_len=float(np.mean(batch.lengths)),
                pass_rate=breakdown.pass_rate,
                evals=evals,
            )
        )
    return TrainingResult(cfg, log, params, opt)


def write_run_artifacts(result: TrainingResult, out_dir) -> None:
    """Emit config.txt, metrics.csv, line plots, and the final checkpoint."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    write_atomic(out / "config.txt", render_config(cfg).encode("utf-8"))
    labels = suite_labels(cfg.suite)
    write_metrics_csv(result.metrics, out / "metrics.csv", labels)
    log = result.metrics
    steps = [m.step for m in log]

    def series(name: str):
        return (name, steps, [getattr(m, name) for m in log])

    clipping = [series("clip_frac")]
    if all(m.mean_eps is not None for m in log):
        clipping.append(series("mean_eps"))
    rounds = [m for m in log if m.evals]
    by_task = [(t, [m.step for m in rounds], [m.evals[t][0] for m in rounds]) for t in labels]
    # (file, title, y label, series); a plot is written when its series
    # have two points.
    plots = [
        ("entropy.svg", "Mean token entropy", "nats", [series("entropy")]),
        ("pass_rate.svg", "Batch pass rate", "fraction", [series("pass_rate")]),
        ("clipping.svg", "Clipping behavior", "fraction / half-width", clipping),
        ("eval_mean.svg", f"Mean@{cfg.eval_n} by task", "accuracy", by_task),
    ]
    for name, title, y_label, lines in plots:
        if len(lines[0][1]) >= 2:
            render_lineplot(lines, out / name, title=title, y_label=y_label)
    save_checkpoint(
        out / "final.ckpt",
        result.params.to_vector(),
        result.opt.moment1,
        result.opt.moment2,
        result.opt.step,
        config_digest(cfg),
    )


@dataclass(frozen=True)
class RunSummary:
    """Scalar end-of-run digest used by comparison sweeps."""

    method: str
    seed: int
    final_mean: float
    final_best: float
    final_entropy: float
    initial_entropy: float
    mean_clip_frac: float

    @classmethod
    def from_result(cls, result: TrainingResult) -> "RunSummary":
        log = result.metrics
        # run_training evaluates at its last step.
        final_evals = log[-1].evals
        means = [v[0] for v in final_evals.values()]
        bests = [v[1] for v in final_evals.values()]
        return cls(
            method=result.config.method,
            seed=result.config.seed,
            final_mean=float(np.mean(means)),
            final_best=float(np.mean(bests)),
            final_entropy=log[-1].entropy,
            initial_entropy=log[0].entropy,
            mean_clip_frac=float(np.mean([m.clip_frac for m in log])),
        )


@dataclass(frozen=True)
class DivergedRun:
    """A sweep run that raised :class:`TrainingDiverged`; it has no artifacts."""

    method: str
    seed: int
    message: str


def _compare_worker(job: tuple[TrainConfig, str | None]) -> RunSummary | DivergedRun:
    cfg, out_dir = job
    try:
        result = run_training(cfg)
    except TrainingDiverged as exc:
        return DivergedRun(cfg.method, cfg.seed, str(exc))
    if out_dir is not None:
        write_run_artifacts(result, out_dir)
    return RunSummary.from_result(result)


def compare_runs(
    cfg: TrainConfig,
    methods: Sequence[str],
    seeds: Sequence[int],
    out_dir=None,
    jobs: int = 1,
) -> list[RunSummary | DivergedRun]:
    """Run every (method, seed) pair; order of results is deterministic.

    Every pair's config is checked, and each pair must be distinct, before
    ``out_dir`` is created and the first run starts. A diverged run comes
    back as a :class:`DivergedRun` in its place, so the other runs still
    finish.
    """
    if len(methods) == 0 or len(seeds) == 0:
        raise ContractViolation("compare needs at least one method and one seed")
    if jobs < 1:
        raise ContractViolation(f"jobs must be at least 1, got {jobs}")
    pairs = [(method, seed) for method in methods for seed in seeds]
    names = [f"{method}-seed{seed}" for method, seed in pairs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ContractViolation(
            f"each (method, seed) pair runs once; repeated: {', '.join(repeated)}"
        )
    job_list = [
        (
            apply_overrides(cfg, [f"method={method}", f"seed={seed}"]),
            None if out_dir is None else str(Path(out_dir) / name),
        )
        for (method, seed), name in zip(pairs, names)
    ]
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    workers = min(jobs, len(job_list))
    if workers == 1:
        return [_compare_worker(job) for job in job_list]
    # Imported here: the pool pulls in multiprocessing, which most runs never use.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_compare_worker, job_list))


def write_summary(summaries: Sequence[RunSummary | DivergedRun], out_dir) -> list[str]:
    """Write a sweep's ``summary.csv`` into ``out_dir`` and return its lines.

    Each method with a finished run gets a row of medians across those
    runs, in first-seen method order. Then each diverged run gets a row,
    labelled like its run directory.
    """
    fields = ("final_mean", "final_best", "final_entropy", "mean_clip_frac")
    finished: dict[str, list[RunSummary]] = {}
    for s in summaries:
        if not isinstance(s, DivergedRun):
            finished.setdefault(s.method, []).append(s)
    lines = [",".join(["method"] + [f"median_{name}" for name in fields])]
    for method, runs in finished.items():
        medians = [float(np.median([getattr(r, name) for r in runs])) for name in fields]
        lines.append(",".join([method] + [_fmt(m) for m in medians]))
    for s in summaries:
        if isinstance(s, DivergedRun):
            lines.append(",".join([f"{s.method}-seed{s.seed}"] + ["diverged"] * len(fields)))
    write_atomic(Path(out_dir) / "summary.csv", ("\n".join(lines) + "\n").encode("utf-8"))
    return lines


# Small dimensions keep the per-coordinate finite-difference sweep fast;
# parity at difficulty 1 makes mixed-reward groups likely at G=4.
_GRADCHECK_SHAPE = dict(
    groups_per_step=3,
    group_size=4,
    context_window=2,
    embed_dim=3,
    hidden_dim=5,
    max_response_len=4,
)
_GRADCHECK_SIGMA = 0.3
_GRADCHECK_FD_STEP = 1e-6
_GRADCHECK_KINK_MARGIN = 1e-3


def gradient_check(method: str = "etr", seed: int = 0) -> float:
    """Worst relative gradient error of the full objective for one method.

    Parameters are perturbed away from the sampling policy so ratios
    leave 1 and both clip branches are exercised; trials whose ratios sit
    within ``_GRADCHECK_KINK_MARGIN`` of a clip boundary are re-drawn,
    since the objective is not differentiable there.
    """
    cfg = dataclasses.replace(
        TrainConfig(),
        method=method,
        seed=seed,
        suite=(TaskSpec("parity", 1), TaskSpec("digitsum", 1), TaskSpec("copy", 2)),
        **_GRADCHECK_SHAPE,
    )
    vocab = Vocab(cfg.content_tokens)
    strategy = build_strategy(cfg)
    for attempt in range(64):
        trial = dataclasses.replace(cfg, seed=seed + 101 * attempt)
        params = init_params(
            vocab, trial.context_window, trial.embed_dim, trial.hidden_dim, trial.seed, trial.init_scale
        )
        batch = rollout_batch(params, trial, step=1)
        rewards = batch.rewards.reshape(len(batch), -1)
        if np.all(rewards == rewards[:, :1]):
            continue
        prep = prepare_batch(batch, strategy, params, trial.advantage_xi, trial.temperature)
        rng = np.random.default_rng(stream_seed((trial.seed, 7777)))
        theta = params.to_vector() + rng.normal(0.0, _GRADCHECK_SIGMA, size=params.param_count)
        probe = params.copy()
        probe.set_vector(theta)
        ratio = np.exp(score_prepared(prep, probe)[-1] - prep.old_logprobs)
        margin = float(np.min(np.minimum(np.abs(ratio - prep.lo), np.abs(ratio - prep.hi))))
        below = np.any(ratio < prep.lo) or np.any(ratio > prep.hi)
        inside = np.any((ratio > prep.lo) & (ratio < prep.hi))
        if margin <= _GRADCHECK_KINK_MARGIN or not below or not inside:
            continue

        def f(vec: np.ndarray) -> tuple[float, np.ndarray]:
            probe.set_vector(vec)
            bd = evaluate_prepared(prep, probe, trial.kl_coef, with_grad=True)
            return bd.total, bd.gradient

        return finite_diff_check(f, theta, _GRADCHECK_FD_STEP)
    raise ContractViolation("no kink-safe gradient-check trial found")


def gradient_check_suite(seed: int = 0) -> list[tuple[str, float]]:
    """Run the gradient check once per method, each on its own batch."""
    return [(m, gradient_check(m, seed=seed + 13 * i)) for i, m in enumerate(METHODS)]

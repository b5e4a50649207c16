"""Training loop: rollouts, group advantages, clipped updates, evaluation.

A run is a deterministic function of its configuration. Rollout
randomness comes from per-(seed, step, group) streams and evaluation from
a separately tagged stream family, so evaluation cadence never perturbs
training trajectories.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple, Sequence

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
from .policy import (
    Lockstep,
    PolicyParams,
    PositionMasks,
    Vocab,
    draw_uniforms,
    init_params,
    lockstep_setup,
    sample_group,
    sample_groups,
)
from .tasks import (
    AnswerKey,
    Prompt,
    TaskSpec,
    answer_key,
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

# Pipe buffer a forked child asks for: about 140 default training steps'
# frames, so the draw producer runs far ahead of training and through an
# evaluation round. Linux grants an unprivileged process up to
# /proc/sys/fs/pipe-max-size, 1 MiB by default.
_PIPE_BYTES = 1 << 20

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
    zeros. A gradient with an entry that is not finite comes back as it
    is, with a norm that is not finite either.
    """
    if not max_norm > 0.0:
        raise ContractViolation("max_norm must be positive")
    grad = np.asarray(grad, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.add.reduce(np.multiply(grad, grad, out=work), axis=None)))
    scale = max_norm / norm if norm > max_norm else 1.0
    if norm == np.inf:
        if not np.logical_and.reduce(np.isfinite(grad), axis=None):
            return grad, norm
        peak = float(np.maximum.reduce(np.abs(grad), axis=None))
        unit = float(np.sqrt(np.add.reduce(np.square(grad / peak), axis=None)))
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
) -> bool:
    """One clipped AdamW step of ``params`` up the objective's ``gradient``.

    The optimizer descends the negated objective. ``gradient`` is negated
    and clipped in place and then receives the new parameters, while
    ``work`` holds the squares and moment terms. A gradient with an entry
    that is not finite changes nothing, ``opt`` included, and gives False;
    it is told from the norm the clipping takes, and only a norm that is
    not finite costs a pass over the entries. The new parameters are
    copied into ``params`` only once every entry is finite: a step that
    would leave a non-finite parameter raises :class:`TrainingDiverged`
    and leaves ``params`` as they were.
    """
    grad = np.negative(gradient, out=gradient)
    norm = clip_grad_norm(grad, cfg.grad_clip, out=grad, work=work)[1]
    # Finite squares have a finite sum, so a finite norm has finite entries;
    # an infinite one may still come from squares that overflow.
    if not math.isfinite(norm) and not np.logical_and.reduce(np.isfinite(grad), axis=None):
        return False
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
    if not np.logical_and.reduce(np.isfinite(update), axis=None):
        raise TrainingDiverged("non-finite parameters after update")
    params.set_vector(update)
    return True


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


# A training step's draws: its prompts, their grammars and its uniforms.
StepDraws = tuple[list[Prompt], list[PositionMasks], np.ndarray]


def draw_step(cfg: TrainConfig, vocab: Vocab, step: int) -> StepDraws:
    """Everything training step ``step`` draws before it reads the parameters.

    Group g's stream ``(seed, step, g)`` gives its task, its prompt's
    payload and then its sampling uniforms, read in that order; the
    uniforms are read by one :func:`policy.draw_uniforms` call. Returns
    the prompts, their grammars and that call's (K, horizon, n) block.
    """
    rngs, prompts, grammars = [], [], []
    for g in range(cfg.groups_per_step):
        rng = np.random.default_rng(stream_seed((cfg.seed, step, g)))
        prompt = generate_prompt(sample_task(cfg.suite, rng), vocab, rng)
        rngs.append(rng)
        prompts.append(prompt)
        grammars.append(response_grammar(prompt, vocab))
    return prompts, grammars, draw_uniforms(rngs, [len(m) for m in grammars], cfg.group_size)


class StepSetup(NamedTuple):
    """Everything a training step needs that the parameters do not decide.

    The step's :func:`draw_step`, its sampler's :class:`policy.Lockstep`
    and its prompts' :class:`tasks.AnswerKey`. The lockstep's
    ``policy.GrammarTable`` is also the batch's, which the objective reads.
    """

    prompts: list[Prompt]
    grammars: list[PositionMasks]
    uniforms: np.ndarray
    lockstep: Lockstep
    key: AnswerKey


def step_setup(cfg: TrainConfig, vocab: Vocab, step: int) -> StepSetup:
    """Training step ``step``'s draws and everything they alone decide.

    A run's steps get theirs from :meth:`_SideWork.draws`: the draw
    producer's frame, or made inline. :func:`rollout_batch` makes it
    when handed none.
    """
    prompts, grammars, uniforms = draw_step(cfg, vocab, step)
    n = cfg.group_size
    tokens = [prompt.tokens for prompt in prompts]
    return StepSetup(
        prompts,
        grammars,
        uniforms,
        lockstep_setup(vocab, cfg.context_window, tokens, n, cfg.temperature, grammars),
        answer_key(prompts, vocab),
    )


def rollout_batch(
    params: PolicyParams,
    cfg: TrainConfig,
    step: int,
    draws: StepSetup | None = None,
) -> RolloutBatch:
    """Sample groups-per-step prompt groups for one training step.

    ``draws`` is the step's :func:`step_setup`, which a run's loop takes
    from :meth:`_SideWork.draws` and which is made here when not given;
    the sampler and the answer check read it. Every row is checked
    against its prompt in one vectorised pass; the batch keeps the
    sampler's buffers, entropies and grammar table.
    """
    if step < 1:
        raise ContractViolation("step index starts at 1")
    vocab = params.vocab
    setup = step_setup(cfg, vocab, step) if draws is None else draws
    # A forward pass that overflows is diagnosed by train_step's checks.
    with np.errstate(over="ignore"):
        tokens, logprobs, entropies = sample_groups(
            params, setup.lockstep, setup.uniforms, cfg.temperature, collect_entropy=True
        )
    correct = verify_rows(
        setup.prompts, cfg.group_size, tokens[:, params.window :], vocab, setup.key
    )
    return RolloutBatch(
        prompts=tuple(setup.prompts),
        grammars=tuple(setup.grammars),
        group_size=cfg.group_size,
        tokens=tokens,
        logprobs=logprobs,
        rewards=reward(correct),
        entropies=entropies,
        table=setup.lockstep.table,
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
    A loss or gradient that is not finite raises :class:`TrainingDiverged`,
    naming its group, before the update touches the parameters or ``opt``.
    """
    # Overflow is diagnosed by the explicit checks below, not via warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        strategy = build_strategy(cfg)
        prep = prepare_batch(batch, strategy, ref_params, cfg.advantage_xi, cfg.temperature)
        # The update's two work vectors, reused by every inner epoch. They
        # live for this call only: kept between steps, they would only raise
        # the resident set, and made afresh each epoch, they churn the heap.
        gradient, work = np.empty((2, params.param_count))
        for _ in range(cfg.inner_epochs):
            breakdown = evaluate_prepared(
                prep, params, cfg.kl_coef, with_grad=True, gradient_out=gradient
            )
            if not (
                math.isfinite(breakdown.total)
                and apply_gradient(params, gradient, opt, cfg, work)
            ):
                index = _locate_nonfinite_group(batch, prep, params)
                raise TrainingDiverged(
                    "non-finite loss or gradient",
                    group_index=index,
                    prompt_tokens=None if index is None else batch.prompts[index].tokens,
                    rewards=None if index is None else batch.rewards.reshape(len(batch), -1)[index],
                )
            breakdown.gradient = None
    return breakdown


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
    prompt) stream by one :func:`sample_group` call. The calls of a task
    share one memo, so a prompt that repeats one already answered reuses
    its first choice's log-prob row. A task's answers are checked
    ``_EVAL_CHUNK`` prompts at a time by one ``verify_rows`` call, and
    only the correct and hit counts are kept.
    """
    if n < 1 or n_prompts < 1:
        raise ContractViolation("evaluation needs n >= 1 and n_prompts >= 1")
    out: dict[str, tuple[float, float]] = {}
    # A forward pass that overflows saturates its tanh; the counts stay exact.
    with np.errstate(over="ignore"):
        for li, spec in enumerate(suite):
            grammar = response_grammar(spec, vocab)
            memo: dict = {}
            correct = 0
            hits = 0
            for start in range(0, n_prompts, _EVAL_CHUNK):
                chunk = range(start, min(start + _EVAL_CHUNK, n_prompts))
                prompts, tokens = [], []
                for pi in chunk:
                    rng = np.random.default_rng(stream_seed((seed, _EVAL_TAG, li, pi, round_index)))
                    prompt = generate_prompt(spec, vocab, rng)
                    rows, _ = sample_group(
                        params, prompt.tokens, n, temperature, rng, grammar, memo=memo
                    )
                    tokens.append(rows.tokens)
                    prompts.append(prompt)
                ok = verify_rows(prompts, n, np.concatenate(tokens), vocab).reshape(len(chunk), n)
                correct += int(np.count_nonzero(ok))
                hits += int(np.count_nonzero(np.logical_or.reduce(ok, axis=1)))
            out[spec.label] = (correct / (n_prompts * n), hits / n_prompts)
    return out


@dataclass
class TrainingResult:
    config: TrainConfig
    metrics: list[StepMetrics]
    params: PolicyParams
    opt: OptimizerState


def _fork(frames):
    """Run ``frames()`` in a forked child; return its pid and read pipe, or None.

    The child sends each value ``frames()`` yields as one pickle frame
    (see ``_receive``) through a pipe private to it, and leaves with
    ``os._exit``; it runs without the parent's profile function. The
    pipe asks for ``_PIPE_BYTES`` of buffer, so a child can run that far
    ahead of its reader; a refused request keeps the system's default
    size, which only holds the child back sooner. None
    means the work is to be done inline: no ``os.fork`` (or not Linux), a
    second thread alive (forking it is unsafe), or a pipe or fork that
    could not be made.
    """
    fork = getattr(os, "fork", None)
    if fork is None or not sys.platform.startswith("linux") or threading.active_count() != 1:
        return None
    # Imported here: fcntl exists only where the fork path runs.
    import fcntl

    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except OSError:
        pass
    try:
        pid = fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            # A profiler the parent runs (cProfile) would slow the child
            # several times over and profile none of its work.
            sys.setprofile(None)
            os.close(read)
            with open(write, "wb") as pipe:
                for value in frames():
                    data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
                    pipe.write(len(data).to_bytes(8, "little") + data)
                    pipe.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _receive(pipe):
    """The next value a forked child sent, or None if it left before sending it whole.

    A frame is the value's pickle bytes (arrays and floats keep every
    bit) after their length as 8 little-endian bytes, so a child that dies
    mid-frame gives a short read, never a bad pickle. Only the forked
    child writes the pipe :func:`_fork` made private to it.
    """
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return pickle.loads(data) if len(data) == size else None


def _reap(child) -> None:
    """Close a forked child's pipe, kill it and wait for it, whatever it was doing."""
    pid, pipe = child
    pipe.close()
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _produce(cfg: TrainConfig, vocab: Vocab, first: int):
    """:func:`step_setup` of every step from ``first`` on, one frame each, at low priority.

    Run in the draw producer, which keeps ahead of training until the
    pipe is full.
    """
    os.nice(10)
    for step in range(first, cfg.steps + 1):
        yield step_setup(cfg, vocab, step)


class _SideWork:
    """A run's work off its training loop, each piece in a forked child (see ``_fork``).

    - A draw producer, forked here, makes the :func:`step_setup` of every
      step after the first ahead of training.
    - Every evaluation round but the last runs on a copy-on-write snapshot
      of the parameters while training goes on, one such child at a time.

    Work whose child cannot fork or fails is done inline by the same call,
    so the rows come out the same either way. The rounds write ``log``.
    """

    def __init__(self, cfg: TrainConfig, vocab: Vocab, log: list[StepMetrics]):
        self.cfg, self.vocab, self.log = cfg, vocab, log
        self.producer = _fork(partial(_produce, cfg, vocab, 2))
        # (row, job, child) of the round a child is evaluating.
        self.pending = None

    def draws(self, step: int) -> StepSetup:
        """Step ``step``'s :func:`step_setup`, sent by the producer from step 2 on.

        It is made here for step 1, and for every step once the producer
        could not fork or sent no whole frame (then it is reaped).
        """
        if self.producer is not None and step > 1:
            setup = _receive(self.producer[1])
            if setup is not None:
                return setup
            _reap(self.producer)
            self.producer = None
        return step_setup(self.cfg, self.vocab, step)

    def submit(self, row: int, job) -> None:
        """Collect the pending round, then start evaluating ``job()`` into row ``row``.

        The round runs inline when no child forks, and once ``log`` holds
        every step's row, when no training is left to overlap it.
        """
        self.collect()
        child = _fork(lambda: (job(),)) if len(self.log) < self.cfg.steps else None
        if child is None:
            self.log[row].evals = job()
        else:
            self.pending = (row, job, child)

    def collect(self) -> None:
        """Write the pending round's evals, or ``job()``'s if its child failed, to its row."""
        if self.pending is not None:
            (row, job, child), self.pending = self.pending, None
            sent = _receive(child[1])
            _reap(child)
            self.log[row].evals = job() if sent is None else sent

    def close(self) -> None:
        """Kill and reap every child left, whatever it was doing."""
        for child in (self.pending and self.pending[2], self.producer):
            if child is not None:
                _reap(child)
        self.pending = self.producer = None


def run_training(cfg: TrainConfig) -> TrainingResult:
    """Execute a full run; pure function of the configuration.

    A :class:`_SideWork` takes the draws and evaluation rounds off the
    loop, and no child or pipe of it outlives the call.
    """
    validate_config(cfg)
    vocab = Vocab(cfg.content_tokens)
    params = init_params(
        vocab, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, cfg.seed, cfg.init_scale
    )
    ref_params = params.copy()
    opt = OptimizerState.zeros(params.param_count)
    log: list[StepMetrics] = []
    side = _SideWork(cfg, vocab, log)
    try:
        for step in range(1, cfg.steps + 1):
            batch = rollout_batch(params, cfg, step, side.draws(step))
            breakdown = train_step(params, ref_params, opt, batch, cfg)
            entropies, lengths = batch.entropies, batch.lengths
            log.append(
                StepMetrics(
                    step=step,
                    total=breakdown.total,
                    surrogate=breakdown.surrogate,
                    kl=breakdown.kl,
                    entropy=float(np.add.reduce(entropies) / entropies.size)
                    if entropies.size
                    else 0.0,
                    clip_frac=breakdown.clip_fraction,
                    mean_eps=breakdown.mean_epsilon,
                    resp_len=float(np.add.reduce(lengths) / lengths.size),
                    pass_rate=breakdown.pass_rate,
                )
            )
            last = step == cfg.steps
            if last or step % cfg.eval_every == 0:
                job = partial(
                    evaluate,
                    params if last else params.copy(),
                    cfg.suite,
                    vocab,
                    cfg.eval_n,
                    cfg.eval_prompts,
                    cfg.seed,
                    round_index=step,
                    temperature=cfg.temperature,
                )
                side.submit(len(log) - 1, job)
    finally:
        side.close()
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

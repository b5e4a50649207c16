"""Clipped-surrogate objectives with static and signal-aware trust regions.

The elastic band is symmetric, (1 - eps_t, 1 + eps_t), yet behaves
sign-dependently on its own: for a positive-advantage token only the
upper bound can bind and for a negative-advantage token only the lower
bound can, so widening eps_t for positive advantages and narrowing it for
negative ones needs no asymmetric bookkeeping.

The dynamic threshold composes a base half-width with a micro term driven
by the token's advantage, ``lam1 * tanh(A)``, and a macro term driven by
group difficulty, ``lam2 * 4 * p * (1 - p)``, which peaks at pass rate
one half and vanishes for saturated or hopeless groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import policy as policy_mod
from . import tasks as tasks_mod
from .autodiff import ContractViolation, Tensor, clip_gated, exp, min_pair
from .groups import RolloutGroup, group_stats, DEFAULT_XI
from .policy import PolicyParams, mask_matrix

DIRECTIONS = ("standard", "inverse", "micro-only", "macro-only")


@dataclass(frozen=True)
class Static:
    """Fixed symmetric clipping band of half-width epsilon."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ContractViolation("epsilon must be non-negative")


@dataclass(frozen=True)
class ClipHigh:
    """Decoupled band: lower half-width epsilon_low, upper epsilon_high."""

    epsilon_low: float
    epsilon_high: float

    def __post_init__(self):
        if self.epsilon_low < 0.0 or self.epsilon_high < 0.0:
            raise ContractViolation("clip half-widths must be non-negative")


@dataclass(frozen=True)
class Elastic:
    """Signal-aware band; half-width depends on advantage and pass rate."""

    epsilon_base: float
    lambda1: float
    lambda2: float
    direction: str = "standard"

    def __post_init__(self):
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ContractViolation("lambda terms must be non-negative")
        if not self.epsilon_base - self.lambda1 > 0.0:
            raise ContractViolation(
                "band inversion: epsilon_base - lambda1 must stay positive"
            )
        if self.direction not in DIRECTIONS:
            raise ContractViolation(f"unknown direction {self.direction!r}")


ClipStrategy = Union[Static, ClipHigh, Elastic]


def micro_adjustment(advantage, lambda1: float, direction: str = "standard"):
    """Advantage-driven half-width shift, saturating at +-lambda1."""
    if direction not in DIRECTIONS:
        raise ContractViolation(f"unknown direction {direction!r}")
    if direction == "macro-only":
        return np.zeros_like(np.asarray(advantage, dtype=np.float64))
    sign = -1.0 if direction == "inverse" else 1.0
    return sign * lambda1 * np.tanh(np.asarray(advantage, dtype=np.float64))


def macro_adjustment(pass_rate, lambda2: float, direction: str = "standard"):
    """Difficulty-driven half-width bonus, maximal at pass rate 0.5."""
    if direction not in DIRECTIONS:
        raise ContractViolation(f"unknown direction {direction!r}")
    p = np.asarray(pass_rate, dtype=np.float64)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ContractViolation("pass rate must lie in [0, 1]")
    if direction == "micro-only":
        return np.zeros_like(p)
    return lambda2 * 4.0 * p * (1.0 - p)


def dynamic_epsilon(advantage, pass_rate, strategy: Elastic):
    """Elastic half-width; bounded by [base - lam1, base + lam1 + lam2]."""
    return (
        strategy.epsilon_base
        + micro_adjustment(advantage, strategy.lambda1, strategy.direction)
        + macro_adjustment(pass_rate, strategy.lambda2, strategy.direction)
    )


def clip_bounds(strategy: ClipStrategy, advantage, pass_rate):
    """Ratio bounds (lo, hi) for a token under the given strategy."""
    if isinstance(strategy, Static):
        eps = np.broadcast_to(
            np.float64(strategy.epsilon), np.asarray(advantage, dtype=np.float64).shape
        )
        return 1.0 - eps, 1.0 + eps
    if isinstance(strategy, ClipHigh):
        shape = np.asarray(advantage, dtype=np.float64).shape
        return (
            1.0 - np.broadcast_to(np.float64(strategy.epsilon_low), shape),
            1.0 + np.broadcast_to(np.float64(strategy.epsilon_high), shape),
        )
    eps = dynamic_epsilon(advantage, pass_rate, strategy)
    return 1.0 - eps, 1.0 + eps


def token_surrogate(ratio: Tensor, advantage, lo, hi) -> tuple[Tensor, np.ndarray]:
    """min(ratio*A, clip(ratio)*A) per token, plus the clipped-token mask.

    A token counts as clipped only when the clipped branch is strictly
    smaller, so first-pass evaluations (ratio exactly one) report zero.
    """
    adv = np.asarray(advantage, dtype=np.float64)
    clipped = clip_gated(ratio, lo, hi)
    unclipped_branch = ratio * adv
    clipped_branch = clipped * adv
    surrogate = min_pair(unclipped_branch, clipped_branch)
    mask = clipped_branch.data < unclipped_branch.data
    return surrogate, mask


def kl_to_reference(logp_theta: Tensor, logp_ref: np.ndarray) -> Tensor:
    """Mean per-token KL estimate u - log(u) - 1 with u = exp(ref - theta).

    Non-negative for every u > 0 and zero only at u = 1; the gradient
    flows to logp_theta only.
    """
    ref = np.asarray(logp_ref, dtype=np.float64)
    diff = ref - logp_theta
    u = exp(diff)
    per_token = u - diff - 1.0
    return per_token.mean()


def theoretical_epsilon(rho: float, epsilon_base: float) -> float:
    """Band half-width implied by a target-weighted KL budget: base * sqrt(rho)."""
    if not rho >= 1.0:
        raise ContractViolation("rho must be at least 1")
    if epsilon_base < 0.0:
        raise ContractViolation("epsilon_base must be non-negative")
    return epsilon_base * float(np.sqrt(rho))


def kl_quadratic_residual(ratio: float) -> float:
    """|(-log r) - (-(r - 1) + (r - 1)^2 / 2)| for a single ratio r > 0."""
    if not ratio > 0.0:
        raise ContractViolation("ratio must be positive")
    r = float(ratio)
    return abs(-np.log(r) - (-(r - 1.0) + 0.5 * (r - 1.0) ** 2))


def kl_cubic_bound(ratio: float) -> float:
    """Lagrange bound on the quadratic residual: |r-1|^3 / (3 min(r,1)^3)."""
    if not ratio > 0.0:
        raise ContractViolation("ratio must be positive")
    r = float(ratio)
    return abs(r - 1.0) ** 3 / (3.0 * min(r, 1.0) ** 3)


@dataclass
class LossBreakdown:
    """Objective value split into its parts, plus clipping diagnostics.

    ``total`` is the maximized objective; the trainer negates it. The
    identity total = surrogate - kl_coef * kl holds by construction.
    """

    surrogate: float
    kl: float
    total: float
    clipped_tokens: int
    total_tokens: int
    mean_epsilon: float | None = None
    epsilon_trace: np.ndarray | None = None
    gradient: np.ndarray | None = None

    @property
    def clip_fraction(self) -> float:
        if self.total_tokens == 0:
            return 0.0
        return self.clipped_tokens / self.total_tokens


@dataclass
class PreparedBatch:
    """Constant per-token arrays shared by every inner-epoch evaluation.

    ``distinct_contexts`` holds each context row once (``np.unique`` order)
    and ``contexts[i] == distinct_contexts[distinct_index[i]]``.
    """

    contexts: np.ndarray
    distinct_contexts: np.ndarray
    distinct_index: np.ndarray
    targets: np.ndarray
    masks: np.ndarray
    old_logprobs: np.ndarray
    ref_logprobs: np.ndarray
    advantages: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    weights: np.ndarray
    epsilon_trace: np.ndarray | None
    group_slices: list[tuple[int, int]]
    temperature: float


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)``, as a lexsort.

    Same table, order and index; ``np.unique`` sorts the rows as structured
    records, which takes about eight times as long on a batch of contexts.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    index = np.empty(len(rows), dtype=np.int64)
    index[order] = np.cumsum(new) - 1
    return ranked[new], index


def _distinct_forward(params: PolicyParams, distinct: np.ndarray, n_rows: int):
    """The MLP on each distinct context: (contexts, x, hidden, logits).

    When a batch of several rows has a single distinct context, the
    returned contexts hold it twice (the copy maps to no token): a one-row
    product takes BLAS's matrix-vector kernel, which rounds differently
    from the matrix-matrix kernel that scores full batches.
    """
    if distinct.shape[0] == 1 < n_rows:
        distinct = np.repeat(distinct, 2, axis=0)
    x, hidden = policy_mod.hidden_rows(params, distinct)
    return distinct, x, hidden, hidden @ params.w_out + params.b_out


def prepare_batch(
    batch: Sequence[RolloutGroup],
    strategy: ClipStrategy,
    ref_params: PolicyParams,
    xi: float = DEFAULT_XI,
    temperature: float = 1.0,
) -> PreparedBatch:
    """Flatten a batch of groups into per-token constants for the objective.

    Advantages, pass rates and clip bands are per response, so they are
    computed as per-response vectors and repeated over response lengths.
    """
    if len(batch) == 0:
        raise ContractViolation("batch must contain at least one group")
    vocab = ref_params.vocab
    advantages, pass_rates, sizes, lengths = [], [], [], []
    mask_tables, table_bases, pairs, targets, old_logprobs = [], [], [], [], []
    table_rows = 0
    for group in batch:
        stats = group_stats(group.rewards, xi)
        group_lengths = [len(resp) for resp in group.responses]
        if min(group_lengths) == 0:
            raise ContractViolation("cannot score an empty response")
        grammar = tasks_mod.response_grammar(group.prompt, vocab)
        table = mask_matrix(vocab.size, grammar, max(group_lengths))
        for resp in group.responses:
            pairs.append((group.prompt.tokens, resp.tokens))
            targets += resp.tokens
            old_logprobs.append(resp.logprobs)
        mask_tables.append(table)
        table_bases += [table_rows] * group.size
        table_rows += table.shape[0]
        advantages.append(stats.advantages)
        pass_rates.append(stats.pass_rate)
        sizes.append(group.size)
        lengths += group_lengths
    lengths = np.asarray(lengths)
    sizes = np.asarray(sizes)
    adv = np.concatenate(advantages)
    rate = np.repeat(pass_rates, sizes)
    lo, hi = clip_bounds(strategy, adv, rate)
    weights = 1.0 / (len(batch) * np.repeat(sizes, sizes) * lengths)
    trace = None
    if isinstance(strategy, Elastic):
        trace = np.repeat(dynamic_epsilon(adv, rate, strategy), lengths)
    contexts = policy_mod.stacked_contexts(pairs, ref_params.window, vocab.bos)
    distinct, index = _distinct_rows(contexts)
    targets = np.asarray(targets, dtype=np.int64)
    # Token t of a response reads row t of its group's grammar table.
    position = np.arange(targets.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    masks = np.concatenate(mask_tables)[np.repeat(table_bases, lengths) + position]
    *_, ref_logits = _distinct_forward(ref_params, distinct, targets.size)
    _, ref_lp = policy_mod.token_logprobs(ref_logits[index], targets, masks, temperature)
    group_ends = np.cumsum(lengths)[np.cumsum(sizes) - 1].tolist()
    return PreparedBatch(
        contexts=contexts,
        distinct_contexts=distinct,
        distinct_index=index,
        targets=targets,
        masks=masks,
        old_logprobs=np.concatenate(old_logprobs, dtype=np.float64),
        ref_logprobs=ref_lp,
        advantages=np.repeat(adv, lengths),
        lo=np.repeat(lo, lengths),
        hi=np.repeat(hi, lengths),
        weights=np.repeat(weights, lengths),
        epsilon_trace=trace,
        group_slices=list(zip([0] + group_ends[:-1], group_ends)),
        temperature=temperature,
    )


def evaluate_prepared(
    prep: PreparedBatch,
    params: PolicyParams,
    kl_coef: float,
    with_grad: bool = False,
) -> LossBreakdown:
    """Evaluate the clipped surrogate minus the KL penalty, with its gradient.

    The MLP runs once per distinct context; the mask, log-softmax and
    target pick stay per token. The gradient is closed-form: per token,
    d(total)/d(log-prob) is ``w * A * r`` where the unclipped branch is the
    minimum (always so inside the band, where both branches are equal) and
    zero where the clipped one is, minus ``kl_coef * w * (1 - u)``. It goes
    back through the softmax, is summed per distinct context and
    backpropagated through the MLP there.
    """
    if kl_coef < 0.0:
        raise ContractViolation("kl_coef must be non-negative")
    contexts, x, hidden, logits = _distinct_forward(
        params, prep.distinct_contexts, prep.targets.size
    )
    lp_rows, lp = policy_mod.token_logprobs(
        logits[prep.distinct_index], prep.targets, prep.masks, prep.temperature
    )
    ratio = np.exp(lp - prep.old_logprobs)
    unclipped_branch = ratio * prep.advantages
    clipped_branch = np.clip(ratio, prep.lo, prep.hi) * prep.advantages
    first = unclipped_branch <= clipped_branch
    surrogate = np.sum(np.where(first, unclipped_branch, clipped_branch) * prep.weights)
    diff = prep.ref_logprobs - lp
    u = np.exp(diff)
    kl = np.sum((u - diff - 1.0) * prep.weights)
    total = surrogate - kl_coef * kl
    gradient = None
    if with_grad:
        d_lp = prep.weights * (prep.advantages * ratio * first - kl_coef * (1.0 - u))
        d_rows = np.exp(lp_rows) * -d_lp[:, None]
        d_rows[np.arange(d_lp.size), prep.targets] += d_lp
        d_logits = np.zeros_like(logits)
        np.add.at(d_logits, prep.distinct_index, d_rows * (1.0 / prep.temperature))
        gradient = policy_mod.logits_gradient(params, contexts, x, hidden, d_logits)
    trace = prep.epsilon_trace
    return LossBreakdown(
        surrogate=float(surrogate),
        kl=float(kl),
        total=float(total),
        clipped_tokens=int(np.sum(clipped_branch < unclipped_branch)),
        total_tokens=int(prep.targets.size),
        mean_epsilon=None if trace is None else float(np.mean(trace)),
        epsilon_trace=trace,
        gradient=gradient,
    )


def batch_objective(
    batch: Sequence[RolloutGroup],
    strategy: ClipStrategy,
    kl_coef: float,
    params: PolicyParams,
    ref_params: PolicyParams,
    xi: float = DEFAULT_XI,
    temperature: float = 1.0,
    with_grad: bool = False,
) -> LossBreakdown:
    """Group-averaged, token-mean clipped surrogate with a KL penalty.

    Responses are weighted 1 / (groups * G * length) per token, so the
    result is the mean over groups of the mean over responses of the
    token-mean objective.
    """
    prep = prepare_batch(batch, strategy, ref_params, xi, temperature)
    return evaluate_prepared(prep, params, kl_coef, with_grad)


@dataclass(frozen=True)
class StaticMismatchReport:
    """How often ideal update sizes overflow one static band."""

    total_tokens: int
    flagged_tokens: int
    group_variances: tuple[float, ...]
    variance_spread: float

    @property
    def flagged_fraction(self) -> float:
        if self.total_tokens == 0:
            return 0.0
        return self.flagged_tokens / self.total_tokens


def static_mismatch_report(
    batch: Sequence[RolloutGroup],
    epsilon_static: float,
    beta: float = 1.0,
    xi: float = DEFAULT_XI,
) -> StaticMismatchReport:
    """Count tokens whose ideal ratio step |A| / beta exceeds the band.

    The ideal per-token step away from ratio one scales linearly with the
    advantage over the KL coefficient; with the proportionality constant
    taken as one, a token is flagged when |A| / beta > epsilon_static.
    The per-group spread of pass-rate variance p * (1 - p) summarizes how
    far one static band must stretch across difficulty levels.
    """
    if epsilon_static < 0.0:
        raise ContractViolation("epsilon_static must be non-negative")
    if not beta > 0.0:
        raise ContractViolation("beta must be positive")
    if len(batch) == 0:
        raise ContractViolation("batch must contain at least one group")
    total = 0
    flagged = 0
    variances = []
    for group in batch:
        stats = group_stats(group.rewards, xi)
        p = stats.pass_rate
        variances.append(p * (1.0 - p))
        for resp, adv in zip(group.responses, stats.advantages):
            total += len(resp)
            if abs(adv) / beta > epsilon_static:
                flagged += len(resp)
    return StaticMismatchReport(
        total_tokens=total,
        flagged_tokens=flagged,
        group_variances=tuple(variances),
        variance_spread=float(max(variances) - min(variances)),
    )

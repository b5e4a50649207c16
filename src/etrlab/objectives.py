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
from .autodiff import ContractViolation, Tensor, clip_gated, min_pair
from .groups import DEFAULT_XI, RolloutBatch, RolloutGroup, as_rollout_batch, group_stats
from .policy import (
    MIN_TEMPERATURE,
    PolicyParams,
    mask_matrix,  # noqa: F401  (nothing here calls it; the benchmark probes it here)
)

@dataclass(frozen=True)
class ClipHigh:
    """Static band: lower half-width epsilon_low, upper epsilon_high."""

    epsilon_low: float
    epsilon_high: float

    def __post_init__(self):
        if self.epsilon_low < 0.0 or self.epsilon_high < 0.0:
            raise ContractViolation("clip half-widths must be non-negative")


@dataclass(frozen=True)
class Elastic:
    """Signal-aware band; half-width depends on advantage and pass rate.

    A negative ``lambda1`` flips the sign of the advantage term only; the
    difficulty term keeps its sign.
    """

    epsilon_base: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if self.lambda2 < 0.0:
            raise ContractViolation("lambda2 must be non-negative")
        if not self.epsilon_base - abs(self.lambda1) > 0.0:
            raise ContractViolation(
                "band inversion: epsilon_base - lambda1 must stay positive"
            )


def Static(epsilon: float) -> ClipHigh:
    """GRPO's symmetric static band of half-width epsilon: the equal-width ClipHigh."""
    return ClipHigh(epsilon, epsilon)


ClipStrategy = Union[ClipHigh, Elastic]


def macro_adjustment(pass_rate, lambda2: float):
    """Difficulty-driven half-width bonus, maximal at pass rate 0.5.

    A NaN pass rate lies outside [0, 1] and is rejected.
    """
    p = np.asarray(pass_rate, dtype=np.float64)
    if p.size and not (
        np.minimum.reduce(p, axis=None) >= 0.0 and np.maximum.reduce(p, axis=None) <= 1.0
    ):
        raise ContractViolation("pass rate must lie in [0, 1]")
    return lambda2 * 4.0 * p * (1.0 - p)


def dynamic_epsilon(advantage, pass_rate, strategy: Elastic):
    """Elastic half-width; bounded by [base - |lam1|, base + |lam1| + lam2]."""
    micro = strategy.lambda1 * np.tanh(np.asarray(advantage, dtype=np.float64))
    return strategy.epsilon_base + micro + macro_adjustment(pass_rate, strategy.lambda2)


def clip_bounds(strategy: ClipStrategy, advantage, pass_rate):
    """Ratio bounds (lo, hi) for a token under the given strategy."""
    if isinstance(strategy, Elastic):
        eps = dynamic_epsilon(advantage, pass_rate, strategy)
        return 1.0 - eps, 1.0 + eps
    widths = (strategy.epsilon_low, strategy.epsilon_high)
    lo, hi = (np.broadcast_to(np.float64(w), np.shape(advantage)) for w in widths)
    return 1.0 - lo, 1.0 + hi


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
    ``pass_rate`` and ``mean_epsilon`` are the prepared batch's.
    """

    surrogate: float
    kl: float
    total: float
    clipped_tokens: int
    total_tokens: int
    pass_rate: float
    mean_epsilon: float | None = None
    gradient: np.ndarray | None = None

    @property
    def clip_fraction(self) -> float:
        if self.total_tokens == 0:
            return 0.0
        return self.clipped_tokens / self.total_tokens


@dataclass
class PreparedBatch:
    """Constant per-token arrays shared by every inner-epoch evaluation.

    A forced token is one whose mask row allows a single id and that is
    this id, as the closing EOS of every answer grammar. Under the
    precondition ``policy.sample_groups`` states for its one-token
    positions (finite logits and ``temperature >= MIN_TEMPERATURE``), its
    log-probability is exactly 0.0, the value the sampler stores for it,
    and with a finite ratio its gradient contribution is exactly +-0. So
    only the other tokens, ``scored``, are scored and reach the gradient,
    and a forced token's log-probability is 0.0 whatever the logits. A
    context that only forced tokens read is not forwarded, so a non-finite
    logit row there leaves the objective and its gradient finite.

    ``distinct_contexts`` holds each context row once (``np.unique``
    order), ``embed_one_hot`` their :func:`policy.embedding_one_hot`, and
    ``forward_contexts`` their rows ``forward_rows``, the ones a scored
    token reads: the MLP runs on that block. Scored token j, token
    ``scored[j]`` of the batch, reads row ``pair_index[j]`` of the
    distinct (context, mask-table row) pairs at its target id: pair p
    reads block row ``pair_contexts[p]`` under the additive mask
    ``pair_masks[p]``, so the masked log-softmax runs once per pair.
    ``gather_index`` holds each scored token's flat position in the pairs'
    (P, V) log-probs and ``target_index`` its flat position in its own row
    of a (S, V) block, one row per scored token. ``scatter_index`` holds,
    scored token by scored token, the V flat positions of its row of
    ``distinct_contexts`` in an (N, V) block, where the logits' gradient is
    summed. Every inner epoch reads these index arrays and the one-hot as
    they are. The other per-token arrays cover every token, in batch
    order. ``pass_rate`` is the mean of the groups' pass rates, from the
    same group statistics as the advantages.
    """

    distinct_contexts: np.ndarray
    embed_one_hot: np.ndarray
    forward_rows: np.ndarray
    forward_contexts: np.ndarray
    scored: np.ndarray
    pair_contexts: np.ndarray
    pair_masks: np.ndarray
    pair_index: np.ndarray
    gather_index: np.ndarray
    target_index: np.ndarray
    scatter_index: np.ndarray
    targets: np.ndarray
    old_logprobs: np.ndarray
    ref_logprobs: np.ndarray
    advantages: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    weights: np.ndarray
    pass_rate: float
    mean_epsilon: float | None
    temperature: float


def _distinct_rows(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` for integer rows in [0, base).

    Same table, order and index, from one sort of integer keys: each row is
    read as a number in base ``base``, first column most significant, so
    the keys sort as the rows do. A row too wide for one 62-bit key is cut
    into several, compared in column order.
    """
    # base**digits <= 2**62, so every key fits in an int64.
    digits = max(1, 62 // base.bit_length())
    powers = base ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    width = rows.shape[1]
    keys = np.empty((-(-width // digits), len(rows)), dtype=np.int64)
    for word, start in enumerate(range(0, width, digits)):
        chunk = rows[:, start : start + digits]
        np.matmul(chunk, powers[digits - chunk.shape[1] :], out=keys[word])
    order = np.lexsort(keys[::-1])
    ranked = keys[:, order]
    new = np.ones(len(rows), dtype=bool)
    np.logical_or.reduce(ranked[:, 1:] != ranked[:, :-1], axis=0, out=new[1:])
    index = np.empty(len(rows), dtype=np.int64)
    index[order] = new.cumsum() - 1
    return rows[order[new]], index


def prepare_batch(
    batch: RolloutBatch | Sequence[RolloutGroup],
    strategy: ClipStrategy,
    ref_params: PolicyParams,
    xi: float = DEFAULT_XI,
    temperature: float = 1.0,
) -> PreparedBatch:
    """Flatten a batch of groups into per-token constants for the objective.

    Groups are first packed into a :class:`RolloutBatch`. A row's cells in
    its ``policy.GrammarTable`` give its response positions, each token's
    mask row and its response's length, so its token weight, 1 / (groups
    * G * length). Advantages, pass rates and clip bands are per response,
    so they are computed as per-response vectors that each token reads at
    its response; targets, contexts and stored log-probs are the batch's
    buffers read at the response positions. Forced tokens get no pair and
    no scatter block (:class:`PreparedBatch`). Every id a context or
    target reads is checked here, once per batch.
    """
    vocab = ref_params.vocab
    window = ref_params.window
    batch = as_rollout_batch(batch, vocab, window)
    if batch.window != window:
        raise ContractViolation("batch was sampled with another context window")
    if not temperature >= MIN_TEMPERATURE:
        raise ContractViolation(f"temperature must be at least {MIN_TEMPERATURE!r}")
    k, g = len(batch), batch.group_size
    table = batch.table
    # Each row reads its group's cells; past its grammar, the padding row.
    # Token j of the batch is response[j]'s token at position[j].
    cells = table.cells.repeat(g, axis=0)
    read = cells < len(table.masks) - 1
    response, position = read.nonzero()
    mask_rows = cells[response, position]
    weights = 1.0 / (k * g * np.add.reduce(read, axis=1))
    # Every prompt tail is read by its response's first context, and every
    # response token is a target.
    contexts = batch.tokens[response[:, None], position[:, None] + np.arange(window)]
    targets = batch.tokens[response, window + position]
    policy_mod._check_ids(batch.tokens[:, :window], vocab.size)
    policy_mod._check_ids(targets, vocab.size)
    stats = group_stats(batch.rewards.reshape(k, g), xi)
    adv = stats.advantages.reshape(-1)
    rate = stats.pass_rate.repeat(g)
    mean_eps = None
    if isinstance(strategy, Elastic):
        eps = dynamic_epsilon(adv, rate, strategy)
        lo, hi = 1.0 - eps, 1.0 + eps
        mean_eps = float(np.add.reduce(eps[response]) / response.size)
    else:
        lo, hi = clip_bounds(strategy, adv, rate)
    # A token that is its mask row's sole id is forced; every other token is
    # scored, an id outside a one-id row included (its log-probability is
    # not 0.0).
    scored = (table.sole[mask_rows] != targets).nonzero()[0]
    # One sort ranks every token's (context, mask-table row). The distinct
    # contexts are the runs of its first ``window`` columns, and the pairs
    # are the rows some scored token reads, in the same order: the forward
    # block, the distinct contexts scored tokens read, has one row per run
    # of pair contexts, and pair_contexts is each pair's run.
    rows, row_index = _distinct_rows(
        np.concatenate((contexts, mask_rows[:, None]), axis=1), max(vocab.size, len(table.masks))
    )
    new_context = np.ones(len(rows), dtype=bool)
    np.logical_or.reduce(rows[1:, :window] != rows[:-1, :window], axis=1, out=new_context[1:])
    row_context = new_context.cumsum() - 1
    distinct = rows[new_context, :window]
    scored_rows = row_index[scored]
    scored_index = row_context[scored_rows]
    paired = np.zeros(len(rows), dtype=bool)
    paired[scored_rows] = True
    pair_context = row_context[paired]
    head = np.ones(len(pair_context), dtype=bool)
    head[1:] = pair_context[1:] != pair_context[:-1]
    forward_rows = pair_context[head]
    pair_index = (paired.cumsum() - 1)[scored_rows]
    scored_targets = targets[scored]
    v = vocab.size
    prep = PreparedBatch(
        distinct_contexts=distinct,
        embed_one_hot=policy_mod.embedding_one_hot(distinct, v),
        forward_rows=forward_rows,
        forward_contexts=distinct[forward_rows],
        scored=scored,
        pair_contexts=head.cumsum() - 1,
        pair_masks=table.masks[rows[paired, window]],
        pair_index=pair_index,
        gather_index=pair_index * v + scored_targets,
        target_index=np.arange(0, scored.size * v, v) + scored_targets,
        scatter_index=(scored_index[:, None] * v + np.arange(v)).reshape(-1),
        targets=targets,
        old_logprobs=batch.logprobs[response, position],
        ref_logprobs=None,  # scored on the pair rows below
        advantages=adv[response],
        lo=lo[response],
        hi=hi[response],
        weights=weights[response],
        pass_rate=float(np.add.reduce(stats.pass_rate) / k),
        mean_epsilon=mean_eps,
        temperature=temperature,
    )
    prep.ref_logprobs = score_prepared(prep, ref_params)[-1]
    return prep


def score_prepared(prep: PreparedBatch, params: PolicyParams) -> tuple[np.ndarray, ...]:
    """Score a prepared batch's tokens under ``params``.

    The MLP runs once per context a scored token reads and the masked
    log-softmax once per (context, mask row) pair; scored tokens read their
    pair's row, and forced tokens score 0.0 by :class:`PreparedBatch`'s
    rule. Returns the forward's ``(x, hidden, logits)``, the pair rows'
    log-probs and the per-token log-probs, shape (T,).
    """
    x, hidden, logits = policy_mod.forward(params, prep.forward_contexts)
    lp_pairs = policy_mod.masked_logprobs(
        logits[prep.pair_contexts], prep.pair_masks, prep.temperature
    )
    lp = np.zeros(prep.targets.size)
    lp[prep.scored] = lp_pairs.take(prep.gather_index)
    return x, hidden, logits, lp_pairs, lp


def evaluate_prepared(
    prep: PreparedBatch,
    params: PolicyParams,
    kl_coef: float,
    with_grad: bool = False,
    gradient_out: np.ndarray | None = None,
) -> LossBreakdown:
    """Evaluate the clipped surrogate minus the KL penalty, with its gradient.

    Tokens are scored by :func:`score_prepared`; the surrogate, the KL
    term and the clip count sum over every token in batch order. The
    gradient is closed-form: per token, d(total)/d(log-prob) is
    ``w * A * r`` where the unclipped branch is the minimum (always so
    inside the band, where both branches are equal) and zero where the
    clipped one is, minus ``kl_coef * w * (1 - u)``. It goes back through
    the softmax per scored token, is summed per distinct context in token
    order by one ``bincount`` and backpropagated through the MLP from the
    forwarded contexts, into ``gradient_out`` when given. Forced tokens are
    left out by :class:`PreparedBatch`'s rule, so a batch of forced tokens
    only gets an exactly zero gradient.
    """
    if kl_coef < 0.0:
        raise ContractViolation("kl_coef must be non-negative")
    x, hidden, logits, lp_pairs, lp = score_prepared(prep, params)
    ratio = np.exp(lp - prep.old_logprobs)
    unclipped_branch = ratio * prep.advantages
    # np.clip's bits, NaN ratios included, without its Python wrapper.
    clipped_branch = np.minimum(np.maximum(ratio, prep.lo), prep.hi) * prep.advantages
    first = unclipped_branch <= clipped_branch
    surrogate = np.add.reduce(np.where(first, unclipped_branch, clipped_branch) * prep.weights)
    diff = prep.ref_logprobs - lp
    u = np.exp(diff)
    kl = np.add.reduce((u - diff - 1.0) * prep.weights)
    total = surrogate - kl_coef * kl
    gradient = None
    if with_grad:
        d_lp = prep.weights * (prep.advantages * ratio * first - kl_coef * (1.0 - u))
        d_lp = d_lp[prep.scored]
        d_rows = np.exp(lp_pairs)[prep.pair_index] * -d_lp[:, None]
        d_rows.reshape(-1)[prep.target_index] += d_lp
        # As in policy.masked_logprobs, scaling by 1.0 would change no bit.
        if prep.temperature != 1.0:
            d_rows *= 1.0 / prep.temperature
        n, v = len(prep.distinct_contexts), logits.shape[1]
        d_logits = np.bincount(prep.scatter_index, d_rows.reshape(-1), minlength=n * v)
        gradient = policy_mod.logits_gradient(
            params,
            prep.embed_one_hot,
            prep.forward_rows,
            x,
            hidden,
            d_logits.reshape(n, v),
            gradient_out,
        )
    return LossBreakdown(
        surrogate=float(surrogate),
        kl=float(kl),
        total=float(total),
        clipped_tokens=int(np.add.reduce(clipped_branch < unclipped_branch)),
        total_tokens=int(prep.targets.size),
        pass_rate=prep.pass_rate,
        mean_epsilon=prep.mean_epsilon,
        gradient=gradient,
    )


def batch_objective(
    batch: RolloutBatch | Sequence[RolloutGroup],
    strategy: ClipStrategy,
    kl_coef: float,
    params: PolicyParams,
    ref_params: PolicyParams,
    with_grad: bool = False,
) -> LossBreakdown:
    """Group-averaged, token-mean clipped surrogate with a KL penalty.

    Responses are weighted 1 / (groups * G * length) per token, so the
    result is the mean over groups of the mean over responses of the
    token-mean objective.
    """
    prep = prepare_batch(batch, strategy, ref_params)
    return evaluate_prepared(prep, params, kl_coef, with_grad)

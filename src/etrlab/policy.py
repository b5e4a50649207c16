"""Tiny fixed-window feedforward language models.

The policy reads the last ``window`` token ids (left-padded with BOS),
concatenates their embeddings, and maps them through one tanh hidden
layer to logits over the vocabulary. Sampling and scoring always run
under per-position token masks, so a task constrains responses to its
legal alphabet; masked distributions are renormalized, so the stored
log-probabilities are log-probabilities of the constrained policy.

All randomness flows through explicitly passed numpy generators; sampling
is a pure function of (params, prompt, rng stream).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff
from .autodiff import ContractViolation

# Additive logit penalty for illegal tokens. Large enough that exp()
# underflows to exactly 0.0 after max-subtraction, keeping masked
# renormalization exact in float64.
MASK_LOGIT = -1e9

# Lowest sampling and scoring temperature. Logits are scaled by
# 1 / temperature before MASK_LOGIT is added, so masks stay exact while
# the raw logit spread is below 1e6.
MIN_TEMPERATURE = 1e-3

# Legal token ids per response position; tuples, so mask tables can be memoised.
PositionMasks = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Vocab:
    """Token id layout: content ids first, then BOS, EOS, separator."""

    n_content: int = 10

    def __post_init__(self):
        if self.n_content < 1:
            raise ContractViolation("vocabulary needs at least one content token")

    @property
    def bos(self) -> int:
        return self.n_content

    @property
    def eos(self) -> int:
        return self.n_content + 1

    @property
    def sep(self) -> int:
        return self.n_content + 2

    @property
    def size(self) -> int:
        return self.n_content + 3

    def content_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_content))


class PolicyParams:
    """One policy network's parameters: a flat float64 vector and its blocks.

    ``embed``, ``w_hidden``, ``b_hidden``, ``w_out`` and ``b_out`` are
    views of ``vector``, laid out in that order, so writing the vector
    writes every block. A new instance holds zeros.
    """

    __slots__ = ("vocab", "window", "vector", "embed", "w_hidden", "b_hidden", "w_out", "b_out")

    def __init__(self, vocab: Vocab, window: int, embed_dim: int, hidden_dim: int):
        if window < 1:
            raise ContractViolation("context window must be at least 1")
        self.vocab = vocab
        self.window = int(window)
        v = vocab.size
        shapes = (
            (v, embed_dim),
            (window * embed_dim, hidden_dim),
            (hidden_dim,),
            (hidden_dim, v),
            (v,),
        )
        self.vector = np.zeros(sum(math.prod(shape) for shape in shapes))
        self.embed, self.w_hidden, self.b_hidden, self.w_out, self.b_out = _split(
            self.vector, shapes
        )

    @property
    def embed_dim(self) -> int:
        return self.embed.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.b_hidden.shape[0]

    @property
    def param_count(self) -> int:
        return self.vector.size

    def blocks(self, vector: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of a flat vector laid out as this policy's five blocks."""
        blocks = (self.embed, self.w_hidden, self.b_hidden, self.w_out, self.b_out)
        return _split(vector, [block.shape for block in blocks])

    def to_vector(self) -> np.ndarray:
        return self.vector.copy()

    def set_vector(self, vec: np.ndarray) -> None:
        """Load a flat parameter vector in place."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != self.vector.shape:
            raise ContractViolation("parameter vector has the wrong length")
        self.vector[...] = vec

    def copy(self) -> "PolicyParams":
        return PolicyParams.from_vector(
            self.vocab, self.window, self.embed_dim, self.hidden_dim, self.vector
        )

    @classmethod
    def from_vector(
        cls, vocab: Vocab, window: int, embed_dim: int, hidden_dim: int, vec: np.ndarray
    ) -> "PolicyParams":
        params = cls(vocab, window, embed_dim, hidden_dim)
        params.set_vector(vec)
        return params


def _split(vector: np.ndarray, shapes) -> tuple[np.ndarray, ...]:
    blocks = []
    start = 0
    for shape in shapes:
        stop = start + math.prod(shape)
        blocks.append(vector[start:stop].reshape(shape))
        start = stop
    return tuple(blocks)


def init_params(
    vocab: Vocab,
    window: int,
    embed_dim: int,
    hidden_dim: int,
    seed: int,
    scale: float,
) -> PolicyParams:
    """Deterministic uniform initialization in [-scale, scale]."""
    if scale < 0.0:
        raise ContractViolation("init scale must be non-negative")
    params = PolicyParams(vocab, window, embed_dim, hidden_dim)
    params.set_vector(np.random.default_rng(seed).uniform(-scale, scale, size=params.param_count))
    return params


def pad_context(tokens: Sequence[int], window: int, bos: int) -> np.ndarray:
    """Last ``window`` ids of a sequence, left-padded with BOS."""
    tail = list(tokens)[-window:]
    return np.asarray([bos] * (window - len(tail)) + tail, dtype=np.int64)


def _check_ids(ids: np.ndarray, size: int) -> None:
    if ids.size and (
        np.minimum.reduce(ids, axis=None) < 0 or np.maximum.reduce(ids, axis=None) >= size
    ):
        raise ContractViolation("token id out of vocabulary range")


def forward(
    params: PolicyParams, contexts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The MLP on (n, W) padded contexts: embeddings, activations, logits.

    Returns the concatenated context embeddings (n, W*D), the tanh
    activations (n, H) and the logits (n, V). Ids are not checked here:
    callers check them once, where they enter the program.

    A single row is forwarded twice and the first copy returned: a one-row
    product takes BLAS's matrix-vector kernel, which rounds differently
    from the rows of a larger block, so this keeps a row's bits the same
    however many rows it is forwarded with. An empty block gives empty
    arrays.
    """
    n = contexts.shape[0]
    if n == 1:
        contexts = contexts.repeat(2, axis=0)
    x = params.embed.take(contexts, axis=0).reshape(len(contexts), params.w_hidden.shape[0])
    pre = x @ params.w_hidden
    pre += params.b_hidden
    hidden = np.tanh(pre, out=pre)
    logits = hidden @ params.w_out
    logits += params.b_out
    return x[:n], hidden[:n], logits[:n]


def logits_gradient(
    params: PolicyParams,
    contexts: np.ndarray,
    rows: np.ndarray,
    x: np.ndarray,
    hidden: np.ndarray,
    d_logits: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Flat parameter gradient of sum(d_logits * logits) over the (N, W) ``contexts``.

    Only ``contexts[rows]`` was forwarded, to ``x`` and ``hidden``, and the
    (N, V) ``d_logits`` is zero on the other rows. Those rows stay in the
    products whose size is N, as zero rows, so the result has the bits it
    has with every row forwarded: BLAS rounds the rows of an ``a @ b.T``
    product differently at some row counts, and the embedding's one-hot
    product at widths of 4 or less when its inner dimension shrinks. The
    tanh derivative is looked up on :mod:`autodiff` at call time, so the
    gradient check and this backward share one definition. Each block is
    written straight into its place in ``out`` (a new vector when not
    given), which is returned.
    """
    d_pre_rows = autodiff._tanh_backward(hidden, (d_logits @ params.w_out.T)[rows])
    d_pre = np.zeros((len(contexts), params.hidden_dim))
    d_pre[rows] = d_pre_rows
    d_x = (d_pre @ params.w_hidden.T).reshape(-1, params.embed_dim)
    grad = np.empty(params.param_count) if out is None else out
    d_embed, d_w_hidden, d_b_hidden, d_w_out, d_b_out = params.blocks(grad)
    # Scatter-add into embedding rows as a (V, N*W) one-hot product.
    np.matmul(contexts.reshape(-1) == np.arange(params.vocab.size)[:, None], d_x, out=d_embed)
    np.matmul(x.T, d_pre_rows, out=d_w_hidden)
    d_pre.sum(axis=0, out=d_b_hidden)
    np.matmul(hidden.T, d_logits[rows], out=d_w_out)
    d_logits.sum(axis=0, out=d_b_out)
    return grad


def masked_logprobs(logits: np.ndarray, masks: np.ndarray, temperature: float) -> np.ndarray:
    """Log-softmax over the last axis of scaled, masked logits.

    The logits are scaled and masked in place, so callers pass rows they
    own: fresh :func:`forward` output or a fancy-index copy of it.
    ``masks`` broadcasts against ``logits``. Every step works row by row,
    so a row's values do not depend on the other rows of the block.
    """
    # The reductions call their ufuncs directly: ndarray.max and .sum would
    # reach the same ufuncs through numpy's Python wrappers in
    # numpy/_core/_methods.py. Each step must stay the same ufunc on the same
    # operands: stored log-probs are pinned byte for byte. Scaling by 1.0
    # would change no bit, so temperature 1 skips it.
    if temperature != 1.0:
        logits *= 1.0 / temperature
    logits += masks
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    norm = np.add.reduce(np.exp(shifted), axis=-1, keepdims=True)
    shifted -= np.log(norm, out=norm)
    return shifted


@functools.lru_cache(maxsize=256)
def mask_matrix(vocab_size: int, masks: PositionMasks) -> np.ndarray:
    """One additive-logit row per position: 0 for legal ids, MASK_LOGIT otherwise.

    Tables are memoised on the arguments, so masks must be hashable, as
    the tuples ``tasks.response_grammar`` returns are; they are returned
    read-only. A call with an illegal id raises every time, since a failed
    build is never cached.
    """
    out = np.full((len(masks), vocab_size), MASK_LOGIT)
    for i, legal in enumerate(masks):
        legal = np.asarray(tuple(legal), dtype=np.int64)
        if legal.size == 0:
            raise ContractViolation("a position mask must allow at least one token")
        _check_ids(legal, vocab_size)
        out[i, legal] = 0.0
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def sole_ids(masks: PositionMasks) -> np.ndarray:
    """Each position's one legal id, or -1 where its mask allows a choice.

    Memoised and read-only like :func:`mask_matrix`, whose table says the
    same: a position with a sole id has one 0.0 entry, at that id.
    """
    out = np.asarray([m[0] if len(m) == 1 else -1 for m in masks], dtype=np.int64)
    out.flags.writeable = False
    return out


class SampledResponse:
    """One sampled response: token ids and their stored log-probabilities."""

    __slots__ = ("tokens", "logprobs")

    def __init__(self, tokens: tuple[int, ...], logprobs: np.ndarray):
        if len(tokens) != len(logprobs):
            raise ContractViolation("token and log-probability lengths differ")
        self.tokens = tokens
        self.logprobs = logprobs

    def __len__(self) -> int:
        return len(self.tokens)


class SampledRows:
    """The rows of one :func:`sample_group` call, read-only, over its buffers.

    ``tokens`` and ``logprobs`` are the call's (n, L) response ids and
    their log-probabilities, both read-only. Iteration builds a
    :class:`SampledResponse` per row on demand, its log-probs a view of
    the row.
    """

    __slots__ = ("tokens", "logprobs")

    def __init__(self, tokens: np.ndarray, logprobs: np.ndarray):
        tokens.flags.writeable = logprobs.flags.writeable = False
        self.tokens = tokens
        self.logprobs = logprobs

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def __iter__(self):
        for row, row_lp in zip(self.tokens.tolist(), self.logprobs):
            yield SampledResponse(tuple(row), row_lp)


def _sample_rows(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF picks (R, m): the m draws of row r against probs row r."""
    idx = np.add.reduce(probs.cumsum(axis=1)[:, None, :] < draws[:, :, None], axis=2)
    return np.minimum(idx, probs.shape[1] - 1, out=idx)


def sample_groups(
    params: PolicyParams,
    prompts: Sequence[Sequence[int]],
    n: int,
    temperature: float,
    rngs: Sequence[np.random.Generator],
    position_masks: Sequence[PositionMasks],
    *,
    collect_entropy: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Sample n responses to each of K prompts in lockstep.

    A response has one token per position of its prompt's masks, so the
    masks alone decide its length: EOS is an id like any other here, and
    a grammar that ends in EOS ends its responses there.

    All K * n rows share one forward pass per position. Up to the first
    position with a choice, the rows of a group have read the same prompt
    tail and forced ids, so that position forwards one context per group
    and samples the group's n rows from its one log-prob row. Group k
    draws only from ``rngs[k]``, by :func:`draw_uniforms` once every check
    has passed, so its stream consumption depends only on its own masks
    and n, never on the other groups, and a rejected call consumes nothing.

    Masks may be any sequences of ids; they are made tuples here, so the
    memoised :func:`mask_matrix` and :func:`sole_ids` can hash them.

    Returns the sampler's padded buffers, rows group-major (rows
    ``k * n`` to ``(k + 1) * n - 1`` answer prompt k):

    - ``tokens`` (K * n, window + horizon): the first ``window`` columns
      hold the row's BOS-padded prompt tail and the rest its response, so
      the context of response token t in row i is
      ``tokens[i, t : t + window]``;
    - ``logprobs`` (K * n, horizon): each response token's log-probability.
      Columns past a row's number of masks are padding;
    - entropies of the positions whose mask allows at least two tokens,
      group-major, and within a group position-major over its rows (empty
      unless ``collect_entropy``).

    A position is one-token when every group whose masks reach it has a
    mask there with exactly one legal id, as the EOS position that ends
    every answer grammar. Such a position runs no forward pass: each open
    group still draws its n uniforms, and each row gets the one id its
    mask row allows (0 past its masks) with log-probability 0.0. That is
    what the full path gives for every draw in (0, 1) whenever masked
    renormalisation is exact (finite logits and
    ``temperature >= MIN_TEMPERATURE``). Padding at such a position in
    the columns of groups already past their masks may therefore differ
    from what a forward pass would have left there.

    Prompt-tail ids are checked once per call, before any position runs,
    so a call with no positions still rejects an id outside the vocabulary.
    """
    budgets, masks, sole, tokens = _lockstep(
        params, prompts, n, temperature, len(rngs), position_masks
    )
    draws = draw_uniforms(rngs, budgets, n)
    return _sample_positions(params, masks, sole, tokens, draws, temperature, collect_entropy)


def sample_drawn(
    params: PolicyParams,
    prompts: Sequence[Sequence[int]],
    n: int,
    temperature: float,
    draws: np.ndarray,
    position_masks: Sequence[PositionMasks],
    *,
    collect_entropy: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """:func:`sample_groups` on uniforms drawn ahead by :func:`draw_uniforms`.

    ``draws`` is the (K, horizon, n) block that ``draw_uniforms`` gives for
    the generators ``sample_groups`` would have been handed, so the result
    is that call's, byte for byte. The same checks run first.
    """
    budgets, masks, sole, tokens = _lockstep(
        params, prompts, n, temperature, len(draws), position_masks
    )
    if draws.shape != (len(prompts), max(budgets), n):
        raise ContractViolation("one (horizon, n) block of uniforms per prompt is required")
    return _sample_positions(params, masks, sole, tokens, draws, temperature, collect_entropy)


def draw_uniforms(
    rngs: Sequence[np.random.Generator], budgets: Sequence[int], n: int
) -> np.ndarray:
    """The (K, horizon, n) uniforms a lockstep call samples with.

    Group k reads ``rngs[k]`` once: n uniforms for each of its
    ``budgets[k]`` positions, position-major. Rows past a group's budget
    repeat its last draw: they only fill padding, and the padding's bytes
    are pinned with the rest. This is the one place a sampling generator
    is read.
    """
    draws = np.zeros((len(budgets), max(budgets, default=0), n))
    for k, b in enumerate(budgets):
        if b:
            rngs[k].random(out=draws[k, :b])
            draws[k, b:] = draws[k, b - 1]
    return draws


def _lockstep(
    params: PolicyParams,
    prompts: Sequence[Sequence[int]],
    n: int,
    temperature: float,
    sources: int,
    position_masks: Sequence[PositionMasks],
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Checks and set-up of a lockstep call, before any uniform is drawn.

    ``sources`` counts the caller's uniform sources, one per prompt.
    Returns each group's budget (its number of masks), the (K, horizon, V)
    mask rows, the (K, horizon) one-id picks and the token buffer with
    every row's prompt tail in place.
    """
    k_groups = len(prompts)
    if k_groups < 1:
        raise ContractViolation("sampling needs at least one prompt")
    if n < 1:
        raise ContractViolation("group size must be at least 1")
    if not temperature >= MIN_TEMPERATURE:
        raise ContractViolation(f"temperature must be at least {MIN_TEMPERATURE!r}")
    if sources != k_groups:
        raise ContractViolation("one uniform source per prompt is required")
    if len(position_masks) != k_groups:
        raise ContractViolation("one mask sequence per prompt is required")
    vocab = params.vocab
    v = vocab.size
    window = params.window
    position_masks = [tuple(map(tuple, m)) for m in position_masks]
    budgets = [len(m) for m in position_masks]
    horizon = max(budgets)
    # One mask row and one-id pick per group and position, from the tables
    # of each distinct grammar, which are already in group order when no two
    # groups share one. A group past its budget has all-zero mask rows and
    # picks id 0: they only fill its padding.
    grammars: dict[PositionMasks, int] = {}
    which = [grammars.setdefault(m, len(grammars)) for m in position_masks]
    group_masks = np.zeros((len(grammars), horizon, v))
    group_sole = np.zeros((len(grammars), horizon), dtype=np.int64)
    for i, m in enumerate(grammars):
        group_masks[i, : len(m)] = mask_matrix(v, m)
        group_sole[i, : len(m)] = sole_ids(m)
    if len(grammars) < k_groups:
        group_masks, group_sole = group_masks[which], group_sole[which]
    # Only prompt tails need a check: _sample_rows clamps sampled ids. A few
    # Python ints are checked and padded faster in Python than in numpy.
    tails = [list(p[-window:]) for p in prompts]
    if not all(0 <= t < v for tail in tails for t in tail):
        raise ContractViolation("token id out of vocabulary range")
    tokens = np.zeros((k_groups * n, window + horizon), dtype=np.int64)
    tails = np.asarray([[vocab.bos] * (window - len(t)) + t for t in tails])
    tokens[:, :window] = tails.repeat(n, axis=0)
    return budgets, group_masks, group_sole, tokens


def _sample_positions(
    params: PolicyParams,
    group_masks: np.ndarray,
    group_sole: np.ndarray,
    tokens: np.ndarray,
    draws: np.ndarray,
    temperature: float,
    collect_entropy: bool,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """The position loop of a lockstep call, on :func:`_lockstep`'s set-up and its uniforms."""
    k_groups, horizon, n = draws.shape
    v = params.vocab.size
    window = params.window
    rows = k_groups * n
    # A position is one-token when no group that reaches it has a choice there.
    choice = group_sole < 0
    one_token = ~np.logical_or.reduce(choice, axis=0)
    if collect_entropy:
        entropy = np.zeros((horizon, rows))
    logprobs = np.zeros((rows, horizon))
    row_starts = np.arange(0, rows * v, v)
    # Rows per distinct context: n until the first position with a choice.
    stride = n
    for pos in range(horizon):
        if one_token[pos]:
            # No choice anywhere: the draws are spent, the log-probs stay 0.0,
            # and each row takes its mask row's one 0.0 entry (id 0 on an
            # all-zero row, past its group's budget).
            picks = group_sole[:, pos].repeat(n)
        else:
            logits = forward(params, tokens[::stride, pos : pos + window])[2]
            lp = masked_logprobs(
                logits.reshape(k_groups, -1, v), group_masks[:, pos, None], temperature
            ).reshape(len(logits), v)
            probs = np.exp(lp)
            # Each distinct context's rows sample from its one row.
            picks = _sample_rows(probs, draws[:, pos].reshape(len(lp), stride))
            logprobs[:, pos] = lp.take(row_starts[: len(lp), None] + picks).reshape(rows)
            if collect_entropy:
                entropy[pos] = (-np.add.reduce(probs * lp, axis=1)).repeat(stride)
            picks = picks.reshape(rows)
            stride = 1
        tokens[:, window + pos] = picks
    if not collect_entropy:
        return tokens, logprobs, []
    # Group-major, then position-major over the positions with a choice.
    entropy = entropy.reshape(horizon, k_groups, n).transpose(1, 0, 2)
    return tokens, logprobs, entropy[choice].ravel().tolist()


def sample_group(
    params: PolicyParams,
    prompt: Sequence[int],
    n: int,
    temperature: float,
    rng: np.random.Generator,
    position_masks: PositionMasks,
    max_len: int = sys.maxsize,
    collect_entropy: bool = False,
) -> tuple[SampledRows, list[float]]:
    """Sample n responses to one prompt in lockstep from a single stream.

    The one-prompt case of :func:`sample_groups` on the first ``max_len``
    masks. Every row has one token per mask, so the rows come back as
    :class:`SampledRows` over the response columns of the call's own
    buffers, and no per-row object is built unless a caller reads one.
    """
    if max_len < 0:
        raise ContractViolation("max_len must be non-negative")
    tokens, logprobs, entropies = sample_groups(
        params,
        [prompt],
        n,
        temperature,
        [rng],
        [position_masks[:max_len]],
        collect_entropy=collect_entropy,
    )
    return SampledRows(tokens[:, params.window :], logprobs), entropies


def score_tokens(
    params: PolicyParams,
    contexts: np.ndarray,
    targets: np.ndarray,
    masks: np.ndarray,
    temperature: float = 1.0,
) -> np.ndarray:
    """Log-probabilities of target tokens under the masked policy, shape (T,).

    The per-token reference: one row per token, where the program scores a
    prepared batch once per distinct (context, mask row) pair
    (``objectives.score_prepared``). The tests compare the two, and the
    benchmark's ``policy.score`` probe names it. Context and target ids
    are checked here, before the forward pass.
    """
    _check_ids(contexts, params.vocab.size)
    _check_ids(targets, params.vocab.size)
    lp = masked_logprobs(forward(params, contexts)[2], masks, temperature)
    return lp[np.arange(lp.shape[0]), np.asarray(targets, dtype=np.int64)]

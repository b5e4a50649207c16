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
import operator
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
    if ids.size and (ids.min() < 0 or ids.max() >= size):
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
    however many rows it is forwarded with.
    """
    n = contexts.shape[0]
    if n == 1:
        contexts = np.repeat(contexts, 2, axis=0)
    x = params.embed.take(contexts, axis=0).reshape(contexts.shape[0], -1)
    pre = x @ params.w_hidden
    pre += params.b_hidden
    hidden = np.tanh(pre, out=pre)
    logits = hidden @ params.w_out
    logits += params.b_out
    return x[:n], hidden[:n], logits[:n]


def logits_gradient(
    params: PolicyParams,
    contexts: np.ndarray,
    x: np.ndarray,
    hidden: np.ndarray,
    d_logits: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Flat parameter gradient of sum(d_logits * logits) over the given rows.

    ``x`` and ``hidden`` are :func:`forward` of the same contexts. The
    tanh derivative is looked up on :mod:`autodiff` at call time, so the
    gradient check and this backward share one definition. Each block is
    written straight into its place in ``out`` (a new vector when not
    given), which is returned.
    """
    d_pre = autodiff._tanh_backward(hidden, d_logits @ params.w_out.T)
    d_x = (d_pre @ params.w_hidden.T).reshape(-1, params.embed_dim)
    grad = np.empty(params.param_count) if out is None else out
    d_embed, d_w_hidden, d_b_hidden, d_w_out, d_b_out = params.blocks(grad)
    # Scatter-add into embedding rows as a (V, n*W) one-hot product.
    np.matmul(contexts.reshape(-1) == np.arange(params.vocab.size)[:, None], d_x, out=d_embed)
    np.matmul(x.T, d_pre, out=d_w_hidden)
    d_pre.sum(axis=0, out=d_b_hidden)
    np.matmul(hidden.T, d_logits, out=d_w_out)
    d_logits.sum(axis=0, out=d_b_out)
    return grad


def masked_logprobs(logits: np.ndarray, masks: np.ndarray, temperature: float) -> np.ndarray:
    """Row log-softmax of scaled, masked logits.

    The logits are scaled and masked in place, so callers pass rows they
    own: fresh :func:`forward` output or a fancy-index copy of it. Every
    step works row by row, so a row's values do not depend on the other
    rows of the block.
    """
    # ndarray reductions and in-place steps skip numpy's Python wrappers.
    # Each step must stay the same ufunc on the same operands: stored
    # log-probs are pinned byte for byte.
    logits *= 1.0 / temperature
    logits += masks
    shifted = logits - logits.max(axis=-1, keepdims=True)
    norm = np.exp(shifted).sum(axis=-1, keepdims=True)
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


class SampledRows(Sequence[SampledResponse]):
    """The rows of one :func:`sample_group` call, read-only, over its buffers.

    ``tokens`` and ``logprobs`` are the call's (n, L) response ids and
    their log-probabilities, both read-only. Indexing and iteration build
    a :class:`SampledResponse` per row on demand, its log-probs a view of
    the row.
    """

    __slots__ = ("tokens", "logprobs")

    def __init__(self, tokens: np.ndarray, logprobs: np.ndarray):
        tokens.flags.writeable = logprobs.flags.writeable = False
        self.tokens = tokens
        self.logprobs = logprobs

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def __getitem__(self, i: int) -> SampledResponse:
        return SampledResponse(tuple(self.tokens[operator.index(i)].tolist()), self.logprobs[i])

    def __iter__(self):
        for row, row_lp in zip(self.tokens.tolist(), self.logprobs):
            yield SampledResponse(tuple(row), row_lp)


def _sample_rows(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF pick per row, one uniform draw per row."""
    idx = (probs.cumsum(axis=1) < draws[:, None]).sum(axis=1)
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
    and repeats each group's log-prob row n times. Group k draws
    only from ``rngs[k]``: n uniforms at each of its positions, so its
    stream consumption depends only on its own masks and n, never on the
    other groups.

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
    k_groups = len(prompts)
    if k_groups < 1:
        raise ContractViolation("sampling needs at least one prompt")
    if n < 1:
        raise ContractViolation("group size must be at least 1")
    if not temperature >= MIN_TEMPERATURE:
        raise ContractViolation(f"temperature must be at least {MIN_TEMPERATURE!r}")
    if len(rngs) != k_groups:
        raise ContractViolation("one generator per prompt is required")
    if len(position_masks) != k_groups:
        raise ContractViolation("one mask sequence per prompt is required")
    vocab = params.vocab
    v = vocab.size
    window = params.window
    budgets = [len(m) for m in position_masks]
    horizon = max(budgets)
    rows = k_groups * n
    # Mask rows are built once per group and laid out per position and row,
    # so each position adds one contiguous (rows, V) block. Rows of a
    # group past its budget stay all zero: they only fill its padding. A
    # position is one-token when no group that reaches it has a choice there.
    row_masks = np.zeros((horizon, rows, v))
    choice = np.zeros((k_groups, horizon), dtype=bool)
    for k, (m, b) in enumerate(zip(position_masks, budgets)):
        row_masks[:b, k * n : (k + 1) * n] = mask_matrix(v, m)[:, None, :]
        choice[k, :b] = [len(legal) > 1 for legal in m]
    one_token = ~choice.any(axis=0)
    if collect_entropy:
        entropy = np.zeros((horizon, rows))
    # Only prompt tails need a check: _sample_rows clamps sampled ids.
    tails = np.asarray([pad_context(p, window, vocab.bos) for p in prompts])
    _check_ids(tails, v)
    tokens = np.zeros((rows, window + horizon), dtype=np.int64)
    tokens[:, :window] = np.repeat(tails, n, axis=0)
    logprobs = np.zeros((rows, horizon))
    draws = np.zeros(rows)
    row_starts = np.arange(0, rows * v, v)
    # Rows per distinct context: n until the first position with a choice.
    stride = n
    for pos in range(horizon):
        for k, b in enumerate(budgets):
            if b > pos:
                rngs[k].random(out=draws[k * n : (k + 1) * n])
        if one_token[pos]:
            # No choice anywhere: the draws are spent, the log-probs stay 0.0,
            # and each row takes its mask row's one 0.0 entry (id 0 on an
            # all-zero row, past its group's budget).
            picks = row_masks[pos].argmax(axis=1)
        else:
            logits = forward(params, tokens[::stride, pos : pos + window])[2]
            lp = masked_logprobs(logits, row_masks[pos][::stride], temperature)
            probs = np.exp(lp)
            if stride > 1:
                lp = np.repeat(lp, stride, axis=0)
                probs = np.repeat(probs, stride, axis=0)
                stride = 1
            picks = _sample_rows(probs, draws)
            if collect_entropy:
                entropy[pos] = -(probs * lp).sum(axis=1)
            logprobs[:, pos] = lp.take(row_starts + picks)
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

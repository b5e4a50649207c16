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
from typing import NamedTuple, Sequence

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


def embedding_one_hot(contexts: np.ndarray, vocab_size: int) -> np.ndarray:
    """The (V, N*W) float64 one-hot of N (N, W) contexts that :func:`logits_gradient` reads.

    Entry (i, j * W + w) is 1.0 where context j holds id i at slot w, and
    0.0 elsewhere: the values matmul would cast a boolean one-hot to, so
    the product, and every bit of it, is the same.
    """
    return (contexts.reshape(-1) == np.arange(vocab_size)[:, None]).astype(np.float64)


def logits_gradient(
    params: PolicyParams,
    one_hot: np.ndarray,
    rows: np.ndarray,
    x: np.ndarray,
    hidden: np.ndarray,
    d_logits: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Flat parameter gradient of sum(d_logits * logits) over N contexts.

    ``one_hot`` is the contexts' :func:`embedding_one_hot`. Only contexts
    ``rows`` were forwarded, to ``x`` and ``hidden``, and the (N, V)
    ``d_logits`` is zero on the other rows. Those rows stay in the
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
    d_pre = np.zeros((len(d_logits), params.hidden_dim))
    d_pre[rows] = d_pre_rows
    d_x = (d_pre @ params.w_hidden.T).reshape(-1, params.embed_dim)
    grad = np.empty(params.param_count) if out is None else out
    d_embed, d_w_hidden, d_b_hidden, d_w_out, d_b_out = params.blocks(grad)
    # Scatter-add into embedding rows as the one-hot product.
    np.matmul(one_hot, d_x, out=d_embed)
    np.matmul(x.T, d_pre_rows, out=d_w_hidden)
    np.add.reduce(d_pre, axis=0, out=d_b_hidden)
    np.matmul(hidden.T, d_logits[rows], out=d_w_out)
    np.add.reduce(d_logits, axis=0, out=d_b_out)
    return grad


def masked_logprobs(logits: np.ndarray, masks: np.ndarray, temperature: float) -> np.ndarray:
    """Log-softmax over the last axis of scaled, masked logits.

    The logits are scaled and masked in place, so callers pass rows they
    own: fresh :func:`forward` output or a fancy-index copy of it.
    ``masks`` broadcasts against ``logits``. Every step works row by row,
    so a row's values do not depend on the other rows of the block.
    """
    # Code on a training step's path calls ufuncs directly: ndarray.max and
    # .sum, np.sum, np.mean, np.all, np.any, np.clip and their kin reach the
    # same ufuncs through numpy's Python wrappers (numpy/_core/_methods.py,
    # fromnumeric.py), whose fixed cost rivals the work on arrays of a few
    # hundred elements. Each step must stay the same ufunc on the same
    # operands, axis and dtype: stored log-probs and metrics are pinned byte
    # for byte (tests/test_layout.py lists the functions it checks). Scaling
    # by 1.0 would change no bit, so temperature 1 skips it.
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


class GrammarTable(NamedTuple):
    """Which additive mask row each (group, position) cell of K groups reads.

    ``masks`` (R + 1, V) stacks the :func:`mask_matrix` of each distinct
    grammar in first-seen order, then one all-zero padding row. ``sole``
    (R + 1,) holds each row's one legal id: -1 where the row allows a
    choice, 0 on the padding row. ``cells`` (K, horizon) holds the row
    group k reads at position t, the padding row past its grammar. The
    sampler and the objective both read it, so this is the one place a
    cell is mapped to its mask row.
    """

    masks: np.ndarray
    sole: np.ndarray
    cells: np.ndarray


@functools.lru_cache(maxsize=256)
def grammar_table(
    vocab_size: int, grammars: tuple[PositionMasks, ...], horizon: int
) -> GrammarTable:
    """The :class:`GrammarTable` of groups answering under ``grammars``, ``horizon`` wide.

    Memoised and read-only like :func:`mask_matrix`, so the one-prompt
    calls of an evaluation share their grammar's table. A training step's
    grammars rarely repeat, so the memo is bounded.
    """
    # Each distinct grammar's rows, in first-seen order; the padding row last.
    rows: dict[PositionMasks, list[int]] = {}
    pad = 0
    for m in grammars:
        if m not in rows:
            rows[m] = list(range(pad, pad + len(m)))
            pad += len(m)
    masks = np.concatenate([*(mask_matrix(vocab_size, m) for m in rows), np.zeros((1, vocab_size))])
    sole = np.asarray([t[0] if len(t) == 1 else -1 for m in rows for t in m] + [0], np.int64)
    cells = np.asarray([rows[m] + [pad] * (horizon - len(m)) for m in grammars], np.int64)
    for array in (masks, sole, cells):
        array.flags.writeable = False
    return GrammarTable(masks, sole, cells)


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


def draw_uniforms(
    rngs: Sequence[np.random.Generator], budgets: Sequence[int], n: int
) -> np.ndarray:
    """The (K, horizon, n) uniforms a lockstep call samples with.

    Group k reads ``rngs[k]`` once: n uniforms for each of its
    ``budgets[k]`` positions, position-major, one-token positions
    included. So a generator's consumption depends only on its own
    budget and n, never on the other groups. Rows past a group's budget
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


class Lockstep(NamedTuple):
    """The set-up of a lockstep call: what its prompts, masks and n decide.

    ``table`` is the groups' :func:`grammar_table`, ``tokens`` (K, window
    + horizon) each group's row of the token buffer (its BOS-padded prompt
    tail, then zeros) and ``n`` the rows per group. A group past its budget
    (its number of masks) reads the table's padding row, all-zero with sole
    id 0: it only fills its padding.
    """

    table: GrammarTable
    tokens: np.ndarray
    n: int


def lockstep_setup(
    vocab: Vocab,
    window: int,
    prompts: Sequence[Sequence[int]],
    n: int,
    temperature: float,
    position_masks: Sequence[PositionMasks],
) -> Lockstep:
    """Checks and set-up of a lockstep call on K prompts, before any uniform is drawn.

    Masks may be any sequences of ids; they are made tuples here, so the
    memoised :func:`grammar_table` can hash them. Prompt-tail ids are
    checked here, so a call with no positions still rejects an id outside
    the vocabulary. Nothing here reads the parameters, so a training
    step's set-up is made ahead of the step (``trainer.step_setup``).
    """
    k_groups = len(prompts)
    if k_groups < 1:
        raise ContractViolation("sampling needs at least one prompt")
    if n < 1:
        raise ContractViolation("group size must be at least 1")
    if not temperature >= MIN_TEMPERATURE:
        raise ContractViolation(f"temperature must be at least {MIN_TEMPERATURE!r}")
    if len(position_masks) != k_groups:
        raise ContractViolation("one mask sequence per prompt is required")
    v = vocab.size
    position_masks = tuple(tuple(map(tuple, m)) for m in position_masks)
    horizon = max(len(m) for m in position_masks)
    table = grammar_table(v, position_masks, horizon)
    # Only prompt tails need a check: _sample_rows clamps sampled ids. A few
    # Python ints are checked and padded faster in Python than in numpy.
    tails = [list(p[-window:]) for p in prompts]
    if not all(0 <= t < v for tail in tails for t in tail):
        raise ContractViolation("token id out of vocabulary range")
    tokens = np.zeros((k_groups, window + horizon), dtype=np.int64)
    tokens[:, :window] = [[vocab.bos] * (window - len(t)) + t for t in tails]
    return Lockstep(table, tokens, n)


def sample_groups(
    params: PolicyParams,
    setup: Lockstep,
    draws: np.ndarray,
    temperature: float,
    *,
    collect_entropy: bool = False,
    memo: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample n responses to each of K prompts in lockstep.

    ``setup`` is the prompts' :func:`lockstep_setup`, made for the
    parameters' vocabulary and window, and ``draws`` the (K, horizon, n)
    block :func:`draw_uniforms` gives for the prompts' generators and
    budgets; both are checked, as the temperature is, then only read.

    A response has one token per position of its prompt's masks, so the
    masks alone decide its length: EOS is an id like any other here, and
    a grammar that ends in EOS ends its responses there.

    All K * n rows share one forward pass per position. Up to the first
    position with a choice, the rows of a group have read the same prompt
    tail and forced ids, so that position forwards one context per group
    and samples the group's n rows from its one log-prob row.

    ``memo`` is a dict the caller keeps for one parameter set, temperature
    and grammar. A position that forwards a single context (a one-prompt
    call's first position with a choice, or any position when K = n = 1)
    looks its masked log-prob row up there by position and context ids,
    and stores it on a miss. Such a row always comes from the same
    one-context :func:`forward` and :func:`masked_logprobs`, so a stored
    row has the bits a new forward would give; calls that forward more
    than one context never read or write the memo.

    Returns the sampler's padded buffers, rows group-major (rows
    ``k * n`` to ``(k + 1) * n - 1`` answer prompt k):

    - ``tokens`` (K * n, window + horizon): the first ``window`` columns
      hold the row's BOS-padded prompt tail and the rest its response, so
      the context of response token t in row i is
      ``tokens[i, t : t + window]``;
    - ``logprobs`` (K * n, horizon): each response token's log-probability.
      Columns past a row's number of masks are padding;
    - a float64 array of the entropies of the positions whose mask allows
      at least two tokens, group-major, and within a group position-major
      over its rows (empty unless ``collect_entropy``).

    A position is one-token when every group whose masks reach it has a
    mask there with exactly one legal id, as the EOS position that ends
    every answer grammar. Such a position runs no forward pass: its
    uniforms go unused, and each row gets the one id its mask row allows
    (0 past its masks) with log-probability 0.0. That is what the full
    path gives for every draw in (0, 1) whenever masked renormalisation
    is exact (finite logits and ``temperature >= MIN_TEMPERATURE``).
    Padding at such a position in the columns of groups already past
    their masks may therefore differ from what a forward pass would have
    left there. After the first position with a choice, a position where
    some groups choose and others are forced within their budget gives
    the forced rows their one id with log-probability 0.0 in the same
    way, and forwards, softmaxes and samples only the other rows; rows
    past their budget are among those, so padding keeps its bytes. With
    one group such a position cannot occur, and none is looked for.
    """
    table = setup.table
    group_masks, group_sole = table.masks[table.cells], table.sole[table.cells]
    k_groups, horizon, v = group_masks.shape
    window = params.window
    n = setup.n
    if not temperature >= MIN_TEMPERATURE:
        raise ContractViolation(f"temperature must be at least {MIN_TEMPERATURE!r}")
    if draws.shape != (k_groups, horizon, n):
        raise ContractViolation("one (horizon, n) block of uniforms per prompt is required")
    if v != params.vocab.size or setup.tokens.shape[1] != window + horizon:
        raise ContractViolation("the set-up was made for another vocabulary or window")
    rows = k_groups * n
    tokens = setup.tokens.repeat(n, axis=0)
    # A position is one-token when no group that reaches it has a choice there.
    choice = group_sole < 0
    one_token = ~np.logical_or.reduce(choice, axis=0)
    # Positions with a choice where some group within its budget is forced.
    # With one group there are none: its forced positions are one-token.
    partial = ()
    if k_groups > 1:
        forced = (group_sole >= 0) & (table.cells < len(table.masks) - 1)
        partial = set((np.logical_or.reduce(forced, axis=0) & ~one_token).nonzero()[0].tolist())
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
            tokens[:, window + pos] = group_sole[:, pos].repeat(n)
            continue
        if stride == 1 and pos in partial:
            # Forced rows take their one id with log-prob 0.0, as at a
            # one-token position; the groups that choose or are past their
            # budget are sampled, on their rows only.
            groups = ~forced[:, pos]
            sampled = groups.repeat(n)
            tokens[:, window + pos] = group_sole[:, pos].repeat(n)
            contexts = tokens[sampled, pos : pos + window]
            key = None
        else:
            groups = sampled = slice(None)
            contexts = tokens[::stride, pos : pos + window]
            key = (pos, contexts.tobytes()) if memo is not None and len(contexts) == 1 else None
        lp = None if key is None else memo.get(key)
        if lp is None:
            logits = forward(params, contexts)[2]
            masks = group_masks[groups, pos, None]
            lp = masked_logprobs(
                logits.reshape(len(masks), -1, v), masks, temperature
            ).reshape(len(logits), v)
            if key is not None:
                lp.flags.writeable = False
                memo[key] = lp
        probs = np.exp(lp)
        # Each distinct context's rows sample from its one row.
        picks = _sample_rows(probs, draws[groups, pos].reshape(len(lp), stride))
        logprobs[sampled, pos] = lp.take(row_starts[: len(lp), None] + picks).reshape(-1)
        if collect_entropy:
            entropy[pos, sampled] = (-np.add.reduce(probs * lp, axis=1)).repeat(stride)
        tokens[sampled, window + pos] = picks.reshape(-1)
        stride = 1
    if not collect_entropy:
        return tokens, logprobs, np.empty(0)
    # Group-major, then position-major over the positions with a choice.
    entropy = entropy.reshape(horizon, k_groups, n).transpose(1, 0, 2)
    return tokens, logprobs, entropy[choice].ravel()


def sample_group(
    params: PolicyParams,
    prompt: Sequence[int],
    n: int,
    temperature: float,
    rng: np.random.Generator,
    position_masks: PositionMasks,
    max_len: int = sys.maxsize,
    collect_entropy: bool = False,
    memo: dict | None = None,
) -> tuple[SampledRows, list[float]]:
    """Sample n responses to one prompt in lockstep from a single stream.

    The one-prompt case of :func:`sample_groups` on the first ``max_len``
    masks, and the one sampler entry handed a generator: ``rng`` is read
    by :func:`draw_uniforms` once every check has passed, so a rejected
    call leaves it untouched. Every row has one token per mask, so the
    rows come back as :class:`SampledRows` over the response columns of
    the call's own buffers, and no per-row object is built unless a
    caller reads one. The entropies come back as a list. ``memo`` is
    passed on to :func:`sample_groups`.
    """
    if max_len < 0:
        raise ContractViolation("max_len must be non-negative")
    masks = position_masks[:max_len]
    setup = lockstep_setup(params.vocab, params.window, [prompt], n, temperature, [masks])
    draws = draw_uniforms([rng], [len(masks)], n)
    tokens, logprobs, entropies = sample_groups(
        params, setup, draws, temperature, collect_entropy=collect_entropy, memo=memo
    )
    return SampledRows(tokens[:, params.window :], logprobs), entropies.tolist()


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

"""Tiny fixed-window feedforward language models.

The policy reads the last ``window`` token ids (left-padded with BOS),
concatenates their embeddings, and maps them through one tanh hidden
layer to logits over the vocabulary. Sampling and scoring both accept
optional per-position token masks so a task can constrain responses to
its legal alphabet; masked distributions are renormalized, so the stored
log-probabilities are log-probabilities of the constrained policy.

All randomness flows through explicitly passed numpy generators; sampling
is a pure function of (params, prompt, rng stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff
from .autodiff import ContractViolation

# Additive logit penalty for illegal tokens. Large enough that exp()
# underflows to exactly 0.0 after max-subtraction, keeping masked
# renormalization exact in float64.
MASK_LOGIT = -1e9

PositionMasks = Sequence[Sequence[int]]


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


_PARAM_FIELDS = ("embed", "w_hidden", "b_hidden", "w_out", "b_out")


class PolicyParams:
    """Dense parameter arrays for one policy network."""

    __slots__ = ("vocab", "window", "embed", "w_hidden", "b_hidden", "w_out", "b_out")

    def __init__(self, vocab: Vocab, window: int, embed, w_hidden, b_hidden, w_out, b_out):
        if window < 1:
            raise ContractViolation("context window must be at least 1")
        self.vocab = vocab
        self.window = int(window)
        self.embed = np.asarray(embed, dtype=np.float64)
        self.w_hidden = np.asarray(w_hidden, dtype=np.float64)
        self.b_hidden = np.asarray(b_hidden, dtype=np.float64)
        self.w_out = np.asarray(w_out, dtype=np.float64)
        self.b_out = np.asarray(b_out, dtype=np.float64)
        v, d = self.embed.shape
        h = self.b_hidden.shape[0]
        if v != vocab.size:
            raise ContractViolation("embedding row count must equal vocabulary size")
        if self.w_hidden.shape != (window * d, h):
            raise ContractViolation("hidden weight shape is inconsistent")
        if self.w_out.shape != (h, v) or self.b_out.shape != (v,):
            raise ContractViolation("output layer shape is inconsistent")

    @property
    def embed_dim(self) -> int:
        return self.embed.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.b_hidden.shape[0]

    @property
    def param_count(self) -> int:
        return sum(getattr(self, f).size for f in _PARAM_FIELDS)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, f).ravel() for f in _PARAM_FIELDS])

    def set_vector(self, vec: np.ndarray) -> None:
        """Load a flat parameter vector in place."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.param_count,):
            raise ContractViolation("parameter vector has the wrong length")
        at = 0
        for f in _PARAM_FIELDS:
            arr = getattr(self, f)
            arr[...] = vec[at : at + arr.size].reshape(arr.shape)
            at += arr.size

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            self.vocab,
            self.window,
            self.embed.copy(),
            self.w_hidden.copy(),
            self.b_hidden.copy(),
            self.w_out.copy(),
            self.b_out.copy(),
        )

    @classmethod
    def from_vector(
        cls, vocab: Vocab, window: int, embed_dim: int, hidden_dim: int, vec: np.ndarray
    ) -> "PolicyParams":
        v = vocab.size
        shapes = [
            (v, embed_dim),
            (window * embed_dim, hidden_dim),
            (hidden_dim,),
            (hidden_dim, v),
            (v,),
        ]
        total = sum(int(np.prod(s)) for s in shapes)
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (total,):
            raise ContractViolation("parameter vector has the wrong length")
        arrays = []
        at = 0
        for s in shapes:
            n = int(np.prod(s))
            arrays.append(vec[at : at + n].reshape(s).copy())
            at += n
        return cls(vocab, window, *arrays)


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
    rng = np.random.default_rng(seed)
    v = vocab.size
    count = v * embed_dim + window * embed_dim * hidden_dim + hidden_dim + hidden_dim * v + v
    vec = rng.uniform(-scale, scale, size=count)
    return PolicyParams.from_vector(vocab, window, embed_dim, hidden_dim, vec)


def pad_context(tokens: Sequence[int], window: int, bos: int) -> np.ndarray:
    """Last ``window`` ids of a sequence, left-padded with BOS."""
    tail = list(tokens)[-window:]
    return np.asarray([bos] * (window - len(tail)) + tail, dtype=np.int64)


def _check_ids(ids: np.ndarray, size: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise ContractViolation("token id out of vocabulary range")


def forward_logits(params: PolicyParams, context: Sequence[int]) -> np.ndarray:
    """Logits over the vocabulary for one padded context."""
    ctx = np.asarray(context, dtype=np.int64)
    if ctx.shape != (params.window,):
        raise ContractViolation("context length must equal the window size")
    _check_ids(ctx, params.vocab.size)
    x = params.embed[ctx].reshape(1, -1)
    hidden = np.tanh(x @ params.w_hidden + params.b_hidden)
    return (hidden @ params.w_out + params.b_out)[0]


def hidden_rows(params: PolicyParams, contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated context embeddings (n, W*D) and tanh activations (n, H)."""
    _check_ids(contexts, params.vocab.size)
    n = contexts.shape[0]
    x = params.embed[contexts.reshape(-1)].reshape(n, params.window * params.embed_dim)
    return x, np.tanh(x @ params.w_hidden + params.b_hidden)


def _forward_logits_rows(params: PolicyParams, contexts: np.ndarray) -> np.ndarray:
    """Row-wise logits for a batch of padded contexts, shape (n, V)."""
    _, hidden = hidden_rows(params, contexts)
    return hidden @ params.w_out + params.b_out


def logits_gradient(
    params: PolicyParams,
    contexts: np.ndarray,
    x: np.ndarray,
    hidden: np.ndarray,
    d_logits: np.ndarray,
) -> np.ndarray:
    """Flat parameter gradient of sum(d_logits * logits) over the given rows.

    ``x`` and ``hidden`` are :func:`hidden_rows` of the same contexts. The
    tanh derivative is looked up on :mod:`autodiff` at call time, so the
    gradient check and this backward share one definition.
    """
    d_pre = autodiff._tanh_backward(hidden, d_logits @ params.w_out.T)
    d_x = (d_pre @ params.w_hidden.T).reshape(-1, params.embed_dim)
    # Scatter-add into embedding rows as a (V, n*W) one-hot product.
    d_embed = (contexts.reshape(-1) == np.arange(params.vocab.size)[:, None]) @ d_x
    parts = (d_embed, x.T @ d_pre, d_pre.sum(axis=0), hidden.T @ d_logits, d_logits.sum(axis=0))
    return np.concatenate([part.ravel() for part in parts])


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    peak = np.max(x, axis=-1, keepdims=True)
    shifted = x - peak
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def token_logprobs(
    logits: np.ndarray, targets: np.ndarray, masks: np.ndarray | None, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row log-softmax of scaled, masked logits, and each row's target entry."""
    scaled = logits * (1.0 / temperature)
    if masks is not None:
        scaled = scaled + masks
    lp = _log_softmax_rows(scaled)
    return lp, lp[np.arange(lp.shape[0]), np.asarray(targets, dtype=np.int64)]


def mask_matrix(vocab_size: int, masks: PositionMasks | None, n_rows: int) -> np.ndarray:
    """Additive-logit mask rows: 0 for legal ids, MASK_LOGIT otherwise."""
    out = np.zeros((n_rows, vocab_size))
    if masks is None:
        return out
    if len(masks) < n_rows:
        raise ContractViolation("fewer mask rows than generated positions")
    out += MASK_LOGIT
    for i in range(n_rows):
        legal = np.asarray(tuple(masks[i]), dtype=np.int64)
        if legal.size == 0:
            raise ContractViolation("a position mask must allow at least one token")
        _check_ids(legal, vocab_size)
        out[i, legal] = 0.0
    return out


@dataclass(frozen=True)
class SampledResponse:
    """One sampled response: token ids and their stored log-probabilities."""

    tokens: tuple[int, ...]
    logprobs: np.ndarray

    def __post_init__(self):
        if len(self.tokens) != len(self.logprobs):
            raise ContractViolation("token and log-probability lengths differ")

    def __len__(self) -> int:
        return len(self.tokens)


def _sample_rows(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF pick per row, one uniform draw per row."""
    cums = np.cumsum(probs, axis=1)
    idx = np.sum(cums < draws[:, None], axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def sample_sequence(
    params: PolicyParams,
    prompt: Sequence[int],
    max_len: int,
    temperature: float,
    rng: np.random.Generator,
    position_masks: PositionMasks | None = None,
) -> SampledResponse:
    """Autoregressive categorical sampling; stops at EOS or max_len."""
    if max_len < 1:
        raise ContractViolation("max_len must be at least 1")
    if not temperature > 0.0:
        raise ContractViolation("temperature must be positive")
    vocab = params.vocab
    seq = list(prompt)
    budget = max_len if position_masks is None else min(max_len, len(position_masks))
    tokens: list[int] = []
    logprobs: list[float] = []
    for pos in range(budget):
        ctx = pad_context(seq, params.window, vocab.bos)
        logits = forward_logits(params, ctx) * (1.0 / temperature)
        if position_masks is not None:
            logits = logits + mask_matrix(vocab.size, [position_masks[pos]], 1)[0]
        lp = _log_softmax_rows(logits[None, :])
        tok = int(_sample_rows(np.exp(lp), rng.random(1))[0])
        tokens.append(tok)
        logprobs.append(float(lp[0, tok]))
        seq.append(tok)
        if tok == vocab.eos:
            break
    return SampledResponse(tuple(tokens), np.asarray(logprobs))


def sample_groups(
    params: PolicyParams,
    prompts: Sequence[Sequence[int]],
    n: int,
    temperature: float,
    rngs: Sequence[np.random.Generator],
    position_masks: Sequence[PositionMasks | None] | None = None,
    max_len: int = 64,
    collect_entropy: bool = False,
) -> tuple[list[list[SampledResponse]], list[float]]:
    """Sample n responses to each of K prompts in lockstep.

    All K * n rows share one forward pass per position. Group k draws
    only from ``rngs[k]``: n uniforms per position while the group is
    open, for every row whether or not it already finished, so its stream
    consumption depends only on its own prompt and n, never on the other
    groups. A group closes at its own budget (``max_len``, capped by the
    length of its masks) or once all its rows emitted EOS. Returned
    entropies cover positions whose mask allows at least two tokens; they
    are group-major, and within a group position-major over the rows
    still alive at that position.
    """
    k_groups = len(prompts)
    if k_groups < 1:
        raise ContractViolation("sampling needs at least one prompt")
    if n < 1:
        raise ContractViolation("group size must be at least 1")
    if not temperature > 0.0:
        raise ContractViolation("temperature must be positive")
    if len(rngs) != k_groups:
        raise ContractViolation("one generator per prompt is required")
    if position_masks is None:
        position_masks = [None] * k_groups
    elif len(position_masks) != k_groups:
        raise ContractViolation("one mask sequence per prompt is required")
    vocab = params.vocab
    v = vocab.size
    budgets = [max(0, max_len if m is None else min(max_len, len(m))) for m in position_masks]
    horizon = max(budgets)
    rows = k_groups * n
    # Mask rows are built once per group and laid out per position and row,
    # so each position adds one contiguous (rows, V) block. Rows of a
    # group past its budget are never read.
    row_masks = np.zeros((horizon, rows, v))
    for k, (m, b) in enumerate(zip(position_masks, budgets)):
        if m is not None and b > 0:
            row_masks[:b, k * n : (k + 1) * n] = mask_matrix(v, m, b)[:, None, :]
    if collect_entropy:
        open_choice = [
            [True] * b if m is None else [len(tuple(m[p])) >= 2 for p in range(b)]
            for m, b in zip(position_masks, budgets)
        ]
    row_budgets = np.repeat(budgets, n)
    contexts = np.repeat([pad_context(p, params.window, vocab.bos) for p in prompts], n, axis=0)
    tok_buf = np.zeros((rows, horizon), dtype=np.int64)
    lp_buf = np.zeros((rows, horizon))
    lengths = np.zeros(rows, dtype=np.int64)
    alive = np.ones(rows, dtype=bool)
    draws = np.zeros(rows)
    row_index = np.arange(rows)
    group_entropies: list[list[float]] = [[] for _ in range(k_groups)]
    for pos in range(horizon):
        if pos in budgets:
            alive &= pos < row_budgets
        open_groups = np.flatnonzero(alive.reshape(k_groups, n).any(axis=1)).tolist()
        if not open_groups:
            break
        logits = _forward_logits_rows(params, contexts) * (1.0 / temperature)
        logits += row_masks[pos]
        lp = _log_softmax_rows(logits)
        for k in open_groups:
            draws[k * n : (k + 1) * n] = rngs[k].random(n)
        probs = np.exp(lp)
        picks = _sample_rows(probs, draws)
        if collect_entropy:
            h = -np.sum(probs * lp, axis=1)
            for k in open_groups:
                if open_choice[k][pos]:
                    span = slice(k * n, (k + 1) * n)
                    group_entropies[k].extend(h[span][alive[span]].tolist())
        tok_buf[:, pos] = picks
        lp_buf[:, pos] = lp[row_index, picks]
        lengths += alive
        alive &= picks != vocab.eos
        contexts = np.concatenate([contexts[:, 1:], picks[:, None]], axis=1)
    tok_rows = tok_buf.tolist()
    sizes = lengths.tolist()
    groups = [
        [
            SampledResponse(tuple(tok_rows[i][: sizes[i]]), lp_buf[i, : sizes[i]].copy())
            for i in range(k * n, (k + 1) * n)
        ]
        for k in range(k_groups)
    ]
    return groups, [h for ent in group_entropies for h in ent]


def sample_group(
    params: PolicyParams,
    prompt: Sequence[int],
    n: int,
    temperature: float,
    rng: np.random.Generator,
    position_masks: PositionMasks | None = None,
    max_len: int = 64,
    collect_entropy: bool = False,
) -> tuple[list[SampledResponse], list[float]]:
    """Sample n responses to one prompt in lockstep from a single stream.

    The one-prompt case of :func:`sample_groups`.
    """
    groups, entropies = sample_groups(
        params,
        [prompt],
        n,
        temperature,
        [rng],
        None if position_masks is None else [position_masks],
        max_len,
        collect_entropy,
    )
    return groups[0], entropies


def stacked_contexts(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]], window: int, bos: int
) -> np.ndarray:
    """Padded context rows for every position of every (prompt, tokens) pair.

    Rows are stacked pair by pair; each is a window over the pair's
    BOS-padded prompt and response.
    """
    flat: list[int] = []
    row_starts: list[int] = []
    for prompt, tokens in pairs:
        at = len(flat) + len(prompt)
        row_starts.extend(range(at, at + len(tokens)))
        flat += [bos] * window
        flat += prompt
        flat += tokens
    windows = np.lib.stride_tricks.sliding_window_view(np.asarray(flat, dtype=np.int64), window)
    return windows[row_starts]


def response_contexts(
    prompt: Sequence[int], tokens: Sequence[int], window: int, bos: int
) -> np.ndarray:
    """Padded context rows for scoring each response position."""
    return stacked_contexts([(prompt, tokens)], window, bos)


def score_tokens(
    params: PolicyParams,
    contexts: np.ndarray,
    targets: np.ndarray,
    masks: np.ndarray | None,
    temperature: float = 1.0,
) -> np.ndarray:
    """Log-probabilities of target tokens under the masked policy, shape (T,)."""
    _, picked = token_logprobs(_forward_logits_rows(params, contexts), targets, masks, temperature)
    return picked


def sequence_logprobs(
    params: PolicyParams,
    prompt: Sequence[int],
    tokens: Sequence[int],
    position_masks: PositionMasks | None = None,
    temperature: float = 1.0,
) -> np.ndarray:
    """Per-token log-probabilities of a response under the current policy.

    Re-scoring a response with the parameters that sampled it reproduces
    the stored log-probabilities to within 1e-12.
    """
    if not temperature > 0.0:
        raise ContractViolation("temperature must be positive")
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.size == 0:
        return np.zeros(0)
    contexts = response_contexts(prompt, tokens, params.window, params.vocab.bos)
    masks = None
    if position_masks is not None:
        masks = mask_matrix(params.vocab.size, position_masks, toks.size)
    return score_tokens(params, contexts, toks, masks, temperature)


def mean_token_entropy(
    params: PolicyParams,
    items: Sequence[tuple[Sequence[int], Sequence[int], PositionMasks | None]],
    temperature: float = 1.0,
) -> float:
    """Mean next-token entropy over all open-choice response positions.

    ``items`` holds (prompt, tokens, position_masks) triples. Positions
    whose mask pins a single token are skipped; unmasked positions always
    count.
    """
    total = 0.0
    count = 0
    for prompt, tokens, position_masks in items:
        toks = np.asarray(tokens, dtype=np.int64)
        if toks.size == 0:
            continue
        contexts = response_contexts(prompt, tokens, params.window, params.vocab.bos)
        logits = _forward_logits_rows(params, contexts) * (1.0 / temperature)
        masks = None
        if position_masks is not None:
            masks = mask_matrix(params.vocab.size, position_masks, toks.size)
            logits = logits + masks
        lp = _log_softmax_rows(logits)
        probs = np.exp(lp)
        h = -np.sum(probs * lp, axis=1)
        for j in range(toks.size):
            if position_masks is not None and len(tuple(position_masks[j])) < 2:
                continue
            total += h[j]
            count += 1
    if count == 0:
        raise ContractViolation("no open-choice positions to average over")
    return total / count

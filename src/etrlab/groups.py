"""Rollout batches and group-relative reward normalization.

A step's groups travel as one :class:`RolloutBatch` in the sampler's
padded layout. Advantages are computed within a group of responses to one
prompt: center by the group mean, divide by the population standard
deviation plus a small stabilizer. Degenerate groups (all rewards equal)
are kept and get exactly zero advantages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import ContractViolation
from .policy import SampledResponse, Vocab, pad_context
from .tasks import Prompt, response_grammar

DEFAULT_XI = 1e-6


@dataclass(frozen=True)
class RolloutGroup:
    """G responses to one prompt with their outcome rewards."""

    prompt: Prompt
    responses: tuple[SampledResponse, ...]
    rewards: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "responses", tuple(self.responses))
        object.__setattr__(self, "rewards", np.asarray(self.rewards, dtype=np.float64))
        if len(self.responses) < 2:
            raise ContractViolation("a rollout group needs at least two responses")
        if self.rewards.shape != (len(self.responses),):
            raise ContractViolation("one reward per response is required")
        if not np.all(np.abs(self.rewards) == 1.0):
            raise ContractViolation("rewards must be +1 or -1")

    @property
    def size(self) -> int:
        return len(self.responses)


@dataclass(frozen=True, eq=False)
class RolloutBatch:
    """Every group of one step in the sampler's padded layout.

    Rows are group-major: the first ``sizes[0]`` answer ``prompts[0]``
    under ``grammars[0]``, the next ``sizes[1]`` answer ``prompts[1]``,
    and so on. Row i of ``tokens`` is the BOS-padded tail of its prompt
    (the first ``window`` columns) followed by its response, so the
    context of response token t is ``tokens[i, t : t + window]``;
    ``logprobs[i, t]`` is that token's stored log-probability and
    ``lengths[i]`` the response length. Columns past a row's length are
    padding and never read. ``entropies`` are the sampling entropies
    recorded during the rollout (empty for packed groups).
    """

    prompts: tuple[Prompt, ...]
    grammars: tuple[tuple[tuple[int, ...], ...], ...]
    sizes: np.ndarray
    tokens: np.ndarray
    logprobs: np.ndarray
    lengths: np.ndarray
    rewards: np.ndarray
    entropies: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("sizes", "tokens", "lengths"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("logprobs", "rewards"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        rows = int(np.sum(self.sizes))
        if not len(self.prompts) == len(self.grammars) == len(self.sizes) >= 1:
            raise ContractViolation("one prompt, grammar and size per group is required")
        if np.min(self.sizes) < 2:
            raise ContractViolation("a rollout group needs at least two responses")
        if self.logprobs.shape != (rows, self.tokens.shape[1] - self.window) or self.window < 1:
            raise ContractViolation("token and log-probability buffers do not match")
        if self.lengths.shape != (rows,) or np.any(self.lengths > self.logprobs.shape[1]):
            raise ContractViolation("one length per row, within the buffer, is required")
        if self.rewards.shape != (rows,) or not np.all(np.abs(self.rewards) == 1.0):
            raise ContractViolation("one reward of +1 or -1 per row is required")

    @property
    def window(self) -> int:
        return self.tokens.shape[1] - self.logprobs.shape[1]

    def __len__(self) -> int:
        return len(self.prompts)

    def group_rows(self) -> list[slice]:
        """The row slice of each group, in order."""
        ends = np.cumsum(self.sizes).tolist()
        return [slice(end - size, end) for end, size in zip(ends, self.sizes.tolist())]


def as_rollout_batch(
    batch: RolloutBatch | Sequence[RolloutGroup], vocab: Vocab, window: int
) -> RolloutBatch:
    """A :class:`RolloutBatch` as it is; groups (of any sizes) packed into one."""
    if isinstance(batch, RolloutBatch):
        return batch
    if len(batch) == 0:
        raise ContractViolation("batch must contain at least one group")
    responses = [r for g in batch for r in g.responses]
    lengths = np.asarray([len(r) for r in responses], dtype=np.int64)
    sizes = np.asarray([g.size for g in batch], dtype=np.int64)
    tokens = np.zeros((len(responses), window + int(lengths.max())), dtype=np.int64)
    logprobs = np.zeros((len(responses), int(lengths.max())))
    tokens[:, :window] = np.repeat(
        [pad_context(g.prompt.tokens, window, vocab.bos) for g in batch], sizes, axis=0
    )
    for i, r in enumerate(responses):
        tokens[i, window : window + len(r)] = r.tokens
        logprobs[i, : len(r)] = r.logprobs
    return RolloutBatch(
        prompts=tuple(g.prompt for g in batch),
        grammars=tuple(response_grammar(g.prompt, vocab) for g in batch),
        sizes=sizes,
        tokens=tokens,
        logprobs=logprobs,
        lengths=lengths,
        rewards=np.concatenate([g.rewards for g in batch]),
    )


@dataclass(frozen=True)
class GroupStats:
    mean_reward: float
    std_reward: float
    pass_rate: float
    advantages: np.ndarray


def pass_rate(rewards: np.ndarray) -> float:
    """Fraction of strictly positive rewards."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.size == 0:
        raise ContractViolation("pass rate of an empty group")
    return int(np.count_nonzero(rewards > 0.0)) / rewards.size


def group_stats(rewards: np.ndarray, xi: float = DEFAULT_XI) -> GroupStats:
    """Mean, population std, pass rate and normalized advantages in one pass.

    Means are ``sum / n``, which is exactly what ``np.mean`` computes.
    """
    if not xi > 0.0:
        raise ContractViolation("xi must be positive")
    rewards = np.asarray(rewards, dtype=np.float64)
    n = rewards.size
    if n < 2:
        raise ContractViolation("advantage normalization needs at least two rewards")
    mean = float(rewards.sum()) / n
    centered = rewards - mean
    std = math.sqrt(float((centered * centered).sum()) / n)
    return GroupStats(
        mean_reward=mean,
        std_reward=std,
        pass_rate=pass_rate(rewards),
        advantages=centered / (std + xi),
    )

"""Rollout batches and group-relative reward normalization.

A step's K groups of G responses travel as one :class:`RolloutBatch` in
the sampler's padded layout, so their rewards form one (K, G) block.
Advantages are computed within a group of responses to one prompt: center
by the group mean, divide by the population standard deviation plus a
small stabilizer. Degenerate groups (all rewards equal) are kept and get
exactly zero advantages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import ContractViolation
from .policy import GrammarTable, SampledResponse, Vocab, lockstep_setup
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

    Rows are group-major: the first ``group_size`` answer ``prompts[0]``,
    the next ``group_size`` answer ``prompts[1]``, and so on, so
    ``rewards.reshape(len(prompts), group_size)`` holds one group per row.
    Row i of ``tokens`` is the BOS-padded tail of its prompt (the first
    ``window`` columns) followed by its response, so the context of
    response token t is ``tokens[i, t : t + window]``, and
    ``logprobs[i, t]`` is that token's stored log-probability. ``table`` is
    the groups' ``policy.GrammarTable``: group k's cells give the mask row
    of each of its response positions, then the padding row. A response
    has one token per position of its group's grammar, so the table alone
    sets its length (``lengths``); later columns are padding and never
    read. ``entropies`` is the float64 array of the sampling entropies
    recorded during the rollout (empty for packed groups).
    """

    prompts: tuple[Prompt, ...]
    table: GrammarTable
    group_size: int
    tokens: np.ndarray
    logprobs: np.ndarray
    rewards: np.ndarray
    entropies: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", np.asarray(self.tokens, dtype=np.int64))
        for name in ("logprobs", "rewards", "entropies"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        rows = len(self.prompts) * self.group_size
        if len(self.prompts) < 1:
            raise ContractViolation("batch must contain at least one group")
        if self.group_size < 2:
            raise ContractViolation("a rollout group needs at least two responses")
        if self.tokens.ndim != 2 or len(self.tokens) != rows:
            raise ContractViolation("the token buffer needs one row per response")
        if self.logprobs.shape != (rows, self.tokens.shape[1] - self.window) or self.window < 1:
            raise ContractViolation("token and log-probability buffers do not match")
        cells = self.table.cells
        if cells.shape != (len(self.prompts), self.logprobs.shape[1]) or not cells.shape[1]:
            raise ContractViolation("the grammar table needs one row of horizon cells per group")
        if not np.logical_and.reduce(cells[:, 0] < len(self.table.masks) - 1):
            raise ContractViolation("a grammar needs 1 to horizon positions")
        unit = np.abs(self.rewards) == 1.0
        if self.rewards.shape != (rows,) or not np.logical_and.reduce(unit, axis=None):
            raise ContractViolation("one reward of +1 or -1 per row is required")

    @property
    def lengths(self) -> np.ndarray:
        """Each row's response length: its grammar's number of positions."""
        read = self.table.cells < len(self.table.masks) - 1
        return np.add.reduce(read, axis=1).repeat(self.group_size)

    @property
    def window(self) -> int:
        return self.tokens.shape[1] - self.logprobs.shape[1]

    def __len__(self) -> int:
        return len(self.prompts)


def as_rollout_batch(
    batch: RolloutBatch | Sequence[RolloutGroup], vocab: Vocab, window: int
) -> RolloutBatch:
    """A :class:`RolloutBatch` as it is; groups of one size packed into one.

    A group's responses must share one length L, 1 <= L <= len(grammar):
    it is packed under the first L positions of its grammar, which is what
    ``sample_group(..., max_len=L)`` sampled them under. The rows and table
    are ``policy.lockstep_setup``'s for those prompts and grammars, with the
    responses written in.
    """
    if isinstance(batch, RolloutBatch):
        return batch
    if len(batch) == 0:
        raise ContractViolation("batch must contain at least one group")
    size = batch[0].size
    if any(g.size != size for g in batch):
        raise ContractViolation("every group of a batch needs the same number of responses")
    grammars = []
    for g in batch:
        grammar, length = response_grammar(g.prompt, vocab), len(g.responses[0])
        if any(len(r) != length for r in g.responses):
            raise ContractViolation("the responses of a group must share one length")
        if not 1 <= length <= len(grammar):
            raise ContractViolation("a response needs 1 to len(grammar) tokens")
        grammars.append(grammar[:length])
    setup = lockstep_setup(vocab, window, [g.prompt.tokens for g in batch], size, grammars)
    tokens = setup.tokens.repeat(size, axis=0)
    logprobs = np.zeros((len(tokens), tokens.shape[1] - window))
    responses = [r for g in batch for r in g.responses]
    for i, r in enumerate(responses):
        tokens[i, window : window + len(r)] = r.tokens
        logprobs[i, : len(r)] = r.logprobs
    return RolloutBatch(
        prompts=tuple(g.prompt for g in batch),
        table=setup.table,
        group_size=size,
        tokens=tokens,
        logprobs=logprobs,
        rewards=np.concatenate([g.rewards for g in batch]),
    )


@dataclass(frozen=True)
class GroupStats:
    """Statistics of the groups along the last axis of a reward array.

    For rewards of shape (K, G) ``pass_rate`` has shape (K,) and
    ``advantages`` (K, G); for one group of shape (G,) the pass rate is a
    numpy float64 scalar.
    """

    pass_rate: np.ndarray
    advantages: np.ndarray


def group_stats(rewards: np.ndarray, xi: float = DEFAULT_XI) -> GroupStats:
    """Pass rate and advantages normalized by the group mean and population std.

    Every group is reduced along the last axis. Means are ``sum / G``,
    which is exactly what ``np.mean`` computes, and the pass rate is the
    fraction of strictly positive rewards.
    """
    if not xi > 0.0:
        raise ContractViolation("xi must be positive")
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim == 0 or rewards.shape[-1] < 2:
        raise ContractViolation("advantage normalization needs at least two rewards")
    n = rewards.shape[-1]
    mean = np.add.reduce(rewards, axis=-1) / n
    centered = rewards - mean[..., None]
    std = np.sqrt(np.add.reduce(centered * centered, axis=-1) / n)
    return GroupStats(
        pass_rate=np.add.reduce(rewards > 0.0, axis=-1) / n,
        advantages=centered / (std[..., None] + xi),
    )

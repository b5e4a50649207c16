"""Per-response views of the sampler's padded buffers, for the tests.

The program keeps a step's rollout in padded arrays
(``policy.sample_groups``, ``groups.RolloutBatch``). These helpers rebuild
the per-response objects and context rows that the array code replaced,
so tests can compare the two layouts field by field.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from etrlab.groups import RolloutBatch, RolloutGroup
from etrlab.policy import SampledResponse


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


def row_responses(
    tokens: np.ndarray, logprobs: np.ndarray, lengths: np.ndarray
) -> list[SampledResponse]:
    """Each row of a padded token/log-prob buffer cut to its length."""
    window = tokens.shape[1] - logprobs.shape[1]
    return [
        SampledResponse(tuple(tokens[i, window : window + size].tolist()), logprobs[i, :size].copy())
        for i, size in enumerate(lengths.tolist())
    ]


def buffer_responses(
    tokens: np.ndarray, logprobs: np.ndarray, lengths: np.ndarray, n: int
) -> list[list[SampledResponse]]:
    """``sample_groups`` buffers cut into responses, n rows per group."""
    responses = row_responses(tokens, logprobs, lengths)
    return [responses[k : k + n] for k in range(0, len(responses), n)]


def unpack_batch(batch: RolloutBatch) -> list[RolloutGroup]:
    """A rollout batch as one :class:`RolloutGroup` per prompt."""
    groups = buffer_responses(batch.tokens, batch.logprobs, batch.lengths, batch.group_size)
    rewards = batch.rewards.reshape(len(batch), batch.group_size)
    return [
        RolloutGroup(prompt, tuple(responses), group_rewards)
        for prompt, responses, group_rewards in zip(batch.prompts, groups, rewards)
    ]

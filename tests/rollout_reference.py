"""Per-response views of the sampler's padded buffers, for the tests.

The program keeps a step's rollout in padded arrays
(``policy.sample_groups``, ``groups.RolloutBatch``). These helpers rebuild
the per-response objects and context rows that the array code replaced,
so tests can compare the two layouts field by field. ``reference_evaluate``
is the per-row evaluation loop that ``trainer.evaluate``'s chunked checks
must equal bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from etrlab.groups import RolloutBatch, RolloutGroup
from etrlab.policy import PolicyParams, SampledResponse, Vocab, sample_group
from etrlab.tasks import TaskSpec, generate_prompt, response_grammar, verify
from etrlab.trainer import _EVAL_TAG


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


def reference_evaluate(
    params: PolicyParams,
    suite: Sequence[TaskSpec],
    vocab: Vocab,
    n: int,
    n_prompts: int,
    seed: int,
    round_index: int = 0,
    temperature: float = 1.0,
) -> dict[str, tuple[float, float]]:
    """Mean@N and best@N with one scalar ``verify`` per sampled response.

    Same prompts, streams and ``sample_group`` calls as
    ``trainer.evaluate``, but each prompt's grammar is rebuilt from the
    prompt and every row is checked on its own as a ``SampledResponse``.
    """
    out: dict[str, tuple[float, float]] = {}
    for li, spec in enumerate(suite):
        correct = 0
        hits = 0
        for pi in range(n_prompts):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, _EVAL_TAG, li, pi, round_index))
            )
            prompt = generate_prompt(spec, vocab, rng)
            grammar = response_grammar(prompt, vocab)
            responses, _ = sample_group(params, prompt.tokens, n, temperature, rng, grammar)
            ok = [verify(prompt, r.tokens, vocab) for r in responses]
            correct += sum(ok)
            hits += bool(any(ok))
        out[spec.label] = (correct / (n_prompts * n), hits / n_prompts)
    return out

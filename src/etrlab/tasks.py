"""Synthetic verifiable tasks: DIGIT-SUM, PARITY, and COPY.

Each prompt encodes its payload with a separator pattern that makes the
family recoverable from the tokens alone: DIGIT-SUM is framed by a
leading separator, PARITY ends with a double separator, COPY with a
single one. Verification is a total function on token sequences; any
malformed response is simply incorrect.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import ContractViolation
from .policy import Vocab

FAMILIES = ("copy", "digitsum", "parity")


@dataclass(frozen=True)
class TaskSpec:
    family: str
    difficulty: int
    weight: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractViolation(f"unknown task family {self.family!r}")
        if self.difficulty < 1:
            raise ContractViolation("difficulty must be a positive integer")
        if not 0.0 < self.weight < math.inf:
            raise ContractViolation("mixture weight must be positive and finite")

    @property
    def label(self) -> str:
        return f"{self.family}{self.difficulty}"


@dataclass(frozen=True)
class Prompt:
    family: str
    difficulty: int
    payload: tuple[int, ...]
    tokens: tuple[int, ...]


def encode_payload(family: str, payload: Sequence[int], vocab: Vocab) -> tuple[int, ...]:
    sep = vocab.sep
    if family == "digitsum":
        (target,) = payload
        return (sep, target, sep)
    if family == "parity":
        return tuple(payload) + (sep, sep)
    if family == "copy":
        return tuple(payload) + (sep,)
    raise ContractViolation(f"unknown task family {family!r}")


def generate_prompt(spec: TaskSpec, vocab: Vocab, rng: np.random.Generator) -> Prompt:
    """Draw one task instance (uniform payload) and encode it."""
    if spec.family == "digitsum":
        if vocab.n_content < 10:
            raise ContractViolation("digitsum requires the ten digit tokens")
        payload = (int(rng.integers(0, 10)),)
    elif spec.family == "parity":
        if vocab.n_content < 2:
            raise ContractViolation("parity requires the two bit tokens")
        payload = tuple(int(b) for b in rng.integers(0, 2, size=spec.difficulty))
    else:
        payload = tuple(
            int(t) for t in rng.integers(0, vocab.n_content, size=spec.difficulty)
        )
    return Prompt(spec.family, spec.difficulty, payload, encode_payload(spec.family, payload, vocab))


def answer_length(task: TaskSpec | Prompt) -> int:
    """Tokens in a complete answer: the content slots, then EOS."""
    return (1 if task.family == "parity" else task.difficulty) + 1


def response_grammar(prompt: Prompt, vocab: Vocab) -> tuple[tuple[int, ...], ...]:
    """Legal token ids per response position: content slots, then EOS."""
    if prompt.family == "digitsum":
        content: tuple[int, ...] = tuple(range(10))
    elif prompt.family == "parity":
        content = (0, 1)
    else:
        content = vocab.content_ids()
    return tuple([content] * (answer_length(prompt) - 1) + [(vocab.eos,)])


def verify(prompt: Prompt, tokens: Sequence[int], vocab: Vocab) -> bool:
    """True iff the response is well-formed and solves the task."""
    toks = tuple(tokens)
    if prompt.family == "digitsum":
        k = prompt.difficulty
        if len(toks) != k + 1 or toks[-1] != vocab.eos:
            return False
        if any(not (0 <= t <= 9) for t in toks[:k]):
            return False
        return sum(toks[:k]) % 10 == prompt.payload[0]
    if prompt.family == "parity":
        if len(toks) != 2 or toks[-1] != vocab.eos or toks[0] not in (0, 1):
            return False
        want = 0
        for b in prompt.payload:
            want ^= b
        return toks[0] == want
    k = prompt.difficulty
    if len(toks) != k + 1 or toks[-1] != vocab.eos:
        return False
    return toks[:k] == prompt.payload


def reward(correct: bool) -> float:
    """Binary outcome reward: +1 for a verified response, -1 otherwise."""
    return 1.0 if correct else -1.0


@functools.lru_cache(maxsize=64)
def _cumulative_weights(suite: tuple[TaskSpec, ...]) -> list[float]:
    weights = np.asarray([s.weight for s in suite])
    return np.cumsum(weights / weights.sum()).tolist()


def sample_task(suite: Sequence[TaskSpec], rng: np.random.Generator) -> TaskSpec:
    """Draw a task spec by normalized mixture weight.

    The cumulative weights are computed once per suite; the draw is the
    number of them below one uniform, found by bisection since they never
    decrease.
    """
    if len(suite) == 0:
        raise ContractViolation("task suite must not be empty")
    cums = _cumulative_weights(tuple(suite))
    return suite[min(bisect.bisect_left(cums, rng.random()), len(suite) - 1)]

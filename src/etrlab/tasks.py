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
import operator
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
    else:
        if spec.family == "parity" and vocab.n_content < 2:
            raise ContractViolation("parity requires the two bit tokens")
        # One scalar draw per id takes the same stream as one draw of
        # ``size=difficulty``, at less cost for payloads of a few ids.
        high = 2 if spec.family == "parity" else vocab.n_content
        payload = tuple([int(rng.integers(0, high)) for _ in range(spec.difficulty)])
    return Prompt(spec.family, spec.difficulty, payload, encode_payload(spec.family, payload, vocab))


def answer_length(task: TaskSpec | Prompt) -> int:
    """Tokens in a complete answer: the content slots, then EOS."""
    return (1 if task.family == "parity" else task.difficulty) + 1


def response_grammar(task: TaskSpec | Prompt, vocab: Vocab) -> tuple[tuple[int, ...], ...]:
    """Legal token ids per response position: content slots, then EOS.

    It depends only on the family and difficulty, so every prompt of a
    task spec shares the spec's grammar.
    """
    if task.family == "digitsum":
        content: tuple[int, ...] = tuple(range(10))
    elif task.family == "parity":
        content = (0, 1)
    else:
        content = vocab.content_ids()
    return tuple([content] * (answer_length(task) - 1) + [(vocab.eos,)])


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


def verify_rows(
    prompts: Sequence[Prompt],
    n: int,
    tokens: np.ndarray,
    vocab: Vocab,
) -> np.ndarray:
    """:func:`verify` on every row of a padded response buffer at once.

    Rows of ``tokens`` (rows, horizon) answer the prompts in order, n rows
    each: the first n rows ``prompts[0]``, the next n ``prompts[1]``, and
    so on. A row is read up to its prompt's :func:`answer_length`, so
    entry i of the result is ``verify(prompt, tokens[i, :length], vocab)``.
    A buffer narrower than an answer reads 0 at the EOS slot, and EOS is
    never id 0, so such a row is incorrect, as its short response is.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    rows = tokens.shape[0]
    if not prompts or n < 1 or len(prompts) * n != rows:
        raise ContractViolation("one prompt per group of rows is required")
    # Per prompt: its content slots and the ids they must hold (the copy
    # payload, the digit target or the parity bit in slot 0). A copy
    # prompt whose payload does not fill its slots has no correct answer.
    slots = [answer_length(p) - 1 for p in prompts]
    width = max(slots) + 1
    want = np.zeros((len(prompts), width), dtype=np.int64)
    solvable = np.ones(len(prompts), dtype=bool)
    for k, p in enumerate(prompts):
        if p.family == "copy":
            solvable[k] = len(p.payload) == slots[k]
            if solvable[k]:
                want[k, : slots[k]] = p.payload
        elif p.family == "digitsum":
            want[k, 0] = p.payload[0]
        else:
            want[k, 0] = functools.reduce(operator.xor, p.payload, 0)
    family = np.repeat([FAMILIES.index(p.family) for p in prompts], n)
    slot = np.repeat(slots, n)
    want = np.repeat(want, n, axis=0)
    # The first ``width`` columns, zero-padded where the buffer is narrower.
    head = np.zeros((rows, width), dtype=np.int64)
    cut = min(width, tokens.shape[1])
    head[:, :cut] = tokens[:, :cut]
    outside = np.arange(width) >= slot[:, None]
    well_formed = np.repeat(solvable, n) & (head[np.arange(rows), slot] == vocab.eos)
    first = head[:, 0]
    by_family = {
        "copy": np.all((head == want) | outside, axis=1),
        "digitsum": np.all(((head >= 0) & (head <= 9)) | outside, axis=1)
        & (np.where(outside, 0, head).sum(axis=1) % 10 == want[:, 0]),
        # One slot holding the xor bit.
        "parity": (first == want[:, 0]) & ((first == 0) | (first == 1)),
    }
    return well_formed & np.choose(family, [by_family[f] for f in FAMILIES])


def reward(correct):
    """Binary outcome reward: +1 for a verified response, -1 otherwise.

    Elementwise on an array of outcomes, so the scalar and the batched
    checks share this one definition.
    """
    return np.where(correct, 1.0, -1.0)


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

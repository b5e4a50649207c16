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
from typing import NamedTuple, Sequence

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


class AnswerKey(NamedTuple):
    """What a correct answer to each of K prompts holds, for :func:`verify_rows`.

    Columns are answer slots, ``width`` one past the most content slots of
    any prompt. ``want`` (K, width) holds the id each column must hold: the
    copy payload or the parity bit in the content slots, EOS in the slot
    after them, and -1 where any id will do (a digit slot, a column past
    EOS). ``digits`` (K, width) marks a digit-sum prompt's content slots,
    which must hold ids 0 to 9 whose sum mod 10 is its ``target`` (K,); the
    other prompts have no digit slots and target 0. ``solvable`` (K,) is
    False for a prompt no answer solves: a copy payload that does not fill
    its slots or holds a negative id (none that a response can hold), or a
    parity payload whose xor is not a bit.
    """

    want: np.ndarray
    digits: np.ndarray
    target: np.ndarray
    solvable: np.ndarray


def answer_key(prompts: Sequence[Prompt], vocab: Vocab) -> AnswerKey:
    """The :class:`AnswerKey` of ``prompts`` under ``vocab``; it reads no response.

    The rows are gathered as flat lists of Python ints and each field is
    made by one array call: a per-prompt numpy write costs more than a
    prompt's whole row.
    """
    width = max(map(answer_length, prompts), default=1)
    # After s content slots a row holds EOS, then any id; a digit-sum row's
    # content slots are its digit columns.
    tails = [(vocab.eos,) + (-1,) * (width - 1 - s) for s in range(width)]
    marks = [(True,) * s + (False,) * (width - s) for s in range(width)]
    want: list[int] = []
    digits: list[bool] = []
    target, solvable = [], []
    for p in prompts:
        slots, payload, goal, ok = answer_length(p) - 1, p.payload, 0, True
        if p.family == "copy":
            ok = len(payload) == slots and min(payload, default=0) >= 0
            want += payload if ok else (-1,) * slots
        elif p.family == "digitsum":
            want += (-1,) * slots
            goal = payload[0]
        else:
            bit = functools.reduce(operator.xor, payload, 0)
            ok = bit in (0, 1)
            want.append(bit if ok else -1)
        want += tails[slots]
        digits += marks[slots if p.family == "digitsum" else 0]
        target.append(goal)
        solvable.append(ok)
    k = len(prompts)
    return AnswerKey(
        np.array(want, dtype=np.int64).reshape(k, width),
        np.array(digits, dtype=bool).reshape(k, width),
        np.array(target, dtype=np.int64),
        np.array(solvable, dtype=bool),
    )


def verify_rows(
    prompts: Sequence[Prompt],
    n: int,
    tokens: np.ndarray,
    vocab: Vocab,
    key: AnswerKey | None = None,
) -> np.ndarray:
    """:func:`verify` on every row of a padded response buffer at once.

    Rows of ``tokens`` (rows, horizon) answer the prompts in order, n rows
    each: the first n rows ``prompts[0]``, the next n ``prompts[1]``, and
    so on. A row is read up to its prompt's :func:`answer_length`, so
    entry i of the result is ``verify(prompt, tokens[i, :length], vocab)``.
    A buffer narrower than an answer reads 0 at the EOS slot, and EOS is
    never id 0, so such a row is incorrect, as its short response is.
    ``key`` is the prompts' :func:`answer_key` for ``vocab``, made here
    when not given.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    rows = tokens.shape[0]
    if not prompts or n < 1 or len(prompts) * n != rows:
        raise ContractViolation("one prompt per group of rows is required")
    want, digits, target, solvable = answer_key(prompts, vocab) if key is None else key
    k_groups, width = want.shape
    # The first ``width`` columns, zero-padded where the buffer is narrower,
    # one (n, width) block per prompt; the key broadcasts over its rows.
    if tokens.shape[1] >= width:
        head = tokens[:, :width]
    else:
        head = np.zeros((rows, width), dtype=np.int64)
        head[:, : tokens.shape[1]] = tokens
    head = head.reshape(k_groups, n, width)
    digits = digits[:, None]
    fits = np.logical_and.reduce((head == want[:, None]) | (want < 0)[:, None], axis=2)
    # Read as unsigned, a negative id is above 9 too.
    in_range = np.logical_and.reduce((head.view(np.uint64) <= 9) | ~digits, axis=2)
    sums = np.add.reduce(head * digits, axis=2) % 10 == target[:, None]
    return (fits & in_range & sums & solvable[:, None]).reshape(rows)


def reward(correct):
    """Binary outcome reward: +1 for a verified response, -1 otherwise.

    Elementwise on an array of outcomes, so the scalar and the batched
    checks share this one definition.
    """
    return np.where(correct, 1.0, -1.0)


@functools.lru_cache(maxsize=64)
def _cumulative_weights(suite: tuple[TaskSpec, ...]) -> list[float]:
    weights = np.asarray([s.weight for s in suite])
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not np.isfinite(total):
        raise ContractViolation("suite weights must sum to a finite number")
    return np.cumsum(weights / total).tolist()


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

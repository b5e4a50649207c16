import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etrlab.autodiff import ContractViolation
from etrlab.policy import Vocab
from etrlab.tasks import (
    FAMILIES,
    Prompt,
    TaskSpec,
    answer_length,
    encode_payload,
    generate_prompt,
    response_grammar,
    reward,
    sample_task,
    verify,
    verify_rows,
)

VOCAB = Vocab()


def make_prompt(family, difficulty, payload):
    return Prompt(family, difficulty, tuple(payload), encode_payload(family, payload, VOCAB))


def test_task_spec_contracts():
    assert TaskSpec("copy", 2).label == "copy2"
    assert TaskSpec("digitsum", 1, 0.5).weight == 0.5
    with pytest.raises(ContractViolation):
        TaskSpec("sort", 1)
    with pytest.raises(ContractViolation):
        TaskSpec("copy", 0)
    with pytest.raises(ContractViolation):
        TaskSpec("copy", 1, 0.0)


def test_payload_round_trips_through_encoding():
    sep = VOCAB.sep
    cases = [
        ("digitsum", (7,)),
        ("parity", (1, 0, 1)),
        ("copy", (3, 3)),
        ("copy", (9,)),
    ]
    for family, payload in cases:
        tokens = encode_payload(family, payload, VOCAB)
        # DIGIT-SUM is framed by separators, PARITY ends with two, COPY with one.
        if tokens[0] == sep and tokens[-1] == sep:
            decoded = ("digitsum", tokens[1:-1])
        elif tokens[-2:] == (sep, sep):
            decoded = ("parity", tokens[:-2])
        else:
            assert tokens[-1] == sep
            decoded = ("copy", tokens[:-1])
        assert decoded == (family, tuple(payload))


def test_generate_prompt_is_deterministic_and_in_range():
    spec = TaskSpec("copy", 1)
    a = generate_prompt(spec, VOCAB, np.random.default_rng(5))
    b = generate_prompt(spec, VOCAB, np.random.default_rng(5))
    assert a == b
    assert len(a.payload) == 1
    assert a.payload[0] in VOCAB.content_ids()


def test_digitsum_targets_cover_all_values():
    spec = TaskSpec("digitsum", 2)
    rng = np.random.default_rng(0)
    counts = np.zeros(10)
    for _ in range(10_000):
        counts[generate_prompt(spec, VOCAB, rng).payload[0]] += 1
    assert counts.min() > 0
    # chi-square against uniform: 9 dof, generous ceiling
    chi2 = float(np.sum((counts - 1000.0) ** 2 / 1000.0))
    assert chi2 < 30.0


def test_parity_payload_is_bits():
    spec = TaskSpec("parity", 4)
    p = generate_prompt(spec, VOCAB, np.random.default_rng(1))
    assert set(p.payload) <= {0, 1}
    assert len(p.payload) == 4


def test_response_grammar_shapes():
    ds = make_prompt("digitsum", 2, (7,))
    assert response_grammar(ds, VOCAB) == (tuple(range(10)),) * 2 + ((VOCAB.eos,),)
    pa = make_prompt("parity", 3, (1, 0, 0))
    assert response_grammar(pa, VOCAB) == ((0, 1), (VOCAB.eos,))
    cp = make_prompt("copy", 1, (4,))
    assert response_grammar(cp, VOCAB) == (VOCAB.content_ids(), (VOCAB.eos,))


def test_verify_digitsum_example():
    p = make_prompt("digitsum", 2, (7,))
    assert verify(p, (3, 4, VOCAB.eos), VOCAB)
    assert verify(p, (9, 8, VOCAB.eos), VOCAB)  # 17 mod 10
    assert not verify(p, (3, 5, VOCAB.eos), VOCAB)


def test_verify_copy_and_reversal():
    p = make_prompt("copy", 2, (3, 5))
    assert verify(p, (3, 5, VOCAB.eos), VOCAB)
    assert not verify(p, (5, 3, VOCAB.eos), VOCAB)


def test_verify_parity():
    p = make_prompt("parity", 3, (1, 0, 1))
    assert verify(p, (0, VOCAB.eos), VOCAB)
    assert not verify(p, (1, VOCAB.eos), VOCAB)


def test_verify_is_total_on_malformed_responses():
    p = make_prompt("digitsum", 2, (7,))
    malformed = [
        (),
        (3, 4),  # missing EOS
        (3, 4, 0, VOCAB.eos),  # too long
        (VOCAB.eos,),
        (3, VOCAB.sep, VOCAB.eos),  # stray separator
        (3, VOCAB.bos, VOCAB.eos),
    ]
    for resp in malformed:
        assert verify(p, resp, VOCAB) is False
    pa = make_prompt("parity", 2, (1, 1))
    assert not verify(pa, (2, VOCAB.eos), VOCAB)
    cp = make_prompt("copy", 2, (3, 5))
    assert not verify(cp, (3, VOCAB.eos), VOCAB)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_digitsum_residue_classes_by_enumeration(k):
    """Each target value admits exactly 10^(k-1) of the 10^k digit strings."""
    for target in range(10):
        p = make_prompt("digitsum", k, (target,))
        hits = sum(
            verify(p, digits + (VOCAB.eos,), VOCAB)
            for digits in itertools.product(range(10), repeat=k)
        )
        assert hits == 10 ** (k - 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_copy_single_solution_by_enumeration(k):
    p = generate_prompt(TaskSpec("copy", k), VOCAB, np.random.default_rng(k))
    hits = sum(
        verify(p, tokens + (VOCAB.eos,), VOCAB)
        for tokens in itertools.product(VOCAB.content_ids(), repeat=k)
    )
    assert hits == 1


def test_reward_values_and_group_mean_identity():
    assert reward(True) == 1.0
    assert reward(False) == -1.0
    rng = np.random.default_rng(3)
    outcomes = rng.random(64) < 0.3
    rewards = np.asarray([reward(bool(o)) for o in outcomes])
    p = outcomes.mean()
    assert abs(rewards.mean() - (2.0 * p - 1.0)) < 1e-15
    # Elementwise on an outcome array, with the same values.
    assert reward(outcomes).tobytes() == rewards.tobytes()


def test_sample_task_follows_weights():
    suite = [TaskSpec("copy", 1, 3.0), TaskSpec("parity", 2, 1.0)]
    rng = np.random.default_rng(8)
    draws = [sample_task(suite, rng).label for _ in range(4000)]
    frac = draws.count("copy1") / 4000.0
    assert abs(frac - 0.75) < 0.03
    with pytest.raises(ContractViolation):
        sample_task([], np.random.default_rng(0))


def reference_sample_task(suite, rng):
    """The per-call normalisation ``sample_task`` had before its cache."""
    weights = np.asarray([s.weight for s in suite])
    cums = np.cumsum(weights / weights.sum())
    return suite[min(int(np.sum(cums < rng.random())), len(suite) - 1)]


@pytest.mark.parametrize(
    "weights",
    [(1.0,), (3.0, 1.0), (1.0, 1.0, 1.0, 0.5), (0.1, 0.2, 0.3, 0.4), (1e-9, 1.0, 1e9), (0.7, 0.7, 0.7)],
)
def test_sample_task_draws_the_reference_sequence(weights):
    specs = [TaskSpec("copy", k + 1, w) for k, w in enumerate(weights)]
    for suite in (tuple(specs), list(specs)):
        fast, slow = np.random.default_rng(41), np.random.default_rng(41)
        got = [sample_task(suite, fast) for _ in range(3000)]
        want = [reference_sample_task(suite, slow) for _ in range(3000)]
        assert got == want
        assert fast.bit_generator.state == slow.bit_generator.state


def test_sample_task_at_cumulative_boundaries():
    suite = (TaskSpec("copy", 1, 1.0), TaskSpec("copy", 2, 1.0), TaskSpec("copy", 3, 2.0))

    class Fixed:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    # Cumulative weights are 0.25, 0.5 and 1.0; a draw equal to one of
    # them is not below it.
    for u in (0.0, 0.25, np.nextafter(0.25, 1.0), 0.5, 0.75, np.nextafter(1.0, 0.0)):
        assert sample_task(suite, Fixed(u)) == reference_sample_task(suite, Fixed(u))


def test_task_spec_rejects_non_finite_weights():
    for weight in (np.inf, np.nan, -1.0, 0.0):
        with pytest.raises(ContractViolation):
            TaskSpec("copy", 1, weight)


def test_families_tuple_is_stable():
    assert FAMILIES == ("copy", "digitsum", "parity")


def answer(prompt):
    """The one correct content of a prompt's answer (a digit sum's is one of many)."""
    if prompt.family == "copy":
        return list(prompt.payload)
    if prompt.family == "parity":
        return [int(np.bitwise_xor.reduce(prompt.payload))]
    return [0] * (prompt.difficulty - 1) + [prompt.payload[0]]


def malformed_row(prompt, vocab, rng, horizon):
    """A response and its kind: right, near miss or broken in one way."""
    right = answer(prompt) + [vocab.eos]
    kind = rng.choice(
        ["right", "one slot off", "too long", "too short", "early eos", "no eos",
         "out of range", "random"]
    )
    row = list(right)
    slot = int(rng.integers(len(right) - 1))
    if kind == "one slot off":
        row[slot] = int(rng.integers(vocab.n_content))
    elif kind == "too long":
        row.insert(slot, int(rng.integers(vocab.n_content)))
    elif kind == "too short":
        del row[slot]
    elif kind == "early eos":
        row = row[:slot] + [vocab.eos]
    elif kind == "no eos":
        row[-1] = int(rng.integers(vocab.n_content))
    elif kind == "out of range":
        # Any id of the vocabulary, as an unmasked row can emit.
        row[slot] = int(rng.choice([vocab.bos, vocab.eos, vocab.sep, vocab.n_content - 1]))
    elif kind == "random":
        row = rng.integers(vocab.size, size=int(rng.integers(horizon + 1))).tolist()
    return row[:horizon], kind


@pytest.mark.parametrize("n_content", [2, 10, 12])
@pytest.mark.parametrize("seed", range(4))
def test_verify_rows_matches_scalar_verify(n_content, seed):
    vocab = Vocab(n_content)
    rng = np.random.default_rng(seed)
    families = ("copy", "parity") + (("digitsum",) if n_content >= 10 else ())
    specs = [TaskSpec(f, d) for f in families for d in (1, 2, 4)]
    prompts = [generate_prompt(specs[i % len(specs)], vocab, rng) for i in range(24)]
    n = int(rng.integers(2, 9))
    # Some buffers are narrower than the longest answer, so those rows are cut.
    horizon = int(rng.integers(2, 7))
    tokens = rng.integers(vocab.size, size=(len(prompts) * n, horizon))
    rows = [p for p in prompts for _ in range(n)]
    kinds = set()
    for i, prompt in enumerate(rows):
        row, kind = malformed_row(prompt, vocab, rng, horizon)
        tokens[i, : len(row)] = row
        kinds.add(kind)
    got = verify_rows(prompts, n, tokens, vocab)
    want = [verify(p, tokens[i, : answer_length(p)].tolist(), vocab) for i, p in enumerate(rows)]
    assert got.dtype == bool
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)
    assert len(kinds) >= 7


def test_verify_rows_edge_buffers():
    digitsum = make_prompt("digitsum", 2, (7,))
    parity = make_prompt("parity", 3, (1, 0, 0))
    copy = make_prompt("copy", 2, (3, 5))
    prompts = [digitsum, parity, copy]
    eos = VOCAB.eos
    # (buffer row, verdict); a row is read up to its prompt's answer length
    # (3, 2 and 3 here), and ids past it are padding.
    rows = [
        ((9, 8, eos), True),
        ((3, 5, eos), False),
        ((eos, 7, eos), False),  # EOS in a digit slot
        ((1, eos, 0), True),
        ((1, 0, eos), False),  # parity answer with an extra slot
        ((VOCAB.sep, eos, 0), False),
        ((3, 5, eos), True),
        ((3, 5, 5), False),  # EOS missing
        ((3, eos, eos), False),  # EOS in a copy slot
    ]
    tokens = np.asarray([row for row, _ in rows])
    got = verify_rows(prompts, 3, tokens, VOCAB)
    assert got.tolist() == [ok for _, ok in rows]
    scalar = [
        verify(prompts[i // 3], row[: answer_length(prompts[i // 3])], VOCAB)
        for i, (row, _) in enumerate(rows)
    ]
    assert got.tolist() == scalar
    # A zero-width buffer and one narrower than the answer: no EOS slot.
    empty = np.zeros((9, 0), dtype=np.int64)
    assert not verify_rows(prompts, 3, empty, VOCAB).any()
    assert not verify_rows([copy], 2, tokens[6:8, :2], VOCAB).any()
    with pytest.raises(ContractViolation):
        verify_rows(prompts, 2, tokens, VOCAB)
    # Hand-built prompts: a copy payload that does not fill its slots has
    # no right answer, and a parity answer is a bit even when the payload
    # holds other ids.
    short = Prompt("copy", 3, (3, 5), encode_payload("copy", (3, 5), VOCAB))
    odd = Prompt("parity", 1, (2,), encode_payload("parity", (2,), VOCAB))
    rows = [
        (short, (3, 5, 0, eos)),
        (short, (0, 0, 0, eos)),
        (odd, (2, eos, 0, 0)),
        (odd, (0, eos, 0, 0)),
    ]
    assert not any(verify(p, row[: answer_length(p)], VOCAB) for p, row in rows)
    tokens = np.asarray([row for _, row in rows])
    assert not verify_rows([short, odd], 2, tokens, VOCAB).any()


@pytest.mark.parametrize("n_content", [10, 13])
@pytest.mark.parametrize("family", FAMILIES)
def test_every_grammar_is_content_slots_then_one_forced_eos(family, n_content):
    # The sampler gives one token per grammar position, so a response
    # ends at EOS only because the grammar puts EOS last and nowhere else.
    vocab = Vocab(n_content)
    rng = np.random.default_rng(5)
    for difficulty in range(1, 7):
        prompt = generate_prompt(TaskSpec(family, difficulty), vocab, rng)
        grammar = response_grammar(prompt, vocab)
        assert len(grammar) == answer_length(prompt) == answer_length(TaskSpec(family, difficulty))
        assert grammar[-1] == (vocab.eos,)
        assert all(legal and vocab.eos not in legal for legal in grammar[:-1])
        assert all(max(legal) < vocab.n_content for legal in grammar[:-1])


@st.composite
def padded_buffers(draw):
    """Prompts of all three families and a padded buffer of n rows each.

    Rows start from a right answer or from a random list of any ids (EOS
    included, anywhere); one id may then be replaced, so stray EOS and ids
    outside the content range come up. Buffers are 0 to 6 columns wide,
    so some are narrower than an answer and cut its rows short.
    """
    vocab = Vocab(draw(st.sampled_from([2, 10, 12])))
    families = [f for f in FAMILIES if f != "digitsum" or vocab.n_content >= 10]
    any_id = st.integers(0, vocab.size - 1)
    k, n, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 6))
    prompts = [
        generate_prompt(
            TaskSpec(draw(st.sampled_from(families)), draw(st.integers(1, 4))),
            vocab,
            np.random.default_rng(draw(st.integers(0, 2**16))),
        )
        for _ in range(k)
    ]
    # Padding: any ids, as the sampler leaves past a row's answer.
    padding = np.random.default_rng(draw(st.integers(0, 2**16)))
    tokens = padding.integers(vocab.size, size=(k * n, horizon))
    for i in range(k * n):
        right = answer(prompts[i // n]) + [vocab.eos]
        row = list(draw(st.just(right) | st.lists(any_id, max_size=horizon + 1)))
        if row and draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(any_id)
        row = row[:horizon]
        tokens[i, : len(row)] = row
    return vocab, prompts, n, tokens


@settings(max_examples=150)
@given(padded_buffers(), st.integers(1, 4))
def test_verify_rows_equals_verify_on_arbitrary_buffers(case, extra):
    vocab, prompts, n, tokens = case
    got = verify_rows(prompts, n, tokens, vocab)
    want = [
        verify(prompts[i // n], tokens[i, : answer_length(prompts[i // n])].tolist(), vocab)
        for i in range(tokens.shape[0])
    ]
    assert got.dtype == bool and got.tolist() == want
    # Columns past every answer are never read.
    wider = np.concatenate([tokens, np.full((tokens.shape[0], extra), vocab.eos)], axis=1)
    if tokens.shape[1] >= max(map(answer_length, prompts)):
        assert verify_rows(prompts, n, wider, vocab).tolist() == want

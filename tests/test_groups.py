import dataclasses

import numpy as np
import pytest

from etrlab.autodiff import ContractViolation
from etrlab.groups import DEFAULT_XI, GroupStats, RolloutGroup, as_rollout_batch, group_stats
from etrlab.objectives import Static, prepare_batch
from etrlab.policy import SampledResponse, Vocab, init_params, sample_group
from etrlab.tasks import Prompt, encode_payload, response_grammar

VOCAB = Vocab()


def make_response(n_tokens):
    toks = tuple([0] * (n_tokens - 1) + [VOCAB.eos])
    return SampledResponse(toks, np.full(n_tokens, -0.1))


def test_pass_rate_examples():
    assert group_stats(np.ones(4)).pass_rate == 1.0
    assert group_stats(-np.ones(4)).pass_rate == 0.0
    assert group_stats(np.asarray([1, 1, -1, -1, -1, -1, -1, -1])).pass_rate == 0.25
    with pytest.raises(ContractViolation):
        group_stats(np.zeros(0))


def test_degenerate_group_yields_exact_zeros():
    adv = group_stats(np.ones(8)).advantages
    assert np.array_equal(adv, np.zeros(8))
    adv = group_stats(-np.ones(5)).advantages
    assert np.array_equal(adv, np.zeros(5))


def test_two_positive_six_negative_oracle():
    rewards = np.asarray([1.0, 1.0, -1, -1, -1, -1, -1, -1])
    # direct arithmetic over the eight values
    mean = rewards.mean()
    std = np.sqrt(np.mean((rewards - mean) ** 2))
    want_pos = (1.0 - mean) / (std + 1e-6)
    want_neg = (-1.0 - mean) / (std + 1e-6)
    adv = group_stats(rewards, xi=1e-6).advantages
    np.testing.assert_allclose(adv[:2], want_pos, rtol=0, atol=1e-15)
    np.testing.assert_allclose(adv[2:], want_neg, rtol=0, atol=1e-15)
    assert abs(want_pos - 1.732049) < 5e-7
    assert abs(want_neg - -0.577350) < 5e-7
    assert abs(adv.sum()) <= 1e-9


def test_advantages_center_and_scale():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        rewards = rng.choice([-1.0, 1.0], size=n)
        adv = group_stats(rewards).advantages
        assert abs(adv.sum()) <= 1e-9
        std = float(np.std(rewards))
        if std > 0:
            got = float(np.std(adv))
            assert abs(got - std / (std + DEFAULT_XI)) < 1e-9


def test_permutation_equivariance():
    rewards = np.asarray([1.0, -1.0, -1.0, 1.0, -1.0])
    perm = np.asarray([4, 2, 0, 1, 3])
    np.testing.assert_array_equal(
        group_stats(rewards[perm]).advantages, group_stats(rewards).advantages[perm]
    )


def test_normalize_contracts():
    with pytest.raises(ContractViolation):
        group_stats(np.ones(1))
    with pytest.raises(ContractViolation):
        group_stats(np.ones(4), xi=0.0)


def test_group_stats_fields():
    rewards = np.asarray([1.0, 1.0, -1.0, -1.0])
    stats = group_stats(rewards)
    assert stats.pass_rate == 0.5
    np.testing.assert_allclose(stats.advantages, rewards / (1.0 + DEFAULT_XI))


def test_rollout_group_contracts():
    prompt = Prompt("copy", 1, (3,), (3, VOCAB.sep))
    responses = (make_response(2), make_response(2))
    g = RolloutGroup(prompt, responses, np.asarray([1.0, -1.0]))
    assert g.size == 2
    with pytest.raises(ContractViolation):
        RolloutGroup(prompt, responses[:1], np.asarray([1.0]))
    with pytest.raises(ContractViolation):
        RolloutGroup(prompt, responses, np.asarray([1.0, 0.5]))
    with pytest.raises(ContractViolation):
        RolloutGroup(prompt, responses, np.asarray([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("bad", [0.0, -0.0, 0.5, -0.5, 2.0, -2.0, np.nan, np.inf, -np.inf])
def test_rollout_group_rejects_every_reward_but_plus_or_minus_one(bad):
    prompt = Prompt("copy", 1, (3,), (3, VOCAB.sep))
    responses = (make_response(2), make_response(2))
    for rewards in ([bad, 1.0], [-1.0, bad]):
        assert not np.all(np.isin(rewards, (-1.0, 1.0)))
        with pytest.raises(ContractViolation, match="rewards must be"):
            RolloutGroup(prompt, responses, np.asarray(rewards))
    for rewards in ([1.0, 1.0], [-1.0, 1.0], [-1, -1]):
        assert RolloutGroup(prompt, responses, np.asarray(rewards)).size == 2


def test_broadcast_advantage():
    # prepare_batch repeats each response's group advantage over its tokens,
    # here across two groups whose answers differ in length.
    params = init_params(VOCAB, 3, 4, 8, 0, 0.1)
    batch, want = [], []
    for family, difficulty, payload, rewards in (
        ("digitsum", 2, (7,), [1.0, 1.0, -1, -1, -1, -1, -1, -1]),
        ("copy", 4, (5, 1, 8, 2), [-1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0]),
    ):
        prompt = Prompt(family, difficulty, payload, encode_payload(family, payload, VOCAB))
        grammar = response_grammar(prompt, VOCAB)
        responses, _ = sample_group(
            params, prompt.tokens, len(rewards), 1.0, np.random.default_rng(3), grammar
        )
        batch.append(RolloutGroup(prompt, responses, np.asarray(rewards)))
        stats = group_stats(np.asarray(rewards), xi=1e-6)
        want += [(len(resp), a) for resp, a in zip(responses, stats.advantages)]
    assert sorted({length for length, _ in want}) == [3, 5]
    prep = prepare_batch(batch, Static(0.2), params, xi=1e-6)
    lengths = [length for length, _ in want]
    spans = np.split(prep.advantages, np.cumsum(lengths)[:-1])
    assert prep.advantages.shape == (sum(lengths),) and len(spans) == 16
    for span, (length, a) in zip(spans, want):
        np.testing.assert_array_equal(span, np.full(length, a))
        assert span.mean() == a
    with pytest.raises(ContractViolation):
        RolloutGroup(batch[0].prompt, batch[0].responses[:3], batch[0].rewards)


def test_sum_near_zero_over_many_random_groups():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 17))
        rewards = rng.choice([-1.0, 1.0], size=n)
        worst = max(worst, abs(float(group_stats(rewards).advantages.sum())))
    assert worst <= 1e-9


def reference_group_stats(rewards, xi):
    """Pass rate and advantages by the ``np.mean`` formula ``group_stats`` replaced."""
    rewards = np.asarray(rewards, dtype=np.float64)
    centered = rewards - np.mean(rewards)
    std = float(np.sqrt(np.mean(centered * centered)))
    return float(np.mean(rewards > 0.0)), centered / (std + xi)


def assert_stats_bitwise_equal(stats, want):
    rate, adv = want
    assert stats.pass_rate == rate and isinstance(stats.pass_rate, float)
    assert stats.advantages.dtype == adv.dtype and stats.advantages.tobytes() == adv.tobytes()


@pytest.mark.parametrize("xi", [DEFAULT_XI, 1e-12, 1e-3, 0.5, 3.0])
def test_group_stats_is_bitwise_the_reference_formula(xi):
    rng = np.random.default_rng(29)
    for n in range(2, 17):
        for _ in range(40):
            rewards = rng.choice([-1.0, 1.0], size=n)
            want = reference_group_stats(rewards, xi)
            assert_stats_bitwise_equal(group_stats(rewards, xi), want)
        # Arbitrary real rewards exercise the rounding of sum / n.
        rewards = rng.normal(0.3, 2.0, size=n)
        assert_stats_bitwise_equal(group_stats(rewards, xi), reference_group_stats(rewards, xi))


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16])
@pytest.mark.parametrize("value", [1.0, -1.0])
def test_all_equal_groups_give_exact_zeros(n, value):
    rewards = np.full(n, value)
    stats = group_stats(rewards)
    assert_stats_bitwise_equal(stats, reference_group_stats(rewards, DEFAULT_XI))
    assert not np.any(stats.advantages)


@pytest.mark.parametrize("xi", [DEFAULT_XI, 1e-3, 0.5])
def test_group_stats_of_a_block_is_bitwise_its_rows(xi):
    rng = np.random.default_rng(31)
    for k, g in [(1, 2), (3, 2), (5, 7), (16, 8), (4, 16), (7, 31), (2, 128), (3, 129)]:
        for rewards in (rng.choice([-1.0, 1.0], size=(k, g)), rng.normal(0.3, 2.0, size=(k, g))):
            block = group_stats(rewards, xi)
            assert block.advantages.shape == (k, g)
            assert block.pass_rate.shape == (k,)
            for i, row in enumerate(rewards):
                want = reference_group_stats(row, xi)
                assert_stats_bitwise_equal(group_stats(row, xi), want)
                one = GroupStats(block.pass_rate[i], block.advantages[i])
                assert_stats_bitwise_equal(one, want)


def test_as_rollout_batch_rejects_groups_of_unequal_size():
    prompt = Prompt("copy", 1, (3,), (3, VOCAB.sep))
    two = RolloutGroup(prompt, (make_response(2),) * 2, np.asarray([1.0, -1.0]))
    three = RolloutGroup(prompt, (make_response(2),) * 3, np.asarray([1.0, -1.0, 1.0]))
    assert as_rollout_batch([two, two], VOCAB, 3).group_size == 2
    with pytest.raises(ContractViolation, match="same number of responses"):
        as_rollout_batch([two, three], VOCAB, 3)


def test_as_rollout_batch_packs_each_group_under_its_grammar_prefix():
    # Lengths are not stored: a group's responses share one length, which
    # cuts its grammar, and RolloutBatch.lengths reads the grammars.
    copy = Prompt("copy", 3, (3, 1, 4), encode_payload("copy", (3, 1, 4), VOCAB))
    parity = Prompt("parity", 1, (1,), encode_payload("parity", (1,), VOCAB))
    groups = [
        RolloutGroup(copy, (make_response(2),) * 2, np.asarray([1.0, -1.0])),
        RolloutGroup(parity, (make_response(2),) * 2, np.asarray([1.0, -1.0])),
    ]
    batch = as_rollout_batch(groups, VOCAB, 3)
    assert "lengths" not in {f.name for f in dataclasses.fields(batch)}
    assert batch.grammars == (response_grammar(copy, VOCAB)[:2], response_grammar(parity, VOCAB))
    assert batch.lengths.dtype == np.int64 and batch.lengths.tolist() == [2, 2, 2, 2]
    assert batch.tokens.shape == (4, 5) and batch.logprobs.shape == (4, 2)
    with pytest.raises(ContractViolation, match="share one length"):
        mixed = (make_response(2), make_response(3))
        as_rollout_batch([RolloutGroup(copy, mixed, np.asarray([1.0, -1.0]))], VOCAB, 3)
    for response in (SampledResponse((), np.zeros(0)), make_response(3)):
        group = RolloutGroup(parity, (response,) * 2, np.asarray([1.0, -1.0]))
        with pytest.raises(ContractViolation, match="1 to len"):
            as_rollout_batch([group], VOCAB, 3)
    # A batch built directly is held to the same rule by its grammars.
    for grammars in (((),), (response_grammar(copy, VOCAB),)):
        with pytest.raises(ContractViolation, match="1 to horizon"):
            dataclasses.replace(batch, prompts=(copy,), grammars=grammars, group_size=4)


@pytest.mark.parametrize("rows", [1, 3, 5])
def test_rollout_batch_rejects_a_token_buffer_without_one_row_per_response(rows):
    parity = Prompt("parity", 1, (1,), encode_payload("parity", (1,), VOCAB))
    group = RolloutGroup(parity, (make_response(2),) * 2, np.asarray([1.0, -1.0]))
    batch = as_rollout_batch([group], VOCAB, 3)
    tokens = np.resize(batch.tokens, (rows, batch.tokens.shape[1]))
    with pytest.raises(ContractViolation, match="one row per response"):
        dataclasses.replace(batch, tokens=tokens)
    with pytest.raises(ContractViolation, match="one row per response"):
        dataclasses.replace(batch, tokens=batch.tokens.reshape(-1))
    with pytest.raises(ContractViolation, match="buffers do not match"):
        dataclasses.replace(batch, logprobs=np.resize(batch.logprobs, (rows, 2)))

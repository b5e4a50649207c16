import numpy as np
import pytest

from etrlab.autodiff import ContractViolation
from etrlab.policy import (
    MASK_LOGIT,
    _forward_logits_rows,
    _log_softmax_rows,
    PolicyParams,
    SampledResponse,
    Vocab,
    forward_logits,
    init_params,
    mask_matrix,
    mean_token_entropy,
    pad_context,
    response_contexts,
    sample_group,
    sample_groups,
    sample_sequence,
    score_tokens,
    sequence_logprobs,
)

VOCAB = Vocab()


def tiny_params(seed=0, scale=0.1, window=4, d=16, h=64, vocab=VOCAB):
    return init_params(vocab, window, d, h, seed, scale)


def test_vocab_layout():
    v = Vocab(10)
    assert (v.bos, v.eos, v.sep, v.size) == (10, 11, 12, 13)
    assert v.content_ids() == tuple(range(10))
    with pytest.raises(ContractViolation):
        Vocab(0)


def test_param_count_formula():
    p = tiny_params()
    v, d, h, k = VOCAB.size, p.embed_dim, p.hidden_dim, p.window
    assert p.param_count == v * d + k * d * h + h + h * v + v
    assert p.to_vector().shape == (p.param_count,)


def test_vector_round_trip():
    p = tiny_params(seed=3)
    vec = p.to_vector()
    q = PolicyParams.from_vector(VOCAB, p.window, p.embed_dim, p.hidden_dim, vec)
    assert np.array_equal(q.to_vector(), vec)
    q.set_vector(vec * 2.0)
    assert np.array_equal(q.to_vector(), vec * 2.0)
    with pytest.raises(ContractViolation):
        q.set_vector(vec[:-1])
    with pytest.raises(ContractViolation):
        PolicyParams.from_vector(VOCAB, p.window, p.embed_dim, p.hidden_dim, vec[:-1])


def test_init_same_seed_bit_identical():
    a = init_params(VOCAB, 4, 16, 64, 7, 0.1)
    b = init_params(VOCAB, 4, 16, 64, 7, 0.1)
    assert np.array_equal(a.to_vector(), b.to_vector())


def test_init_different_seeds_differ_almost_everywhere():
    a = init_params(VOCAB, 4, 16, 64, 1, 0.1).to_vector()
    b = init_params(VOCAB, 4, 16, 64, 2, 0.1).to_vector()
    assert np.mean(a != b) > 0.99


def test_init_scale_zero_gives_uniform_distribution():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    assert np.array_equal(p.to_vector(), np.zeros(p.param_count))
    logits = forward_logits(p, [VOCAB.bos] * 4)
    assert np.array_equal(logits, np.zeros(VOCAB.size))
    with pytest.raises(ContractViolation):
        init_params(VOCAB, 4, 16, 64, 0, -0.1)


def test_pad_context():
    assert pad_context([1, 2], 4, VOCAB.bos).tolist() == [10, 10, 1, 2]
    assert pad_context([1, 2, 3, 4, 5], 4, VOCAB.bos).tolist() == [2, 3, 4, 5]
    assert pad_context([], 3, VOCAB.bos).tolist() == [10, 10, 10]


def test_forward_logits_contracts():
    p = tiny_params()
    with pytest.raises(ContractViolation):
        forward_logits(p, [0, 1])
    with pytest.raises(ContractViolation):
        forward_logits(p, [0, 1, 2, VOCAB.size])


def test_one_hot_output_bias_sets_argmax_everywhere():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    p.b_out[5] = 3.0
    for ctx in ([10, 10, 10, 10], [0, 1, 2, 3], [9, 9, 9, 9]):
        assert int(np.argmax(forward_logits(p, ctx))) == 5


def test_embedding_permutation_invariance():
    p = tiny_params(seed=11)
    rng = np.random.default_rng(4)
    perm = rng.permutation(VOCAB.size)
    embed2 = np.empty_like(p.embed)
    embed2[perm] = p.embed
    q = PolicyParams(VOCAB, p.window, embed2, p.w_hidden, p.b_hidden, p.w_out, p.b_out)
    ctx = np.array([3, 1, 12, 10])
    np.testing.assert_allclose(
        forward_logits(q, perm[ctx]), forward_logits(p, ctx), rtol=0, atol=0
    )


def test_mask_matrix_rows_and_errors():
    m = mask_matrix(5, [(0, 2), (4,)], 2)
    assert m.shape == (2, 5)
    assert m[0].tolist() == [0.0, MASK_LOGIT, 0.0, MASK_LOGIT, MASK_LOGIT]
    assert m[1].tolist() == [MASK_LOGIT] * 4 + [0.0]
    assert np.array_equal(mask_matrix(5, None, 3), np.zeros((3, 5)))
    with pytest.raises(ContractViolation):
        mask_matrix(5, [(0,)], 2)
    with pytest.raises(ContractViolation):
        mask_matrix(5, [()], 1)
    with pytest.raises(ContractViolation):
        mask_matrix(5, [(5,)], 1)


def test_sampled_response_length_contract():
    with pytest.raises(ContractViolation):
        SampledResponse((1, 2), np.zeros(1))


def test_all_mass_on_eos_yields_length_one():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    p.b_out[VOCAB.eos] = 1e3
    resp = sample_sequence(p, [VOCAB.sep], 16, 1.0, np.random.default_rng(0))
    assert resp.tokens == (VOCAB.eos,)
    assert len(resp) == 1


def test_uniform_policy_logprobs():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    rng = np.random.default_rng(5)
    free = sample_sequence(p, [VOCAB.sep], 3, 1.0, rng)
    np.testing.assert_allclose(
        free.logprobs, np.full(len(free), -np.log(VOCAB.size)), atol=1e-12
    )
    masks = [VOCAB.content_ids(), VOCAB.content_ids(), (VOCAB.eos,)]
    masked = sample_sequence(p, [VOCAB.sep], 8, 1.0, rng, position_masks=masks)
    assert masked.tokens[-1] == VOCAB.eos
    np.testing.assert_allclose(masked.logprobs[:2], [-np.log(10)] * 2, atol=1e-12)
    assert abs(masked.logprobs[-1]) < 1e-12


def test_sampling_contracts():
    p = tiny_params()
    with pytest.raises(ContractViolation):
        sample_sequence(p, [], 0, 1.0, np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        sample_sequence(p, [], 4, 0.0, np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        sample_group(p, [], 0, 1.0, np.random.default_rng(0))


def test_same_seed_same_tokens():
    p = tiny_params(seed=2)
    a = sample_sequence(p, [1, 2], 8, 1.0, np.random.default_rng(42))
    b = sample_sequence(p, [1, 2], 8, 1.0, np.random.default_rng(42))
    assert a.tokens == b.tokens
    assert np.array_equal(a.logprobs, b.logprobs)


def test_sample_group_lockstep_determinism():
    p = tiny_params(seed=2)
    masks = [VOCAB.content_ids()] * 2 + [(VOCAB.eos,)]
    ga, ea = sample_group(
        p, [VOCAB.sep], 6, 1.0, np.random.default_rng(9), masks, collect_entropy=True
    )
    gb, eb = sample_group(
        p, [VOCAB.sep], 6, 1.0, np.random.default_rng(9), masks, collect_entropy=True
    )
    assert [r.tokens for r in ga] == [r.tokens for r in gb]
    assert ea == eb
    # two open-choice positions per still-alive row, none stop early here
    assert len(ea) == 12
    for r in ga:
        assert r.tokens[-1] == VOCAB.eos
        assert np.all(r.logprobs <= 0.0)


def test_self_rescore_identity():
    p = tiny_params(seed=6)
    masks = [VOCAB.content_ids()] * 3 + [(VOCAB.eos,)]
    prompt = [VOCAB.sep, 7, VOCAB.sep]
    group, _ = sample_group(p, prompt, 8, 1.0, np.random.default_rng(3), masks)
    for resp in group:
        rescored = sequence_logprobs(p, prompt, resp.tokens, masks)
        np.testing.assert_allclose(rescored, resp.logprobs, rtol=0, atol=1e-12)


def test_zero_params_score_log_v():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    lp = sequence_logprobs(p, [VOCAB.sep], [3, 1, VOCAB.eos])
    np.testing.assert_allclose(lp, np.full(3, -np.log(VOCAB.size)), atol=1e-12)


def test_chain_rule_matches_brute_force_two_token_vocab():
    vocab = Vocab(2)
    p = init_params(vocab, 3, 4, 8, 13, 0.3)
    prompt = [vocab.sep]
    resp = sample_sequence(p, prompt, 4, 1.0, np.random.default_rng(1))
    prob = 1.0
    seq = list(prompt)
    for tok in resp.tokens:
        logits = forward_logits(p, pad_context(seq, p.window, vocab.bos))
        shifted = logits - logits.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        prob *= probs[tok]
        seq.append(tok)
    assert abs(float(np.sum(resp.logprobs)) - np.log(prob)) < 1e-12


def test_response_contexts_layout():
    rows = response_contexts([12, 7, 12], [3, 4, 11], 4, VOCAB.bos)
    assert rows.tolist() == [[10, 12, 7, 12], [12, 7, 12, 3], [7, 12, 3, 4]]


def test_entropy_uniform_and_deterministic_mixture():
    uniform = init_params(VOCAB, 1, 1, 1, 0, 0.0)
    # context token 0 embeds to 0 (uniform logits); token 1 drives a huge
    # one-hot logit through the single hidden unit
    uniform.embed[0, 0] = 0.0
    uniform.embed[1, 0] = 1.0
    uniform.w_hidden[0, 0] = 50.0
    uniform.w_out[0, 0] = 2000.0
    masks = [VOCAB.content_ids()]
    items = [
        ((0,), (2,), masks),
        ((1,), (2,), masks),
    ]
    mixed = mean_token_entropy(uniform, items)
    assert abs(mixed - np.log(10) / 2.0) < 1e-12
    assert abs(mean_token_entropy(uniform, items[:1]) - np.log(10)) < 1e-12
    assert mean_token_entropy(uniform, items[1:]) == 0.0


def test_entropy_skips_pinned_positions():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    masks = [VOCAB.content_ids(), (VOCAB.eos,)]
    got = mean_token_entropy(p, [((VOCAB.sep,), (3, VOCAB.eos), masks)])
    assert abs(got - np.log(10)) < 1e-12
    with pytest.raises(ContractViolation):
        mean_token_entropy(p, [((VOCAB.sep,), (VOCAB.eos,), [(VOCAB.eos,)])])


def test_entropy_bounds_hold_for_random_params():
    p = tiny_params(seed=21, scale=0.5)
    prompt = [VOCAB.sep, 2, VOCAB.sep]
    group, _ = sample_group(p, prompt, 4, 1.0, np.random.default_rng(2))
    items = [(prompt, r.tokens, None) for r in group if len(r)]
    h = mean_token_entropy(p, items)
    assert 0.0 <= h <= np.log(VOCAB.size) + 1e-12


def reference_sample_group(params, prompt, n, temperature, rng, position_masks=None, max_len=64):
    """Row-by-row lockstep sampler for one prompt, kept as the reference."""
    vocab = params.vocab
    contexts = np.tile(pad_context(prompt, params.window, vocab.bos), (n, 1))
    budget = max_len if position_masks is None else min(max_len, len(position_masks))
    tokens = [[] for _ in range(n)]
    logprobs = [[] for _ in range(n)]
    entropies = []
    alive = np.ones(n, dtype=bool)
    for pos in range(budget):
        logits = _forward_logits_rows(params, contexts) * (1.0 / temperature)
        open_choice = True
        if position_masks is not None:
            logits = logits + mask_matrix(vocab.size, [position_masks[pos]], 1)[0]
            open_choice = len(tuple(position_masks[pos])) >= 2
        lp = _log_softmax_rows(logits)
        cums = np.cumsum(np.exp(lp), axis=1)
        draws = rng.random(n)
        picks = np.minimum(np.sum(cums < draws[:, None], axis=1), vocab.size - 1)
        if open_choice:
            probs = np.exp(lp)
            entropies.extend((-np.sum(probs * lp, axis=1))[alive].tolist())
        for i in range(n):
            if not alive[i]:
                continue
            tok = int(picks[i])
            tokens[i].append(tok)
            logprobs[i].append(float(lp[i, tok]))
            if tok == vocab.eos:
                alive[i] = False
        contexts = np.concatenate([contexts[:, 1:], picks[:, None]], axis=1)
        if not alive.any():
            break
    responses = [SampledResponse(tuple(t), np.asarray(l)) for t, l in zip(tokens, logprobs)]
    return responses, entropies


def assert_same_responses(got, want):
    assert [r.tokens for r in got] == [r.tokens for r in want]
    for a, b in zip(got, want):
        assert a.logprobs.dtype == b.logprobs.dtype
        assert a.logprobs.tobytes() == b.logprobs.tobytes()


def eos_leaning_params(seed):
    p = tiny_params(seed=seed, scale=0.5)
    p.b_out[VOCAB.eos] += 1.5
    return p


# Mixed budgets: grammars of 2, 4 and 3 positions, a mask without EOS that
# cuts its rows off at 2, a grammar that max_len = 6 cuts short, and
# unmasked groups that run to max_len or stop once every row emitted EOS.
BATCH_PROMPTS = [
    ([VOCAB.sep, 3, VOCAB.sep], [(0, 1), (VOCAB.eos,)]),
    ([5, 2, 8, VOCAB.sep], [VOCAB.content_ids()] * 3 + [(VOCAB.eos,)]),
    ([1, 0, VOCAB.sep, VOCAB.sep], None),
    ([3, VOCAB.sep], [VOCAB.content_ids()] * 2),
    ([VOCAB.sep, 9, VOCAB.sep], [VOCAB.content_ids()] * 2 + [(VOCAB.eos,)]),
    ([4, VOCAB.sep], None),
    ([6, 1, 1, 5, 0, 2, 9, VOCAB.sep], [VOCAB.content_ids()] * 7 + [(VOCAB.eos,)]),
    ([7, 7, VOCAB.sep], None),
]


@pytest.mark.parametrize("k", [1, 2, len(BATCH_PROMPTS)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_sampler_equals_one_prompt_reference(k, seed):
    p = eos_leaning_params(seed)
    prompts = [pr for pr, _ in BATCH_PROMPTS[:k]]
    masks = [m for _, m in BATCH_PROMPTS[:k]]
    n, max_len, temperature = 4, 6, 0.9

    def streams():
        return [np.random.default_rng([seed, g]) for g in range(k)]

    batched_rngs = streams()
    groups, entropies = sample_groups(
        p, prompts, n, temperature, batched_rngs, masks, max_len, collect_entropy=True
    )
    ref_rngs = streams()
    one_rngs = streams()
    want_entropies = []
    for g in range(k):
        want, ent = reference_sample_group(
            p, prompts[g], n, temperature, ref_rngs[g], masks[g], max_len
        )
        one, one_ent = sample_group(
            p, prompts[g], n, temperature, one_rngs[g], masks[g], max_len, collect_entropy=True
        )
        assert_same_responses(groups[g], want)
        assert_same_responses(one, want)
        assert one_ent == ent
        want_entropies += ent
        assert batched_rngs[g].bit_generator.state == ref_rngs[g].bit_generator.state
        assert one_rngs[g].bit_generator.state == ref_rngs[g].bit_generator.state
    assert entropies == want_entropies


def test_batched_sampler_cases_are_exercised():
    # The fixtures above must hit every stopping rule they claim to cover.
    stops = set()
    for seed in range(3):
        p = eos_leaning_params(seed)
        rngs = [np.random.default_rng([seed, g]) for g in range(len(BATCH_PROMPTS))]
        groups, _ = sample_groups(
            p, [pr for pr, _ in BATCH_PROMPTS], 4, 0.9, rngs, [m for _, m in BATCH_PROMPTS], 6
        )
        for (_, masks), group in zip(BATCH_PROMPTS, groups):
            if masks is None:
                lengths = [len(r) for r in group]
                if max(lengths) < 6:
                    stops.add("all rows at EOS")
                if any(len(r) == 6 and r.tokens[-1] != VOCAB.eos for r in group):
                    stops.add("max_len")
    assert stops == {"all rows at EOS", "max_len"}


def test_sample_groups_contracts():
    p = tiny_params()
    rng = np.random.default_rng(0)
    with pytest.raises(ContractViolation):
        sample_groups(p, [], 2, 1.0, [])
    with pytest.raises(ContractViolation):
        sample_groups(p, [[1], [2]], 2, 1.0, [rng])
    with pytest.raises(ContractViolation):
        sample_groups(p, [[1], [2]], 2, 1.0, [rng, rng], [None])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etrlab import policy
from etrlab.autodiff import ContractViolation
from etrlab.config import TrainConfig
from etrlab.policy import (
    MASK_LOGIT,
    PolicyParams,
    SampledResponse,
    Vocab,
    draw_uniforms,
    forward,
    init_params,
    mask_matrix,
    masked_logprobs,
    lockstep_setup,
    pad_context,
    sample_group,
    sample_groups,
    score_tokens,
)
from etrlab.tasks import TaskSpec, generate_prompt, response_grammar
from etrlab.trainer import rollout_batch, step_setup
from rollout_reference import buffer_responses, sample_prompts, stacked_contexts

VOCAB = Vocab()


def tiny_params(seed=0, scale=0.1, window=4, d=16, h=64, vocab=VOCAB):
    return init_params(vocab, window, d, h, seed, scale)


def full_grammar(length, vocab=VOCAB):
    """A grammar that allows every id at each of ``length`` positions."""
    return (tuple(range(vocab.size)),) * length


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
    logits = forward(p, np.full((1, 4), VOCAB.bos))[2]
    assert np.array_equal(logits, np.zeros((1, VOCAB.size)))
    with pytest.raises(ContractViolation):
        init_params(VOCAB, 4, 16, 64, 0, -0.1)


def test_pad_context():
    assert pad_context([1, 2], 4, VOCAB.bos).tolist() == [10, 10, 1, 2]
    assert pad_context([1, 2, 3, 4, 5], 4, VOCAB.bos).tolist() == [2, 3, 4, 5]
    assert pad_context([], 3, VOCAB.bos).tolist() == [10, 10, 10]


def test_score_tokens_rejects_ids_out_of_range():
    p = tiny_params()
    masks = mask_matrix(VOCAB.size, full_grammar(2))
    good = np.asarray([[0, 1, 2, 3], [1, 2, 3, 4]])
    for contexts in ([[0, 1, 2, 3], [0, 1, 2, VOCAB.size]], [[0, 1, -1, 3], [1, 2, 3, 4]]):
        with pytest.raises(ContractViolation):
            score_tokens(p, np.asarray(contexts), np.asarray([4, 5]), masks)
    for targets in ([4, VOCAB.size], [-1, 5]):
        with pytest.raises(ContractViolation):
            score_tokens(p, good, np.asarray(targets), masks)
    assert score_tokens(p, good, np.asarray([4, 5]), masks).shape == (2,)


def test_one_hot_output_bias_sets_argmax_everywhere():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    p.b_out[5] = 3.0
    contexts = np.asarray([[10, 10, 10, 10], [0, 1, 2, 3], [9, 9, 9, 9]])
    assert np.argmax(forward(p, contexts)[2], axis=1).tolist() == [5, 5, 5]


def test_embedding_permutation_invariance():
    p = tiny_params(seed=11)
    rng = np.random.default_rng(4)
    perm = rng.permutation(VOCAB.size)
    q = p.copy()
    q.embed[perm] = p.embed
    ctx = np.array([[3, 1, 12, 10]])
    np.testing.assert_allclose(
        forward(q, perm[ctx])[2], forward(p, ctx)[2], rtol=0, atol=0
    )


def test_mask_matrix_rows_and_errors():
    m = mask_matrix(5, ((0, 2), (4,)))
    assert m.shape == (2, 5)
    assert m[0].tolist() == [0.0, MASK_LOGIT, 0.0, MASK_LOGIT, MASK_LOGIT]
    assert m[1].tolist() == [MASK_LOGIT] * 4 + [0.0]
    assert mask_matrix(5, ()).shape == (0, 5)
    with pytest.raises(ContractViolation):
        mask_matrix(5, ((),))
    with pytest.raises(ContractViolation):
        mask_matrix(5, ((5,),))


def fresh_mask_matrix(vocab_size, masks):
    """The uncached builder ``mask_matrix`` had before it was memoised."""
    out = np.zeros((len(masks), vocab_size))
    out += MASK_LOGIT
    for i in range(len(masks)):
        legal = np.asarray(tuple(masks[i]), dtype=np.int64)
        if legal.size == 0:
            raise ContractViolation("a position mask must allow at least one token")
        if legal.min() < 0 or legal.max() >= vocab_size:
            raise ContractViolation("token id out of vocabulary range")
        out[i, legal] = 0.0
    return out


def test_cached_mask_tables_equal_a_fresh_build_and_are_read_only():
    vocab = Vocab()
    prompts = [
        generate_prompt(TaskSpec(family, k), vocab, np.random.default_rng(k))
        for family, k in (("digitsum", 1), ("digitsum", 3), ("parity", 2), ("copy", 2))
    ]
    for prompt in prompts:
        grammar = response_grammar(prompt, vocab)
        for n_rows in range(1, len(grammar) + 1):
            first = mask_matrix(vocab.size, grammar[:n_rows])
            again = mask_matrix(vocab.size, grammar[:n_rows])
            assert again is first
            want = fresh_mask_matrix(vocab.size, grammar[:n_rows])
            assert first.dtype == want.dtype and first.tobytes() == want.tobytes()
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0, 0] = 1.0


@pytest.mark.parametrize("masks", [((0,), (5,)), ((0,), ()), ((-1,),), ((0,), (7,))])
def test_cached_mask_matrix_raises_on_every_call(masks):
    for _ in range(3):
        with pytest.raises(ContractViolation):
            mask_matrix(5, masks)
        with pytest.raises(ContractViolation):
            fresh_mask_matrix(5, masks)


# Grammars of one to three positions over a five-id vocabulary, each
# position allowing one to three ids.
GRAMMARS = st.lists(
    st.lists(st.sampled_from(range(5)), min_size=1, max_size=3, unique=True).map(tuple),
    min_size=1,
    max_size=3,
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.lists(GRAMMARS, min_size=1, max_size=5), st.integers(0, 2))
def test_grammar_table_maps_each_cell_to_its_grammars_mask_row(grammars, extra):
    grammars = tuple(grammars)
    horizon = max(map(len, grammars)) + extra
    table = policy.grammar_table(5, grammars, horizon)
    distinct = list(dict.fromkeys(grammars))
    rows = sum(map(len, distinct))
    # Each distinct grammar's table in first-seen order, then the padding row.
    want = np.concatenate([fresh_mask_matrix(5, m) for m in distinct] + [np.zeros((1, 5))])
    assert table.masks.dtype == want.dtype and table.masks.tobytes() == want.tobytes()
    # A row's sole id is its one 0.0 entry; -1 where it has several.
    sole = [int(np.flatnonzero(row == 0.0)[0]) if np.sum(row == 0.0) == 1 else -1 for row in want]
    assert table.sole.dtype == np.int64 and table.sole.tolist() == sole[:rows] + [0]
    assert table.cells.dtype == np.int64 and table.cells.shape == (len(grammars), horizon)
    for k, grammar in enumerate(grammars):
        cells = table.cells[k]
        assert np.array_equal(table.masks[cells[: len(grammar)]], fresh_mask_matrix(5, grammar))
        assert np.all(cells[len(grammar) :] == rows)


def test_grammar_table_is_read_only_memoised_and_bounded():
    grammars = (full_grammar(3), ((VOCAB.eos,),), full_grammar(3))
    table = policy.grammar_table(VOCAB.size, grammars, 4)
    assert policy.grammar_table(VOCAB.size, grammars, 4) is table
    assert policy.grammar_table(VOCAB.size, grammars, 5) is not table
    for array in table:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    assert policy.grammar_table.cache_info().maxsize is not None
    # A failed build is not cached: it raises every time.
    for bad in (((0,), (VOCAB.size,)), ((0,), ())):
        for _ in range(2):
            with pytest.raises(ContractViolation):
                policy.grammar_table(VOCAB.size, (bad,), 2)


def test_a_training_batch_carries_its_lockstep_grammar_table():
    cfg = TrainConfig()
    params = tiny_params()
    setup = step_setup(cfg, VOCAB, 3)
    assert setup.lockstep.table is policy.grammar_table(
        VOCAB.size, tuple(setup.grammars), setup.uniforms.shape[1]
    )
    assert rollout_batch(params, cfg, 3, setup).table is setup.lockstep.table


def test_sampled_response_length_contract():
    with pytest.raises(ContractViolation):
        SampledResponse((1, 2), np.zeros(1))


def test_all_mass_on_eos_fills_every_position():
    # EOS does not end a response: the grammar alone decides its length.
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    p.b_out[VOCAB.eos] = 1e3
    group, _ = sample_group(p, [VOCAB.sep], 3, 1.0, np.random.default_rng(0), full_grammar(16))
    assert [r.tokens for r in group] == [(VOCAB.eos,) * 16] * 3


def test_uniform_policy_logprobs():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    rng = np.random.default_rng(5)
    free, _ = sample_group(p, [VOCAB.sep], 4, 1.0, rng, full_grammar(3))
    for resp in free:
        np.testing.assert_allclose(
            resp.logprobs, np.full(len(resp), -np.log(VOCAB.size)), atol=1e-12
        )
    masks = (VOCAB.content_ids(), VOCAB.content_ids(), (VOCAB.eos,))
    masked, _ = sample_group(p, [VOCAB.sep], 4, 1.0, rng, masks, max_len=8)
    for resp in masked:
        assert len(resp) == 3 and resp.tokens[-1] == VOCAB.eos
        np.testing.assert_allclose(resp.logprobs[:2], [-np.log(10)] * 2, atol=1e-12)
        assert abs(resp.logprobs[-1]) < 1e-12


def test_sampling_contracts():
    p = tiny_params()
    with pytest.raises(ContractViolation):
        sample_group(p, [], 4, 0.0, np.random.default_rng(0), full_grammar(2))
    with pytest.raises(ContractViolation):
        sample_group(p, [], 4, -1.0, np.random.default_rng(0), full_grammar(2))
    with pytest.raises(ContractViolation):
        sample_group(p, [], 0, 1.0, np.random.default_rng(0), full_grammar(2))


def test_same_seed_same_tokens():
    p = tiny_params(seed=2)
    a, _ = sample_group(p, [1, 2], 3, 1.0, np.random.default_rng(42), full_grammar(8))
    b, _ = sample_group(p, [1, 2], 3, 1.0, np.random.default_rng(42), full_grammar(8))
    assert [r.tokens for r in a] == [r.tokens for r in b]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.logprobs, rb.logprobs)


def test_sample_group_lockstep_determinism():
    p = tiny_params(seed=2)
    masks = (VOCAB.content_ids(),) * 2 + ((VOCAB.eos,),)
    ga, ea = sample_group(
        p, [VOCAB.sep], 6, 1.0, np.random.default_rng(9), masks, collect_entropy=True
    )
    gb, eb = sample_group(
        p, [VOCAB.sep], 6, 1.0, np.random.default_rng(9), masks, collect_entropy=True
    )
    assert [r.tokens for r in ga] == [r.tokens for r in gb]
    assert ea == eb
    # two open-choice positions per row
    assert len(ea) == 12
    for r in ga:
        assert r.tokens[-1] == VOCAB.eos
        assert np.all(r.logprobs <= 0.0)


def test_self_rescore_identity():
    p = tiny_params(seed=6)
    masks = (VOCAB.content_ids(),) * 3 + ((VOCAB.eos,),)
    prompt = [VOCAB.sep, 7, VOCAB.sep]
    group, _ = sample_group(p, prompt, 8, 1.0, np.random.default_rng(3), masks)
    for resp in group:
        contexts = stacked_contexts([(prompt, resp.tokens)], p.window, VOCAB.bos)
        table = mask_matrix(VOCAB.size, masks[: len(resp)])
        rescored = score_tokens(p, contexts, np.asarray(resp.tokens), table)
        np.testing.assert_allclose(rescored, resp.logprobs, rtol=0, atol=1e-12)


def test_zero_params_score_log_v():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    contexts = stacked_contexts([([VOCAB.sep], [3, 1, VOCAB.eos])], p.window, VOCAB.bos)
    masks = mask_matrix(VOCAB.size, full_grammar(3))
    lp = score_tokens(p, contexts, np.asarray([3, 1, VOCAB.eos]), masks)
    np.testing.assert_allclose(lp, np.full(3, -np.log(VOCAB.size)), atol=1e-12)


def test_chain_rule_matches_brute_force_two_token_vocab():
    vocab = Vocab(2)
    p = init_params(vocab, 3, 4, 8, 13, 0.3)
    prompt = [vocab.sep]
    (resp,), _ = sample_group(p, prompt, 1, 1.0, np.random.default_rng(1), full_grammar(4, vocab))
    prob = 1.0
    seq = list(prompt)
    for tok in resp.tokens:
        logits = forward(p, pad_context(seq, p.window, vocab.bos)[None, :])[2][0]
        shifted = logits - logits.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        prob *= probs[tok]
        seq.append(tok)
    assert abs(float(np.sum(resp.logprobs)) - np.log(prob)) < 1e-12


def test_stacked_contexts_layout():
    rows = stacked_contexts([([12, 7, 12], [3, 4, 11]), ([5], [6, 11])], 4, VOCAB.bos)
    assert rows.tolist() == [
        [10, 12, 7, 12],
        [12, 7, 12, 3],
        [7, 12, 3, 4],
        [10, 10, 10, 5],
        [10, 10, 5, 6],
    ]


def test_entropy_uniform_and_deterministic_mixture():
    uniform = init_params(VOCAB, 1, 1, 1, 0, 0.0)
    # context token 0 embeds to 0 (uniform logits); token 1 drives a huge
    # one-hot logit through the single hidden unit
    uniform.embed[0, 0] = 0.0
    uniform.embed[1, 0] = 1.0
    uniform.w_hidden[0, 0] = 50.0
    uniform.w_out[0, 0] = 2000.0
    masks = (VOCAB.content_ids(),)

    def entropies(prompts):
        rngs = [np.random.default_rng(g) for g in range(len(prompts))]
        draws = draw_uniforms(rngs, [len(masks)] * len(prompts), 3)
        *_, ent = sample_prompts(
            uniform, prompts, 3, 1.0, draws, [masks] * len(prompts), collect_entropy=True
        )
        return ent.tolist()

    mixed = entropies([(0,), (1,)])
    assert len(mixed) == 6
    assert abs(np.mean(mixed) - np.log(10) / 2.0) < 1e-12
    np.testing.assert_allclose(entropies([(0,)]), [np.log(10)] * 3, rtol=0, atol=1e-12)
    assert entropies([(1,)]) == [0.0] * 3


def test_entropy_skips_pinned_positions():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    rng = np.random.default_rng(0)
    masks = (VOCAB.content_ids(), (VOCAB.eos,))
    _, got = sample_group(p, (VOCAB.sep,), 4, 1.0, rng, masks, collect_entropy=True)
    np.testing.assert_allclose(got, [np.log(10)] * 4, rtol=0, atol=1e-12)
    _, none = sample_group(p, (VOCAB.sep,), 4, 1.0, rng, ((VOCAB.eos,),), collect_entropy=True)
    assert none == []


def test_entropy_bounds_hold_for_random_params():
    p = tiny_params(seed=21, scale=0.5)
    prompt = [VOCAB.sep, 2, VOCAB.sep]
    rng = np.random.default_rng(2)
    group, h = sample_group(p, prompt, 4, 1.0, rng, full_grammar(64), collect_entropy=True)
    assert len(h) == sum(len(r) for r in group)
    assert all(0.0 <= x <= np.log(VOCAB.size) + 1e-12 for x in h)


def reference_sample_group(params, prompt, n, temperature, rng, position_masks, max_len):
    """Row-by-row lockstep sampler for one prompt, kept as the reference.

    Every row takes one token at each position of ``position_masks[:max_len]``.
    """
    vocab = params.vocab
    contexts = np.tile(pad_context(prompt, params.window, vocab.bos), (n, 1))
    tokens = [[] for _ in range(n)]
    logprobs = [[] for _ in range(n)]
    entropies = []
    for legal in position_masks[:max_len]:
        logits = forward(params, contexts)[2]
        lp = masked_logprobs(logits, mask_matrix(vocab.size, (legal,))[0], temperature)
        cums = np.cumsum(np.exp(lp), axis=1)
        draws = rng.random(n)
        picks = np.minimum(np.sum(cums < draws[:, None], axis=1), vocab.size - 1)
        if len(tuple(legal)) >= 2:
            probs = np.exp(lp)
            entropies.extend((-np.sum(probs * lp, axis=1)).tolist())
        for i in range(n):
            tok = int(picks[i])
            tokens[i].append(tok)
            logprobs[i].append(float(lp[i, tok]))
        contexts = np.concatenate([contexts[:, 1:], picks[:, None]], axis=1)
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
# ends its rows at 2, a grammar that max_len = 6 cuts short,
# full-vocabulary groups (FREE) whose rows emit EOS mid-response and sample
# on, and a grammar that forces an id mid-response. The first two groups
# alone leave position 3 one-token, after the first group's budget ran out;
# at position 1 the first is forced while the second chooses. With all of
# them, position 2 has groups that choose, groups that are forced and
# groups past their budget.
FREE = full_grammar(6)
BATCH_PROMPTS = [
    ([VOCAB.sep, 3, VOCAB.sep], ((0, 1), (VOCAB.eos,))),
    ([5, 2, 8, VOCAB.sep], (VOCAB.content_ids(),) * 3 + ((VOCAB.eos,),)),
    ([1, 0, VOCAB.sep, VOCAB.sep], FREE),
    ([3, VOCAB.sep], (VOCAB.content_ids(),) * 2),
    ([VOCAB.sep, 9, VOCAB.sep], (VOCAB.content_ids(),) * 2 + ((VOCAB.eos,),)),
    ([4, VOCAB.sep], FREE),
    ([6, 1, 1, 5, 0, 2, 9, VOCAB.sep], (VOCAB.content_ids(),) * 7 + ((VOCAB.eos,),)),
    ([7, 7, VOCAB.sep], FREE),
    ([2, VOCAB.sep], ((0, 1), (7,), (VOCAB.eos,))),
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
    cut = [m[:max_len] for m in masks]
    # After the first position, groups that choose sit beside forced
    # groups, and with all prompts also beside groups past their budget.
    # There the sampler forwards only the rows of the groups that choose or
    # are past their budget, which the one-prompt reference never does.
    table = lockstep_setup(VOCAB, p.window, prompts, n, temperature, cut).table
    sole, past = table.sole[table.cells], table.cells == len(table.masks) - 1
    choose, forced, ended = (
        np.logical_or.reduce(cells, axis=0) for cells in (sole < 0, ~past & (sole >= 0), past)
    )
    assert (choose & forced)[1:].any() == (k > 1)
    assert (choose & forced & ended)[1:].any() == (k == len(BATCH_PROMPTS))
    draws = draw_uniforms(batched_rngs, [len(m) for m in cut], n)
    tokens, logprobs, entropies = sample_prompts(
        p, prompts, n, temperature, draws, cut, collect_entropy=True
    )
    groups = buffer_responses(tokens, logprobs, cut, n)
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
        assert type(one_ent) is list and one_ent == ent
        want_entropies += ent
        assert batched_rngs[g].bit_generator.state == ref_rngs[g].bit_generator.state
        assert one_rngs[g].bit_generator.state == ref_rngs[g].bit_generator.state
    assert entropies.tolist() == want_entropies


def test_sample_group_rows_are_a_read_only_view_of_the_call_buffers():
    p = eos_leaning_params(0)
    prompt, masks = BATCH_PROMPTS[1]
    draws = draw_uniforms([np.random.default_rng(4)], [len(masks)], 6)
    tokens, logprobs, _ = sample_prompts(p, [prompt], 6, 0.9, draws, [masks])
    # What one call returned as a list: a SampledResponse per buffer row.
    (want,) = buffer_responses(tokens, logprobs, [masks], 6)
    rows, _ = sample_group(p, prompt, 6, 0.9, np.random.default_rng(4), masks)
    assert len(rows) == len(want) == 6
    assert all(type(r) is SampledResponse for r in rows)
    assert_same_responses(rows, want)
    # Iteration is repeatable, and each row's log-probs are a view of the
    # call's read-only buffer.
    assert_same_responses(tuple(rows), want)
    for i, r in enumerate(rows):
        assert np.shares_memory(r.logprobs, rows.logprobs[i])
        with pytest.raises(ValueError):
            r.logprobs[0] = 0.0
    with pytest.raises(ValueError):
        rows.tokens[0, 0] = 0
    with pytest.raises(ValueError):
        rows.logprobs[0, 0] = 0.0
    # A later call fills buffers of its own.
    other, _ = sample_group(p, prompt, 6, 0.9, np.random.default_rng(5), masks)
    assert [r.tokens for r in other] != [r.tokens for r in want]
    assert_same_responses(rows, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_row_groups_equal_their_rows_in_a_batched_call(seed):
    # With n = 1 a one-prompt call has a single row, which policy.forward
    # runs doubled, so it gets the bits its row gets among K rows.
    p = eos_leaning_params(seed)
    prompts = [pr for pr, _ in BATCH_PROMPTS[:3]]
    masks = [m for _, m in BATCH_PROMPTS[:3]]
    rngs = [np.random.default_rng([seed, g]) for g in range(3)]
    cut = [m[:6] for m in masks]
    draws = draw_uniforms(rngs, [len(m) for m in cut], 1)
    tokens, logprobs, entropies = sample_prompts(
        p, prompts, 1, 0.9, draws, cut, collect_entropy=True
    )
    groups = buffer_responses(tokens, logprobs, cut, 1)
    want_entropies = []
    for g in range(3):
        rng = np.random.default_rng([seed, g])
        one, ent = sample_group(p, prompts[g], 1, 0.9, rng, masks[g], 6, collect_entropy=True)
        assert_same_responses(groups[g], one)
        want_entropies += ent
        assert rng.bit_generator.state == rngs[g].bit_generator.state
    assert entropies.tolist() == want_entropies


def test_batched_sampler_cases_are_exercised():
    # The fixtures above must hit the cases they claim to cover.
    seen = set()
    for seed in range(3):
        p = eos_leaning_params(seed)
        rngs = [np.random.default_rng([seed, g]) for g in range(len(BATCH_PROMPTS))]
        masks = [m[:6] for _, m in BATCH_PROMPTS]
        draws = draw_uniforms(rngs, [len(m) for m in masks], 4)
        prompts = [pr for pr, _ in BATCH_PROMPTS]
        tokens, logprobs, _ = sample_prompts(p, prompts, 4, 0.9, draws, masks)
        groups = buffer_responses(tokens, logprobs, masks, 4)
        for (_, grammar), group in zip(BATCH_PROMPTS, groups):
            assert [len(r) for r in group] == [min(len(grammar), 6)] * 4
            if grammar is FREE and any(VOCAB.eos in r.tokens[:-1] for r in group):
                seen.add("EOS mid-response")
            if len(grammar) > 6:
                seen.add("cut by max_len")
    assert seen == {"EOS mid-response", "cut by max_len"}


def test_one_token_positions_run_no_forward(monkeypatch):
    calls = []
    full = policy.forward

    def counted(params, contexts):
        calls.append(contexts.shape[0])
        return full(params, contexts)

    monkeypatch.setattr(policy, "forward", counted)
    p = tiny_params(seed=4)
    prompt = generate_prompt(TaskSpec("parity", 2), VOCAB, np.random.default_rng(0))
    grammar = response_grammar(prompt, VOCAB)
    assert grammar == ((0, 1), (VOCAB.eos,))
    group, _ = sample_group(p, prompt.tokens, 32, 1.0, np.random.default_rng(1), grammar, 2)
    # The first position forwards the group's one prompt tail.
    assert calls == [1]
    assert all(r.tokens[-1] == VOCAB.eos and r.logprobs[-1] == 0.0 for r in group)
    # A one-prompt call forwards one context per row after its first
    # choice, forced positions aside.
    calls.clear()
    copy = generate_prompt(TaskSpec("copy", 2), VOCAB, np.random.default_rng(0))
    copy_grammar = response_grammar(copy, VOCAB)
    assert len(copy_grammar) == 3 and len(copy_grammar[-1]) == 1
    sample_group(p, copy.tokens, 8, 1.0, np.random.default_rng(1), copy_grammar)
    assert calls == [1, 8]

    # A default step whose longest grammar has 3 positions: the last is EOS
    # for every group that reaches it, so 2 forwards instead of 3, and the
    # first of them runs one prompt tail per group. At the second, the 6
    # groups whose answers close with EOS there are forced: only the other
    # 10 groups' rows are forwarded.
    calls.clear()
    cfg = TrainConfig()
    batch = rollout_batch(p, cfg, 1)
    assert max(len(g) for g in batch.grammars) == 3
    assert sum(len(g) == 2 for g in batch.grammars) == 6
    assert calls == [cfg.groups_per_step, 10 * cfg.group_size]


def test_sample_groups_contracts():
    p = tiny_params()
    rng = np.random.default_rng(0)
    with pytest.raises(ContractViolation):
        sample_prompts(p, [], 2, 1.0, draw_uniforms([], [], 2), [])
    with pytest.raises(ContractViolation):
        sample_prompts(p, [[1], [2]], 2, 1.0, draw_uniforms([rng], [2], 2), [full_grammar(2)] * 2)
    with pytest.raises(ContractViolation):
        sample_prompts(p, [[1], [2]], 2, 1.0, draw_uniforms([rng] * 2, [2, 2], 2), [full_grammar(2)])
    # collect_entropy is keyword-only.
    setup = lockstep_setup(VOCAB, p.window, [[1]], 2, 1.0, [full_grammar(4)])
    with pytest.raises(TypeError):
        sample_groups(p, setup, draw_uniforms([rng], [4], 2), 1.0, True)
    with pytest.raises(ContractViolation):
        sample_group(p, [1], 2, 1.0, rng, full_grammar(4), -1)
    # The block must be (K, horizon, n) for the K prompts, their longest
    # budget and n: a wrong K, horizon or n is rejected before it is read.
    masks = [full_grammar(3), full_grammar(2)]
    block = draw_uniforms([rng] * 2, [3, 2], 4)
    for bad in (block[:1], np.concatenate([block, block[:1]]), block[:, :2], block[:, :, :3]):
        with pytest.raises(ContractViolation, match="block of uniforms"):
            sample_prompts(p, [[1], [2]], 4, 1.0, bad, masks)
    with pytest.raises(ContractViolation, match="block of uniforms"):
        sample_prompts(p, [[1], [2]], 4, 1.0, draw_uniforms([rng] * 2, [4, 2], 4), masks)
    tokens, _, _ = sample_prompts(p, [[1], [2]], 4, 1.0, block, masks)
    assert tokens.shape == (8, p.window + 3)
    # A set-up made for another window or vocabulary is rejected.
    for vocab, window in ((VOCAB, p.window - 1), (Vocab(VOCAB.n_content + 1), p.window)):
        setup = lockstep_setup(vocab, window, [[1], [2]], 4, 1.0, masks)
        with pytest.raises(ContractViolation, match="another vocabulary or window"):
            sample_groups(p, setup, block, 1.0)


def test_masks_that_allow_eos_mid_response_give_one_token_per_position():
    # EOS is legal, and likely, at every position; rows never end early.
    p = eos_leaning_params(0)
    p.b_out[VOCAB.eos] += 3.0
    masks = [full_grammar(5), (VOCAB.content_ids() + (VOCAB.eos,),) * 3, full_grammar(1)]
    rngs = [np.random.default_rng([7, g]) for g in range(3)]
    draws = draw_uniforms(rngs, [len(m) for m in masks], 4)
    tokens, logprobs, _ = sample_prompts(p, [[1, VOCAB.sep]] * 3, 4, 1.0, draws, masks)
    assert tokens.shape == (12, p.window + 5) and logprobs.shape == (12, 5)
    response = tokens[:, p.window :]
    assert np.sum(response[:4, :4] == VOCAB.eos) > 4
    assert np.all(logprobs[:4] < 0.0) and np.all(logprobs[4:8, :3] < 0.0)


@pytest.mark.parametrize("temperature", [1e-10, policy.MIN_TEMPERATURE / 2, float("nan")])
def test_sampling_below_min_temperature_raises(temperature):
    # Logits are scaled before the mask is added: at a low enough
    # temperature illegal ids would outweigh MASK_LOGIT.
    p = tiny_params()
    prompt = generate_prompt(TaskSpec("digitsum", 2), VOCAB, np.random.default_rng(0))
    grammar = response_grammar(prompt, VOCAB)
    rng = np.random.default_rng(1)
    with pytest.raises(ContractViolation, match="temperature must be at least 0.001"):
        sample_group(p, prompt.tokens, 8, temperature, rng, grammar)
    draws = draw_uniforms([rng], [len(grammar)], 8)
    with pytest.raises(ContractViolation):
        sample_prompts(p, [prompt.tokens], 8, temperature, draws, [grammar])
    setup = lockstep_setup(VOCAB, p.window, [prompt.tokens], 8, 1.0, [grammar])
    with pytest.raises(ContractViolation, match="temperature must be at least 0.001"):
        sample_groups(p, setup, draws, temperature)


def test_masks_hold_at_the_min_temperature_below_a_raw_logit_spread_of_1e6():
    p = init_params(VOCAB, 4, 16, 64, 0, 0.0)
    p.b_out[VOCAB.sep] = 9.99e5
    masks = (VOCAB.content_ids(),) * 3 + ((VOCAB.eos,),)
    group, _ = sample_group(
        p, [VOCAB.sep], 8, policy.MIN_TEMPERATURE, np.random.default_rng(0), masks
    )
    for r in group:
        assert all(t in legal for t, legal in zip(r.tokens, masks))
        np.testing.assert_allclose(r.logprobs, [-np.log(10)] * 3 + [0.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [VOCAB.size, VOCAB.size + 7, -1])
@pytest.mark.parametrize("max_len", [0, 3])
def test_sampling_rejects_prompt_ids_out_of_range(bad, max_len):
    # Prompt tails are checked once per call, before any position runs, so
    # a call that samples no position raises too.
    p = tiny_params()
    good = [1, VOCAB.sep]
    rng = np.random.default_rng(0)
    free = [full_grammar(3)] * 2
    cut = [m[:max_len] for m in free]
    with pytest.raises(ContractViolation):
        sample_group(p, [2, bad, VOCAB.sep], 3, 1.0, rng, free[0], max_len)
    draws = draw_uniforms([rng, rng], [len(m) for m in cut], 2)
    with pytest.raises(ContractViolation):
        sample_prompts(p, [good, [bad]], 2, 1.0, draws, cut)
    tokens, logprobs, _ = sample_prompts(p, [good, good], 2, 1.0, draws, cut)
    assert tokens.shape == (4, p.window + max_len) and logprobs.shape == (4, max_len)


@pytest.mark.parametrize("bad", ["prompt id", "mask id", "empty mask"])
def test_rejected_sampling_call_leaves_every_generator_untouched(bad):
    # sample_group draws its uniforms up front, so the draw must come after
    # every check; sample_groups is handed a block, which a rejected call
    # must leave as it was. The bad group is the last, after groups that pass.
    p = tiny_params()
    prompts = [[1, VOCAB.sep], [2, VOCAB.sep], [3, VOCAB.sep]]
    masks = [full_grammar(3), full_grammar(2), full_grammar(3)]
    if bad == "prompt id":
        prompts[-1] = [2, VOCAB.size]
    elif bad == "mask id":
        masks[-1] = ((0, 1), (0, VOCAB.size), (VOCAB.eos,))
    else:
        masks[-1] = ((0, 1), (), (VOCAB.eos,))
    draws = draw_uniforms([np.random.default_rng([9, g]) for g in range(3)], [3, 2, 3], 4)
    block = draws.tobytes()
    with pytest.raises(ContractViolation):
        sample_prompts(p, prompts, 4, 1.0, draws, masks)
    assert draws.tobytes() == block
    rngs = [np.random.default_rng([9, g]) for g in range(3)]
    before = [rng.bit_generator.state for rng in rngs]
    with pytest.raises(ContractViolation):
        sample_group(p, prompts[-1], 4, 1.0, rngs[-1], masks[-1])
    assert [rng.bit_generator.state for rng in rngs] == before


def test_masks_given_as_lists_sample_as_the_same_tuples():
    p = tiny_params(seed=3, scale=1.0)
    as_tuples = ((0, 1), (2, 3, 4), (VOCAB.eos,))
    as_lists = [list(legal) for legal in as_tuples]
    got, _ = sample_group(p, [1], 5, 1.0, np.random.default_rng(4), as_lists)
    want, _ = sample_group(p, [1], 5, 1.0, np.random.default_rng(4), as_tuples)
    assert got.tokens.tobytes() == want.tokens.tobytes()
    assert got.logprobs.tobytes() == want.logprobs.tobytes()
    draws = draw_uniforms([np.random.default_rng(g) for g in (5, 6)], [3, 2], 5)
    masks = [as_lists, (np.arange(10), [VOCAB.eos])]
    got = sample_prompts(p, [[1], [2]], 5, 1.0, draws, masks)
    masks = [as_tuples, (tuple(range(10)), (VOCAB.eos,))]
    want = sample_prompts(p, [[1], [2]], 5, 1.0, draws, masks)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got[:2], want[:2]))


MEMO_GRAMMAR = ((0, 1, 2, 3), tuple(range(4, 10)), (VOCAB.eos,))
MEMO_PROMPTS = [[1, 2, VOCAB.sep], [3, VOCAB.sep], [VOCAB.sep], [4, 1, 2, VOCAB.sep]]


@pytest.mark.parametrize("shape", [(16, 64), (32, 256)], ids=["default", "update-heavy"])
@pytest.mark.parametrize("n", [1, 2, 32])
@pytest.mark.parametrize("temperature", [1.0, 0.7])
@pytest.mark.parametrize("as_lists", [False, True], ids=["tuples", "lists"])
def test_a_shared_memo_leaves_every_sampled_byte_unchanged(shape, n, temperature, as_lists):
    d, h = shape
    p = tiny_params(seed=5, scale=1.0, d=d, h=h)
    masks = [list(legal) for legal in MEMO_GRAMMAR] if as_lists else MEMO_GRAMMAR
    picks = np.random.default_rng(n).integers(0, len(MEMO_PROMPTS), 12).tolist()
    memo = {}
    for i, which in enumerate(picks):
        prompt = MEMO_PROMPTS[which]
        rng, fresh = np.random.default_rng([i, 1]), np.random.default_rng([i, 1])
        got, got_entropies = sample_group(
            p, prompt, n, temperature, rng, masks, collect_entropy=True, memo=memo
        )
        want, want_entropies = sample_group(
            p, prompt, n, temperature, fresh, masks, collect_entropy=True
        )
        assert got.tokens.tobytes() == want.tokens.tobytes()
        assert got.logprobs.tobytes() == want.logprobs.tobytes()
        assert np.asarray(got_entropies).tobytes() == np.asarray(want_entropies).tobytes()
        assert rng.bit_generator.state == fresh.bit_generator.state
    # A group forwards one context at its first choice, and a lone row at
    # every choice; the forced EOS position forwards nothing.
    assert len(set(picks)) < len(picks)
    if n > 1:
        assert sorted(pos for pos, _ in memo) == [0] * len(set(picks))
    else:
        assert {pos for pos, _ in memo} == {0, 1}
    assert all(not row.flags.writeable for row in memo.values())


@pytest.mark.parametrize("n", [1, 4])
def test_calls_on_several_prompts_leave_a_memo_alone(n):
    p = tiny_params(seed=5, scale=1.0)
    prompts = [MEMO_PROMPTS[0], MEMO_PROMPTS[0], MEMO_PROMPTS[1]]

    def sample(**kwargs):
        rngs = [np.random.default_rng([7, k]) for k in range(len(prompts))]
        draws = draw_uniforms(rngs, [len(MEMO_GRAMMAR)] * len(prompts), n)
        masks = [MEMO_GRAMMAR] * len(prompts)
        return sample_prompts(p, prompts, n, 0.7, draws, masks, collect_entropy=True, **kwargs)

    memo = {}
    got = sample(memo=memo)
    assert memo == {}
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, sample()))


@st.composite
def sampler_cases(draw):
    """Random shapes, budgets and grammars for the lockstep sampler.

    Positions flagged in ``pinned`` give every other group one legal id
    there, mostly EOS, so one-token positions come up often; a group with
    a full-vocabulary grammar runs to max_len and keeps those it reaches
    open; masks are cut at max_len before they reach ``sample_groups``.
    """
    ids = st.integers(0, VOCAB.size - 1)
    k = draw(st.integers(1, 4))
    pinned = [draw(st.integers(0, 3)) > 0 for _ in range(6)]
    masks = []
    for _ in range(k):
        if draw(st.integers(0, 7)) == 0:
            masks.append(full_grammar(6))
            continue
        grammar = []
        for pos in range(draw(st.integers(0, 6))):
            if pinned[pos]:
                grammar.append((draw(st.one_of(st.just(VOCAB.eos), ids)),))
            else:
                grammar.append(tuple(sorted(draw(st.sets(ids, min_size=1)))))
        masks.append(tuple(grammar))
    return dict(
        param_seed=draw(st.integers(0, 3)),
        prompts=draw(st.lists(st.lists(ids, max_size=5), min_size=k, max_size=k)),
        n=draw(st.integers(1, 5)),
        temperature=draw(st.floats(0.25, 2.0)),
        masks=masks,
        max_len=draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150)
@given(sampler_cases())
def test_sample_groups_equals_reference_sampler(case):
    p = eos_leaning_params(case["param_seed"])
    prompts, n, masks = case["prompts"], case["n"], case["masks"]
    k = len(prompts)

    def streams():
        return [np.random.default_rng([case["seed"], g]) for g in range(k)]

    rngs = streams()
    cut = [m[: case["max_len"]] for m in masks]
    draws = draw_uniforms(rngs, [len(m) for m in cut], n)
    tokens, logprobs, entropies = sample_prompts(
        p, prompts, n, case["temperature"], draws, cut, collect_entropy=True
    )
    groups = buffer_responses(tokens, logprobs, cut, n)
    ref_rngs = streams()
    want_entropies = []
    for g in range(k):
        want, ent = reference_sample_group(
            p, prompts[g], n, case["temperature"], ref_rngs[g], masks[g], case["max_len"]
        )
        assert_same_responses(groups[g], want)
        want_entropies += ent
        assert rngs[g].bit_generator.state == ref_rngs[g].bit_generator.state
    assert entropies.tolist() == want_entropies
    assert logprobs.shape == (k * n, max(map(len, cut)))

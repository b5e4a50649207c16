import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from etrlab import objectives, policy
from etrlab.autodiff import ContractViolation, Record, exp, sum_all
from etrlab.config import METHODS, TrainConfig, build_strategy, parse_suite
from etrlab.groups import RolloutBatch, RolloutGroup, as_rollout_batch, group_stats
from etrlab.objectives import (
    ClipHigh,
    Elastic,
    Static,
    batch_objective,
    clip_bounds,
    dynamic_epsilon,
    evaluate_prepared,
    kl_cubic_bound,
    kl_quadratic_residual,
    macro_adjustment,
    PreparedBatch,
    prepare_batch,
    theoretical_epsilon,
    token_surrogate,
)
from etrlab.policy import (
    MASK_LOGIT,
    PolicyParams,
    SampledResponse,
    Vocab,
    draw_uniforms,
    forward,
    grammar_table,
    init_params,
    mask_matrix,
    pad_context,
    sample_group,
    score_tokens,
)
from etrlab.tasks import Prompt, encode_payload, response_grammar, reward, verify_rows
from etrlab.trainer import OptimizerState, TrainingDiverged, rollout_batch, train_step
from objective_reference import full_layout_gradient, per_epoch_objective
from rollout_reference import sample_prompts, stacked_contexts, unpack_batch
from tape_reference import gather_pairs, matmul, reshape, softmax_logprobs, take_rows, tanh

VOCAB = Vocab()


def make_group(rewards, seed=0, params=None, difficulty=1):
    """A digitsum group with sampled responses and the given rewards."""
    if params is None:
        params = init_params(VOCAB, 4, 8, 16, seed, 0.1)
    payload = (7,)
    prompt = Prompt("digitsum", difficulty, payload, encode_payload("digitsum", payload, VOCAB))
    grammar = response_grammar(prompt, VOCAB)
    responses, _ = sample_group(
        params, prompt.tokens, len(rewards), 1.0, np.random.default_rng(seed), grammar
    )
    return RolloutGroup(prompt, responses, np.asarray(rewards, dtype=np.float64)), params


def test_strategy_constructor_contracts():
    with pytest.raises(ContractViolation):
        Static(-0.1)
    with pytest.raises(ContractViolation):
        ClipHigh(-0.1, 0.2)
    with pytest.raises(ContractViolation):
        Elastic(0.2, 0.2, 0.1)  # epsilon_base - lambda1 == 0 inverts the band
    with pytest.raises(ContractViolation):
        Elastic(0.1, 0.2, 0.1)
    with pytest.raises(ContractViolation):
        Elastic(0.2, 0.1, -0.1)
    assert Elastic(0.2, -0.1, 0.1).lambda1 == -0.1


def test_advantage_term_examples():
    # At pass rate 0 the difficulty term is zero: eps = base +- lam1 * tanh(A).
    strat = Elastic(0.2, 0.1, 0.1)
    assert dynamic_epsilon(0.0, 0.0, strat) == 0.2
    assert abs(dynamic_epsilon(1.732049, 0.0, strat) - 0.2 - 0.09393) < 5e-5
    grid = np.linspace(-50, 50, 1001)
    np.testing.assert_array_equal(dynamic_epsilon(grid, 0.0, strat), 0.2 + 0.1 * np.tanh(grid))
    flipped = Elastic(0.2, -0.1, 0.1)
    np.testing.assert_array_equal(dynamic_epsilon(grid, 0.0, flipped), 0.2 - 0.1 * np.tanh(grid))
    # etr-macro zeroes lam1, which drops the advantage term.
    np.testing.assert_array_equal(dynamic_epsilon(grid, 0.0, Elastic(0.2, 0.0, 0.1)), 0.2)


def test_macro_adjustment_examples():
    assert abs(macro_adjustment(0.5, 0.1) - 0.1) < 1e-15
    assert macro_adjustment(0.0, 0.1) == 0.0
    assert macro_adjustment(1.0, 0.1) == 0.0
    assert abs(macro_adjustment(0.25, 0.1) - 0.075) < 1e-15
    # etr-micro zeroes lam2, which drops the difficulty term.
    grid = np.linspace(0, 1, 101)
    np.testing.assert_array_equal(dynamic_epsilon(0.0, grid, Elastic(0.2, 0.1, 0.0)), 0.2)
    with pytest.raises(ContractViolation):
        macro_adjustment(-0.1, 0.1)
    with pytest.raises(ContractViolation):
        macro_adjustment(1.1, 0.1)
    # NaN is no pass rate: it would pass a NaN band on to the clip bounds.
    for bad in (np.nan, [0.5, np.nan]):
        with pytest.raises(ContractViolation):
            macro_adjustment(bad, 0.1)
        with pytest.raises(ContractViolation):
            clip_bounds(Elastic(0.2, 0.1, 0.1), np.zeros(np.shape(bad)), bad)
    assert macro_adjustment(np.zeros(0), 0.1).shape == (0,)


def test_macro_unimodality_on_grid():
    grid = np.linspace(0.0, 1.0, 101)
    vals = macro_adjustment(grid, 0.1)
    assert vals.argmax() == 50
    assert abs(vals[50] - 0.1) < 1e-12
    assert vals[0] == 0.0 and vals[100] == 0.0


def test_dynamic_epsilon_examples():
    strat = Elastic(0.2, 0.1, 0.1)
    assert dynamic_epsilon(10.0, 0.5, strat) >= 0.3999
    assert dynamic_epsilon(0.0, 0.0, strat) == 0.2
    assert dynamic_epsilon(0.0, 1.0, strat) == 0.2
    assert abs(dynamic_epsilon(-10.0, 0.0, strat) - 0.1) < 1e-6


def test_dynamic_epsilon_envelope_grid():
    strat = Elastic(0.2, 0.1, 0.1)
    a_grid = np.linspace(-10.0, 10.0, 101)
    p_grid = np.linspace(0.0, 1.0, 101)
    eps = dynamic_epsilon(a_grid[:, None], p_grid[None, :], strat)
    assert eps.min() >= 0.2 - 0.1 - 1e-12
    assert eps.max() <= 0.2 + 0.1 + 0.1 + 1e-12


def test_sign_asymmetry_standard_and_inverse():
    micro = Elastic(0.2, 0.1, 0.0)
    flipped = Elastic(0.2, -0.1, 0.1)
    for a in (0.5, 2.0, 7.0):
        assert dynamic_epsilon(a, 0.3, micro) > 0.2
        assert dynamic_epsilon(-a, 0.3, micro) < 0.2
        base_inv = 0.2 + macro_adjustment(0.3, 0.1)
        assert dynamic_epsilon(a, 0.3, flipped) < base_inv
        assert dynamic_epsilon(-a, 0.3, flipped) > base_inv


def test_inverse_band_edge_cases():
    # The bound is on |lambda1|: a negative lambda1 as wide as the base
    # inverts the band as a positive one does; lambda2 stays non-negative.
    with pytest.raises(ContractViolation, match="band inversion"):
        Elastic(0.2, -0.2, 0.1)
    with pytest.raises(ContractViolation, match="lambda2"):
        Elastic(0.2, 0.1, -0.1)
    # At lambda1 = 0, etr-inverse's -0.0 coefficient gives etr-macro's band
    # bit for bit.
    cfg = dataclasses.replace(TrainConfig(), lambda1=0.0)
    inverse = build_strategy(dataclasses.replace(cfg, method="etr-inverse"))
    macro = build_strategy(dataclasses.replace(cfg, method="etr-macro"))
    assert np.signbit(inverse.lambda1) and not np.signbit(macro.lambda1)
    rng = np.random.default_rng(41)
    adv = np.concatenate([rng.normal(0.0, 3.0, 500), [0.0, -0.0, 50.0, -50.0]])
    rate = rng.integers(0, 9, adv.size) / 8
    for got, want in zip(clip_bounds(inverse, adv, rate), clip_bounds(macro, adv, rate)):
        assert got.tobytes() == want.tobytes()


def test_clip_bounds_per_strategy():
    lo, hi = clip_bounds(Static(0.2), 0.0, 0.5)
    assert (float(lo), float(hi)) == (0.8, 1.2)
    lo, hi = clip_bounds(ClipHigh(0.2, 0.28), 0.0, 0.5)
    assert (float(lo), float(hi)) == (0.8, 1.28)
    # tanh saturates to 1.0 at A=50, so the band hits its widest point
    lo, hi = clip_bounds(Elastic(0.2, 0.1, 0.1), 50.0, 0.5)
    assert abs(float(lo) - 0.6) < 1e-12
    assert abs(float(hi) - 1.4) < 1e-12


def test_token_surrogate_values_and_clip_mask():
    rec = Record()
    r = rec.leaf(np.asarray([1.5, 0.5, 1.0]))
    adv = np.asarray([1.0, -1.0, 2.5])
    lo = np.full(3, 0.8)
    hi = np.full(3, 1.2)
    surr, mask = token_surrogate(r, adv, lo, hi)
    np.testing.assert_allclose(surr.data, [1.2, -0.8, 2.5], atol=1e-15)
    assert mask.tolist() == [True, True, False]


def test_clipped_tokens_carry_zero_ratio_gradient():
    rec = Record()
    r = rec.leaf(np.asarray([1.5, 1.0, 0.5]))
    adv = np.asarray([1.0, 1.0, -1.0])
    surr, mask = token_surrogate(r, adv, np.full(3, 0.8), np.full(3, 1.2))
    grads = rec.backward(sum_all(surr))
    np.testing.assert_array_equal(grads[r.node], [0.0, 1.0, 0.0])
    assert mask.tolist() == [True, False, True]


def test_theoretical_epsilon():
    assert theoretical_epsilon(1.0, 0.2) == 0.2
    assert abs(theoretical_epsilon(4.0, 0.2) - 0.4) < 1e-15
    vals = [theoretical_epsilon(r, 0.2) for r in (1.0, 2.0, 4.0, 9.0)]
    assert vals == sorted(vals)
    for rho in (1.0, 2.0, 4.0, 9.0):
        ratio = theoretical_epsilon(rho, 0.2) / 0.2
        assert abs(ratio * ratio - rho) <= 1e-12
    with pytest.raises(ContractViolation):
        theoretical_epsilon(0.5, 0.2)


def test_kl_quadratic_residual_and_bound():
    assert kl_quadratic_residual(1.0) == 0.0
    got = kl_quadratic_residual(1.1)
    assert abs(got - 3.10e-4) < 1e-6
    assert got <= kl_cubic_bound(1.1)
    assert abs(kl_cubic_bound(1.1) - 1e-3 / 3.0) < 1e-12
    for r in np.linspace(0.5, 1.5, 201):
        if r != 1.0:
            assert kl_quadratic_residual(float(r)) <= kl_cubic_bound(float(r)) + 1e-15


def test_kl_residual_cubic_limit():
    for delta in (1e-2, 1e-3, 1e-4):
        for r in (1.0 + delta, 1.0 - delta):
            ratio = kl_quadratic_residual(r) / abs(r - 1.0) ** 3
            assert abs(3.0 * ratio - 1.0) <= 0.05


def test_first_pass_objective_is_zero():
    group, params = make_group([1.0, 1.0, -1.0, -1.0, -1.0, -1.0], seed=3)
    bd = batch_objective([group], Static(0.2), 0.001, params, params)
    assert abs(bd.total) < 1e-12
    assert abs(bd.surrogate) < 1e-12
    assert abs(bd.kl) < 1e-12
    assert bd.clipped_tokens == 0
    assert bd.clip_fraction == 0.0
    assert bd.mean_epsilon is None


def test_lambda_zero_degenerates_to_static():
    group, params = make_group([1.0, -1.0, -1.0, 1.0], seed=5)
    moved = params.copy()
    moved.set_vector(moved.to_vector() + 0.05)
    a = batch_objective([group], Static(0.2), 0.001, moved, params, with_grad=True)
    b = batch_objective([group], Elastic(0.2, 0.0, 0.0), 0.001, moved, params, with_grad=True)
    assert a.total == b.total
    assert a.surrogate == b.surrogate
    assert a.kl == b.kl
    assert a.clipped_tokens == b.clipped_tokens
    np.testing.assert_array_equal(a.gradient, b.gradient)


def test_loss_breakdown_identity_and_mean_epsilon():
    group, params = make_group([1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0], seed=9)
    moved = params.copy()
    moved.set_vector(moved.to_vector() + 0.03)
    strategy = Elastic(0.2, 0.1, 0.1)
    bd = batch_objective([group], strategy, 0.001, moved, params)
    assert abs(bd.total - (bd.surrogate - 0.001 * bd.kl)) < 1e-15
    stats = group_stats(group.rewards)
    eps = dynamic_epsilon(stats.advantages, stats.pass_rate, strategy)
    assert np.all(eps >= 0.1 - 1e-12) and np.all(eps <= 0.4 + 1e-12)
    # The mean half-width over every token, the same bits on any parameters.
    want = reference_prepare_batch([group], strategy, params)["mean_epsilon"]
    assert bd.mean_epsilon == prepare_batch([group], strategy, params).mean_epsilon == want
    assert abs(want - eps.mean()) < 1e-15


def row_logits(params, context):
    """Logits of one padded context, computed on their own."""
    x = params.embed[np.asarray(context)].reshape(1, -1)
    hidden = np.tanh(x @ params.w_hidden + params.b_hidden)
    return (hidden @ params.w_out + params.b_out)[0]


def brute_force_objective(groups, params, ref, eps, beta):
    """Token-level recomputation with plain numpy clip/min arithmetic."""
    per_group = []
    kl_terms = []
    for group in groups:
        rewards = group.rewards
        mean = rewards.mean()
        std = np.sqrt(np.mean((rewards - mean) ** 2))
        advantages = (rewards - mean) / (std + 1e-6)
        grammar = response_grammar(group.prompt, params.vocab)
        per_resp = []
        for resp, adv in zip(group.responses, advantages):
            lp_new, lp_ref = [], []
            seq = list(group.prompt.tokens)
            for j, tok in enumerate(resp.tokens):
                mask = mask_matrix(params.vocab.size, (grammar[j],))[0]
                for p, sink in ((params, lp_new), (ref, lp_ref)):
                    logits = row_logits(p, pad_context(seq, p.window, p.vocab.bos)) + mask
                    shifted = logits - logits.max()
                    lps = shifted - np.log(np.exp(shifted).sum())
                    sink.append(lps[tok])
                seq.append(tok)
            lp_new = np.asarray(lp_new)
            lp_ref = np.asarray(lp_ref)
            r = np.exp(lp_new - resp.logprobs)
            surr = np.minimum(r * adv, np.clip(r, 1 - eps, 1 + eps) * adv)
            per_resp.append(surr.mean())
            u = np.exp(lp_ref - lp_new)
            kl_terms.append(np.mean(u - (lp_ref - lp_new) - 1.0))
        per_group.append(np.mean(per_resp))
    return float(np.mean(per_group) - beta * np.mean(kl_terms))


def test_batch_objective_matches_brute_force():
    vocab = Vocab(2)
    params = init_params(vocab, 2, 3, 4, 11, 0.3)
    payload = (1,)
    prompt = Prompt("copy", 1, payload, encode_payload("copy", payload, vocab))
    grammar = response_grammar(prompt, vocab)
    responses, _ = sample_group(
        params, prompt.tokens, 8, 1.0, np.random.default_rng(2), grammar
    )
    rewards = np.asarray([1.0, 1.0, -1, -1, -1, -1, -1, -1])
    group = RolloutGroup(prompt, responses, rewards)
    moved = params.copy()
    moved.set_vector(moved.to_vector() + np.random.default_rng(3).normal(0, 0.2, params.param_count))
    got = batch_objective([group], Static(0.2), 0.001, moved, params)
    want = brute_force_objective([group], moved, params, 0.2, 0.001)
    assert abs(got.total - want) < 1e-12


def test_prepare_batch_contracts_and_weights():
    group, params = make_group([1.0, -1.0], seed=1, difficulty=2)
    prep = prepare_batch([group], Static(0.2), params)
    assert abs(prep.weights.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(prep.lo, 0.8)
    np.testing.assert_allclose(prep.hi, 1.2)
    with pytest.raises(ContractViolation):
        prepare_batch([], Static(0.2), params)
    with pytest.raises(ContractViolation):
        evaluate_prepared(prep, params, -0.5)


@pytest.mark.parametrize("bad", [-1, VOCAB.size])
@pytest.mark.parametrize("position", [0, 1])
def test_prepare_batch_rejects_response_ids_out_of_range(bad, position):
    # A bad id is a target at its own position and a context id after it.
    prompt = Prompt("parity", 1, (1,), encode_payload("parity", (1,), VOCAB))
    tokens = [1, VOCAB.eos]
    tokens[position] = bad
    responses = (SampledResponse(tuple(tokens), np.zeros(2)),) * 2
    group = RolloutGroup(prompt, responses, np.asarray([1.0, -1.0]))
    params = init_params(VOCAB, 3, 5, 7, 0, 0.4)
    with pytest.raises(ContractViolation):
        batch_objective([group], Static(0.2), 0.001, params, params)


def test_static_band_mismatch_from_prepared_advantages():
    # With beta = 1 a token's ideal ratio step is |A|; a static band of
    # width eps cannot reach it where |A| > eps. One winner among sixteen
    # has |A| near 3.9, every loser near 0.26: only the winner is flagged.
    group, params = make_group([1.0] + [-1.0] * 15, seed=8)
    prep = prepare_batch([group], Static(1.0), params)
    flagged = np.abs(prep.advantages) > 1.0
    winner = len(group.responses[0])
    assert flagged[:winner].all() and not flagged[winner:].any()
    assert flagged.mean() == winner / prep.targets.size
    # Equal rewards give zero advantages, so no band is too narrow.
    same, _ = make_group([1.0, 1.0, 1.0, 1.0], seed=2, params=params)
    assert not np.any(prepare_batch([same], Static(0.0), params).advantages)


def token_rows(batch, params):
    """Every token's context row and additive mask row, forced tokens included.

    Built response by response from the groups, in batch order.
    """
    vocab = params.vocab
    ctx_parts, mask_parts = [], []
    for group in batch:
        grammar = response_grammar(group.prompt, vocab)
        for resp in group.responses:
            ctx_parts.append(
                stacked_contexts([(group.prompt.tokens, resp.tokens)], params.window, vocab.bos)
            )
            mask_parts.append(mask_matrix(vocab.size, grammar[: len(resp)]))
    return np.concatenate(ctx_parts, axis=0), np.concatenate(mask_parts, axis=0)


def forced(masks, targets):
    """Tokens that are the one id their mask row allows."""
    legal = masks[np.arange(targets.size), targets] == 0.0
    return legal & (np.count_nonzero(masks == 0.0, axis=1) == 1)


def reference_prepare_batch(batch, strategy, ref_params, xi=1e-6, temperature=1.0):
    """Per-response loop that builds every per-token quantity, kept as the reference.

    Every token is scored on its own row, forced ones included. Returns the
    quantities :func:`token_view` reads off a prepared batch: the rows of
    the tokens that are not forced, and every token's constants.
    """
    vocab = ref_params.vocab
    tgt_parts, old_parts, adv_parts, lo_parts, hi_parts, w_parts = [], [], [], [], [], []
    eps_parts = []
    for group in batch:
        stats = group_stats(group.rewards, xi)
        for resp, adv in zip(group.responses, stats.advantages):
            length = len(resp)
            tgt_parts.append(np.asarray(resp.tokens, dtype=np.int64))
            old_parts.append(np.asarray(resp.logprobs, dtype=np.float64))
            adv_parts.append(np.full(length, adv))
            lo_i, hi_i = clip_bounds(strategy, adv, stats.pass_rate)
            lo_parts.append(np.full(length, lo_i))
            hi_parts.append(np.full(length, hi_i))
            if isinstance(strategy, Elastic):
                eps_parts.append(np.full(length, dynamic_epsilon(adv, stats.pass_rate, strategy)))
            w_parts.append(np.full(length, 1.0 / (len(batch) * group.size * length)))
    contexts, masks = token_rows(batch, ref_params)
    targets = np.concatenate(tgt_parts)
    scored = np.flatnonzero(~forced(masks, targets))
    distinct, index = np.unique(contexts, axis=0, return_inverse=True)
    return dict(
        scored=scored,
        distinct_index=index.reshape(-1)[scored],
        contexts=contexts[scored],
        masks=masks[scored],
        distinct_contexts=distinct,
        targets=targets,
        old_logprobs=np.concatenate(old_parts),
        ref_logprobs=score_tokens(ref_params, contexts, targets, masks, temperature),
        advantages=np.concatenate(adv_parts),
        lo=np.concatenate(lo_parts),
        hi=np.concatenate(hi_parts),
        weights=np.concatenate(w_parts),
        mean_epsilon=float(np.mean(np.concatenate(eps_parts))) if eps_parts else None,
        temperature=temperature,
    )


def uneven_batch(seed):
    """Four groups of 4 from three task families whose responses differ in length.

    Each group draws one length from 1 to its grammar's, as a group sampled
    with ``max_len`` has, so some groups are cut short of their answer.
    """
    rng = np.random.default_rng(seed)
    batch = []
    size = 4
    for family, payload in (
        ("digitsum", (4,)),
        ("copy", (2, 8, 5)),
        ("parity", (1, 0)),
        ("digitsum", (0,)),
    ):
        difficulty = len(payload) if family != "digitsum" else 3
        prompt = Prompt(family, difficulty, payload, encode_payload(family, payload, VOCAB))
        grammar = response_grammar(prompt, VOCAB)
        responses = []
        length = int(rng.integers(1, len(grammar) + 1))
        for _ in range(size):
            tokens = tuple(int(rng.choice(grammar[j])) for j in range(length))
            responses.append(SampledResponse(tokens, -rng.exponential(size=length)))
        rewards = rng.choice([-1.0, 1.0], size=size)
        batch.append(RolloutGroup(prompt, tuple(responses), rewards))
    return batch


# The band of each method, with lambda2 apart from lambda1.
STRATEGIES = [
    build_strategy(dataclasses.replace(TrainConfig(), method=method, lambda2=0.15))
    for method in METHODS
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=METHODS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prepare_batch_equals_per_response_reference(strategy, seed):
    batch = uneven_batch(seed)
    assert len({len(r) for g in batch for r in g.responses}) > 1
    params = init_params(VOCAB, 3, 5, 7, seed, 0.4)
    got = prepare_batch(batch, strategy, params, 1e-6, 0.8)
    want = reference_prepare_batch(batch, strategy, params, 1e-6, 0.8)
    assert_same(token_view(got), want)
    # Off the reference policy too, the pair rows give each token the bits
    # the per-token reference scorer gives it, and a forced token's 0.0 is
    # the reference's.
    probe = moved(params, seed)
    lp = objectives.score_prepared(got, probe)[-1]
    contexts, masks = token_rows(batch, params)
    ref = score_tokens(probe, contexts, want["targets"], masks, 0.8)
    assert lp.tobytes() == ref.tobytes()


def assert_same(got, want):
    assert got.keys() == want.keys()
    for name, b in want.items():
        a = got[name]
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


def prepared_fields(prep):
    return {field.name: getattr(prep, field.name) for field in dataclasses.fields(PreparedBatch)}


def token_view(prep):
    """A prepared batch's per-token quantities, with its pair rows read back per scored token.

    Checks on the way that each scored token's scatter block is its
    distinct context's row of V flat positions; that the forward block is
    the distinct contexts some scored token reads, in order; that each
    pair is read by some scored token and has the token's block row; that
    each scored token's flat gather and target indices point at its target
    id in its pair's row and in its own row; and that the one-hot is the
    distinct contexts'.
    """
    v = prep.pair_masks.shape[1]
    blocks = prep.scatter_index.reshape(prep.scored.size, v)
    distinct_index = blocks[:, 0] // v
    assert np.array_equal(blocks, distinct_index[:, None] * v + np.arange(v))
    assert np.array_equal(prep.forward_rows, np.unique(distinct_index))
    assert np.array_equal(prep.forward_contexts, prep.distinct_contexts[prep.forward_rows])
    assert np.array_equal(prep.forward_rows[prep.pair_contexts[prep.pair_index]], distinct_index)
    assert np.unique(prep.pair_index).size == prep.pair_contexts.size
    targets = prep.targets[prep.scored]
    assert np.array_equal(prep.gather_index, prep.pair_index * v + targets)
    assert np.array_equal(prep.target_index, np.arange(prep.scored.size) * v + targets)
    one_hot = prep.distinct_contexts.reshape(-1) == np.arange(v)[:, None]
    assert prep.embed_one_hot.dtype == np.float64
    assert prep.embed_one_hot.tobytes() == one_hot.astype(np.float64).tobytes()
    names = (
        "scored", "distinct_contexts", "targets", "old_logprobs", "ref_logprobs",
        "advantages", "lo", "hi", "weights", "mean_epsilon", "temperature",
    )
    return dict(
        distinct_index=distinct_index,
        contexts=prep.distinct_contexts[distinct_index],
        masks=prep.pair_masks[prep.pair_index],
        **{name: getattr(prep, name) for name in names},
    )


def prompt_of(family, difficulty, payload):
    return Prompt(family, difficulty, payload, encode_payload(family, payload, VOCAB))


# Answer budgets of 4, 2, 3, 4 and 2 positions. Groups flagged False are
# sampled under a full-vocabulary grammar of max_len = 4 positions instead
# of their own, so their rows can hold EOS mid-response and ids outside
# their grammar.
ROLLOUT_PROMPTS = [
    (prompt_of("copy", 3, (2, 8, 5)), False),
    (prompt_of("parity", 2, (1, 1)), True),
    (prompt_of("copy", 2, (7, 1)), True),
    (prompt_of("digitsum", 3, (0,)), False),
    (prompt_of("digitsum", 1, (4,)), True),
]


def sampled_rollout(params, k, seed, n=4, max_len=4):
    """A RolloutBatch straight from the lockstep sampler, its masks and its generators."""
    prompts = [prompt for prompt, _ in ROLLOUT_PROMPTS[:k]]
    grammars = tuple(response_grammar(prompt, VOCAB) for prompt in prompts)
    free = (tuple(range(VOCAB.size)),) * max_len
    masks = [g if masked else free for g, (_, masked) in zip(grammars, ROLLOUT_PROMPTS)]
    rngs = [np.random.default_rng([seed, g]) for g in range(k)]
    draws = draw_uniforms(rngs, [len(m) for m in masks], n)
    tokens, logprobs, entropies = sample_prompts(
        params, [p.tokens for p in prompts], n, 0.8, draws, masks, collect_entropy=True
    )
    correct = verify_rows(prompts, n, tokens[:, params.window :], VOCAB)
    batch = RolloutBatch(
        tuple(prompts), grammars, n, tokens, logprobs, reward(correct), tuple(entropies)
    )
    return batch, masks, rngs


def eos_leaning(seed):
    params = init_params(VOCAB, 3, 5, 7, seed, 0.4)
    params.b_out[VOCAB.eos] += 1.5
    return params


@pytest.mark.parametrize("strategy", STRATEGIES, ids=METHODS)
@pytest.mark.parametrize("k", [1, len(ROLLOUT_PROMPTS)])
@pytest.mark.parametrize("seed", [0, 1])
def test_prepare_batch_reads_rollout_buffers_like_groups(strategy, k, seed):
    params = eos_leaning(seed)
    batch, masks, rngs = sampled_rollout(params, k, seed)
    groups = unpack_batch(batch)
    got = prepare_batch(batch, strategy, params, 1e-6, 0.8)
    from_groups = prepare_batch(groups, strategy, params, 1e-6, 0.8)
    assert_same(prepared_fields(got), prepared_fields(from_groups))
    assert_same(token_view(got), reference_prepare_batch(groups, strategy, params, 1e-6, 0.8))
    # One prompt at a time on a fresh copy of its stream: the same rows,
    # and the generator is left in the same state.
    for g, group in enumerate(groups):
        rng = np.random.default_rng([seed, g])
        one, _ = sample_group(params, group.prompt.tokens, 4, 0.8, rng, masks[g], 4)
        assert [r.tokens for r in one] == [r.tokens for r in group.responses]
        for a, b in zip(one, group.responses):
            assert a.logprobs.dtype == b.logprobs.dtype
            assert a.logprobs.tobytes() == b.logprobs.tobytes()
        assert rng.bit_generator.state == rngs[g].bit_generator.state


def test_rollout_buffer_cases_are_exercised():
    # The fixture above must hit the cases it claims to cover.
    seen = set()
    for seed in (0, 1):
        params = eos_leaning(seed)
        batch, _, _ = sampled_rollout(params, len(ROLLOUT_PROMPTS), seed)
        early = batch.tokens[:, params.window : params.window + 3] == VOCAB.eos
        for rows, (_, masked) in zip(early.reshape(len(batch), -1), ROLLOUT_PROMPTS):
            if not masked and np.any(rows):
                seen.add("full-vocabulary row emits EOS mid-response")
        if len(set(batch.lengths.tolist())) > 2:
            seen.add("mixed lengths")
        if 0 < np.sum(batch.rewards > 0) < batch.rewards.size:
            seen.add("mixed rewards")
    assert seen == {
        "full-vocabulary row emits EOS mid-response", "mixed lengths", "mixed rewards"
    }


class PolicyLeaves:
    """Policy parameters registered as leaves on an autodiff record."""

    FIELDS = ("embed", "w_hidden", "b_hidden", "w_out", "b_out")

    def __init__(self, record, params):
        self.window = params.window
        for f in self.FIELDS:
            setattr(self, f, record.leaf(getattr(params, f)))

    def gradient_vector(self, grads):
        parts = []
        for f in self.FIELDS:
            leaf = getattr(self, f)
            g = grads.get(leaf.node)
            parts.append(np.zeros(leaf.size) if g is None else g.ravel())
        return np.concatenate(parts)


def score_tokens_diff(leaves, contexts, targets, masks, temperature=1.0):
    """Differentiable log-probabilities of target tokens on the tape, shape (T,)."""
    n = contexts.shape[0]
    d = leaves.embed.shape[1]
    e = take_rows(leaves.embed, contexts.reshape(-1))
    x = reshape(e, (n, leaves.window * d))
    ones = np.ones((n, 1))
    b_h = reshape(leaves.b_hidden, (1, leaves.b_hidden.size))
    b_o = reshape(leaves.b_out, (1, leaves.b_out.size))
    hidden = tanh(matmul(x, leaves.w_hidden) + matmul(ones, b_h))
    logits = matmul(hidden, leaves.w_out) + matmul(ones, b_o)
    scaled = logits * (1.0 / temperature)
    if masks is not None:
        scaled = scaled + masks
    lp = softmax_logprobs(scaled, 1.0)
    return gather_pairs(lp, np.arange(n), targets)


def tape_evaluate(prep, rows, params, kl_coef):
    """The objective and its gradient on the autodiff tape, every token row by row.

    ``rows`` are every token's context and mask rows, forced tokens
    included (:func:`token_rows`). Kept as the reference for the
    closed-form :func:`evaluate_prepared`.
    """
    record = Record()
    leaves = PolicyLeaves(record, params)
    contexts, masks = rows
    lp = score_tokens_diff(leaves, contexts, prep.targets, masks, prep.temperature)
    ratio = exp(lp - prep.old_logprobs)
    surrogate_tokens, clip_mask = token_surrogate(ratio, prep.advantages, prep.lo, prep.hi)
    surrogate = sum_all(surrogate_tokens * prep.weights)
    diff = prep.ref_logprobs - lp
    kl = sum_all((exp(diff) - diff - 1.0) * prep.weights)
    total = surrogate - kl_coef * kl
    gradient = leaves.gradient_vector(record.backward(total))
    return (
        float(total.data),
        float(surrogate.data),
        float(kl.data),
        int(np.sum(clip_mask)),
        gradient,
    )


def test_tape_scorer_matches_plain_scorer():
    p = init_params(VOCAB, 4, 16, 64, 8, 0.1)
    prompt = [VOCAB.sep, 4, VOCAB.sep]
    tokens = [2, 9, VOCAB.eos]
    masks = mask_matrix(VOCAB.size, (VOCAB.content_ids(),) * 2 + ((VOCAB.eos,),))
    contexts = stacked_contexts([(prompt, tokens)], p.window, VOCAB.bos)
    targets = np.asarray(tokens)
    rec = Record()
    leaves = PolicyLeaves(rec, p)
    diff = score_tokens_diff(leaves, contexts, targets, masks)
    plain = score_tokens(p, contexts, targets, masks)
    np.testing.assert_allclose(diff.data, plain, rtol=0, atol=1e-12)
    vec = leaves.gradient_vector(rec.backward(sum_all(diff)))
    assert vec.shape == (p.param_count,)
    assert np.any(vec != 0.0)


def moved(params, seed, sigma=0.3):
    """A copy of the parameters perturbed off the sampling policy."""
    noise = np.random.default_rng(seed).normal(0.0, sigma, params.param_count)
    return PolicyParams.from_vector(
        params.vocab, params.window, params.embed_dim, params.hidden_dim,
        params.to_vector() + noise,
    )


def assert_matches_tape(prep, rows, params, kl_coef):
    got = evaluate_prepared(prep, params, kl_coef, with_grad=True)
    total, surrogate, kl, clipped, gradient = tape_evaluate(prep, rows, params, kl_coef)
    assert got.total == total
    assert got.surrogate == surrogate
    assert got.kl == kl
    assert got.clipped_tokens == clipped
    scale = np.max(np.abs(gradient))
    assert scale > 0.0
    assert np.max(np.abs(got.gradient - gradient)) <= 1e-12 * scale
    return got


@pytest.mark.parametrize("kl_coef", [0.0, 0.001])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=METHODS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_objective_matches_tape(strategy, seed, kl_coef):
    batch = uneven_batch(seed)
    params = init_params(VOCAB, 3, 5, 7, seed, 0.4)
    prep = prepare_batch(batch, strategy, params, 1e-6, 0.8)
    assert prep.distinct_contexts.shape[0] < prep.targets.size
    got = assert_matches_tape(prep, token_rows(batch, params), moved(params, seed), kl_coef)
    # Both clip branches fire: some tokens clipped, some inside the band.
    assert 0 < got.clipped_tokens < got.total_tokens


def test_closed_form_matches_tape_on_all_distinct_contexts():
    # Responses of a group share their first context, so keep the first
    # token row of each distinct context to get a batch without repeats.
    params = init_params(VOCAB, 3, 5, 7, 3, 0.4)
    batch = uneven_batch(3)
    full = prepare_batch(batch, Elastic(0.2, 0.1, 0.15), params, 1e-6, 0.8)
    contexts, masks = token_rows(batch, params)
    keep = np.sort(np.unique(contexts, axis=0, return_index=True)[1])
    per_token = ("targets", "old_logprobs", "ref_logprobs", "advantages", "lo", "hi", "weights")
    # Every token is its own distinct context, and every scored one its own
    # forward row and pair.
    scored = np.flatnonzero(~forced(masks[keep], full.targets[keep]))
    v = VOCAB.size
    flat_targets = np.arange(scored.size) * v + full.targets[keep][scored]
    prep = dataclasses.replace(
        full,
        **{name: getattr(full, name)[keep] for name in per_token},
        distinct_contexts=contexts[keep],
        embed_one_hot=policy.embedding_one_hot(contexts[keep], v),
        forward_rows=scored,
        forward_contexts=contexts[keep][scored],
        scored=scored,
        pair_contexts=np.arange(scored.size),
        pair_masks=masks[keep][scored],
        pair_index=np.arange(scored.size),
        gather_index=flat_targets,
        target_index=flat_targets,
        scatter_index=(scored[:, None] * v + np.arange(v)).reshape(-1),
    )
    assert len(np.unique(token_view(prep)["contexts"], axis=0)) == prep.scored.size > 2
    assert prep.scored.size < prep.targets.size
    assert_matches_tape(prep, (contexts[keep], masks[keep]), moved(params, 3), 0.001)


def test_closed_form_matches_tape_on_one_shared_context():
    prompt = Prompt("parity", 1, (1,), encode_payload("parity", (1,), VOCAB))
    responses = tuple(SampledResponse((t,), np.asarray([-0.7])) for t in (0, 1, 0))
    group = RolloutGroup(prompt, responses, np.asarray([1.0, -1.0, 1.0]))
    params = init_params(VOCAB, 3, 5, 7, 4, 0.4)
    prep = prepare_batch([group], Static(0.2), params)
    # Every token reads the one context, which policy.forward runs doubled.
    assert prep.distinct_contexts.shape[0] == 1 < prep.targets.size
    assert not prep.pair_contexts.any()
    assert token_view(prep)["distinct_index"].tolist() == [0] * prep.targets.size
    contexts, masks = token_rows([group], params)
    want = score_tokens(params, contexts, prep.targets, masks)
    assert np.array_equal(prep.ref_logprobs, want)
    assert_matches_tape(prep, (contexts, masks), moved(params, 4), 0.001)


def default_rollout(embed_dim, hidden_dim, seed):
    """A default-size step-1 rollout batch of a policy of the given widths, as groups."""
    cfg = dataclasses.replace(TrainConfig(), embed_dim=embed_dim, hidden_dim=hidden_dim)
    params = init_params(VOCAB, cfg.context_window, embed_dim, hidden_dim, seed, 0.4)
    return unpack_batch(rollout_batch(params, cfg, 1)), params


@pytest.mark.parametrize("embed_dim", [3, 4, 16])
@pytest.mark.parametrize("hidden_dim", [5, 64, 256])
@pytest.mark.parametrize("case", ["uneven-0", "uneven-2", "uneven-3", "rollout-1"])
def test_gradient_equals_every_distinct_context_layout_bit_for_bit(embed_dim, hidden_dim, case):
    # Forced tokens leave the forward block and the scatter, yet the
    # gradient keeps the bits of the layout that forwarded every distinct
    # context: at the narrow embeddings, and with a forward block small
    # enough for BLAS to round its rows another way than the full one's.
    kind, seed = case.split("-")
    seed = int(seed)
    if kind == "uneven":
        batch = uneven_batch(seed)
        params = init_params(VOCAB, 3, embed_dim, hidden_dim, seed, 0.4)
    else:
        batch, params = default_rollout(embed_dim, hidden_dim, seed)
    prep = prepare_batch(batch, Elastic(0.2, 0.1, 0.15), params, 1e-6, 0.8)
    assert prep.forward_rows.size < prep.distinct_contexts.shape[0]
    contexts, masks = token_rows(batch, params)
    probe = moved(params, seed)
    got = evaluate_prepared(prep, probe, 0.001, with_grad=True).gradient
    want = full_layout_gradient(prep, contexts, masks, probe, 0.001)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("temperature", [1.0, 0.8])
@pytest.mark.parametrize("kl_coef", [0.0, 0.001])
@pytest.mark.parametrize("case", ["uneven-0", "uneven-3", "rollout-1", "rollout-2"])
def test_objective_equals_its_per_epoch_form_bit_for_bit(case, kl_coef, temperature):
    # The one-hot and flat indices prepare_batch builds once per batch give
    # the total and gradient that rebuilding them every epoch gave, also at
    # temperature 1, where the gradient's temperature scaling is skipped.
    kind, seed = case.split("-")
    seed = int(seed)
    if kind == "uneven":
        batch = uneven_batch(seed)
        params = init_params(VOCAB, 3, 5, 7, seed, 0.4)
    else:
        batch, params = default_rollout(16, 64, seed)
    prep = prepare_batch(batch, Elastic(0.2, 0.1, 0.15), params, 1e-6, temperature)
    assert 0 < prep.scored.size < prep.targets.size
    probe = moved(params, seed)
    got = evaluate_prepared(prep, probe, kl_coef, with_grad=True)
    total, gradient = per_epoch_objective(prep, probe, kl_coef)
    assert np.float64(got.total).tobytes() == np.float64(total).tobytes()
    assert got.gradient.tobytes() == gradient.tobytes()


def test_batch_without_a_choice_forwards_nothing_and_has_a_zero_gradient():
    # One content id and copy:2: every position allows one id. Mixed rewards
    # give every forced token a nonzero d(total)/d(log-prob), whose gradient
    # is still exactly +-0.
    cfg = dataclasses.replace(
        TrainConfig(), content_tokens=1, suite=parse_suite("copy:2"), groups_per_step=2,
        group_size=2, context_window=3, embed_dim=5, hidden_dim=7,
    )
    vocab = Vocab(cfg.content_tokens)
    params = init_params(vocab, 3, 5, 7, 0, 0.4)
    batch = rollout_batch(params, cfg, 1)
    batch = dataclasses.replace(batch, rewards=np.asarray([1.0, -1.0, -1.0, 1.0]))
    prep = prepare_batch(batch, Static(0.2), params, 1e-6, 0.8)
    assert prep.scored.size == 0 < prep.targets.size
    assert prep.forward_contexts.shape[0] == 0
    assert np.any(prep.advantages)
    probe = moved(params, 5)
    got = evaluate_prepared(prep, probe, 0.001, with_grad=True)
    total, surrogate, kl, clipped, gradient = tape_evaluate(
        prep, token_rows(unpack_batch(batch), params), probe, 0.001
    )
    assert (got.total, got.surrogate, got.kl, got.clipped_tokens) == (total, surrogate, kl, clipped)
    assert got.gradient.tobytes() == np.zeros(params.param_count).tobytes()
    assert not np.any(gradient)


def test_forward_runs_on_the_contexts_of_tokens_with_a_choice_only(monkeypatch):
    cfg = TrainConfig()
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 1, 0.1)
    batch = rollout_batch(params, cfg, 1)
    contexts, masks = token_rows(unpack_batch(batch), params)
    choice = np.count_nonzero(masks == 0.0, axis=1) > 1
    want = np.unique(contexts[choice], axis=0)
    assert want.shape[0] < np.unique(contexts, axis=0).shape[0]
    forwarded = []

    def recorded(params, contexts):
        forwarded.append(contexts.copy())
        return forward(params, contexts)

    monkeypatch.setattr(objectives.policy_mod, "forward", recorded)
    prep = prepare_batch(batch, build_strategy(cfg), params, cfg.advantage_xi, cfg.temperature)
    evaluate_prepared(prep, moved(params, 1), cfg.kl_coef, with_grad=True)
    assert len(forwarded) == 2
    for block in forwarded:
        assert np.array_equal(block, want)


def test_non_finite_objective_raises_training_diverged():
    batch = uneven_batch(0)
    params = init_params(VOCAB, 3, 5, 7, 0, 0.4)
    cfg = dataclasses.replace(
        TrainConfig(), method="grpo", inner_epochs=1, context_window=3, embed_dim=5, hidden_dim=7
    )
    broken = params.copy()
    broken.w_out[0, 0] = np.nan
    packed = as_rollout_batch(batch, VOCAB, params.window)
    with pytest.raises(TrainingDiverged):
        train_step(broken, params, OptimizerState.zeros(params.param_count), packed, cfg)
    # A ratio that overflows on a negative-advantage response of the third
    # group drives the surrogate to -inf; the group is located and reported.
    responses = list(batch[2].responses)
    first = responses[0]
    responses[0] = SampledResponse(first.tokens, np.full(len(first), -1e6))
    rewards = np.asarray([-1.0, 1.0, 1.0, 1.0])
    batch[2] = RolloutGroup(batch[2].prompt, tuple(responses), rewards)
    packed = as_rollout_batch(batch, VOCAB, params.window)
    with pytest.raises(TrainingDiverged) as caught:
        train_step(params.copy(), params, OptimizerState.zeros(params.param_count), packed, cfg)
    assert caught.value.group_index == 2


def test_prepare_batch_rejects_empty_overlong_and_mixed_length_responses():
    group, params = make_group([1.0, -1.0], seed=1)
    first = group.responses[0]
    empty = SampledResponse((), np.zeros(0))
    overlong = SampledResponse((1, 2, 3), np.zeros(3))
    cases = [((empty, empty), "1 to len"), ((overlong, overlong), "1 to len")]
    cases += [((first, r), "share one length") for r in (empty, overlong)]
    for responses, message in cases:
        with pytest.raises(ContractViolation, match=message):
            prepare_batch([RolloutGroup(group.prompt, responses, group.rewards)], Static(0.2), params)


def test_prepare_batch_builds_one_mask_table_per_distinct_grammar(monkeypatch):
    calls = []

    def counted(vocab_size, masks):
        calls.append(masks)
        return mask_matrix(vocab_size, masks)

    monkeypatch.setattr(policy, "mask_matrix", counted)
    policy.grammar_table.cache_clear()
    params = init_params(VOCAB, 3, 5, 7, 0, 0.4)
    cfg = dataclasses.replace(TrainConfig(), context_window=3)
    batch = rollout_batch(params, cfg, 1)
    assert len(set(batch.grammars)) < len(batch.grammars)
    prep = prepare_batch(batch, Static(0.2), params)
    # One table per grammar, in first-seen order.
    assert calls == list(dict.fromkeys(batch.grammars))
    assert prep.pair_masks.shape[0] < prep.targets.size


def test_a_batch_without_a_grammar_table_reads_its_grammars_table(monkeypatch):
    calls = []

    def recorded(*args):
        calls.append(args)
        return grammar_table(*args)

    params = init_params(VOCAB, 3, 5, 7, 0, 0.4)
    cfg = dataclasses.replace(TrainConfig(), context_window=3)
    batch = rollout_batch(params, cfg, 1)
    groups = [
        make_group([1.0, -1.0, 1.0], seed, params, difficulty)[0]
        for seed, difficulty in ((2, 1), (3, 2), (4, 1))
    ]
    packed = as_rollout_batch(groups, VOCAB, params.window)
    assert packed.table is None
    monkeypatch.setattr(policy, "grammar_table", recorded)
    # A training step's batch prepares from its own table, and the same
    # without it.
    want = prepare_batch(batch, Static(0.2), params)
    assert calls == []
    got = prepare_batch(dataclasses.replace(batch, table=None), Static(0.2), params)
    assert calls == [(VOCAB.size, batch.grammars, batch.logprobs.shape[1])]
    assert grammar_table(*calls[0]) is batch.table
    assert_same(prepared_fields(got), prepared_fields(want))
    # A packed batch's table is its grammars' table.
    prepare_batch(packed, Static(0.2), params)
    assert calls[1:] == [(VOCAB.size, packed.grammars, packed.logprobs.shape[1])]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=METHODS)
@pytest.mark.parametrize("max_len", [1, 2, 3])
def test_group_cut_by_max_len_packs_under_its_grammar_prefix(strategy, max_len):
    # sample_group samples under grammar[:max_len]; the packed group keeps
    # exactly that grammar and prepares as the per-response reference does.
    params = init_params(VOCAB, 3, 5, 7, max_len, 0.4)
    prompt = prompt_of("copy", 3, (2, 8, 5))
    grammar = response_grammar(prompt, VOCAB)
    rows, _ = sample_group(
        params, prompt.tokens, 4, 0.8, np.random.default_rng(max_len), grammar, max_len
    )
    group = RolloutGroup(prompt, tuple(rows), np.asarray([1.0, -1.0, -1.0, 1.0]))
    packed = as_rollout_batch([group], VOCAB, params.window)
    assert packed.grammars == (grammar[:max_len],)
    assert packed.lengths.tolist() == [max_len] * 4
    got = prepare_batch([group], strategy, params, 1e-6, 0.8)
    assert_same(token_view(got), reference_prepare_batch([group], strategy, params, 1e-6, 0.8))


@st.composite
def row_tables(draw):
    """Tables of ids in [0, base) whose rows repeat often.

    Rows are up to 24 ids wide, so at bases above 6 some take more than
    one 62-bit key; one row and all-equal rows are included.
    """
    base = draw(st.integers(1, 70))
    pool = draw(st.lists(st.integers(0, base - 1), min_size=1, max_size=3))
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 24)))
    return base, draw(hnp.arrays(np.int64, shape, elements=st.sampled_from(pool)))


# Base 13 puts 15 ids in one 62-bit key, so these 20-wide rows take two keys
# and differ in the first, the second or both.
WIDE_ROWS = np.asarray([[12] * 20, [12] * 19 + [0], [0] + [12] * 19, [12] * 20, [0] * 20])


@settings(max_examples=200)
@given(row_tables())
@example((1, np.zeros((1, 3), dtype=np.int64)))
@example((8, np.full((6, 2), 7, dtype=np.int64)))
@example((13, WIDE_ROWS))
@example((13, WIDE_ROWS[:1]))
def test_distinct_rows_equals_np_unique(case):
    base, rows = case
    got, index = objectives._distinct_rows(rows, base)
    want, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(index, inverse.reshape(-1))


@st.composite
def scatter_cases(draw):
    """Token blocks scattered into distinct-context rows, maybe with one unread row.

    No token maps to the unread row, so ``minlength`` alone must leave it zero.
    """
    n_distinct = draw(st.integers(1, 6))
    width = draw(st.integers(1, 5))
    index = draw(
        hnp.arrays(np.int64, draw(st.integers(1, 30)), elements=st.integers(0, n_distinct - 1))
    )
    magnitudes = st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0])
    values = draw(hnp.arrays(np.float64, (index.size, width), elements=magnitudes))
    return n_distinct + draw(st.integers(0, 1)), index, values


@settings(max_examples=200)
@given(scatter_cases())
def test_bincount_scatter_equals_add_at(case):
    n_rows, index, values = case
    width = values.shape[1]
    want = np.zeros((n_rows, width))
    np.add.at(want, index, values)
    # The flat layout of PreparedBatch.scatter_index (token_view checks it).
    scatter = (index[:, None] * width + np.arange(width)).reshape(-1)
    got = np.bincount(scatter, values.reshape(-1), minlength=n_rows * width)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.reshape(-1).tobytes()

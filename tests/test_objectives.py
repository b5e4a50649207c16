import dataclasses

import numpy as np
import pytest

from etrlab.autodiff import (
    ContractViolation,
    Record,
    exp,
    gather_pairs,
    matmul,
    reshape,
    softmax_logprobs,
    sum_all,
    take_rows,
    tanh,
)
from etrlab.config import TrainConfig
from etrlab.groups import RolloutGroup, group_stats
from etrlab.objectives import (
    DIRECTIONS,
    ClipHigh,
    Elastic,
    Static,
    batch_objective,
    clip_bounds,
    dynamic_epsilon,
    evaluate_prepared,
    kl_cubic_bound,
    kl_quadratic_residual,
    kl_to_reference,
    macro_adjustment,
    micro_adjustment,
    PreparedBatch,
    prepare_batch,
    static_mismatch_report,
    theoretical_epsilon,
    token_surrogate,
)
from etrlab.policy import (
    PolicyParams,
    SampledResponse,
    Vocab,
    forward_logits,
    init_params,
    mask_matrix,
    pad_context,
    response_contexts,
    sample_group,
    score_tokens,
)
from etrlab.tasks import Prompt, encode_payload, response_grammar
from etrlab.trainer import OptimizerState, TrainingDiverged, train_step

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
    with pytest.raises(ContractViolation):
        Elastic(0.2, 0.1, 0.1, direction="sideways")
    assert Elastic(0.2, 0.1, 0.1).direction == "standard"


def test_micro_adjustment_examples():
    assert micro_adjustment(0.0, 0.1) == 0.0
    got = micro_adjustment(1.732049, 0.1)
    assert abs(got - 0.1 * np.tanh(1.732049)) < 1e-15
    assert abs(got - 0.09393) < 5e-5
    grid = np.linspace(-50, 50, 1001)
    assert np.all(np.abs(micro_adjustment(grid, 0.1)) <= 0.1)
    np.testing.assert_array_equal(
        micro_adjustment(grid, 0.1, "inverse"), -micro_adjustment(grid, 0.1)
    )
    assert np.all(micro_adjustment(grid, 0.1, "macro-only") == 0.0)
    with pytest.raises(ContractViolation):
        micro_adjustment(1.0, 0.1, "diagonal")


def test_macro_adjustment_examples():
    assert abs(macro_adjustment(0.5, 0.1) - 0.1) < 1e-15
    assert macro_adjustment(0.0, 0.1) == 0.0
    assert macro_adjustment(1.0, 0.1) == 0.0
    assert abs(macro_adjustment(0.25, 0.1) - 0.075) < 1e-15
    assert np.all(macro_adjustment(np.linspace(0, 1, 101), 0.1, "micro-only") == 0.0)
    with pytest.raises(ContractViolation):
        macro_adjustment(-0.1, 0.1)
    with pytest.raises(ContractViolation):
        macro_adjustment(1.1, 0.1)


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
    micro = Elastic(0.2, 0.1, 0.1, "micro-only")
    flipped = Elastic(0.2, 0.1, 0.1, "inverse")
    for a in (0.5, 2.0, 7.0):
        assert dynamic_epsilon(a, 0.3, micro) > 0.2
        assert dynamic_epsilon(-a, 0.3, micro) < 0.2
        base_inv = 0.2 + macro_adjustment(0.3, 0.1)
        assert dynamic_epsilon(a, 0.3, flipped) < base_inv
        assert dynamic_epsilon(-a, 0.3, flipped) > base_inv


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
    grads = rec.backward(surr.sum())
    np.testing.assert_array_equal(grads[r.node], [0.0, 1.0, 0.0])
    assert mask.tolist() == [True, False, True]


def test_kl_estimator_values():
    rec = Record()
    lp = rec.leaf(np.asarray([-1.0, -2.0]))
    same = kl_to_reference(lp, np.asarray([-1.0, -2.0]))
    assert same.data.item() == 0.0
    rec2 = Record()
    lp2 = rec2.leaf(np.asarray([-1.0 - np.log(2.0)]))
    one = kl_to_reference(lp2, np.asarray([-1.0]))
    assert abs(one.data.item() - 0.3068528194400547) < 1e-12
    # gradient of u - log u - 1 wrt logp is 1 - u
    grads = rec2.backward(one)
    np.testing.assert_allclose(grads[lp2.node], [1.0 - 2.0], atol=1e-12)


def test_kl_estimator_non_negative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        theta = -rng.random(n) * 3.0
        ref = -rng.random(n) * 3.0
        rec = Record()
        val = kl_to_reference(rec.leaf(theta), ref).data.item()
        assert val >= 0.0


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


def test_loss_breakdown_identity_and_epsilon_trace():
    group, params = make_group([1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0], seed=9)
    moved = params.copy()
    moved.set_vector(moved.to_vector() + 0.03)
    bd = batch_objective([group], Elastic(0.2, 0.1, 0.1), 0.001, moved, params)
    assert abs(bd.total - (bd.surrogate - 0.001 * bd.kl)) < 1e-15
    assert bd.epsilon_trace is not None
    assert bd.epsilon_trace.shape == (bd.total_tokens,)
    assert abs(bd.mean_epsilon - bd.epsilon_trace.mean()) < 1e-15
    assert np.all(bd.epsilon_trace >= 0.1 - 1e-12)
    assert np.all(bd.epsilon_trace <= 0.4 + 1e-12)


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
                mask = mask_matrix(params.vocab.size, [grammar[j]], 1)[0]
                for p, sink in ((params, lp_new), (ref, lp_ref)):
                    logits = forward_logits(p, pad_context(seq, p.window, p.vocab.bos)) + mask
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
    assert prep.group_slices == [(0, prep.targets.size)]
    np.testing.assert_allclose(prep.lo, 0.8)
    np.testing.assert_allclose(prep.hi, 1.2)
    with pytest.raises(ContractViolation):
        prepare_batch([], Static(0.2), params)
    with pytest.raises(ContractViolation):
        evaluate_prepared(prep, params, -0.5)


def reference_prepare_batch(batch, strategy, ref_params, xi=1e-6, temperature=1.0):
    """Per-response loop that builds every field token by token, kept as the reference."""
    vocab = ref_params.vocab
    ctx_parts, tgt_parts, mask_parts = [], [], []
    old_parts, adv_parts, lo_parts, hi_parts, w_parts = [], [], [], [], []
    eps_parts = []
    group_slices = []
    at = 0
    for group in batch:
        stats = group_stats(group.rewards, xi)
        grammar = response_grammar(group.prompt, vocab)
        start = at
        for resp, adv in zip(group.responses, stats.advantages):
            length = len(resp)
            ctx_parts.append(
                response_contexts(group.prompt.tokens, resp.tokens, ref_params.window, vocab.bos)
            )
            tgt_parts.append(np.asarray(resp.tokens, dtype=np.int64))
            mask_parts.append(mask_matrix(vocab.size, grammar, length))
            old_parts.append(np.asarray(resp.logprobs, dtype=np.float64))
            adv_parts.append(np.full(length, adv))
            lo_i, hi_i = clip_bounds(strategy, adv, stats.pass_rate)
            lo_parts.append(np.full(length, lo_i))
            hi_parts.append(np.full(length, hi_i))
            if isinstance(strategy, Elastic):
                eps_parts.append(np.full(length, dynamic_epsilon(adv, stats.pass_rate, strategy)))
            w_parts.append(np.full(length, 1.0 / (len(batch) * group.size * length)))
            at += length
        group_slices.append((start, at))
    contexts = np.concatenate(ctx_parts, axis=0)
    targets = np.concatenate(tgt_parts)
    masks = np.concatenate(mask_parts, axis=0)
    distinct, index = np.unique(contexts, axis=0, return_inverse=True)
    return PreparedBatch(
        contexts=contexts,
        distinct_contexts=distinct,
        distinct_index=index.reshape(-1),
        targets=targets,
        masks=masks,
        old_logprobs=np.concatenate(old_parts),
        ref_logprobs=score_tokens(ref_params, contexts, targets, masks, temperature),
        advantages=np.concatenate(adv_parts),
        lo=np.concatenate(lo_parts),
        hi=np.concatenate(hi_parts),
        weights=np.concatenate(w_parts),
        epsilon_trace=np.concatenate(eps_parts) if eps_parts else None,
        group_slices=group_slices,
        temperature=temperature,
    )


def uneven_batch(seed):
    """Groups of three task families whose responses differ in length."""
    rng = np.random.default_rng(seed)
    batch = []
    for family, payload, size in (
        ("digitsum", (4,), 3),
        ("copy", (2, 8, 5), 5),
        ("parity", (1, 0), 4),
        ("digitsum", (0,), 2),
    ):
        difficulty = len(payload) if family != "digitsum" else 3
        prompt = Prompt(family, difficulty, payload, encode_payload(family, payload, VOCAB))
        grammar = response_grammar(prompt, VOCAB)
        responses = []
        for _ in range(size):
            length = int(rng.integers(1, len(grammar) + 1))
            tokens = tuple(int(rng.choice(grammar[j])) for j in range(length))
            responses.append(SampledResponse(tokens, -rng.exponential(size=length)))
        rewards = rng.choice([-1.0, 1.0], size=size)
        batch.append(RolloutGroup(prompt, tuple(responses), rewards))
    return batch


STRATEGIES = [Static(0.2), ClipHigh(0.2, 0.28)] + [
    Elastic(0.2, 0.1, 0.15, direction) for direction in DIRECTIONS
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=repr)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prepare_batch_equals_per_response_reference(strategy, seed):
    batch = uneven_batch(seed)
    assert len({len(r) for g in batch for r in g.responses}) > 1
    params = init_params(VOCAB, 3, 5, 7, seed, 0.4)
    got = prepare_batch(batch, strategy, params, 1e-6, 0.8)
    want = reference_prepare_batch(batch, strategy, params, 1e-6, 0.8)
    for field in dataclasses.fields(PreparedBatch):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


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


def tape_evaluate(prep, params, kl_coef):
    """The objective and its gradient on the autodiff tape, every token row by row.

    Kept as the reference for the closed-form :func:`evaluate_prepared`.
    """
    record = Record()
    leaves = PolicyLeaves(record, params)
    lp = score_tokens_diff(leaves, prep.contexts, prep.targets, prep.masks, prep.temperature)
    ratio = exp(lp - prep.old_logprobs)
    surrogate_tokens, clip_mask = token_surrogate(ratio, prep.advantages, prep.lo, prep.hi)
    surrogate = sum_all(surrogate_tokens * prep.weights)
    diff = prep.ref_logprobs - lp
    kl = sum_all((exp(diff) - diff - 1.0) * prep.weights)
    total = surrogate - kl_coef * kl
    gradient = leaves.gradient_vector(record.backward(total))
    return total.item(), surrogate.item(), kl.item(), int(np.sum(clip_mask)), gradient


def test_tape_scorer_matches_plain_scorer():
    p = init_params(VOCAB, 4, 16, 64, 8, 0.1)
    prompt = [VOCAB.sep, 4, VOCAB.sep]
    tokens = [2, 9, VOCAB.eos]
    masks = mask_matrix(VOCAB.size, [VOCAB.content_ids()] * 2 + [(VOCAB.eos,)], 3)
    contexts = response_contexts(prompt, tokens, p.window, VOCAB.bos)
    targets = np.asarray(tokens)
    rec = Record()
    leaves = PolicyLeaves(rec, p)
    diff = score_tokens_diff(leaves, contexts, targets, masks)
    plain = score_tokens(p, contexts, targets, masks)
    np.testing.assert_allclose(diff.data, plain, rtol=0, atol=1e-12)
    vec = leaves.gradient_vector(rec.backward(diff.sum()))
    assert vec.shape == (p.param_count,)
    assert np.any(vec != 0.0)


def moved(params, seed, sigma=0.3):
    """A copy of the parameters perturbed off the sampling policy."""
    noise = np.random.default_rng(seed).normal(0.0, sigma, params.param_count)
    return PolicyParams.from_vector(
        params.vocab, params.window, params.embed_dim, params.hidden_dim,
        params.to_vector() + noise,
    )


def assert_matches_tape(prep, params, kl_coef):
    got = evaluate_prepared(prep, params, kl_coef, with_grad=True)
    total, surrogate, kl, clipped, gradient = tape_evaluate(prep, params, kl_coef)
    assert got.total == total
    assert got.surrogate == surrogate
    assert got.kl == kl
    assert got.clipped_tokens == clipped
    scale = np.max(np.abs(gradient))
    assert scale > 0.0
    assert np.max(np.abs(got.gradient - gradient)) <= 1e-12 * scale
    return got


@pytest.mark.parametrize("kl_coef", [0.0, 0.001])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=repr)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_objective_matches_tape(strategy, seed, kl_coef):
    batch = uneven_batch(seed)
    params = init_params(VOCAB, 3, 5, 7, seed, 0.4)
    prep = prepare_batch(batch, strategy, params, 1e-6, 0.8)
    assert prep.distinct_contexts.shape[0] < prep.targets.size
    got = assert_matches_tape(prep, moved(params, seed), kl_coef)
    # Both clip branches fire: some tokens clipped, some inside the band.
    assert 0 < got.clipped_tokens < got.total_tokens


def test_closed_form_matches_tape_on_all_distinct_contexts():
    # Responses of a group share their first context, so keep the first
    # token row of each distinct context to get a batch without repeats.
    params = init_params(VOCAB, 3, 5, 7, 3, 0.4)
    full = prepare_batch(uneven_batch(3), Elastic(0.2, 0.1, 0.15), params, 1e-6, 0.8)
    keep = np.sort(np.unique(full.contexts, axis=0, return_index=True)[1])
    per_token = (
        "contexts", "targets", "masks", "old_logprobs", "ref_logprobs",
        "advantages", "lo", "hi", "weights", "epsilon_trace",
    )
    prep = dataclasses.replace(
        full,
        **{name: getattr(full, name)[keep] for name in per_token},
        distinct_contexts=full.contexts[keep],
        distinct_index=np.arange(keep.size),
        group_slices=[(0, keep.size)],
    )
    assert len(np.unique(prep.contexts, axis=0)) == prep.targets.size > 2
    assert_matches_tape(prep, moved(params, 3), 0.001)


def test_closed_form_matches_tape_on_one_shared_context():
    prompt = Prompt("parity", 1, (1,), encode_payload("parity", (1,), VOCAB))
    responses = tuple(SampledResponse((t,), np.asarray([-0.7])) for t in (0, 1, 0))
    group = RolloutGroup(prompt, responses, np.asarray([1.0, -1.0, 1.0]))
    params = init_params(VOCAB, 3, 5, 7, 4, 0.4)
    prep = prepare_batch([group], Static(0.2), params)
    assert prep.distinct_contexts.shape[0] == 1 < prep.targets.size
    want = score_tokens(params, prep.contexts, prep.targets, prep.masks)
    assert np.array_equal(prep.ref_logprobs, want)
    assert_matches_tape(prep, moved(params, 4), 0.001)


def test_non_finite_objective_raises_training_diverged():
    batch = uneven_batch(0)
    params = init_params(VOCAB, 3, 5, 7, 0, 0.4)
    cfg = dataclasses.replace(
        TrainConfig(), method="grpo", inner_epochs=1, context_window=3, embed_dim=5, hidden_dim=7
    )
    broken = params.copy()
    broken.w_out[0, 0] = np.nan
    with pytest.raises(TrainingDiverged):
        train_step(broken, params, OptimizerState.zeros(params.param_count), batch, cfg)
    # A ratio that overflows on a negative-advantage response of the third
    # group drives the surrogate to -inf; the group is located and reported.
    responses = list(batch[2].responses)
    first = responses[0]
    responses[0] = SampledResponse(first.tokens, np.full(len(first), -1e6))
    rewards = np.asarray([-1.0, 1.0, 1.0, 1.0])
    batch[2] = RolloutGroup(batch[2].prompt, tuple(responses), rewards)
    with pytest.raises(TrainingDiverged) as caught:
        train_step(params.copy(), params, OptimizerState.zeros(params.param_count), batch, cfg)
    assert caught.value.group_index == 2


def test_prepare_batch_rejects_empty_and_overlong_responses():
    group, params = make_group([1.0, -1.0], seed=1)
    empty = SampledResponse((), np.zeros(0))
    with pytest.raises(ContractViolation):
        prepare_batch(
            [RolloutGroup(group.prompt, (group.responses[0], empty), group.rewards)],
            Static(0.2),
            params,
        )
    overlong = SampledResponse((1, 2, 3), np.zeros(3))
    with pytest.raises(ContractViolation):
        prepare_batch(
            [RolloutGroup(group.prompt, (group.responses[0], overlong), group.rewards)],
            Static(0.2),
            params,
        )


def test_static_mismatch_report_cases():
    # all-equal rewards give zero advantages and no micro flags
    g_zero, params = make_group([1.0, 1.0, 1.0, 1.0], seed=2)
    report = static_mismatch_report([g_zero], 0.2)
    assert report.flagged_tokens == 0
    assert report.variance_spread == 0.0
    # equal pass rates across groups keep macro spread at zero
    g_a, _ = make_group([1.0, -1.0], seed=4, params=params)
    g_b, _ = make_group([-1.0, 1.0], seed=6, params=params)
    paired = static_mismatch_report([g_a, g_b], 0.2)
    assert paired.variance_spread == 0.0
    assert paired.group_variances == (0.25, 0.25)
    # one strong outlier: sixteen responses, one winner, |A| around 3.9
    g_out, _ = make_group([1.0] + [-1.0] * 15, seed=8, params=params)
    out = static_mismatch_report([g_out], 1.0)
    winner_tokens = len(g_out.responses[0])
    assert out.flagged_tokens == winner_tokens
    assert out.flagged_fraction == winner_tokens / out.total_tokens
    with pytest.raises(ContractViolation):
        static_mismatch_report([g_zero], -0.1)
    with pytest.raises(ContractViolation):
        static_mismatch_report([g_zero], 0.2, beta=0.0)

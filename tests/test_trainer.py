import cProfile
import dataclasses
import errno
import os
import sys
import tempfile
import threading
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from etrlab.autodiff import ContractViolation
from etrlab.config import METHODS, ConfigError, TrainConfig, parse_suite, validate_config
from etrlab.groups import as_rollout_batch
from etrlab.metrics import _fmt, load_checkpoint, suite_labels, write_metrics_csv
from etrlab.policy import MIN_TEMPERATURE, PolicyParams, Vocab, init_params
from etrlab.policy import draw_uniforms
from etrlab.tasks import (
    FAMILIES,
    TaskSpec,
    answer_length,
    generate_prompt,
    response_grammar,
    reward,
    sample_task,
    verify,
)
import etrlab.policy as policy_mod
import etrlab.trainer as trainer_mod
from etrlab.trainer import (
    DivergedRun,
    OptimizerState,
    RunSummary,
    TrainingDiverged,
    adamw_update,
    clip_grad_norm,
    compare_runs,
    draw_step,
    evaluate,
    gradient_check,
    gradient_check_suite,
    rollout_batch,
    run_training,
    step_setup,
    stream_seed,
    train_step,
    write_run_artifacts,
    write_summary,
)
from rollout_reference import reference_evaluate, sample_prompts, unpack_batch

VOCAB = Vocab()


def tiny_cfg(**overrides):
    base = dict(
        method="etr",
        seed=1,
        steps=3,
        groups_per_step=2,
        group_size=4,
        suite=parse_suite("copy:1"),
        eval_every=2,
        eval_n=4,
        eval_prompts=6,
        embed_dim=4,
        hidden_dim=8,
        context_window=3,
        max_response_len=4,
    )
    base.update(overrides)
    return TrainConfig(**base)


def initial_params(cfg):
    """The parameters a run of ``cfg`` starts from, and its reference policy."""
    vocab = Vocab(cfg.content_tokens)
    return init_params(
        vocab, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, cfg.seed, cfg.init_scale
    )


def test_optimizer_state_contracts():
    state = OptimizerState.zeros(5)
    assert state.step == 0
    assert state.moment1.shape == (5,)
    with pytest.raises(ContractViolation):
        OptimizerState(np.zeros(3), np.zeros(4))
    with pytest.raises(ContractViolation):
        OptimizerState(np.zeros(3), np.zeros(3), step=-1)


def test_adamw_first_step_matches_sign_rule():
    # bias correction cancels at step one, so the move is -lr * sign(g)
    state = OptimizerState.zeros(3)
    vec = np.asarray([1.0, -2.0, 0.5])
    grad = np.asarray([3.0, -0.25, 1e-3])
    out = adamw_update(vec, grad, state, lr=0.01)
    np.testing.assert_allclose(out, vec - 0.01 * np.sign(grad), atol=1e-7)
    assert state.step == 1


def test_adamw_second_step_closed_form():
    state = OptimizerState.zeros(1)
    vec = np.asarray([0.0])
    g1, g2, lr, b1, b2, eps = 2.0, -1.0, 0.1, 0.9, 0.999, 1e-8
    vec = adamw_update(vec, np.asarray([g1]), state, lr, b1, b2, eps)
    vec = adamw_update(vec, np.asarray([g2]), state, lr, b1, b2, eps)
    m2 = b1 * (1 - b1) * g1 + (1 - b1) * g2
    v2 = b2 * (1 - b2) * g1 * g1 + (1 - b2) * g2 * g2
    m_hat = m2 / (1 - b1**2)
    v_hat = v2 / (1 - b2**2)
    want = -lr * np.sign(g1) - lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(vec, [want], atol=1e-7)


def test_adamw_decoupled_weight_decay():
    state = OptimizerState.zeros(1)
    out = adamw_update(np.asarray([2.0]), np.asarray([1.0]), state, 0.1, weight_decay=0.5)
    # decay pulls directly on the weight, independent of the moment path
    np.testing.assert_allclose(out, [2.0 - 0.1 * (1.0 / (1.0 + 1e-8)) - 0.1 * 0.5 * 2.0])


def test_adamw_contracts():
    state = OptimizerState.zeros(2)
    with pytest.raises(ContractViolation):
        adamw_update(np.zeros(2), np.zeros(3), state, 0.1)
    with pytest.raises(ContractViolation):
        adamw_update(np.zeros(2), np.zeros(2), state, 0.0)


def test_clip_grad_norm():
    grad = np.asarray([3.0, 4.0])
    clipped, before = clip_grad_norm(grad, 1.0)
    assert abs(before - 5.0) < 1e-12
    assert np.sqrt(np.sum(clipped**2)) <= 1.0 + 1e-9
    small, norm = clip_grad_norm(np.asarray([0.1, 0.0]), 1.0)
    np.testing.assert_array_equal(small, [0.1, 0.0])
    assert abs(norm - 0.1) < 1e-15
    with pytest.raises(ContractViolation):
        clip_grad_norm(grad, 0.0)


def test_clip_grad_norm_scales_a_finite_gradient_whose_squares_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clipped, norm = clip_grad_norm(np.asarray([1e200, 1.0]), 1.0)
        assert norm == 1e200
        np.testing.assert_allclose(clipped, [1.0, 1e-200], rtol=1e-15)
        # A norm past the float64 range is reported as inf; the scaled
        # gradient still has norm max_norm.
        clipped, norm = clip_grad_norm(np.full(4, -1e308), 2.0)
        assert norm == np.inf
        np.testing.assert_allclose(clipped, np.full(4, -1.0), rtol=1e-15)
        # A non-finite gradient comes back as it is, not scaled (an infinite
        # entry by 0, into NaN), and train_step rejects it.
        for bad in (np.nan, np.inf, -np.inf):
            clipped, norm = clip_grad_norm(np.asarray([bad, 1e200, 1.0]), 1.0)
            assert not np.isfinite(norm)
            assert clipped.tobytes() == np.asarray([bad, 1e200, 1.0]).tobytes()


# Key values at and around the 32-bit word boundaries, and multi-word ones.
_KEY_VALUES = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**96 + 7]),
    st.integers(0, 2**130),
)


@settings(max_examples=300)
@given(st.lists(_KEY_VALUES, max_size=6))
def test_stream_seed_gives_the_state_of_the_tuple_seed(key):
    want = np.random.SeedSequence(tuple(key))
    got = stream_seed(tuple(key))
    assert got.generate_state(4).tolist() == want.generate_state(4).tolist()
    assert (
        np.random.default_rng(got).bit_generator.state
        == np.random.default_rng(want).bit_generator.state
    )


@settings(max_examples=100)
@given(st.lists(_KEY_VALUES, max_size=4), st.integers(max_value=-1), st.integers(0, 4))
def test_stream_seed_rejects_negative_ints_as_numpy_does(key, negative, at):
    key = (*key[:at], negative, *key[at:])
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence(key)
    with pytest.raises(ValueError) as got:
        stream_seed(key)
    assert str(got.value) == str(want.value)


def test_rollout_batch_shape_and_replay():
    cfg = tiny_cfg(groups_per_step=3, group_size=8)
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 0, 0.1)
    batch = rollout_batch(params, cfg, step=1)
    groups = unpack_batch(batch)
    assert len(batch) == len(groups) == 3
    assert all(g.size == 8 for g in groups)
    assert batch.lengths.shape == (24,)
    assert all(e >= 0.0 for e in batch.entropies)
    # Rewards are the scalar check of each response, row for row.
    for g in groups:
        want = [reward(verify(g.prompt, r.tokens, VOCAB)) for r in g.responses]
        assert g.rewards.tolist() == want
    again = rollout_batch(params, cfg, step=1)
    for a, b in zip(groups, unpack_batch(again)):
        assert a.prompt == b.prompt
        assert [r.tokens for r in a.responses] == [r.tokens for r in b.responses]
        np.testing.assert_array_equal(a.rewards, b.rewards)
    assert batch.entropies.dtype == np.float64
    assert batch.entropies.tolist() == again.entropies.tolist()
    assert np.array_equal(batch.lengths, again.lengths)
    other = unpack_batch(rollout_batch(params, cfg, step=2))
    assert any(
        a.prompt != b.prompt or [r.tokens for r in a.responses] != [r.tokens for r in b.responses]
        for a, b in zip(groups, other)
    )
    with pytest.raises(ContractViolation):
        rollout_batch(params, cfg, step=0)


@settings(max_examples=40)
@given(
    st.lists(
        st.builds(TaskSpec, st.sampled_from(FAMILIES), st.integers(1, 4)),
        min_size=1,
        max_size=3,
        unique_by=lambda s: s.label,
    ),
    st.integers(1, 5),
    st.integers(2, 4),
    st.integers(0, 2**16),
    st.integers(1, 300),
)
def test_rollout_lengths_are_the_answer_lengths(suite, k, g, seed, step):
    cfg = tiny_cfg(suite=tuple(suite), groups_per_step=k, group_size=g, seed=seed)
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, seed, 0.5)
    batch = rollout_batch(params, cfg, step)
    want = np.repeat([answer_length(p) for p in batch.prompts], g)
    assert batch.lengths.dtype == np.int64 and np.array_equal(batch.lengths, want)
    assert batch.logprobs.shape == (k * g, want.max())


def test_rollout_pass_rates_span_low_and_high():
    cfg = tiny_cfg(groups_per_step=200, group_size=8)
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 0, 0.1)
    batch = rollout_batch(params, cfg, step=1)
    rates = sorted(set(np.mean(batch.rewards.reshape(len(batch), -1) > 0, axis=1).tolist()))
    assert rates[0] == 0.0
    assert rates[-1] >= 0.25
    assert len(rates) >= 3


def test_zero_advantage_batch_leaves_parameters_unchanged():
    cfg = tiny_cfg(kl_coef=0.0, inner_epochs=2)
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 3, 0.1)
    batch = rollout_batch(params, cfg, step=1)
    degenerate = dataclasses.replace(batch, rewards=np.full(batch.rewards.size, -1.0))
    before = params.to_vector()
    ref = params.copy()
    opt = OptimizerState.zeros(params.param_count)
    bd = train_step(params, ref, opt, degenerate, cfg)
    np.testing.assert_array_equal(params.to_vector(), before)
    assert bd.total == 0.0
    assert bd.clip_fraction == 0.0


def test_train_step_divergence_abort():
    cfg = tiny_cfg(learning_rate=1e6, inner_epochs=2, suite=parse_suite("parity:1"))
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 1, 0.1)
    opt = OptimizerState.zeros(params.param_count)
    with pytest.raises(TrainingDiverged):
        for step in range(1, 40):
            batch = rollout_batch(params, cfg, step)
            train_step(params, params.copy(), opt, batch, cfg)


def test_train_step_on_rollout_batch_reports_the_diverged_group():
    cfg = tiny_cfg(groups_per_step=6, group_size=4, suite=parse_suite("parity:1"))
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 2, 0.1)
    batch = rollout_batch(params, cfg, step=1)
    # The last group with mixed rewards; one of its losing rows gets stored
    # log-probs so low that its ratio overflows and the surrogate is -inf.
    groups = batch.rewards.reshape(len(batch), cfg.group_size)
    mixed = [k for k, rewards in enumerate(groups) if len(set(rewards)) == 2]
    assert mixed and mixed[-1] > 0
    k = mixed[-1]
    loser = k * cfg.group_size + int(np.flatnonzero(groups[k] < 0)[0])
    logprobs = batch.logprobs.copy()
    logprobs[loser] = -1e6
    broken = dataclasses.replace(batch, logprobs=logprobs)
    with pytest.raises(TrainingDiverged) as caught:
        train_step(params.copy(), params, OptimizerState.zeros(params.param_count), broken, cfg)
    assert caught.value.group_index == k
    assert caught.value.prompt_tokens == batch.prompts[k].tokens
    np.testing.assert_array_equal(caught.value.rewards, groups[k])
    assert f"group {k}, prompt {batch.prompts[k].tokens}" in str(caught.value)
    assert "np.float64" not in str(caught.value)


def test_non_finite_update_leaves_the_parameters_as_they_were():
    cfg = tiny_cfg(weight_decay=10.0)
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 1, 0.1)
    ref = params.copy()
    batch = rollout_batch(params, cfg, step=1)
    # EOS only ever ends a response, so no context reads its embedding row:
    # its gradient is zero and only weight decay moves it, past float64.
    params.embed[VOCAB.eos] = 1e308
    before = params.to_vector()
    opt = OptimizerState.zeros(params.param_count)
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as caught:
        train_step(params, ref, opt, batch, cfg)
    assert str(caught.value) == "non-finite parameters after update"
    assert params.vector.tobytes() == before.tobytes()
    assert opt.step == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_gradient_raises_before_the_update_moves_anything(monkeypatch, bad):
    # The second inner epoch's gradient gets one entry that is not finite,
    # its total staying finite. train_step raises without a warning, and the
    # parameters, opt.step and both moments stay as the first epoch left them.
    cfg = tiny_cfg(inner_epochs=2, suite=parse_suite("parity:1"))
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 2, 0.1)
    opt = OptimizerState.zeros(params.param_count)
    batch = rollout_batch(params, cfg, step=1)
    evaluate = trainer_mod.evaluate_prepared
    seen = []

    def spoiled(*args, **kwargs):
        out = evaluate(*args, **kwargs)
        seen.append((params.to_vector(), opt.moment1.copy(), opt.moment2.copy(), opt.step))
        if len(seen) == 2:
            out.gradient[3] = bad
        return out

    monkeypatch.setattr(trainer_mod, "evaluate_prepared", spoiled)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingDiverged, match="non-finite loss or gradient"):
            train_step(params, params.copy(), opt, batch, cfg)
    vector, moment1, moment2, step = seen[1]
    assert step == opt.step == 1 and np.any(moment1)
    assert params.vector.tobytes() == vector.tobytes()
    assert opt.moment1.tobytes() == moment1.tobytes()
    assert opt.moment2.tobytes() == moment2.tobytes()


def test_training_diverged_message_lists_plain_rewards():
    exc = TrainingDiverged("non-finite loss or gradient", 2, (12, 1, 12), np.asarray([1.0, -1.0]))
    assert str(exc) == (
        "non-finite loss or gradient [group 2, prompt (12, 1, 12), rewards [1.0, -1.0]]"
    )
    assert str(TrainingDiverged("non-finite parameters after update")) == (
        "non-finite parameters after update"
    )


def test_empty_batch_cannot_be_built():
    # train_step takes a RolloutBatch, and no empty one can be made.
    cfg = tiny_cfg()
    batch = rollout_batch(init_params(VOCAB, 3, 4, 8, 1, 0.1), cfg, step=1)
    with pytest.raises(ContractViolation):
        as_rollout_batch([], VOCAB, cfg.context_window)
    with pytest.raises(ContractViolation):
        dataclasses.replace(batch, prompts=(), grammars=())


def always_correct_parity_params():
    """Copies the answer bit (context slot 1) onto the output logits."""
    v = VOCAB.size
    params = PolicyParams(VOCAB, 4, v, v)
    params.embed[...] = np.eye(v)
    params.w_hidden[v : 2 * v] = 50.0 * np.eye(v)
    params.w_out[...] = 50.0 * np.eye(v)
    return params


def test_evaluate_always_correct_policy():
    params = always_correct_parity_params()
    out = evaluate(params, (TaskSpec("parity", 1),), VOCAB, n=8, n_prompts=16, seed=0)
    assert out == {"parity1": (1.0, 1.0)}


def test_evaluate_n_one_mean_equals_best():
    params = init_params(VOCAB, 4, 8, 16, 2, 0.1)
    suite = (TaskSpec("digitsum", 1), TaskSpec("copy", 1))
    out = evaluate(params, suite, VOCAB, n=1, n_prompts=32, seed=5)
    for mean_n, best_n in out.values():
        assert mean_n == best_n
    again = evaluate(params, suite, VOCAB, n=1, n_prompts=32, seed=5)
    assert out == again
    with pytest.raises(ContractViolation):
        evaluate(params, suite, VOCAB, n=0, n_prompts=4, seed=0)


def test_evaluate_forwards_each_distinct_first_context_once_per_call(monkeypatch):
    calls = []
    full = policy_mod.forward

    def counted(params, contexts):
        calls.append(contexts.shape[0])
        return full(params, contexts)

    monkeypatch.setattr(policy_mod, "forward", counted)
    params = init_params(VOCAB, 4, 16, 64, 3, 0.5)
    suite = (TaskSpec("parity", 2),)
    first = evaluate(params, suite, VOCAB, n=32, n_prompts=64, seed=0)
    # parity:2 has 4 distinct prompts and one position with a choice, so at
    # most 4 of its 64 calls forward; the memo is dropped with the call.
    assert 1 <= len(calls) <= 4 and set(calls) == {1}
    forwards = len(calls)
    assert evaluate(params, suite, VOCAB, n=32, n_prompts=64, seed=0) == first
    assert len(calls) == 2 * forwards


@st.composite
def eval_cases(draw):
    """Suites of up to three tasks, sample and prompt counts, moved parameters.

    Prompt counts run past two chunks of ``trainer._EVAL_CHUNK``.
    """
    specs = st.builds(TaskSpec, st.sampled_from(FAMILIES), st.integers(1, 3))
    return dict(
        suite=tuple(draw(st.lists(specs, min_size=1, max_size=3, unique_by=lambda s: s.label))),
        n=draw(st.integers(1, 8)),
        n_prompts=draw(st.integers(1, 150)),
        temperature=draw(st.floats(MIN_TEMPERATURE, 4.0)),
        param_seed=draw(st.integers(0, 2**16)),
        scale=draw(st.floats(0.1, 2.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        round_index=draw(st.integers(0, 300)),
    )


def _chunk_edge(n_prompts):
    return dict(
        suite=(TaskSpec("parity", 2), TaskSpec("digitsum", 1)),
        n=3,
        n_prompts=n_prompts,
        temperature=1.0,
        param_seed=1,
        scale=1.0,
        seed=9,
        round_index=0,
    )


@settings(max_examples=50)
@given(eval_cases())
@example(_chunk_edge(64))
@example(_chunk_edge(65))
@example(_chunk_edge(129))
def test_evaluate_equals_the_per_row_reference(case):
    params = init_params(VOCAB, 3, 4, 8, case["param_seed"], case["scale"])
    args = (params, case["suite"], VOCAB, case["n"], case["n_prompts"], case["seed"])
    kwargs = dict(round_index=case["round_index"], temperature=case["temperature"])

    def hexed(results):
        return {label: (mean.hex(), best.hex()) for label, (mean, best) in results.items()}

    assert hexed(evaluate(*args, **kwargs)) == hexed(reference_evaluate(*args, **kwargs))


def test_reward_improves_on_copy_smoke():
    # median improvement across 5 seeds after 50 steps on the easiest task
    deltas = []
    for seed in range(1, 6):
        cfg = tiny_cfg(
            seed=seed,
            steps=50,
            groups_per_step=8,
            group_size=8,
            eval_every=50,
            method="grpo",
        )
        result = run_training(cfg)
        first = np.mean([m.pass_rate for m in result.metrics[:5]])
        last = np.mean([m.pass_rate for m in result.metrics[-5:]])
        deltas.append(last - first)
    assert float(np.median(deltas)) > 0.0


def test_run_training_with_no_choice_anywhere():
    # One content id and copy:2: every position allows one id, so no token
    # is scored, the gradient is exactly zero and the parameters stay put.
    cfg = tiny_cfg(content_tokens=1, suite=parse_suite("copy:2"), inner_epochs=2, steps=4)
    result = run_training(cfg)
    assert [m.pass_rate for m in result.metrics] == [1.0] * 4
    for m in result.metrics:
        assert (m.total, m.surrogate, m.kl, m.clip_frac) == (0.0, 0.0, 0.0, 0.0)
    assert [m.evals for m in result.metrics if m.evals] == [{"copy2": (1.0, 1.0)}] * 2
    assert result.params.vector.tobytes() == initial_params(cfg).vector.tobytes()
    assert not np.any(result.opt.moment1) and not np.any(result.opt.moment2)


def test_run_training_rejects_bad_configs():
    with pytest.raises(ConfigError):
        run_training(tiny_cfg(steps=0))
    with pytest.raises(ConfigError):
        run_training(tiny_cfg(learning_rate=0.0))
    with pytest.raises(ConfigError):
        validate_config(tiny_cfg(inner_epochs=0))
    with pytest.raises(ConfigError):
        validate_config(tiny_cfg(group_size=1))


@pytest.mark.parametrize(
    "key, value",
    [
        ("eval_every", 0),
        ("eval_n", 0),
        ("seed", -1),
        ("grad_clip", 0.0),
        ("advantage_xi", 0.0),
        ("context_window", 0),
        ("adam_beta1", 1.0),
        ("steps", 2.0),
        ("group_size", 4.0),
        ("seed", True),
        ("learning_rate", "0.1"),
        ("suite", [TaskSpec("copy", 1)]),
    ],
)
def test_code_built_config_rejected_before_any_step(monkeypatch, key, value):
    # Each value used to pass validation and fail only once training ran.
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer_mod, "rollout_batch", no_step)
    cfg = dataclasses.replace(tiny_cfg(), **{key: value})
    with pytest.raises(ConfigError, match=f"^{key} must "):
        validate_config(cfg)
    with pytest.raises(ConfigError, match=f"^{key} must "):
        run_training(cfg)


def test_run_training_deterministic_and_csv_stable(tmp_path):
    cfg = tiny_cfg(steps=4, eval_every=2)
    a = run_training(cfg)
    b = run_training(cfg)
    assert np.array_equal(a.params.to_vector(), b.params.to_vector())
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    labels = suite_labels(cfg.suite)
    write_metrics_csv(a.metrics, pa, labels)
    write_metrics_csv(b.metrics, pb, labels)
    assert pa.read_bytes() == pb.read_bytes()
    # the policy moves away from the parameters it started from
    assert not np.array_equal(a.params.to_vector(), initial_params(cfg).to_vector())


def test_run_metrics_contents():
    cfg = tiny_cfg(steps=4, eval_every=2)
    result = run_training(cfg)
    log = result.metrics
    assert [m.step for m in log] == [1, 2, 3, 4]
    assert [m.evals is not None for m in log] == [False, True, False, True]
    for m in log:
        assert 0.0 <= m.clip_frac <= 1.0
        assert 0.0 <= m.entropy <= np.log(VOCAB.size) + 1e-12
        assert m.mean_eps is not None  # elastic method traces epsilon
        assert abs(m.total - (m.surrogate - cfg.kl_coef * m.kl)) < 1e-12
    labels = set(log[-1].evals)
    assert labels == {"copy1"}


def test_write_run_artifacts(tmp_path):
    cfg = tiny_cfg(steps=4, eval_every=2)
    result = run_training(cfg)
    out = tmp_path / "run"
    write_run_artifacts(result, out)
    for name in (
        "config.txt",
        "metrics.csv",
        "entropy.svg",
        "pass_rate.svg",
        "clipping.svg",
        "eval_mean.svg",
        "final.ckpt",
    ):
        assert (out / name).exists(), name


def test_run_summary_from_result():
    cfg = tiny_cfg(steps=4, eval_every=2)
    result = run_training(cfg)
    summary = RunSummary.from_result(result)
    final = result.metrics[-1].evals
    assert summary.final_mean == float(np.mean([v[0] for v in final.values()]))
    assert summary.final_best == float(np.mean([v[1] for v in final.values()]))
    assert summary.initial_entropy == result.metrics[0].entropy
    assert summary.final_entropy == result.metrics[-1].entropy
    assert summary.method == "etr"
    assert summary.seed == 1


def test_compare_runs_cardinality_and_medians(tmp_path):
    cfg = tiny_cfg(steps=2, eval_every=2)
    summaries = compare_runs(cfg, ["grpo", "etr"], [1, 2], out_dir=tmp_path)
    assert [(s.method, s.seed) for s in summaries] == [
        ("grpo", 1),
        ("grpo", 2),
        ("etr", 1),
        ("etr", 2),
    ]
    for s in summaries:
        assert (tmp_path / f"{s.method}-seed{s.seed}" / "metrics.csv").exists()
    lines = write_summary(summaries, tmp_path)
    assert (tmp_path / "summary.csv").read_text() == "\n".join(lines) + "\n"
    header, *rows = [line.split(",") for line in lines]
    assert [row[0] for row in rows] == ["grpo", "etr"]
    fields = [name.removeprefix("median_") for name in header[1:]]
    assert fields == ["final_mean", "final_best", "final_entropy", "mean_clip_frac"]
    for method, *cells in rows:
        runs = [s for s in summaries if s.method == method]
        assert cells == [_fmt(float(np.median([getattr(s, f) for s in runs]))) for f in fields]
    with pytest.raises(ContractViolation):
        compare_runs(cfg, [], [1])


def test_compare_runs_results_do_not_depend_on_jobs():
    cfg = tiny_cfg(steps=2, eval_every=2)
    serial = compare_runs(cfg, ["grpo", "etr"], [1, 2], jobs=1)
    parallel = compare_runs(cfg, ["grpo", "etr"], [1, 2], jobs=2)
    assert parallel == serial


def test_compare_runs_asks_for_no_more_workers_than_runs(monkeypatch):
    # A stand-in pool records its size and maps in this process, so no
    # worker is ever forked however large jobs is.
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = tiny_cfg(steps=1, eval_every=1)
    serial = compare_runs(cfg, ["grpo", "etr"], [1], jobs=1)
    assert sizes == []
    assert compare_runs(cfg, ["grpo", "etr"], [1], jobs=64) == serial
    assert sizes == [2]
    # A single run needs no pool at all.
    assert compare_runs(cfg, ["etr"], [1], jobs=64) == serial[1:]
    assert sizes == [2]


@pytest.mark.parametrize("seed", [1, 7])
def test_one_inner_epoch_gives_every_method_the_same_run(seed, tmp_path):
    # With one inner epoch every ratio is 1, inside every band, so the bands
    # can only differ in the half-width they report: the mean_eps column.
    runs, mean_eps = {}, {}
    for method in METHODS:
        cfg = dataclasses.replace(
            TrainConfig(), method=method, seed=seed, inner_epochs=1, steps=40, eval_every=20
        )
        result = run_training(cfg)
        write_metrics_csv(result.metrics, tmp_path / "metrics.csv", suite_labels(cfg.suite))
        rows = [line.split(",") for line in (tmp_path / "metrics.csv").read_text().splitlines()]
        drop = rows[0].index("mean_eps")
        mean_eps[method] = tuple(row[drop] for row in rows[1:])
        table = tuple(tuple(c for i, c in enumerate(row) if i != drop) for row in rows)
        runs[method] = (result.params.vector.tobytes(), table)
    assert len(set(runs.values())) == 1
    assert len(set(mean_eps.values())) > 1


@pytest.mark.parametrize("seed", [1, 7])
def test_grpo_is_cliphigh_with_equal_widths(seed, tmp_path):
    # GRPO's band is the clip-high band with epsilon_high = epsilon_base,
    # so the two runs are the same run, byte for byte.
    runs = {}
    for method in ("grpo", "cliphigh"):
        cfg = dataclasses.replace(
            TrainConfig(), method=method, seed=seed, steps=40, eval_every=20,
            epsilon_high=TrainConfig().epsilon_base,
        )
        result = run_training(cfg)
        write_metrics_csv(result.metrics, tmp_path / "metrics.csv", suite_labels(cfg.suite))
        text = (tmp_path / "metrics.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()]
        drop = rows[0].index("mean_eps")
        assert all(row[drop] == "" for row in rows[1:])
        runs[method] = (result.params.vector.tobytes(), text)
    assert runs["grpo"] == runs["cliphigh"]


def reference_adamw(vec, grad, m1, m2, step, lr, b1, b2, eps, wd):
    """The expression-per-line AdamW step that ``adamw_update`` replaced."""
    m1 = m1 * b1 + (1.0 - b1) * grad
    m2 = m2 * b2 + (1.0 - b2) * grad * grad
    m_hat = m1 / (1.0 - b1**step)
    v_hat = m2 / (1.0 - b2**step)
    return vec - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * vec), m1, m2


@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_adamw_update_is_bitwise_the_reference_step(wd):
    rng = np.random.default_rng(5)
    vec = rng.normal(size=301)
    state = OptimizerState.zeros(vec.size)
    m1, m2 = np.zeros(vec.size), np.zeros(vec.size)
    for step in range(1, 26):
        grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=vec.size)
        grad[::7] = 0.0
        before = vec.copy()
        new = adamw_update(vec, grad, state, 3e-3, 0.9, 0.999, 1e-8, wd)
        assert vec.tobytes() == before.tobytes()
        want, m1, m2 = reference_adamw(vec, grad, m1, m2, step, 3e-3, 0.9, 0.999, 1e-8, wd)
        assert new.tobytes() == want.tobytes()
        assert state.moment1.tobytes() == m1.tobytes()
        assert state.moment2.tobytes() == m2.tobytes()
        assert state.step == step
        vec = new


@pytest.mark.parametrize("wd", [0.0, 0.01])
@pytest.mark.parametrize("step", [355, 356, 357, 1000])
def test_adamw_late_steps_are_bitwise_the_reference_step(step, wd):
    # From step 356 on, 1 - 0.9**step rounds to 1.0 and adamw_update skips
    # the first moment's bias correction.
    assert 1.0 - 0.9**355 < 1.0 == 1.0 - 0.9**356
    rng = np.random.default_rng(step)
    vec, grad = rng.normal(size=(2, 301))
    m1 = rng.normal(scale=1e-2, size=301)
    m2 = rng.uniform(0.0, 1e-3, size=301)
    state = OptimizerState(m1.copy(), m2.copy(), step - 1)
    new = adamw_update(vec, grad, state, 3e-3, 0.9, 0.999, 1e-8, wd)
    want, m1, m2 = reference_adamw(vec, grad, m1, m2, step, 3e-3, 0.9, 0.999, 1e-8, wd)
    assert new.tobytes() == want.tobytes()
    assert state.moment1.tobytes() == m1.tobytes()
    assert state.moment2.tobytes() == m2.tobytes()


def reference_clip(grad, max_norm):
    """``clip_grad_norm`` as it was before it took buffers."""
    norm = float(np.sqrt(np.sum(grad * grad)))
    return grad * (max_norm / norm) if norm > max_norm else grad


def _signed_magnitudes(draw, size):
    """Signed zeros and values of either sign from 1e-300 to 1e150.

    The decades span a drawn window, so some vectors hold values of like
    size, whose sums depend on the order of summation.
    """
    low = draw(st.floats(-300.0, 150.0))
    width = draw(st.floats(0.0, 150.0 - low))
    exponent = low + width * draw(hnp.arrays(np.float64, size, elements=st.floats(0.0, 1.0)))
    kind = draw(hnp.arrays(np.int8, size, elements=st.integers(0, 3)))
    sign = np.where(kind % 2 == 1, -1.0, 1.0)
    return sign * np.where(kind >= 2, 10.0**exponent, 0.0)


@st.composite
def update_cases(draw):
    size = PolicyParams(VOCAB, 1, 1, 1).param_count
    vec = _signed_magnitudes(draw, size)
    grads = [_signed_magnitudes(draw, size) for _ in range(draw(st.integers(1, 4)))]
    cfg = tiny_cfg(
        grad_clip=draw(st.sampled_from([1e-3, 1.0, 1e300])),
        weight_decay=draw(st.sampled_from([0.0, 0.01, 0.5])),
        learning_rate=draw(st.sampled_from([1e-3, 0.1])),
    )
    return vec, grads, cfg


@settings(max_examples=200)
@given(update_cases())
def test_update_path_is_bitwise_the_allocating_sequence(case):
    vec, grads, cfg = case
    params = PolicyParams.from_vector(VOCAB, 1, 1, 1, vec)
    opt = OptimizerState.zeros(vec.size)
    gradient, work = np.empty((2, vec.size))
    want, m1, m2 = vec.copy(), np.zeros(vec.size), np.zeros(vec.size)
    for step, grad in enumerate(grads, start=1):
        clipped = reference_clip(-grad, cfg.grad_clip)
        want, m1, m2 = reference_adamw(
            want,
            clipped,
            m1,
            m2,
            step,
            cfg.learning_rate,
            cfg.adam_beta1,
            cfg.adam_beta2,
            cfg.adam_eps,
            cfg.weight_decay,
        )
        gradient[...] = grad
        trainer_mod.apply_gradient(params, gradient, opt, cfg, work)
        assert params.vector.tobytes() == want.tobytes()
        assert opt.moment1.tobytes() == m1.tobytes()
        assert opt.moment2.tobytes() == m2.tobytes()
        assert opt.step == step


def diverging_cfg():
    """Seeds 1 and 2 diverge at step 1, seeds 3 and 4 draw no signal.

    With one two-response parity:1 group, a group with mixed rewards takes
    an AdamW step of about 1e300 and the next inner epoch overflows; an
    all-equal group has a zero gradient and leaves the parameters alone.
    """
    return tiny_cfg(
        steps=1,
        eval_every=1,
        learning_rate=1e300,
        groups_per_step=1,
        group_size=2,
        suite=parse_suite("parity:1"),
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_compare_runs_isolates_a_diverged_run(tmp_path, jobs):
    cfg = diverging_cfg()
    # Diagnosing the divergence raises no overflow warning of its own.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = compare_runs(cfg, ["grpo", "etr"], [2, 3], out_dir=tmp_path, jobs=jobs)
    assert [(type(r), r.method, r.seed) for r in results] == [
        (DivergedRun, "grpo", 2),
        (RunSummary, "grpo", 3),
        (DivergedRun, "etr", 2),
        (RunSummary, "etr", 3),
    ]
    assert "non-finite" in results[0].message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["etr-seed3", "grpo-seed3"]
    # Median rows in first-seen method order, then the diverged runs in
    # input order; etr's only run in results[:3] diverged, so it has no
    # median row there.
    labels = [line.split(",")[0] for line in write_summary(results, tmp_path)[1:]]
    assert labels == ["grpo", "etr", "grpo-seed2", "etr-seed2"]
    lines = write_summary(results[:3], tmp_path)
    assert lines[1].split(",")[:2] == ["grpo", _fmt(results[1].final_mean)]
    cells = ",diverged" * 4
    assert lines[2:] == [f"grpo-seed2{cells}", f"etr-seed2{cells}"]


@st.composite
def tiny_configs(draw):
    """Tiny configs with extreme optimizer and band values; the config may reject them."""
    return tiny_cfg(
        method=draw(st.sampled_from(METHODS)),
        seed=draw(st.integers(0, 2**32)),
        steps=draw(st.integers(1, 4)),
        groups_per_step=draw(st.integers(1, 4)),
        group_size=draw(st.integers(2, 4)),
        suite=parse_suite(draw(st.sampled_from(["copy:1", "parity:1,digitsum:1"]))),
        eval_every=draw(st.integers(1, 4)),
        eval_n=draw(st.integers(1, 3)),
        eval_prompts=draw(st.integers(1, 3)),
        inner_epochs=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([1e-300, 1e-2, 1.0, 1e300])),
        grad_clip=draw(st.sampled_from([1e-300, 1.0, 1e150, 1e300])),
        kl_coef=draw(st.sampled_from([0.0, 1e-3, 1e300])),
        weight_decay=draw(st.sampled_from([0.0, 0.01, 1e300])),
        adam_beta1=draw(st.sampled_from([0.0, 0.9, 1.0 - 1e-16])),
        adam_beta2=draw(st.sampled_from([0.0, 0.999, 1.0 - 1e-16])),
        adam_eps=draw(st.sampled_from([1e-300, 1e-8, 1e300])),
        epsilon_base=draw(st.sampled_from([0.0, 0.2, 0.99])),
        init_scale=draw(st.sampled_from([0.0, 0.1, 1e300])),
        temperature=draw(st.sampled_from([MIN_TEMPERATURE, 1.0, 1e300])),
    )


def finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=np.float64)).all() for v in values)


# The run that ended with AdamW's second moment at inf before grad_clip was
# bounded at config time.
@example(tiny_cfg(grad_clip=1e300, kl_coef=1e300))
@settings(max_examples=30, deadline=None)
@given(tiny_configs())
def test_an_accepted_config_runs_to_finite_artifacts_or_diverges(cfg):
    try:
        validate_config(cfg)
    except ConfigError:
        assume(False)
    # Overflow is diagnosed by the run's own checks, never left as a warning.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_training(cfg)
    except TrainingDiverged:
        return
    assert finite(result.params.vector, result.opt.moment1, result.opt.moment2)
    for m in result.metrics:
        values = [m.total, m.surrogate, m.kl, m.entropy, m.clip_frac, m.resp_len, m.pass_rate]
        evals = [] if m.evals is None else list(m.evals.values())
        assert finite(values, evals, [] if m.mean_eps is None else m.mean_eps)
    with tempfile.TemporaryDirectory() as out:
        write_run_artifacts(result, out)
        written = set(os.listdir(out))
        checkpoint = load_checkpoint(Path(out) / "final.ckpt")
    assert {"config.txt", "metrics.csv", "final.ckpt"} <= written
    assert cfg.steps < 2 or {"entropy.svg", "pass_rate.svg", "clipping.svg"} <= written
    assert checkpoint.params.tobytes() == result.params.vector.tobytes()


class ChildCounter:
    """Wraps ``trainer._fork`` and ``os.waitpid`` to count forked children and unreaped ones.

    ``forks``, ``alive`` and ``peak`` (most alive at once) count
    evaluation-round children; ``producers`` and ``producers_alive`` count
    draw producers, told apart by the work they are forked with.
    """

    def __init__(self, monkeypatch):
        self.forks = 0
        self.alive: set[int] = set()
        self.peak = 0
        self.producers = 0
        self.producers_alive: set[int] = set()
        fork, waitpid = trainer_mod._fork, os.waitpid

        def counting_fork(frames):
            child = fork(frames)
            if child is None:
                return child
            if getattr(frames, "func", None) is trainer_mod._produce:
                self.producers += 1
                self.producers_alive.add(child[0])
            else:
                self.forks += 1
                self.alive.add(child[0])
                self.peak = max(self.peak, len(self.alive))
            return child

        def reaping_waitpid(pid, options):
            got = waitpid(pid, options)
            self.alive.discard(got[0])
            self.producers_alive.discard(got[0])
            return got

        monkeypatch.setattr(trainer_mod, "_fork", counting_fork)
        monkeypatch.setattr(os, "waitpid", reaping_waitpid)


@pytest.mark.parametrize("method", ["etr", "grpo"])
def test_forked_and_inline_rounds_give_the_same_bytes(method, tmp_path, monkeypatch):
    # Rounds at steps 3, 6 and 9 run in children; step 12's runs inline.
    cfg = tiny_cfg(method=method, steps=12, eval_every=3)
    children = ChildCounter(monkeypatch)
    parent = os.getpid()
    real_evaluate = trainer_mod.evaluate
    inline_rounds = []

    def child_exits_non_zero(params, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        inline_rounds.append(kwargs["round_index"])
        return real_evaluate(params, *args, **kwargs)

    def fork_refused():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    def artifacts(name, patch=None):
        with monkeypatch.context() as m:
            if patch is not None:
                patch(m)
            write_run_artifacts(run_training(cfg), tmp_path / name)
        return {f: (tmp_path / name / f).read_bytes() for f in ("metrics.csv", "final.ckpt")}

    forked = artifacts("forked")
    assert (children.forks, children.peak, children.alive) == (3, 1, set())
    assert (children.producers, children.producers_alive) == (1, set())
    assert artifacts("no-fork", lambda m: m.delattr(os, "fork")) == forked
    assert artifacts("fork-fails", lambda m: m.setattr(os, "fork", fork_refused)) == forked
    failed = artifacts(
        "child-fails", lambda m: m.setattr(trainer_mod, "evaluate", child_exits_non_zero)
    )
    assert failed == forked
    assert inline_rounds == [3, 6, 9, 12]
    assert (children.forks, children.alive) == (6, set())
    assert (children.producers, children.producers_alive) == (2, set())


def test_no_child_outlives_a_diverged_run(monkeypatch):
    # Weight decay 10 at learning rate 1 flips and grows the parameters
    # ninefold per update; the run diverges at step 3, while step 2's round
    # is still being evaluated in a child.
    cfg = tiny_cfg(weight_decay=10.0, learning_rate=1.0, eval_every=1, steps=10)
    children = ChildCounter(monkeypatch)
    with np.errstate(all="ignore"):
        results = compare_runs(cfg, ["etr"], [1])
    assert [(type(r), r.method, r.seed) for r in results] == [(DivergedRun, "etr", 1)]
    assert children.forks == 2
    assert (children.producers, children.producers_alive) == (1, set())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evaluating_every_step_keeps_one_child_at_a_time(monkeypatch):
    children = ChildCounter(monkeypatch)
    result = run_training(tiny_cfg(steps=8, eval_every=1))
    assert (children.forks, children.peak, children.alive) == (7, 1, set())
    assert (children.producers, children.producers_alive) == (1, set())
    assert all(m.evals for m in result.metrics)


@pytest.mark.parametrize("case", ["second thread alive", "not linux"])
def test_fork_leaves_the_work_inline_where_forking_is_unsafe(case, tmp_path, monkeypatch):
    # Rounds at steps 2 and 4 fork, step 6's runs inline; then _fork
    # forks nothing, and every round and step runs inline to the same bytes.
    cfg = tiny_cfg(steps=6, eval_every=2)
    children = ChildCounter(monkeypatch)

    def artifacts(name):
        write_run_artifacts(run_training(cfg), tmp_path / name)
        return {f: (tmp_path / name / f).read_bytes() for f in ("metrics.csv", "final.ckpt")}

    forked = artifacts("forked")
    assert (children.forks, children.producers) == (2, 1)
    if case == "not linux":
        with monkeypatch.context() as m:
            m.setattr(sys, "platform", "darwin")
            inline = artifacts("inline")
    else:
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            inline = artifacts("inline")
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
    assert (children.forks, children.producers) == (2, 1)
    assert inline == forked


def test_runs_with_and_without_the_draw_producer_give_the_same_bytes(tmp_path, monkeypatch):
    # Default shapes; rounds at steps 10, 20 and 30 fork, step 40's runs inline.
    cfg = dataclasses.replace(TrainConfig(), steps=40, eval_every=10)
    children = ChildCounter(monkeypatch)
    parent = os.getpid()
    real_draw_step = trainer_mod.draw_step
    inline_steps = []

    def drawn_inline(cfg, vocab, step):
        if os.getpid() == parent:
            inline_steps.append(step)
        return real_draw_step(cfg, vocab, step)

    def producer_dies_after_step_17(cfg, vocab, step):
        if os.getpid() != parent and step == 18:
            os._exit(3)
        return drawn_inline(cfg, vocab, step)

    def fork_refused():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    def pipe_refused():
        raise OSError(errno.EMFILE, "Too many open files")

    def resize_refused(fd, cmd, arg):
        raise OSError(errno.EPERM, "Operation not permitted")

    import fcntl  # the fork path, which asks for the pipe size, runs on Linux only

    def artifacts(name, patch=None):
        with monkeypatch.context() as m:
            if patch is not None:
                patch(m)
            write_run_artifacts(run_training(cfg), tmp_path / name)
        return {f: (tmp_path / name / f).read_bytes() for f in ("metrics.csv", "final.ckpt")}

    # The training process makes step 1's set-up while the producer starts.
    produced = artifacts("produced", lambda m: m.setattr(trainer_mod, "draw_step", drawn_inline))
    assert inline_steps == [1]
    assert (children.producers, children.producers_alive, children.forks) == (1, set(), 3)
    assert artifacts("no-fork", lambda m: m.delattr(os, "fork")) == produced
    assert artifacts("fork-fails", lambda m: m.setattr(os, "fork", fork_refused)) == produced
    assert artifacts("pipe-fails", lambda m: m.setattr(os, "pipe", pipe_refused)) == produced
    assert (children.producers, children.forks) == (1, 3)
    resized = artifacts("resize-refused", lambda m: m.setattr(fcntl, "fcntl", resize_refused))
    assert resized == produced
    assert (children.producers, children.forks) == (2, 6)
    inline_steps.clear()
    died = artifacts(
        "producer-dies",
        lambda m: m.setattr(trainer_mod, "draw_step", producer_dies_after_step_17),
    )
    assert died == produced
    assert inline_steps == [1, *range(18, 41)]
    assert (children.producers, children.producers_alive, children.alive) == (3, set(), set())


def comparable(value):
    """A step set-up with every array as its dtype, shape and bytes, for ``==``."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return tuple(comparable(v) for v in value)
    return value


def test_draw_step_reads_each_stream_as_the_sampler_did():
    # Over 40 default steps: the prompts, grammars and uniforms draw_step
    # gives, the producer sends and rollout_batch samples with are those a
    # sample_groups call on the step's fresh streams reads, and the rest of
    # the set-up the producer sends is step_setup's, byte for byte.
    cfg = dataclasses.replace(TrainConfig(), steps=40)
    vocab = Vocab(cfg.content_tokens)
    params = initial_params(cfg)
    n = cfg.group_size
    producer = trainer_mod._fork(partial(trainer_mod._produce, cfg, vocab, 1))
    assert producer is not None
    try:
        for step in range(1, cfg.steps + 1):
            prompts, grammars, uniforms = draw_step(cfg, vocab, step)
            rngs = [
                np.random.default_rng(np.random.SeedSequence((cfg.seed, step, g)))
                for g in range(cfg.groups_per_step)
            ]
            want_prompts = [generate_prompt(sample_task(cfg.suite, rng), vocab, rng) for rng in rngs]
            want_grammars = [response_grammar(p, vocab) for p in want_prompts]
            assert prompts == want_prompts and grammars == want_grammars
            streams = [rng.bit_generator.state for rng in rngs]
            horizon = max(len(m) for m in grammars)
            want = np.stack(
                [
                    np.concatenate([rows, rows[-1:].repeat(horizon - len(rows), axis=0)])
                    for rows in (rng.random((len(m), n)) for rng, m in zip(rngs, grammars))
                ]
            )
            assert uniforms.shape == (cfg.groups_per_step, horizon, n)
            assert uniforms.tobytes() == want.tobytes()
            sent = trainer_mod._receive(producer[1])
            assert sent.prompts == prompts and sent.grammars == grammars
            assert sent.uniforms.tobytes() == uniforms.tobytes()
            inline = step_setup(cfg, vocab, step)
            assert comparable(sent) == comparable(inline)
            for rng, state in zip(rngs, streams):
                rng.bit_generator.state = state
            tokens, logprobs, entropies = sample_prompts(
                params,
                [p.tokens for p in prompts],
                n,
                cfg.temperature,
                draw_uniforms(rngs, [len(m) for m in grammars], n),
                grammars,
                collect_entropy=True,
            )
            for batch in (rollout_batch(params, cfg, step), rollout_batch(params, cfg, step, sent)):
                assert list(batch.prompts) == prompts
                assert batch.tokens.tobytes() == tokens.tobytes()
                assert batch.logprobs.tobytes() == logprobs.tobytes()
                assert batch.entropies.tolist() == entropies.tolist()
            # Sampling left the set-up as it was sent.
            assert comparable(sent) == comparable(inline)
        assert trainer_mod._receive(producer[1]) is None
    finally:
        trainer_mod._reap(producer)


def test_receive_reads_a_frame_cut_short_as_none():
    # A child killed mid-frame leaves fewer than 8 header bytes or a payload
    # shorter than its header says; either reads as None, never as a bad
    # pickle. The whole frame, as the child wrote it, reads as its value.
    cfg = TrainConfig()
    vocab = Vocab(cfg.content_tokens)
    setup = step_setup(cfg, vocab, 1)
    prompts, grammars, uniforms = draw_step(cfg, vocab, 1)
    one_step = dataclasses.replace(cfg, steps=1)
    child = trainer_mod._fork(partial(trainer_mod._produce, one_step, vocab, 1))
    assert child is not None
    try:
        frame = child[1].read()
    finally:
        trainer_mod._reap(child)

    def received(sent):
        read, write = os.pipe()
        with open(write, "wb") as pipe:
            pipe.write(sent)
        with open(read, "rb") as pipe:
            return trainer_mod._receive(pipe)

    got = received(frame)
    assert got.prompts == prompts and got.grammars == grammars
    assert got.uniforms.shape == uniforms.shape and got.uniforms.tobytes() == uniforms.tobytes()
    assert comparable(got) == comparable(setup)
    for cut in (0, 5, 8, 9, len(frame) // 2, len(frame) - 1):
        assert received(frame[:cut]) is None


def test_forked_child_runs_without_the_parents_profiler():
    # An inherited cProfile profiler would slow the draw producer several
    # times over while it profiles nothing the parent reports.
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profiled = sys.getprofile() is not None
        child = trainer_mod._fork(lambda: (sys.getprofile() is None,))
    finally:
        profiler.disable()
    assert profiled and child is not None
    try:
        assert trainer_mod._receive(child[1]) is True
    finally:
        trainer_mod._reap(child)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
@pytest.mark.parametrize("case", ["finished", "diverged", "eval child fails"])
def test_run_training_leaves_no_pipe_or_child_behind(case, monkeypatch):
    fds = sorted(os.listdir("/proc/self/fd"))
    if case == "eval child fails":
        parent = os.getpid()
        real_evaluate = trainer_mod.evaluate

        def child_exits_non_zero(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "evaluate", child_exits_non_zero)
    if case == "diverged":
        # As in test_no_child_outlives_a_diverged_run: diverges at step 3,
        # with step 2's round in a child. The fds are counted while the
        # exception, whose traceback holds run_training's locals, is alive.
        cfg = tiny_cfg(weight_decay=10.0, learning_rate=1.0, eval_every=1, steps=10)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as diverged:
            run_training(cfg)
        assert diverged.value.__traceback__ is not None
    else:
        run_training(tiny_cfg(steps=8, eval_every=2))
    assert sorted(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gradient_check_single_variant(monkeypatch):
    assert gradient_check("etr", seed=0) < 1e-4
    monkeypatch.setattr(trainer_mod, "gradient_check", lambda method, seed: 0.0)
    assert [method for method, _ in gradient_check_suite()] == list(METHODS)

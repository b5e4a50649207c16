import dataclasses

import numpy as np
import pytest

from etrlab.autodiff import ContractViolation
from etrlab.config import ConfigError, TrainConfig, parse_suite, validate_config
from etrlab.groups import RolloutGroup
from etrlab.metrics import suite_labels, write_metrics_csv
from etrlab.policy import PolicyParams, Vocab, init_params
from etrlab.tasks import TaskSpec
from etrlab.trainer import (
    GRADCHECK_VARIANTS,
    OptimizerState,
    RunSummary,
    TrainingDiverged,
    adamw_update,
    clip_grad_norm,
    compare_runs,
    evaluate,
    gradient_check,
    method_medians,
    rollout_batch,
    run_training,
    train_step,
    write_run_artifacts,
)

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


def test_rollout_batch_shape_and_replay():
    cfg = tiny_cfg(groups_per_step=3, group_size=8)
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 0, 0.1)
    groups, entropies, lengths = rollout_batch(params, cfg, VOCAB, step=1)
    assert len(groups) == 3
    assert all(g.size == 8 for g in groups)
    assert len(lengths) == 24
    assert all(e >= 0.0 for e in entropies)
    again, ent2, len2 = rollout_batch(params, cfg, VOCAB, step=1)
    for a, b in zip(groups, again):
        assert a.prompt == b.prompt
        assert [r.tokens for r in a.responses] == [r.tokens for r in b.responses]
        np.testing.assert_array_equal(a.rewards, b.rewards)
    assert entropies == ent2 and lengths == len2
    other, _, _ = rollout_batch(params, cfg, VOCAB, step=2)
    assert any(
        a.prompt != b.prompt or [r.tokens for r in a.responses] != [r.tokens for r in b.responses]
        for a, b in zip(groups, other)
    )
    with pytest.raises(ContractViolation):
        rollout_batch(params, cfg, VOCAB, step=0)


def test_rollout_pass_rates_span_low_and_high():
    cfg = tiny_cfg(groups_per_step=200, group_size=8)
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 0, 0.1)
    groups, _, _ = rollout_batch(params, cfg, VOCAB, step=1)
    rates = sorted({float(np.mean(g.rewards > 0)) for g in groups})
    assert rates[0] == 0.0
    assert rates[-1] >= 0.25
    assert len(rates) >= 3


def test_zero_advantage_batch_leaves_parameters_unchanged():
    cfg = tiny_cfg(kl_coef=0.0, inner_epochs=2)
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 3, 0.1)
    groups, _, _ = rollout_batch(params, cfg, VOCAB, step=1)
    degenerate = []
    for g in groups:
        rewards = np.full(g.size, -1.0)
        degenerate.append(RolloutGroup(g.prompt, g.responses, rewards))
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
            groups, _, _ = rollout_batch(params, cfg, VOCAB, step)
            train_step(params, params.copy(), opt, groups, cfg)


def test_train_step_empty_batch_rejected():
    cfg = tiny_cfg()
    params = init_params(VOCAB, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, 1, 0.1)
    with pytest.raises(ContractViolation):
        train_step(params, params.copy(), OptimizerState.zeros(params.param_count), [], cfg)


def always_correct_parity_params():
    """Copies the answer bit (context slot 1) onto the output logits."""
    v = VOCAB.size
    embed = np.eye(v)
    w_hidden = np.zeros((4 * v, v))
    w_hidden[v : 2 * v] = 50.0 * np.eye(v)
    w_out = 50.0 * np.eye(v)
    return PolicyParams(VOCAB, 4, embed, w_hidden, np.zeros(v), w_out, np.zeros(v))


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


def test_run_training_rejects_bad_configs():
    with pytest.raises(ConfigError):
        run_training(tiny_cfg(steps=0))
    with pytest.raises(ConfigError):
        run_training(tiny_cfg(learning_rate=0.0))
    with pytest.raises(ConfigError):
        validate_config(tiny_cfg(inner_epochs=0))
    with pytest.raises(ConfigError):
        validate_config(tiny_cfg(group_size=1))


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
    # reference stays at the init snapshot while the policy moves
    assert not np.array_equal(a.params.to_vector(), a.ref_params.to_vector())


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
    rows = method_medians(summaries)
    assert [r["method"] for r in rows] == ["grpo", "etr"]
    grpo_rows = [s for s in summaries if s.method == "grpo"]
    assert rows[0]["median_final_mean"] == float(
        np.median([s.final_mean for s in grpo_rows])
    )
    with pytest.raises(ContractViolation):
        compare_runs(cfg, [], [1])


def test_compare_runs_results_do_not_depend_on_jobs():
    cfg = tiny_cfg(steps=2, eval_every=2)
    serial = compare_runs(cfg, ["grpo", "etr"], [1, 2], jobs=1)
    parallel = compare_runs(cfg, ["grpo", "etr"], [1, 2], jobs=2)
    assert parallel == serial


def test_gradient_check_single_variant():
    assert gradient_check("etr", seed=0) < 1e-4
    assert set(GRADCHECK_VARIANTS) == {
        "grpo",
        "cliphigh",
        "etr",
        "etr-micro",
        "etr-macro",
        "etr-inverse",
    }

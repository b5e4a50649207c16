"""Tape engine: forward values, backward gradients, subgradient rules.

The ops that only the tests use (tanh, matmul, log-softmax, gathers,
reshape) live in ``tape_reference`` and are checked here on the same tape.
"""

import numpy as np
import pytest

import etrlab.autodiff as ad
from etrlab.autodiff import (
    ContractViolation,
    Record,
    Tensor,
    clip_gated,
    finite_diff_check,
    min_pair,
    sum_all,
)
from tape_reference import gather_pairs, matmul, reshape, softmax_logprobs, take_rows, tanh


def central_diff(f, theta, step=1e-6):
    """Independent central-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    probe = np.zeros_like(theta)
    for i in range(theta.size):
        probe[i] = step
        grad[i] = (f(theta + probe) - f(theta - probe)) / (2.0 * step)
        probe[i] = 0.0
    return grad


def grad_of(build, theta):
    """Gradient of build(leaf) where build returns a scalar tensor."""
    rec = Record()
    leaf = rec.leaf(np.asarray(theta, dtype=np.float64))
    root = build(leaf)
    return build(leaf).data, rec.backward(root)[leaf.node]


def test_elementwise_values():
    assert np.array_equal((Tensor([1.0, 2.0]) * Tensor([3.0, 4.0])).data, [3.0, 8.0])
    assert np.array_equal(ad.exp(Tensor([0.0])).data, [1.0])
    assert np.array_equal((Tensor([1.0, 2.0]) + 1.0).data, [2.0, 3.0])
    assert np.array_equal((1.0 - Tensor([1.0, 2.0])).data, [0.0, -1.0])


def test_constant_ops_stay_off_tape():
    rec = Record()
    first = rec.leaf(np.ones(2))
    out = Tensor([1.0, 2.0]) * Tensor([3.0, 4.0])
    assert out.record is None and out.node is None
    # No node was pushed in between: the next leaf directly follows.
    assert rec.leaf(np.ones(2)).node == first.node + 1


def test_shape_mismatch_rejected():
    with pytest.raises(ContractViolation):
        Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])


def test_scalar_broadcast_allowed_both_ways():
    rec = Record()
    x = rec.leaf(np.array([1.0, 2.0, 3.0]))
    total = sum_all(x * 2.0 + Tensor(1.0))
    grads = rec.backward(total)
    np.testing.assert_array_equal(grads[x.node], [2.0, 2.0, 2.0])


def test_cross_record_operands_rejected():
    r1, r2 = Record(), Record()
    a = r1.leaf(np.ones(2))
    b = r2.leaf(np.ones(2))
    with pytest.raises(ContractViolation):
        a + b


def test_matmul_values():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(np.eye(2), x).data, x)
    assert np.array_equal(matmul([[1.0, 2.0]], [[3.0], [4.0]]).data, [[11.0]])
    with pytest.raises(ContractViolation):
        matmul(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ContractViolation):
        matmul(np.ones(3), np.ones((3, 2)))


def test_matmul_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(3, 4))
    theta0 = rng.normal(size=6)

    def f(theta):
        return np.sum(theta.reshape(2, 3) @ b)

    _, grad = grad_of(lambda t: sum_all(matmul(reshape(t, (2, 3)), b)), theta0)
    np.testing.assert_allclose(grad, central_diff(f, theta0), rtol=0, atol=1e-8)
    # each row of dA is the row-sums of B
    np.testing.assert_allclose(grad.reshape(2, 3), np.tile(b.sum(axis=1), (2, 1)), atol=1e-12)


def test_tanh_values_and_derivative():
    assert tanh(Tensor(0.0)).data == 0.0
    assert abs(float(tanh(Tensor(1.0)).data) - 0.7615941559557649) < 1e-15
    assert float(tanh(Tensor(50.0)).data) <= 1.0
    _, grad = grad_of(lambda t: sum_all(tanh(t)), np.array([0.0]))
    np.testing.assert_allclose(grad, [1.0], atol=1e-15)


def test_softmax_logprobs_uniform_and_dominant():
    lp = softmax_logprobs(np.zeros(10))
    np.testing.assert_allclose(lp.data, np.full(10, -np.log(10.0)), atol=1e-15)
    lp = softmax_logprobs(np.array([0.0, -1e9]))
    assert abs(float(lp.data[0])) < 1e-12
    assert float(lp.data[1]) < -1e8
    np.testing.assert_allclose(np.exp(lp.data).sum(), 1.0, atol=1e-12)


def test_softmax_logprobs_stable_at_large_magnitude():
    rng = np.random.default_rng(3)
    for _ in range(5):
        logits = rng.uniform(-1e4, 1e4, size=12)
        lp = softmax_logprobs(logits).data
        assert abs(np.exp(lp).sum() - 1.0) <= 1e-12


def test_softmax_logprobs_selected_gradient_is_onehot_minus_probs():
    logits0 = np.array([0.3, -0.7, 1.1, 0.2])

    def build(t):
        return sum_all(gather_pairs(softmax_logprobs(reshape(t, (1, 4))), [0], [2]))

    _, grad = grad_of(build, logits0)
    probs = np.exp(softmax_logprobs(logits0).data)
    onehot = np.eye(4)[2]
    np.testing.assert_allclose(grad, onehot - probs, atol=1e-12)
    np.testing.assert_allclose(
        grad, central_diff(lambda t: softmax_logprobs(t).data[2], logits0), atol=1e-8
    )


def test_softmax_temperature_validation():
    with pytest.raises(ContractViolation):
        softmax_logprobs(np.zeros(3), temperature=0.0)
    with pytest.raises(ContractViolation):
        softmax_logprobs(np.zeros((2, 2, 2)))


def test_clip_gated_values_and_gates():
    val, grad = grad_of(lambda t: sum_all(clip_gated(t, 0.8, 1.2)), np.array([1.5]))
    assert val == 1.2 and grad[0] == 0.0
    val, grad = grad_of(lambda t: sum_all(clip_gated(t, 0.8, 1.2)), np.array([1.0]))
    assert val == 1.0 and grad[0] == 1.0
    # boundary counts as interior
    _, grad = grad_of(lambda t: sum_all(clip_gated(t, 0.8, 1.2)), np.array([1.2]))
    assert grad[0] == 1.0
    # degenerate band clips to itself
    assert np.array_equal(clip_gated(Tensor([3.0]), 3.0, 3.0).data, [3.0])


def test_clip_gated_contracts():
    with pytest.raises(ContractViolation):
        clip_gated(Tensor([1.0]), 2.0, 1.0)
    rec = Record()
    bound = rec.leaf(np.array(0.5))
    with pytest.raises(ContractViolation):
        clip_gated(rec.leaf(np.array([1.0])), bound, 2.0)


def test_clip_value_path_matches_numpy_exactly():
    rng = np.random.default_rng(11)
    x = rng.normal(size=100)
    lo, hi = -0.4, 0.9
    rec = Record()
    t = rec.leaf(x)
    assert clip_gated(t, lo, hi).data.tobytes() == np.clip(x, lo, hi).tobytes()


def test_min_pair_values_and_tie_rule():
    assert float(min_pair(Tensor([1.5]), Tensor([1.2])).data[0]) == 1.2
    assert float(min_pair(Tensor([-0.5]), Tensor([-0.8])).data[0]) == -0.8
    rec = Record()
    a = rec.leaf(np.array([2.0]))
    b = rec.leaf(np.array([2.0]))
    total = sum_all(min_pair(a, b))
    grads = rec.backward(total)
    assert grads[a.node][0] == 1.0
    assert grads.get(b.node, np.zeros(1))[0] == 0.0


def test_min_pair_value_path_matches_numpy_exactly():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=64), rng.normal(size=64)
    assert min_pair(Tensor(a), Tensor(b)).data.tobytes() == np.minimum(a, b).tobytes()


def test_take_rows_and_gather_pairs_backward_scatter():
    rec = Record()
    m = rec.leaf(np.arange(6.0).reshape(3, 2))
    picked = take_rows(m, [0, 2, 0])
    total = sum_all(picked)
    grads = rec.backward(total)
    np.testing.assert_array_equal(grads[m.node], [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    rec = Record()
    m = rec.leaf(np.arange(6.0).reshape(2, 3))
    total = sum_all(gather_pairs(m, [0, 1, 0], [2, 1, 2]))
    grads = rec.backward(total)
    np.testing.assert_array_equal(grads[m.node], [[0.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ContractViolation):
        take_rows(m, [3])
    with pytest.raises(ContractViolation):
        gather_pairs(m, [0], [5])


def test_backward_root_contracts():
    rec = Record()
    x = rec.leaf(np.ones(3))
    with pytest.raises(ContractViolation):
        rec.backward(x)
    assert rec.backward(Tensor(2.0)) == {}
    other = Record()
    with pytest.raises(ContractViolation):
        other.backward(sum_all(x))


def test_backward_sum_of_parameters_is_all_ones():
    rec = Record()
    x = rec.leaf(np.array([0.3, -1.2, 4.0]))
    grads = rec.backward(sum_all(x))
    np.testing.assert_array_equal(grads[x.node], np.ones(3))


def test_backward_skips_unreachable_nodes():
    rec = Record()
    x = rec.leaf(np.ones(2))
    y = rec.leaf(np.ones(2))
    sum_all(y * 3.0)
    grads = rec.backward(sum_all(x * 2.0))
    assert y.node not in grads


def test_finite_diff_check_quadratic_and_constant():
    theta = np.array([0.4, -1.3, 2.2])

    def quadratic(t):
        return 0.5 * float(np.dot(t, t)), t.copy()

    assert finite_diff_check(quadratic, theta, 1e-6) < 1e-8

    def const(t):
        return 5.0, np.zeros_like(t)

    assert finite_diff_check(const, theta, 1e-6) == 0.0
    with pytest.raises(ContractViolation):
        finite_diff_check(const, theta, 0.0)


def test_finite_diff_check_mutation_sanity(monkeypatch):
    """A corrupted tanh derivative must be caught by the oracle."""

    def wrong(out, g):
        return g * (1.0 - out * out) * 1.01

    monkeypatch.setattr(ad, "_tanh_backward", wrong)

    def f(theta):
        rec = Record()
        leaf = rec.leaf(theta)
        root = sum_all(tanh(leaf))
        return root.data.item(), rec.backward(root)[leaf.node]

    assert finite_diff_check(f, np.array([0.2, -0.4]), 1e-6) > 1e-4


def _random_composition(seed, theta0):
    """Scalar function of a 6-vector using every op, kink-safe at theta0.

    Clip bounds are frozen from theta0 so finite differences see the same
    constants the tape saw; the upper bound sits strictly below the
    largest activation so the gate is exercised, with a >1e-3 margin to
    every activation.
    """
    rng = np.random.default_rng(seed)
    c1 = rng.normal(size=6)
    c2 = rng.normal(size=(2, 3))
    shift = rng.uniform(0.5, 1.5)
    scale = rng.uniform(0.4, 1.1)
    data0 = np.tanh(np.asarray(theta0, dtype=np.float64))
    lo = float(data0.min()) - 0.37
    hi = float(data0.max()) - 0.11
    while np.min(np.abs(data0 - hi)) < 1e-3:
        hi += 3e-3

    def build(theta):
        rec = Record()
        leaf = rec.leaf(np.asarray(theta, dtype=np.float64))
        x = tanh(leaf * scale) + c1
        y = ad.exp(x)
        z = tanh(y - shift) - x * 0.5
        rows = reshape(z, (2, 3))
        m = matmul(rows, c2.T @ c2)
        lp = softmax_logprobs(m)
        picked = gather_pairs(lp, [0, 1], [1, 2])
        clipped = clip_gated(tanh(leaf), lo, hi)
        paired = min_pair(clipped, clipped * 0.5 + 0.9)
        taken = take_rows(rows, [1, 0, 1])
        root = sum_all(picked) * 0.5 + sum_all(paired) - sum_all(taken) * (1.0 / 9.0)
        return rec, leaf, root

    return build


@pytest.mark.parametrize("seed", range(100))
def test_randomized_compositions_match_finite_differences(seed):
    theta0 = np.random.default_rng(1000 + seed).normal(size=6)
    build = _random_composition(seed, theta0)

    def f(theta):
        r, lf, rt = build(theta)
        grads = r.backward(rt)
        return rt.data.item(), grads.get(lf.node, np.zeros(6))

    assert finite_diff_check(f, theta0, 1e-6) < 1e-4


def test_determinism_bit_identical():
    theta = np.random.default_rng(9).normal(size=6)
    build = _random_composition(424242, theta)
    outs = []
    for _ in range(2):
        rec, leaf, root = build(theta)
        grads = rec.backward(root)
        outs.append((root.data.tobytes(), grads[leaf.node].tobytes()))
    assert outs[0] == outs[1]

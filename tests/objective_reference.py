"""Earlier forms of the objective's gradient, for the tests.

``objectives.evaluate_prepared`` forwards only the contexts that a
scored token reads and scatters only scored tokens' gradients, since a
forced token (its mask row's one legal id) adds exactly +-0 to the
gradient. ``full_layout_gradient`` is the layout it replaced: every
token's row scored, its gradient summed by one ``bincount`` over every
distinct context, and the MLP run and backpropagated on all of them.

``evaluate_prepared`` reads the embedding one-hot and the flat gather and
scatter indices that ``prepare_batch`` builds once per batch, and scales
by the temperature only when it is not 1. ``per_epoch_objective`` is the
form it replaced, which rebuilt them every inner epoch: a boolean
one-hot, two-dimensional fancy gathers and scatters, and an
unconditional temperature scaling. The tests compare each with
``evaluate_prepared`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from etrlab import autodiff
from etrlab.objectives import PreparedBatch
from etrlab.policy import PolicyParams, forward, masked_logprobs


def full_layout_gradient(
    prep: PreparedBatch,
    contexts: np.ndarray,
    masks: np.ndarray,
    params: PolicyParams,
    kl_coef: float,
) -> np.ndarray:
    """Flat gradient of the objective with every token's row in the product.

    ``contexts`` and ``masks`` are every token's context and mask rows,
    forced tokens included, in ``prep``'s token order.
    """
    v = params.vocab.size
    distinct, index = np.unique(contexts, axis=0, return_inverse=True)
    index = index.reshape(-1)
    x, hidden, logits = forward(params, distinct)
    rows = np.arange(index.size)
    lp_rows = masked_logprobs(logits[index], masks, prep.temperature)
    lp = lp_rows[rows, prep.targets]
    ratio = np.exp(lp - prep.old_logprobs)
    unclipped_branch = ratio * prep.advantages
    first = unclipped_branch <= np.clip(ratio, prep.lo, prep.hi) * prep.advantages
    u = np.exp(prep.ref_logprobs - lp)
    d_lp = prep.weights * (prep.advantages * ratio * first - kl_coef * (1.0 - u))
    d_rows = np.exp(lp_rows) * -d_lp[:, None]
    d_rows[rows, prep.targets] += d_lp
    d_rows *= 1.0 / prep.temperature
    scatter = (index[:, None] * v + np.arange(v)).reshape(-1)
    d_logits = np.bincount(scatter, d_rows.reshape(-1), minlength=logits.size).reshape(logits.shape)
    d_pre = autodiff._tanh_backward(hidden, d_logits @ params.w_out.T)
    d_x = (d_pre @ params.w_hidden.T).reshape(-1, params.embed_dim)
    return np.concatenate(
        [
            ((distinct.reshape(-1) == np.arange(v)[:, None]) @ d_x).reshape(-1),
            (x.T @ d_pre).reshape(-1),
            d_pre.sum(axis=0),
            (hidden.T @ d_logits).reshape(-1),
            d_logits.sum(axis=0),
        ]
    )


def per_epoch_objective(
    prep: PreparedBatch, params: PolicyParams, kl_coef: float
) -> tuple[float, np.ndarray]:
    """The objective's total and flat gradient, building the per-batch indices as it goes."""
    v = params.vocab.size
    targets = prep.targets[prep.scored]
    x, hidden, logits = forward(params, prep.forward_contexts)
    lp_pairs = masked_logprobs(logits[prep.pair_contexts], prep.pair_masks, prep.temperature)
    lp = np.zeros(prep.targets.size)
    lp[prep.scored] = lp_pairs[prep.pair_index, targets]
    ratio = np.exp(lp - prep.old_logprobs)
    unclipped_branch = ratio * prep.advantages
    clipped_branch = np.minimum(np.maximum(ratio, prep.lo), prep.hi) * prep.advantages
    first = unclipped_branch <= clipped_branch
    surrogate = np.add.reduce(np.where(first, unclipped_branch, clipped_branch) * prep.weights)
    diff = prep.ref_logprobs - lp
    u = np.exp(diff)
    kl = np.add.reduce((u - diff - 1.0) * prep.weights)
    d_lp = prep.weights * (prep.advantages * ratio * first - kl_coef * (1.0 - u))
    d_lp = d_lp[prep.scored]
    d_rows = np.exp(lp_pairs)[prep.pair_index] * -d_lp[:, None]
    d_rows[np.arange(d_lp.size), targets] += d_lp
    d_rows *= 1.0 / prep.temperature
    n = len(prep.distinct_contexts)
    d_logits = np.bincount(prep.scatter_index, d_rows.reshape(-1), minlength=n * v).reshape(n, v)
    rows = prep.forward_rows
    d_pre_rows = autodiff._tanh_backward(hidden, (d_logits @ params.w_out.T)[rows])
    d_pre = np.zeros((n, params.hidden_dim))
    d_pre[rows] = d_pre_rows
    d_x = (d_pre @ params.w_hidden.T).reshape(-1, params.embed_dim)
    gradient = np.empty(params.param_count)
    d_embed, d_w_hidden, d_b_hidden, d_w_out, d_b_out = params.blocks(gradient)
    one_hot = prep.distinct_contexts.reshape(-1) == np.arange(v)[:, None]
    np.matmul(one_hot, d_x, out=d_embed)
    np.matmul(x.T, d_pre_rows, out=d_w_hidden)
    np.add.reduce(d_pre, axis=0, out=d_b_hidden)
    np.matmul(hidden.T, d_logits[rows], out=d_w_out)
    np.add.reduce(d_logits, axis=0, out=d_b_out)
    return float(surrogate - kl_coef * kl), gradient

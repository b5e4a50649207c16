"""The objective's gradient over every distinct context, for the tests.

``objectives.evaluate_prepared`` forwards only the contexts that a
scored token reads and scatters only scored tokens' gradients, since a
forced token (its mask row's one legal id) adds exactly +-0 to the
gradient. ``full_layout_gradient`` is the layout it replaced: every
token's row scored, its gradient summed by one ``bincount`` over every
distinct context, and the MLP run and backpropagated on all of them.
The tests compare the two bit for bit.
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

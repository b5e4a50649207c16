"""Tape ops that re-derive the policy objective on an autodiff record.

The program differentiates the policy in closed form
(``objectives.evaluate_prepared``); these ops rebuild the same MLP,
log-softmax and target pick on :mod:`etrlab.autodiff`'s tape so the
tests can check the closed form against an independent gradient. They
follow the tape's rules: constants stay off the record, operands must
share one record, and bad shapes or indices raise ``ContractViolation``.
"""

from __future__ import annotations

import numpy as np

from etrlab import autodiff
from etrlab.autodiff import ContractViolation, Tensor, _joint_record, _lift


def tanh(a) -> Tensor:
    """Elementwise tanh; backward uses ``autodiff._tanh_backward`` at call time."""
    ta = _lift(a)
    out = np.tanh(ta.data)
    if ta.record is None:
        return Tensor(out)

    def back(g):
        return (autodiff._tanh_backward(out, g),)

    return Tensor(out, ta.record, ta.record._push((ta.node,), back))


def matmul(a, b) -> Tensor:
    ta, tb = _lift(a), _lift(b)
    rec = _joint_record(ta, tb)
    if ta.data.ndim != 2 or tb.data.ndim != 2:
        raise ContractViolation("matmul requires 2-D operands")
    if ta.data.shape[1] != tb.data.shape[0]:
        raise ContractViolation(
            f"matmul: inner dimensions differ ({ta.data.shape} @ {tb.data.shape})"
        )
    out = ta.data @ tb.data
    if rec is None:
        return Tensor(out)
    da, db, na, nb = ta.data, tb.data, ta.node, tb.node

    def back(g):
        return (
            g @ db.T if na is not None else None,
            da.T @ g if nb is not None else None,
        )

    return Tensor(out, rec, rec._push((na, nb), back))


def softmax_logprobs(logits, temperature: float = 1.0) -> Tensor:
    """Numerically stable log-softmax over the last axis.

    Accepts a vector of logits or a matrix of row-wise logits. The output
    exponentials sum to one per row even for logits of magnitude 1e4.
    """
    if not temperature > 0.0:
        raise ContractViolation("temperature must be positive")
    ta = _lift(logits)
    if ta.data.ndim not in (1, 2):
        raise ContractViolation("softmax_logprobs expects a 1-D or 2-D tensor")
    scaled = ta.data / temperature
    peak = np.max(scaled, axis=-1, keepdims=True)
    shifted = scaled - peak
    out = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    if ta.record is None:
        return Tensor(out)
    probs = np.exp(out)
    na = ta.node

    def back(g):
        return ((g - probs * np.sum(g, axis=-1, keepdims=True)) / temperature,)

    return Tensor(out, ta.record, ta.record._push((na,), back))


def take_rows(matrix, ids) -> Tensor:
    """Gather rows of a 2-D tensor; backward scatter-adds into the source."""
    tm = _lift(matrix)
    if tm.data.ndim != 2:
        raise ContractViolation("take_rows expects a 2-D tensor")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ContractViolation("take_rows expects a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= tm.data.shape[0]):
        raise ContractViolation("take_rows: row index out of range")
    out = tm.data[idx]
    if tm.record is None:
        return Tensor(out)
    src_shape = tm.shape

    def back(g):
        acc = np.zeros(src_shape)
        np.add.at(acc, idx, g)
        return (acc,)

    return Tensor(out, tm.record, tm.record._push((tm.node,), back))


def gather_pairs(matrix, rows, cols) -> Tensor:
    """Select matrix[rows[i], cols[i]] as a vector; backward scatter-adds."""
    tm = _lift(matrix)
    if tm.data.ndim != 2:
        raise ContractViolation("gather_pairs expects a 2-D tensor")
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    if r.shape != c.shape or r.ndim != 1:
        raise ContractViolation("gather_pairs expects matching 1-D index arrays")
    nr, nc = tm.data.shape
    if r.size and (r.min() < 0 or r.max() >= nr or c.min() < 0 or c.max() >= nc):
        raise ContractViolation("gather_pairs: index out of range")
    out = tm.data[r, c]
    if tm.record is None:
        return Tensor(out)
    src_shape = tm.shape

    def back(g):
        acc = np.zeros(src_shape)
        np.add.at(acc, (r, c), g)
        return (acc,)

    return Tensor(out, tm.record, tm.record._push((tm.node,), back))


def reshape(a, shape) -> Tensor:
    ta = _lift(a)
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    if int(np.prod(shape)) != ta.size:
        raise ContractViolation(f"reshape: cannot view {ta.shape} as {shape}")
    out = ta.data.reshape(shape)
    if ta.record is None:
        return Tensor(out)
    orig = ta.shape

    def back(g):
        return (g.reshape(orig),)

    return Tensor(out, ta.record, ta.record._push((ta.node,), back))

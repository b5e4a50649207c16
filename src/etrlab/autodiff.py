"""Reverse-mode tape for the clipped surrogate, and a finite-difference check.

Training uses the closed-form gradient in :mod:`objectives`; this tape
holds just the ops the per-token surrogate needs (``token_surrogate``,
acceptance check 4), so its subgradient rules stay pinned. The wider op
library that re-derives the whole objective lives with the tests.

A :class:`Record` is an append-only tape. Tensors either live on a record
(they carry a node id and participate in ``backward``) or are free
constants (``node is None``); operations among constants stay off the
tape. Only scalar-vs-tensor broadcasting is allowed, so shape bugs fail
loudly instead of silently broadcasting.

Subgradient conventions are fixed so that every value path equals its
naive non-differentiable definition bit for bit:

* ``clip_gated`` passes gradient wherever ``lo <= x <= hi``; boundary
  points are treated as interior.
* ``min_pair`` routes the whole gradient to the smaller operand; exact
  ties go to the first operand.

``_tanh_backward`` is the tanh derivative of the policy's hidden layer;
``policy.logits_gradient`` looks it up here at call time.

Records are single-owner and not thread-safe. Identical inputs applied in
identical order produce bit-identical values and gradients.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ContractViolation(ValueError):
    """An operation was invoked in violation of its documented contract."""


class Tensor:
    """A float64 array, optionally attached to a node on a Record."""

    __slots__ = ("data", "record", "node")

    # Make ndarray binary ops defer to our reflected operators instead of
    # coercing the tensor into an object array.
    __array_ufunc__ = None

    def __init__(self, data, record: "Record | None" = None, node: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.record = record
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = "const" if self.node is None else f"node {self.node}"
        return f"Tensor(shape={self.shape}, {tag})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return subtract(self, other)

    def __rsub__(self, other):
        return subtract(other, self)

    def __mul__(self, other):
        return multiply(self, other)

    __rmul__ = __mul__


class Record:
    """Append-only computation tape.

    Node inputs always precede the node itself, so a reverse sweep over
    node ids is a valid topological backward order.
    """

    def __init__(self):
        self._inputs: list[tuple[int | None, ...]] = []
        self._backs: list[Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None] = []

    def leaf(self, data) -> Tensor:
        """Register a parameter array and return its tape-attached tensor."""
        nid = self._push((), None)
        return Tensor(data, self, nid)

    def _push(self, inputs: tuple[int | None, ...], back) -> int:
        self._inputs.append(inputs)
        self._backs.append(back)
        return len(self._backs) - 1

    def backward(self, root: Tensor) -> dict[int, np.ndarray]:
        """Accumulate gradients of a scalar root over the tape.

        Returns a map from node id to gradient array. Nodes unreachable
        from the root are absent. A constant root yields an empty map.
        """
        if root.data.shape != ():
            raise ContractViolation("backward root must be a scalar")
        if root.record is None:
            return {}
        if root.record is not self:
            raise ContractViolation("root does not belong to this record")
        grads: dict[int, np.ndarray] = {root.node: np.ones(())}
        for nid in range(root.node, -1, -1):
            g = grads.get(nid)
            if g is None:
                continue
            back = self._backs[nid]
            if back is None:
                continue
            for inp, contribution in zip(self._inputs[nid], back(g)):
                if inp is None or contribution is None:
                    continue
                held = grads.get(inp)
                grads[inp] = contribution if held is None else held + contribution
        return grads


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _joint_record(a: Tensor, b: Tensor) -> "Record | None":
    if a.record is not None and b.record is not None and a.record is not b.record:
        raise ContractViolation("operands live on different records")
    return a.record if a.record is not None else b.record


def _check_shapes(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ContractViolation(
            f"{op}: shape mismatch {a.shape} vs {b.shape}; only scalar<->tensor broadcast is allowed"
        )


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def _binary(op: str, a, b, value, grads) -> Tensor:
    """``value(a, b)``, recorded with ``grads(g, a, b)``: both operands' gradients.

    A scalar operand's gradient is summed down to its shape.
    """
    ta, tb = _lift(a), _lift(b)
    rec = _joint_record(ta, tb)
    _check_shapes(ta.data, tb.data, op)
    da, db = ta.data, tb.data
    out = value(da, db)
    if rec is None:
        return Tensor(out)
    sa, sb, na, nb = ta.shape, tb.shape, ta.node, tb.node

    def back(g):
        ga, gb = grads(g, da, db)
        return (
            _reduce_to(ga, sa) if na is not None else None,
            _reduce_to(gb, sb) if nb is not None else None,
        )

    return Tensor(out, rec, rec._push((na, nb), back))


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, da, db: (g, g))


def subtract(a, b) -> Tensor:
    return _binary("subtract", a, b, np.subtract, lambda g, da, db: (g, -g))


def multiply(a, b) -> Tensor:
    return _binary("multiply", a, b, np.multiply, lambda g, da, db: (g * db, g * da))


def exp(a) -> Tensor:
    ta = _lift(a)
    out = np.exp(ta.data)
    if ta.record is None:
        return Tensor(out)

    def back(g):
        return (g * out,)

    return Tensor(out, ta.record, ta.record._push((ta.node,), back))


def _tanh_backward(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    # g * (1 - out * out), formed in one buffer.
    d = np.multiply(out, out)
    np.subtract(1.0, d, out=d)
    return np.multiply(g, d, out=d)


def clip_gated(x, lo, hi) -> Tensor:
    """Clamp x into [lo, hi]; gradient passes only where lo <= x <= hi.

    Bounds must be constants (scalars, arrays, or constant tensors); the
    value path equals ``np.clip`` exactly.
    """
    tx = _lift(x)
    tlo, thi = _lift(lo), _lift(hi)
    if tlo.node is not None or thi.node is not None:
        raise ContractViolation("clip bounds must be constants")
    _check_shapes(tx.data, tlo.data, "clip_gated")
    _check_shapes(tx.data, thi.data, "clip_gated")
    if np.any(tlo.data > thi.data):
        raise ContractViolation("clip_gated requires lo <= hi elementwise")
    out = np.clip(tx.data, tlo.data, thi.data)
    if tx.record is None:
        return Tensor(out)
    interior = (tx.data >= tlo.data) & (tx.data <= thi.data)

    def back(g):
        return (g * interior,)

    return Tensor(out, tx.record, tx.record._push((tx.node,), back))


def min_pair(a, b) -> Tensor:
    """Elementwise minimum; ties route the gradient to the first operand."""
    ta, tb = _lift(a), _lift(b)
    rec = _joint_record(ta, tb)
    if ta.shape != tb.shape:
        raise ContractViolation(f"min_pair: shape mismatch {ta.shape} vs {tb.shape}")
    first = ta.data <= tb.data
    out = np.where(first, ta.data, tb.data)
    if rec is None:
        return Tensor(out)
    na, nb = ta.node, tb.node

    def back(g):
        return (
            g * first if na is not None else None,
            g * ~first if nb is not None else None,
        )

    return Tensor(out, rec, rec._push((na, nb), back))


def sum_all(a) -> Tensor:
    ta = _lift(a)
    out = np.sum(ta.data)
    if ta.record is None:
        return Tensor(out)
    shape = ta.shape

    def back(g):
        return (np.full(shape, g),)

    return Tensor(out, ta.record, ta.record._push((ta.node,), back))


def finite_diff_check(f, theta, step: float) -> float:
    """Compare an analytic gradient against central differences.

    ``f`` maps a parameter vector to ``(value, gradient)``. Returns the
    worst relative error ``|g_ad - g_fd| / max(1, |g_ad|, |g_fd|)`` over
    all coordinates.
    """
    if not step > 0.0:
        raise ContractViolation("finite difference step must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    _, g_ad = f(theta)
    g_ad = np.asarray(g_ad, dtype=np.float64)
    if g_ad.shape != theta.shape:
        raise ContractViolation("gradient shape does not match parameter shape")
    worst = 0.0
    probe = np.zeros_like(theta)
    for i in range(theta.size):
        probe[i] = step
        up, _ = f(theta + probe)
        down, _ = f(theta - probe)
        probe[i] = 0.0
        g_fd = (up - down) / (2.0 * step)
        err = abs(g_ad[i] - g_fd) / max(1.0, abs(g_ad[i]), abs(g_fd))
        if err > worst:
            worst = err
    return worst

"""Reverse-mode automatic differentiation over numpy float64 arrays.

A small tape-based engine in the classic define-by-run style: every
operation returns a `Tensor` that remembers its parents and a
vector-Jacobian callback. The one non-negotiable requirement here is
second-order support, because higher-order bilevel training differentiates
through inner-loop gradient updates. That is obtained by writing every
callback in terms of `Tensor` operations themselves, so running `backward`
extends the record rather than closing it, and the result of `backward` can
be differentiated again like any other node.

Conventions:

- all data is float64; integer index arrays (labels) stay plain numpy
- operations cover what small feed-forward classifiers need: broadcast
  add/mul, 2-d matmul, relu, exp/log/reciprocal, reductions, row gather and
  scatter
- graphs are pruned eagerly: a node none of whose parents requires a
  gradient is stored as a constant with no history
- evaluation order is deterministic (depth-first over the parent tuples),
  so repeated backward passes over the same graph produce bit-identical
  floats
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class Tensor:
    """One node of the computation record.

    `parents` are the operands of the operation that produced this node and
    `vjp` maps the cotangent (gradient of the final scalar with respect to
    this node) to cotangents of each parent. Leaves created with
    `requires_grad=True` are the differentiation roots; everything built
    only from constants carries no history.
    """

    __slots__ = ("data", "parents", "vjp", "requires_grad", "name")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[["Tensor"], tuple] | None = None,
        requires_grad: bool = False,
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        # constant subgraphs keep no history, so long computations on
        # constants cannot bloat the tape
        if self.requires_grad:
            self.parents = parents
            self.vjp = vjp
        else:
            self.parents = ()
            self.vjp = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A constant view of this node's value (no history)."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        tag = self.name or ("leaf" if self.requires_grad and not self.parents else "node")
        return f"Tensor({tag}, shape={self.data.shape})"

    # arithmetic sugar; all routes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, reciprocal(_wrap(other)))

    def __rtruediv__(self, other):
        return mul(_wrap(other), reciprocal(self))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 1:
            raise ValueError("only positive integer powers are supported")
        out = self
        for _ in range(exponent - 1):
            out = mul(out, self)
        return out


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x, name: str = "") -> Tensor:
    """A node with no history; never differentiated through."""
    return Tensor(x, name=name)


def leaf(x, name: str = "") -> Tensor:
    """A differentiation root."""
    return Tensor(x, requires_grad=True, name=name)


def zeros_like(t: Tensor) -> Tensor:
    return Tensor(np.zeros_like(t.data))


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def _unbroadcast(cot: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce a cotangent back to `shape` after numpy broadcasting.

    Built from sum/reshape nodes so the reduction itself is differentiable.
    """
    extra = cot.data.ndim - len(shape)
    out = cot
    if extra > 0:
        out = tsum(out, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and out.data.shape[i] != 1)
    if axes:
        out = tsum(out, axis=axes, keepdims=True)
    if out.data.shape != shape:
        out = reshape(out, shape)
    return out


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def vjp(cot):
        return (_unbroadcast(cot, a.data.shape), _unbroadcast(cot, b.data.shape))

    return Tensor(a.data + b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def vjp(cot):
        return (_unbroadcast(mul(cot, b), a.data.shape),
                _unbroadcast(mul(cot, a), b.data.shape))

    return Tensor(a.data * b.data, (a, b), vjp)


def neg(a) -> Tensor:
    a = _wrap(a)

    def vjp(cot):
        return (neg(cot),)

    return Tensor(-a.data, (a,), vjp)


def reciprocal(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(1.0 / a.data, (a,), None)

    def vjp(cot):
        return (neg(mul(cot, mul(out, out))),)

    out.vjp = vjp
    return out


def exp(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.exp(a.data), (a,), None)

    def vjp(cot):
        return (mul(cot, out),)

    out.vjp = vjp
    return out


def log(a) -> Tensor:
    a = _wrap(a)

    def vjp(cot):
        return (mul(cot, reciprocal(a)),)

    return Tensor(np.log(a.data), (a,), vjp)


def relu(a) -> Tensor:
    """Rectifier with subgradient 0 at the kink."""
    a = _wrap(a)
    mask = (a.data > 0.0).astype(np.float64)

    def vjp(cot):
        return (mul(cot, constant(mask)),)

    return Tensor(a.data * mask, (a,), vjp)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul supports 2-d operands only")

    def vjp(cot):
        return (matmul(cot, transpose(b)), matmul(transpose(a), cot))

    return Tensor(a.data @ b.data, (a, b), vjp)


def transpose(a) -> Tensor:
    a = _wrap(a)

    def vjp(cot):
        return (transpose(cot),)

    return Tensor(a.data.T, (a,), vjp)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _wrap(a)
    old = a.data.shape

    def vjp(cot):
        return (reshape(cot, old),)

    return Tensor(a.data.reshape(shape), (a,), vjp)


def broadcast_to(a, shape: tuple[int, ...]) -> Tensor:
    a = _wrap(a)
    old = a.data.shape

    def vjp(cot):
        return (_unbroadcast(cot, old),)

    return Tensor(np.broadcast_to(a.data, shape).copy(), (a,), vjp)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    """Sum reduction (named to avoid shadowing the builtin)."""
    a = _wrap(a)
    old = a.data.shape

    def vjp(cot):
        if axis is None:
            return (broadcast_to(cot, old),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if keepdims:
            expanded = cot
        else:
            kd = list(cot.data.shape)
            for ax in sorted(ax % len(old) for ax in axes):
                kd.insert(ax, 1)
            expanded = reshape(cot, tuple(kd))
        return (broadcast_to(expanded, old),)

    return Tensor(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), vjp)


def mean(a) -> Tensor:
    a = _wrap(a)
    return mul(tsum(a), constant(1.0 / a.data.size))


def take_rows(a, idx: np.ndarray) -> Tensor:
    """Gather one entry per row: out[i] = a[i, idx[i]]."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    n, ncols = a.data.shape

    def vjp(cot):
        return (scatter_rows(cot, idx, ncols),)

    return Tensor(a.data[np.arange(n), idx], (a,), vjp)


def scatter_rows(v, idx: np.ndarray, ncols: int) -> Tensor:
    """Inverse of take_rows: place v[i] at column idx[i] of row i."""
    v = _wrap(v)
    idx = np.asarray(idx, dtype=np.int64)
    n = v.data.shape[0]
    data = np.zeros((n, ncols))
    data[np.arange(n), idx] = v.data

    def vjp(cot):
        return (take_rows(cot, idx),)

    return Tensor(data, (v,), vjp)


def logsumexp_rows(a) -> Tensor:
    """Row-wise log-sum-exp with the constant-shift stabilization.

    The shift is held constant, which leaves the value and all derivative
    orders exact (log-sum-exp is shift-invariant).
    """
    a = _wrap(a)
    shift = constant(np.max(a.data, axis=1, keepdims=True))
    summed = tsum(exp(add(a, neg(shift))), axis=1)
    return add(log(summed), reshape(shift, (a.data.shape[0],)))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _topo_order(out: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of `out`'s ancestor cone.

    Iterative depth-first search; order depends only on graph structure, so
    backward accumulation is deterministic.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(out: Tensor, wrt: Sequence[Tensor]) -> list[Tensor]:
    """Cotangents of the scalar `out` with respect to each tensor in `wrt`.

    The returned tensors are wired into the record, so any scalar built
    from them can be passed to `backward` again for higher-order
    derivatives. Tensors in `wrt` that `out` does not depend on receive a
    zero cotangent.
    """
    if out.data.shape != ():
        raise ValueError("backward expects a scalar output")
    cots: dict[int, Tensor] = {id(out): constant(1.0)}
    for node in reversed(_topo_order(out)):
        cot = cots.get(id(node))
        if cot is None or node.vjp is None:
            continue
        parent_cots = node.vjp(cot)
        for parent, pc in zip(node.parents, parent_cots):
            if pc is None or not parent.requires_grad:
                continue
            held = cots.get(id(parent))
            cots[id(parent)] = pc if held is None else add(held, pc)
    return [cots.get(id(w), zeros_like(w)) for w in wrt]

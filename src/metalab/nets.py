"""Parameter vectors, small feed-forward classifiers, and gradients.

A network is described by a `NetSpec` (dims; relu throughout) and a flat
`ParamVector` whose layout names each weight matrix and bias.

The layer structure is written down three times, each for one job:

- `activations` is the one plain forward pass. It returns every layer's
  output as its own array; `forward` (logits), `learners.Model.body_features`
  (the features entering the head) and the Fisher information in
  `metalab.task2vec` all read from it.
- `MLPKernel` is for training: a closed-form numpy forward and backward
  pass of the mean cross-entropy in buffers it allocates once, optionally
  stacked over batches of one shape. Its `hvp` multiplies the Hessian by a
  vector in one more forward and backward pass (Pearlmutter's R-operator).
  Every training and adaptation gradient runs on it: pre-training, first-
  and higher-order MAML and test-time adaptation. It overwrites its
  buffers on every call, so it hands out no activations.
- `forward_t` is the traced pass on the autodiff tape (`metalab.autodiff`),
  the oracle the other two are tested against; demo 01 shows it.

Losses for the tape are callables over a dict of named parameter
`Tensor`s; `net_loss` builds the standard cross-entropy objective from a
spec and a batch. `loss_and_grad` runs one reverse pass,
`loss_and_grad_through_updates` differentiates through a chain of inner
gradient descent updates, and `finite_diff_grad` is the central-difference
oracle used to certify both.
No library path calls the tape.

All arithmetic is float64; finite-difference tolerances need the headroom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from metalab import rng
from metalab.autodiff import Tensor, add, backward, constant, leaf, logsumexp_rows
from metalab.autodiff import matmul, mean, mul, neg, relu, take_rows

Layout = tuple[tuple[str, tuple[int, ...]], ...]
LossFn = Callable[[Mapping[str, Tensor]], Tensor]


class ShapeError(ValueError):
    """Operand dimensions do not line up."""


class NumericalError(RuntimeError):
    """A non-finite value surfaced during differentiation."""


@dataclass(frozen=True)
class ParamVector:
    """Flat float64 parameter storage plus its (name, shape) segmentation.

    Invariants checked on construction: the flat length equals the sum of
    segment sizes and every entry is finite.
    """

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        flat = np.asarray(self.values, dtype=np.float64).ravel()
        object.__setattr__(self, "values", flat)
        object.__setattr__(self, "layout", tuple((n, tuple(s)) for n, s in self.layout))
        total = sum(math.prod(s) for _, s in self.layout)
        if flat.size != total:
            raise ShapeError(
                f"flat length {flat.size} does not match layout total {total}")
        if not np.all(np.isfinite(flat)):
            raise ValueError("parameter vector contains non-finite entries")

    def __len__(self) -> int:
        return self.values.size

    def views(self) -> dict[str, np.ndarray]:
        """Named reshaped read-only views of each layout segment, no copy."""
        out: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in self.layout:
            size = math.prod(shape)
            out[name] = self.values[offset:offset + size].reshape(shape)
            out[name].flags.writeable = False
            offset += size
        return out

    def segments(self) -> dict[str, np.ndarray]:
        """Named reshaped copies of each layout segment."""
        return {name: view.copy() for name, view in self.views().items()}

    @classmethod
    def from_segments(cls, layout: Layout, segments: Mapping[str, np.ndarray]) -> "ParamVector":
        parts = []
        for name, shape in layout:
            arr = np.asarray(segments[name], dtype=np.float64)
            if arr.shape != tuple(shape):
                raise ShapeError(f"segment {name}: expected shape {shape}, got {arr.shape}")
            parts.append(arr.ravel())
        return cls(np.concatenate(parts) if parts else np.zeros(0), layout)


@dataclass(frozen=True)
class NetSpec:
    """Architecture descriptor for a relu multilayer perceptron.

    Layers are fully connected; the rectifier sits between hidden layers
    and the final layer emits raw logits. `output_dim >= 2` because every
    use here is classification.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    output_dim: int = 2

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be positive, got {dims}")
        if self.output_dim < 2:
            raise ValueError("output_dim must be at least 2 for classification")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def num_layers(self) -> int:
        return len(self.dims) - 1

    def layout(self) -> Layout:
        dims = self.dims
        out = []
        for i in range(self.num_layers):
            out.append((f"W{i}", (dims[i], dims[i + 1])))
            out.append((f"b{i}", (dims[i + 1],)))
        return tuple(out)

    def head_names(self) -> tuple[str, str]:
        """Names of the final-layer weight and bias segments."""
        i = self.num_layers - 1
        return (f"W{i}", f"b{i}")

    def param_count(self) -> int:
        return sum(math.prod(s) for _, s in self.layout())

    def init(self, seed: int) -> ParamVector:
        """He-scaled normal weights, zero biases, from the "init" stream."""
        gen = rng.stream(seed, "init")
        segs: dict[str, np.ndarray] = {}
        dims = self.dims
        for i in range(self.num_layers):
            fan_in = dims[i]
            segs[f"W{i}"] = gen.normal(0.0, np.sqrt(2.0 / fan_in), size=(dims[i], dims[i + 1]))
            segs[f"b{i}"] = np.zeros(dims[i + 1])
        return ParamVector.from_segments(self.layout(), segs)


@dataclass(frozen=True)
class Batch:
    """Feature rows with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2:
            raise ShapeError(f"inputs must be 2-d, got shape {inputs.shape}")
        if labels.ndim != 1 or labels.shape[0] != inputs.shape[0]:
            raise ShapeError(
                f"labels shape {labels.shape} does not match {inputs.shape[0]} rows")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _check_compatible(spec: NetSpec, params: ParamVector) -> None:
    if params.layout != spec.layout():
        raise ShapeError(
            f"parameter layout {params.layout} does not match spec layout {spec.layout()}")


def activations(spec: NetSpec, params: ParamVector, inputs: np.ndarray) -> list[np.ndarray]:
    """Every layer's output on `inputs` `(n, input_dim)`: the one plain forward pass.

    Returns `inputs` (as float64), then each layer's output in order:
    rectified below the top layer, raw logits at the top. So `[-1]` is the
    logits and `[-2]` the features entering the head. Deterministic, pure
    numpy, a fresh array per layer.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != spec.input_dim:
        raise ShapeError(
            f"batch width {inputs.shape} does not match input_dim {spec.input_dim}")
    _check_compatible(spec, params)
    segs = params.views()
    out = [inputs]
    for i in range(spec.num_layers):
        h = out[-1] @ segs[f"W{i}"] + segs[f"b{i}"]
        out.append(np.maximum(h, 0.0) if i < spec.num_layers - 1 else h)
    return out


def forward(spec: NetSpec, params: ParamVector, batch: Batch | np.ndarray) -> np.ndarray:
    """Logits of the network on a batch; deterministic, pure numpy."""
    inputs = batch.inputs if isinstance(batch, Batch) else batch
    return activations(spec, params, inputs)[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-stabilized."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-softmax of the true class."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-d, got {logits.shape}")
    if logits.shape[0] == 0:
        raise ValueError("cross_entropy of an empty batch is undefined")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError(
            f"labels outside [0, {logits.shape[1]}) for logits width {logits.shape[1]}")
    shift = logits.max(axis=1, keepdims=True)
    lse = shift[:, 0] + np.log(np.exp(logits - shift).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


class MLPKernel:
    """Mean cross-entropy of a relu MLP, its gradient and Hessian-vector products.

    Built once per spec and input shape `(..., n, input_dim)`. Leading
    axes, if any, stack independent batches of one shape (the episodes of
    a meta-batch). The activation, logit and backprop buffers, each
    `(..., n, width)`, and their R-operator twins are allocated here and
    refilled in place by every `loss_and_grad` and `hvp` call, so a
    training loop allocates no large temporary per step. A kernel holds no
    state between calls beyond those buffers.

    The arithmetic is that of `net_loss` under `loss_and_grad`: the same
    stabilized log-sum-exp, the rectifier as a multiplication by its 0/1
    mask, and the mean as a sum times 1/n.
    """

    def __init__(self, spec: NetSpec, shape: tuple[int, ...]):
        shape = tuple(int(s) for s in shape)
        if len(shape) < 2 or shape[-1] != spec.input_dim:
            raise ShapeError(
                f"input shape {shape} does not end in input_dim {spec.input_dim}")
        self.spec = spec
        self.shape = shape
        self._lead = shape[:-2]
        rows = shape[:-1]
        # (segment name, flat slice, segment shape) in layout order
        self._segments = []
        offset = 0
        for name, seg_shape in spec.layout():
            size = math.prod(seg_shape)
            self._segments.append((name, slice(offset, offset + size), seg_shape))
            offset += size
        self.size = offset
        # _out[i] holds layer i's output (rectified below the top, logits at
        # the top); the backward pass overwrites it with its backprop signal
        self._out = [np.empty((*rows, width)) for width in spec.dims[1:]]
        # the R-operator's twins of _out: R(z), then R(delta), for `hvp`
        self._rout = [np.empty((*rows, width)) for width in spec.dims[1:]]
        self._mask = [np.empty((*rows, width)) for width in spec.dims[1:-1]]
        self._shift = np.empty((*rows, 1))
        self._sumexp = np.empty(rows)
        # flat index of each row's first logit in the raveled logit buffer
        self._row_start = np.arange(math.prod(rows)) * spec.output_dim

    def _checked_flat(self, flat: np.ndarray) -> np.ndarray:
        """`flat` as float64, `(P,)` or one `(P,)` per stacked batch."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape[-1:] != (self.size,) or flat.shape[:-1] not in ((), self._lead):
            raise ShapeError(
                f"parameters of shape {flat.shape} do not fit {self.size} per batch "
                f"over leading shape {self._lead}")
        return flat

    def _checked(self, flat: np.ndarray, inputs: np.ndarray,
                 labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`flat`, `inputs` and `labels` as float64/int64 arrays, shapes checked."""
        flat = self._checked_flat(flat)
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if inputs.shape != self.shape or labels.shape != self.shape[:-1]:
            raise ShapeError(
                f"inputs {inputs.shape} and labels {labels.shape} do not match the "
                f"kernel's shape {self.shape}")
        if self.shape[-2] == 0:
            raise ValueError("cross_entropy of an empty batch is undefined")
        if labels.min() < 0 or labels.max() >= self.spec.output_dim:
            raise ValueError(
                f"labels outside [0, {self.spec.output_dim}) for logits width "
                f"{self.spec.output_dim}")
        return flat, inputs, labels

    def _segments_of(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of each layout segment of `flat` (`(P,)` or `(..., P)`)."""
        lead = flat.shape[:-1]
        return [flat[..., part].reshape(*lead, *seg_shape)
                for _, part, seg_shape in self._segments]

    def _layer_views(self, out: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Layer i's weight and bias blocks of a `(..., P)` output, as views."""
        (_, w_part, w_shape), (_, b_part, _) = self._segments[2 * i:2 * i + 2]
        return out[..., w_part].reshape(*self._lead, *w_shape), out[..., b_part]

    def _forward(self, segs: list[np.ndarray], inputs: np.ndarray,
                 labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-batch loss; leaves the softmax in the logit buffer.

        Returns the loss and the flat indices of the true-class logits in
        the raveled logit buffer. Raises `NumericalError` on a non-finite
        loss.
        """
        last = self.spec.num_layers - 1
        h = inputs
        for i in range(self.spec.num_layers):
            out = self._out[i]
            np.matmul(h, segs[2 * i], out=out)
            np.add(out, segs[2 * i + 1][..., None, :], out=out)
            if i < last:
                np.greater(out, 0.0, out=self._mask[i])
                np.multiply(out, self._mask[i], out=out)
            h = out

        logits = self._out[last]
        picks = self._row_start + labels.reshape(-1)
        picked = logits.reshape(-1)[picks].reshape(self.shape[:-1])
        np.max(logits, axis=-1, keepdims=True, out=self._shift)
        np.subtract(logits, self._shift, out=logits)
        np.exp(logits, out=logits)
        np.sum(logits, axis=-1, out=self._sumexp)
        per_row = np.log(self._sumexp) + self._shift[..., 0] - picked
        loss = per_row.sum(axis=-1) * (1.0 / self.shape[-2])
        if not np.all(np.isfinite(loss)):
            raise NumericalError("loss evaluated to a non-finite value")
        np.divide(logits, self._sumexp[..., None], out=logits)
        return loss, picks

    def _logit_signal(self, picks: np.ndarray) -> np.ndarray:
        """d loss / d logits = (softmax - onehot) / n, built in the logit buffer."""
        signal = self._out[-1]
        signal.reshape(-1)[picks] -= 1.0
        np.multiply(signal, 1.0 / self.shape[-2], out=signal)
        return signal

    def _checked_output(self, out: np.ndarray, what: str) -> np.ndarray:
        """`out`, or `NumericalError` naming its first non-finite segment."""
        if not np.all(np.isfinite(out)):
            for name, part, _ in self._segments:
                if not np.all(np.isfinite(out[..., part])):
                    raise NumericalError(f"non-finite {what} in segment {name}")
        return out

    def loss_and_grad(self, flat: np.ndarray, inputs: np.ndarray,
                      labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-batch mean cross-entropy and its gradient at `flat`.

        `flat` is `(P,)`, shared by every stacked batch, or `(..., P)`, one
        parameter vector per batch, in `spec.layout()` order. Returns the
        loss with shape `...` (0-d when unstacked) and a freshly allocated
        gradient `(..., P)`, never a view of a buffer. A non-finite loss or
        gradient segment raises `NumericalError`.
        """
        flat, inputs, labels = self._checked(flat, inputs, labels)
        segs = self._segments_of(flat)
        loss, picks = self._forward(segs, inputs, labels)
        signal = self._logit_signal(picks)
        last = self.spec.num_layers - 1
        grad = np.empty((*self._lead, self.size))
        for i in range(last, -1, -1):
            below = inputs if i == 0 else self._out[i - 1]
            w_grad, b_grad = self._layer_views(grad, i)
            np.matmul(np.swapaxes(below, -1, -2), signal, out=w_grad)
            np.sum(signal, axis=-2, out=b_grad)
            if i > 0:
                # the activations below are spent: their buffer takes the signal
                np.matmul(signal, np.swapaxes(segs[2 * i], -1, -2), out=below)
                np.multiply(below, self._mask[i - 1], out=below)
                signal = below
        return loss, self._checked_output(grad, "gradient")

    def hvp(self, flat: np.ndarray, vec: np.ndarray, inputs: np.ndarray,
            labels: np.ndarray) -> np.ndarray:
        """Hessian of the per-batch mean cross-entropy at `flat`, times `vec`.

        Pearlmutter's R-operator ("Fast Exact Multiplication by the
        Hessian", Neural Computation 1994): one forward pass carries
        R(z) = d z(flat + r vec)/dr at r = 0 next to each pre-activation z,
        and one backward pass carries R(delta) next to each backprop signal
        delta. The rectifier contributes only its 0/1 mask, so the terms
        are the softmax curvature at the logits,
        R(delta_top) = p * (R(z) - <p, R(z)>) / n, and the bilinear terms
        of each layer, R(a)^T delta + a^T R(delta) for the weights and
        (R(delta) W^T + delta V^T) * mask for the signal below, with V the
        weight segment of `vec`. The result is exact, not a difference.

        `flat` and `vec` are each `(P,)` or `(..., P)` as in
        `loss_and_grad`. Returns a freshly allocated `(..., P)` array; a
        non-finite loss or product segment raises `NumericalError`.
        """
        flat, inputs, labels = self._checked(flat, inputs, labels)
        vec = self._checked_flat(vec)
        segs = self._segments_of(flat)
        dirs = self._segments_of(vec)
        _, picks = self._forward(segs, inputs, labels)
        last = self.spec.num_layers - 1
        # R pass: _rout[i] holds R(z_i), then R(a_{i+1}) = R(z_i) * mask below the top
        below = inputs
        for i in range(self.spec.num_layers):
            r_out = self._rout[i]
            np.matmul(below, dirs[2 * i], out=r_out)
            np.add(r_out, dirs[2 * i + 1][..., None, :], out=r_out)
            if i > 0:
                r_out += self._rout[i - 1] @ segs[2 * i]
            if i < last:
                np.multiply(r_out, self._mask[i], out=r_out)
            below = self._out[i]

        # the softmax curvature turns R(logits) into R(delta_top)
        probs = self._out[last]
        r_signal = self._rout[last]
        r_signal -= np.sum(probs * r_signal, axis=-1, keepdims=True)
        r_signal *= probs
        r_signal *= 1.0 / self.shape[-2]
        signal = self._logit_signal(picks)
        out = np.empty((*self._lead, self.size))
        for i in range(last, -1, -1):
            below = inputs if i == 0 else self._out[i - 1]
            w_out, b_out = self._layer_views(out, i)
            np.matmul(np.swapaxes(below, -1, -2), r_signal, out=w_out)
            np.sum(r_signal, axis=-2, out=b_out)
            if i > 0:
                r_below = self._rout[i - 1]
                w_out += np.swapaxes(r_below, -1, -2) @ signal
                # R(a) and a below are spent: their buffers take R(delta) and delta
                np.matmul(r_signal, np.swapaxes(segs[2 * i], -1, -2), out=r_below)
                r_below += signal @ np.swapaxes(dirs[2 * i], -1, -2)
                np.multiply(r_below, self._mask[i - 1], out=r_below)
                np.matmul(signal, np.swapaxes(segs[2 * i], -1, -2), out=below)
                np.multiply(below, self._mask[i - 1], out=below)
                signal, r_signal = below, r_below
        return self._checked_output(out, "Hessian-vector product")

# ---------------------------------------------------------------------------
# differentiable path
# ---------------------------------------------------------------------------


def params_to_leaves(params: ParamVector) -> dict[str, Tensor]:
    """The parameter segments as differentiation roots, in layout order."""
    return {name: leaf(seg, name) for name, seg in params.segments().items()}


def forward_t(spec: NetSpec, tensors: Mapping[str, Tensor], inputs: np.ndarray) -> Tensor:
    """Traced forward pass: logits as a Tensor over the parameter leaves."""
    h: Tensor = constant(np.asarray(inputs, dtype=np.float64))
    if h.data.shape[1] != spec.input_dim:
        raise ShapeError(
            f"batch width {h.data.shape} does not match input_dim {spec.input_dim}")
    for i in range(spec.num_layers):
        h = add(matmul(h, tensors[f"W{i}"]), tensors[f"b{i}"])
        if i < spec.num_layers - 1:
            h = relu(h)
    return h


def cross_entropy_t(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Traced mean negative log-softmax of the true class."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.shape[0] == 0:
        raise ValueError("cross_entropy of an empty batch is undefined")
    per_example = add(logsumexp_rows(logits), neg(take_rows(logits, labels)))
    return mean(per_example)


def net_loss(spec: NetSpec, batch: Batch) -> LossFn:
    """Cross-entropy on `batch` as a function of named parameter tensors."""
    def loss_fn(tensors: Mapping[str, Tensor]) -> Tensor:
        return cross_entropy_t(forward_t(spec, tensors, batch.inputs), batch.labels)
    return loss_fn


def _assemble_gradient(layout: Layout, leaves: Mapping[str, Tensor],
                       cots: list[Tensor]) -> ParamVector:
    """Pack cotangents into a ParamVector, checking finiteness per segment."""
    segs: dict[str, np.ndarray] = {}
    for (name, _), cot in zip(layout, cots):
        if not np.all(np.isfinite(cot.data)):
            raise NumericalError(f"non-finite gradient in segment {name}")
        segs[name] = cot.data
    return ParamVector.from_segments(layout, segs)


def loss_and_grad(loss_fn: LossFn, params: ParamVector) -> tuple[float, ParamVector]:
    """Loss value and exact reverse-mode gradient in params' layout."""
    leaves = params_to_leaves(params)
    out = loss_fn(leaves)
    if not np.isfinite(out.data):
        raise NumericalError("loss evaluated to a non-finite value")
    ordered = [leaves[name] for name, _ in params.layout]
    cots = backward(out, ordered)
    return out.item(), _assemble_gradient(params.layout, leaves, cots)


def loss_and_grad_through_updates(
    outer_loss_fn: LossFn,
    params: ParamVector,
    inner_steps: int,
    inner_lr: float,
    inner_loss_fn: LossFn | None = None,
    first_order: bool = False,
) -> tuple[float, ParamVector]:
    """Outer loss at the adapted parameters and its gradient at the originals.

    The inner loop runs `inner_steps` plain gradient descent updates of the
    inner loss (defaults to the outer loss) at rate `inner_lr`; the outer
    loss is evaluated at the adapted parameters and differentiated back to
    the originals through the whole update chain. With `first_order=True`
    the inner gradients are detached, which collapses the chain's Jacobian
    to the identity, the classic first-order approximation. With zero
    steps, both variants reduce to `loss_and_grad(outer_loss_fn, params)`
    exactly.
    """
    if inner_steps < 0:
        raise ValueError("inner_steps must be nonnegative")
    inner_loss_fn = inner_loss_fn if inner_loss_fn is not None else outer_loss_fn
    leaves = params_to_leaves(params)
    ordered = [leaves[name] for name, _ in params.layout]
    current: dict[str, Tensor] = dict(leaves)
    step_rate = constant(float(inner_lr))
    for _ in range(inner_steps):
        inner_out = inner_loss_fn(current)
        if not np.isfinite(inner_out.data):
            raise NumericalError("inner loss evaluated to a non-finite value")
        inner_cots = backward(inner_out, [current[name] for name, _ in params.layout])
        if first_order:
            inner_cots = [c.detach() for c in inner_cots]
        current = {
            name: add(current[name], neg(mul(step_rate, cot)))
            for (name, _), cot in zip(params.layout, inner_cots)
        }
    out = outer_loss_fn(current)
    if not np.isfinite(out.data):
        raise NumericalError("outer loss evaluated to a non-finite value")
    cots = backward(out, ordered)
    return out.item(), _assemble_gradient(params.layout, leaves, cots)


def finite_diff_grad(loss_fn: LossFn, params: ParamVector, step: float = 1e-5) -> ParamVector:
    """Central-difference gradient oracle, one coordinate at a time."""
    if step <= 0:
        raise ValueError("step must be positive")

    def evaluate(flat: np.ndarray) -> float:
        probe = ParamVector(flat, params.layout)
        tensors = {name: constant(seg) for name, seg in probe.segments().items()}
        return loss_fn(tensors).item()

    base = params.values.copy()
    out = np.zeros_like(base)
    for i in range(base.size):
        hi = base.copy()
        lo = base.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (evaluate(hi) - evaluate(lo)) / (2.0 * step)
    return ParamVector(out, params.layout)

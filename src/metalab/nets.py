"""Parameter vectors, small feed-forward classifiers, and gradients.

A network is described by a `NetSpec` (dims; relu throughout) and a flat
`ParamVector` whose layout names each weight matrix and bias;
`layout_slices` is the one walk from a layout to its segments' flat slices.

The layer structure is written down twice, once in numpy and once on the
tape. `activations` is the one numpy forward pass, optionally stacked
over batches of one shape; `forward` (logits), `learners.Model.body_features`
and the kernel read from it. It stores each layer feature-major and
augmented: the inputs and every hidden layer as a C-contiguous
`(..., width + 1, n)` array whose last row is ones, the logits as
`(..., k, n)`, and hands out `(..., n, width)` transposed views, so the
softmax's row reductions and the backward walks run along the long row
axis. The layout stores each `W{i}` just before `b{i}`, so one flat
slice, computed once per spec, is `[W; b]` `(d_in + 1, d_out)` and each
layer is one GEMM `[W; b]^T @ [a; 1]`. Only this module names segments.

The kernel is three stateless functions, each one backward walk down
that pass writing each layer's block as one GEMM `[a; 1] @ signal^T`
into its slice of one fresh flat array: `cross_entropy_and_grad` (mean
cross-entropy and its gradient) and `cross_entropy_hvp` (a
Hessian-vector product by Pearlmutter's R-operator) behind every
training and adaptation gradient, `fisher_body_diagonal` (the body's
posterior-weighted Fisher diagonal) behind every task embedding.
`forward_t` is the traced pass on the autodiff tape (`metalab.autodiff`),
the oracle they are tested against; demo 01 shows it. The kernel and the
head refit share the one softmax, `softmax_cross_entropy` (with
`logit_signal`, its gradient at the logits); `cross_entropy_and_grad`
writes it already scaled by 1/n, its top signal (p - onehot)/n in one
pass, while the others need p itself.

Losses for the tape are callables over a dict of named parameter
`Tensor`s; `net_loss` builds the standard cross-entropy objective from a
spec and a batch. `loss_and_grad` runs one reverse pass,
`loss_and_grad_through_updates` differentiates through a chain of inner
gradient descent updates, and `finite_diff_grad` is the central-difference
oracle used to certify both. No library path calls the tape.

All arithmetic is float64; finite-difference tolerances need the headroom.
"""

from __future__ import annotations

import functools
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


def layout_slices(layout: Layout) -> list[tuple[str, slice, tuple[int, ...]]]:
    """(name, flat slice, shape) of each segment of `layout`, in layout order."""
    out, offset = [], 0
    for name, shape in layout:
        size = math.prod(shape)
        out.append((name, slice(offset, offset + size), tuple(shape)))
        offset += size
    return out


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
        for name, part, shape in layout_slices(self.layout):
            out[name] = self.values[part].reshape(shape)
            out[name].flags.writeable = False
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
    use here is classification. A dimension that is not an integer (a
    float or a bool) raises ValueError; numpy integers become ints.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    output_dim: int = 2

    def __post_init__(self):
        object.__setattr__(self, "input_dim", rng.integer(self.input_dim, "input_dim"))
        object.__setattr__(self, "hidden_dims", tuple(
            rng.integer(d, "hidden_dims") for d in self.hidden_dims))
        object.__setattr__(self, "output_dim", rng.integer(self.output_dim, "output_dim"))
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


@functools.cache
def _folds(spec: NetSpec) -> tuple[Layout, int, tuple[tuple[slice, int, int], ...]]:
    """`spec.layout()`, its size P, and each layer's `[W; b]` flat slice and 2-d shape.

    The slice runs from `W{i}`'s start to `b{i}`'s stop, `(d_in + 1, d_out)`
    with the bias its last row. Computed once per spec: every kernel call reads it.
    """
    layout = spec.layout()
    segs = layout_slices(layout)
    folds = tuple((slice(w.start, b.stop), shape[0] + 1, shape[1])
                  for (_, w, shape), (_, b, _) in zip(segs[0::2], segs[1::2]))
    return layout, segs[-1][1].stop, folds


def _split(flat: np.ndarray, folds: tuple[tuple[slice, int, int], ...]) -> list[np.ndarray]:
    """Each layer's `[W; b]` `(..., d_in + 1, d_out)` as a view of `flat` `(..., P)`."""
    return [flat[..., part].reshape(*flat.shape[:-1], rows, cols) for part, rows, cols in folds]


def _fresh_blocks(folds: tuple[tuple[slice, int, int], ...],
                  lead: tuple[int, ...]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A fresh `(*lead, end)` array, `end` the last fold's stop, and its `_split` views."""
    out = np.empty((*lead, folds[-1][0].stop))
    return out, _split(out, folds)


def _layers(spec: NetSpec, params: ParamVector | np.ndarray,
            lead: tuple[int, ...]) -> list[np.ndarray]:
    """Each layer's `[W; b]` `(..., d_in + 1, d_out)`, bias as last row: views of `params`.

    `params` is as in `activations`, with `lead` the inputs' leading shape.
    """
    layout, size, folds = _folds(spec)
    if isinstance(params, ParamVector):
        if params.layout != layout:
            raise ShapeError(
                f"parameter layout {params.layout} does not match spec layout {layout}")
        params = params.values
    flat = np.asarray(params, dtype=np.float64)
    if flat.shape[-1:] != (size,) or flat.shape[:-1] not in ((), lead):
        raise ShapeError(
            f"parameters of shape {flat.shape} do not fit {size} per batch "
            f"over leading shape {lead}")
    return _split(flat, folds)


def activations(spec: NetSpec, params: ParamVector | np.ndarray,
                inputs: np.ndarray) -> list[np.ndarray]:
    """Every layer's output on `inputs` `(..., n, input_dim)`: the one plain forward pass.

    Leading axes of `inputs`, if any, stack independent batches of one
    shape (the episodes of a meta-batch). `params` is a `ParamVector`, or
    a flat array in `spec.layout()` order: `(P,)`, shared by every batch,
    or `(..., P)`, one vector per batch. Returns `inputs` (as float64),
    then each layer's output `(..., n, width)` in order: rectified
    (`np.maximum(z, 0)`) below the top layer, raw logits at the top. So
    `[-1]` is the logits and `[-2]` the features entering the head. Each
    layer is a transposed view of `_outputs`' fresh feature-major array:
    writing to it writes there.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    outs = _outputs(spec, _layers(spec, params, inputs.shape[:-2]), inputs)
    return [inputs] + [np.swapaxes(h[..., :width, :], -1, -2)
                       for h, width in zip(outs[1:], spec.dims[1:])]


def _outputs(spec: NetSpec, layers: list[np.ndarray], inputs: np.ndarray) -> list[np.ndarray]:
    """The pass behind `activations`, over `_layers` views and float64 `inputs`.

    Feature-major and augmented: `inputs` and each hidden layer as a fresh
    C-contiguous `(..., width + 1, n)` array whose last row is ones, so each
    layer is the one GEMM `[W; b]^T @ [a; 1]`, bias included, and the
    logits as a fresh `(..., output_dim, n)` array with no extra row.
    """
    if inputs.ndim < 2 or inputs.shape[-1] != spec.input_dim:
        raise ShapeError(
            f"batch shape {inputs.shape} does not end in input_dim {spec.input_dim}")
    lead, n = inputs.shape[:-2], inputs.shape[-2]
    a = np.empty((*lead, spec.input_dim + 1, n))
    a[..., :-1, :] = np.swapaxes(inputs, -1, -2)
    a[..., -1, :] = 1.0
    out = [a]
    for wb in layers[:-1]:
        h = np.empty((*lead, wb.shape[-1] + 1, n))
        np.matmul(np.swapaxes(wb, -1, -2), out[-1], out=h[..., :-1, :])
        h[..., -1, :] = 1.0
        np.maximum(h, 0.0, out=h)  # the ones row stays
        out.append(h)
    out.append(np.swapaxes(layers[-1], -1, -2) @ out[-1])
    return out


def forward(spec: NetSpec, params: ParamVector | np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Logits of the network on `inputs` `(..., n, input_dim)`: `activations(...)[-1]`."""
    return activations(spec, params, inputs)[-1]


# ---------------------------------------------------------------------------
# the softmax cross-entropy, and the training kernel over `activations`
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray | None = None,
                          scale: float = 1.0
                          ) -> tuple[np.ndarray, tuple[np.ndarray, ...]] | tuple[None, None]:
    """Per-batch mean cross-entropy of float64 `logits` `(..., n, k)`; leaves the softmax there.

    Shift-stabilized: exp(z - max z), its row sums s, the softmax as that
    times the reciprocal 1/s, log-sum-exp = log s + max z. With `scale`,
    what is written is the softmax times `scale`, in the same one pass
    (times (1/s)*scale). `logits` may be any strided view (the transposed
    views of `activations` are); the softmax is written through it. With
    `labels` `(..., n)`, which the caller keeps in `[0, k)`, returns the
    loss (shape `...`) and `picks`, the index tuple of the true-class
    entries (`logits[picks]` has the labels' shape), for `logit_signal`;
    a non-finite loss raises `NumericalError`. Without labels it returns
    `(None, None)`, and the caller checks the softmax.
    """
    if logits.ndim < 2:
        raise ShapeError(f"logits must be at least 2-d, got {logits.shape}")
    n = logits.shape[-2]
    if labels is not None:
        if labels.shape != logits.shape[:-1]:
            raise ShapeError(
                f"labels of shape {labels.shape} do not match logits of shape {logits.shape}")
        if n == 0:
            raise ValueError("cross_entropy of an empty batch is undefined")
        picks = (*np.indices(labels.shape, sparse=True), labels)
        picked = logits[picks]
    shift = logits.max(axis=-1, keepdims=True)
    logits -= shift
    np.exp(logits, out=logits)
    sumexp = logits.sum(axis=-1)
    logits *= ((1.0 / sumexp) * scale)[..., None]
    if labels is None:
        return None, None
    per_row = np.log(sumexp) + shift[..., 0] - picked
    loss = per_row.sum(axis=-1) * (1.0 / n)
    if not np.all(np.isfinite(loss)):
        raise NumericalError("loss evaluated to a non-finite value")
    return loss, picks


def logit_signal(probs: np.ndarray, picks: tuple[np.ndarray, ...]) -> np.ndarray:
    """d loss / d logits = (softmax - one-hot labels) / n, built in place of the softmax.

    `picks` is the index tuple from `softmax_cross_entropy`, so the -1 at
    each true class lands in `probs` whatever its memory order; 1/n is one
    reciprocal multiply. The training kernel writes the same signal in one
    pass instead, from a softmax already scaled by 1/n.
    """
    probs[picks] -= 1.0
    probs *= 1.0 / probs.shape[-2]
    return probs


def _checked_batch(spec: NetSpec, inputs: np.ndarray,
                   labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`inputs` and `labels` as float64/int64.

    An empty batch or a label outside `[0, output_dim)` raises ValueError.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if inputs.ndim >= 2 and inputs.shape[-2] == 0:
        raise ValueError("cross_entropy of an empty batch is undefined")
    if labels.size and (labels.min() < 0 or labels.max() >= spec.output_dim):
        raise ValueError(
            f"labels outside [0, {spec.output_dim}) for logits width {spec.output_dim}")
    return inputs, labels


def _checked(spec: NetSpec, out: np.ndarray, what: str) -> np.ndarray:
    """`out` `(..., P)` if finite; else `NumericalError` naming its first non-finite segment."""
    if not np.all(np.isfinite(out)):
        for name, part, _ in layout_slices(spec.layout()):
            if not np.all(np.isfinite(out[..., part])):
                raise NumericalError(f"non-finite {what} in segment {name}")
    return out


def _hidden_masks(acts: list[np.ndarray]) -> list[np.ndarray]:
    """The rectifier's pattern `a > 0` of each hidden layer of `_outputs`, ones row left out."""
    return [a[..., :-1, :] > 0.0 for a in acts[1:-1]]


def cross_entropy_and_grad(spec: NetSpec, flat: np.ndarray, inputs: np.ndarray,
                           labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-batch mean cross-entropy of the network at `flat`, and its gradient.

    `inputs` `(..., n, input_dim)` and `labels` `(..., n)` stack independent
    batches of one shape along their leading axes, if any; `flat` is as in
    `activations`. Returns the loss with shape `...` (0-d when unstacked)
    and a fresh gradient `(..., P)`. The arithmetic is that of `net_loss`
    under `loss_and_grad`: the same stabilized log-sum-exp, the rectifier's
    derivative as a multiplication by its mask, and the mean as a sum
    times 1/n. A non-finite loss or gradient segment raises
    `NumericalError`.
    """
    inputs, labels = _checked_batch(spec, inputs, labels)
    lead = inputs.shape[:-2]
    layers = _layers(spec, flat, lead)
    # feature-major throughout: acts[i] is [a_i; 1] (..., width + 1, n)
    acts = _outputs(spec, layers, inputs)
    masks = _hidden_masks(acts)
    inv_n = 1.0 / inputs.shape[-2]
    logits = np.swapaxes(acts[-1], -1, -2)
    # the top signal (softmax - one-hot)/n: the softmax written already
    # scaled by 1/n, then 1/n off at each true class
    loss, picks = softmax_cross_entropy(logits, labels, scale=inv_n)
    logits[picks] -= inv_n
    signal = acts[-1]
    grad, blocks = _fresh_blocks(_folds(spec)[2], lead)
    for i in range(spec.num_layers - 1, -1, -1):
        # [gW; gb] = [a; 1] signal^T, straight into the gradient's slice
        np.matmul(acts[i], np.swapaxes(signal, -1, -2), out=blocks[i])
        if i > 0:
            # the outputs below are spent: their array takes the signal
            signal = np.matmul(layers[i][..., :-1, :], signal, out=acts[i][..., :-1, :])
            signal *= masks[i - 1]
    return loss, _checked(spec, grad, "gradient")


def cross_entropy_hvp(spec: NetSpec, flat: np.ndarray, vec: np.ndarray, inputs: np.ndarray,
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

    `flat` and `vec` are each `(P,)` or `(..., P)`, and the batch as in
    `cross_entropy_and_grad`. Returns a fresh `(..., P)` array; a
    non-finite loss or product segment raises `NumericalError`.
    """
    inputs, labels = _checked_batch(spec, inputs, labels)
    lead = inputs.shape[:-2]
    layers = _layers(spec, flat, lead)
    dirs = _layers(spec, vec, lead)
    # feature-major and augmented throughout, as in `cross_entropy_and_grad`
    acts = _outputs(spec, layers, inputs)
    masks = _hidden_masks(acts)
    logits = np.swapaxes(acts[-1], -1, -2)
    _, picks = softmax_cross_entropy(logits, labels)
    last = spec.num_layers - 1
    # r_acts[i] is R(z_i), masked below the top into R(a_{i+1})
    r_acts: list[np.ndarray] = []
    for i, v in enumerate(dirs):
        r_out = np.swapaxes(v, -1, -2) @ acts[i]
        if i > 0:
            r_out += np.swapaxes(layers[i][..., :-1, :], -1, -2) @ r_acts[-1]
        if i < last:
            r_out *= masks[i]
        r_acts.append(r_out)

    # the softmax curvature turns R(logits) into R(delta_top)
    probs = acts[-1]
    r_signal = r_acts[last]
    r_signal -= np.sum(probs * r_signal, axis=-2, keepdims=True)
    r_signal *= probs
    r_signal *= 1.0 / inputs.shape[-2]
    logit_signal(logits, picks)
    signal = probs
    out, blocks = _fresh_blocks(_folds(spec)[2], lead)
    for i in range(last, -1, -1):
        np.matmul(acts[i], np.swapaxes(r_signal, -1, -2), out=blocks[i])
        if i > 0:
            blocks[i][..., :-1, :] += r_acts[i - 1] @ np.swapaxes(signal, -1, -2)
            # R(a) and a below are spent: their arrays take R(delta) and delta
            w = layers[i][..., :-1, :]
            r_signal = np.matmul(w, r_signal, out=r_acts[i - 1])
            r_signal += dirs[i][..., :-1, :] @ signal
            r_signal *= masks[i - 1]
            signal = np.matmul(w, signal, out=acts[i][..., :-1, :])
            signal *= masks[i - 1]
    return _checked(spec, out, "Hessian-vector product")


def fisher_body_diagonal(spec: NetSpec, flat: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """The body's exact posterior-weighted Fisher information diagonal, per batch.

    Task2Vec's (Achille et al. 2019, arXiv 1902.03545): the batch mean of
    sum_c p_c g_c^2 over the posterior p, g_c = d log p(c | x) / d theta,
    in closed form. With W the head's weights `(h, k)`, the class-indexed
    signal at the head input is s_c = (W^T[c] - W p) * mask `(..., k, h, n)`;
    each body layer's `[W; b]` block is the one GEMM
    `[a; 1]^2 @ (sum_c p_c s_c^2)^T / n`; the signal goes down a layer as
    `W @ s` times the mask below.

    `flat` and `inputs` are as in `activations`; no labels enter. Returns a
    fresh `(..., head start)` array of the body's entries in layout order.
    A spec with no hidden layer raises ValueError; a non-finite posterior
    or entry raises `NumericalError`.
    """
    if spec.num_layers < 2:
        raise ValueError("the body's Fisher information needs at least one hidden layer")
    inputs = np.asarray(inputs, dtype=np.float64)
    lead = inputs.shape[:-2]
    layers = _layers(spec, flat, lead)
    acts = _outputs(spec, layers, inputs)
    masks = _hidden_masks(acts)
    probs = acts[-1]
    softmax_cross_entropy(np.swapaxes(probs, -1, -2))  # the logits become the posterior
    if not np.all(np.isfinite(probs)):
        raise NumericalError("non-finite posterior")
    out, blocks = _fresh_blocks(_folds(spec)[2][:-1], lead)  # every layer but the head
    w = layers[-1][..., :-1, :]
    signal = np.swapaxes(w, -1, -2)[..., None] - (w @ probs)[..., None, :, :]
    for i in range(spec.num_layers - 2, -1, -1):
        # the signal at layer i's output; its 0/1 mask goes on the sum of squares
        weighted = np.einsum("...chn,...chn,...cn->...hn", signal, signal, probs)
        weighted *= masks[i]
        np.matmul(acts[i] * acts[i], np.swapaxes(weighted, -1, -2), out=blocks[i])
        blocks[i] /= inputs.shape[-2]
        if i > 0:
            signal *= masks[i][..., None, :, :]
            signal = layers[i][..., None, :-1, :] @ signal
    return _checked(spec, out, "Fisher information")

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

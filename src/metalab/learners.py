"""Training and evaluation: bilevel meta-learning vs union pre-training.

Two training regimes share one architecture and one initialization stream:

- `train_pt` runs plain supervised descent on the union of a benchmark's
  train classes under global labels (the pre-training baseline);
- `train_maml` runs episodic bilevel descent, adapting on each episode's
  support set in an inner loop and descending the query loss through
  (higher-order) or around (first-order) the inner updates.

Both evaluate at meta-test through `meta_test`: pre-trained bodies are
frozen and get a freshly fitted per-task head (`fit_head`); meta-learned
models take a few full-parameter descent steps on the support set, every
episode's support stacked into one descent (`adapt` is that descent on
one episode). Both train through one loop, `_train` (fixed-rate gradient
descent, windowed-plateau stop), so runs are reproducible to the bit.
`train_pt` can also hand back the run at an earlier cap, taken on the
way (`prefix_epochs`), so a shorter run of the same config is not
trained again.

Every gradient runs on the closed-form numpy kernel `nets.MLPKernel`,
built once per call with its buffers: `train_pt` (one full-batch call per
epoch), `train_maml`, `adapt` and `meta_test`. MAML's inner loop is
written once, `_descend`, and both MAML orders share `_meta_gradients`:
each meta-batch is stacked into `(B, n, d)` arrays, so each inner step
and the query gradient are one kernel call each, and the higher-order
method adds a reverse sweep of `MLPKernel.hvp` calls. The meta-test
supports are stacked the same way, one kernel call per adaptation step.
Plain forward passes (features for the head, logits for accuracy) come
from `nets.activations`. The head refit and `episodic_vs_union_loss` use
their own closed-form Newton solve. No path here runs the autodiff tape;
it is the oracle the tests check these paths against.

The head refit is the L2-penalized logistic-regression head of Tian et
al. 2020 ("Rethinking Few-Shot Image Classification", arXiv 2003.11539):
it minimizes mean cross-entropy + (HEAD_L2/2)*||[W; b]||^2, bias included,
by damped Newton until max|grad| <= HEAD_TOL. The penalty makes the optimum
finite and unique even on separable 5-shot supports, so every refit is
trained to convergence, and one that is not raises `NumericalError`.

`episodic_vs_union_loss` is the executable form of the bound that the best
union model upper-bounds episodic performance: per-task optimal heads are
warm-started from the global head's row restriction, which makes the
inequality hold by monotone descent rather than by hoping for convergence.
Those per-task fits are unregularized (`l2=0.0`): the bound compares plain
cross-entropies, and descent on a penalized objective could raise the
cross-entropy while lowering the penalty.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from metalab.nets import (
    Batch,
    MLPKernel,
    NetSpec,
    NumericalError,
    ParamVector,
    activations,
    cross_entropy,
    forward,
    layout_slices,
)
from metalab.stats import ci95_halfwidth
from metalab.tasks import Benchmark, FewShotTask, sample_task, union_dataset

PLATEAU_WINDOW = 20
HEAD_L2 = 1e-2      # L2 penalty of the head refit, bias row included
HEAD_TOL = 1e-8     # the head refit stops at max|grad J| <= HEAD_TOL
HEAD_MAX_ITER = 100  # Newton rounds the head refit may take to reach HEAD_TOL
ARMIJO = 1e-4       # sufficient-decrease fraction of the head line search
MIN_STEP = 1e-10    # line-search step below which the head fit gives up


class TrainingError(RuntimeError):
    """Training diverged or was misconfigured."""


def _integer(value, what: str) -> int:
    """`value` as an int; a bool, a float or any other non-integer raises ValueError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class Model:
    """A network spec plus its flat parameters.

    `head_boundary` is the flat index where the final layer's parameters
    start; everything before it is the body (the frozen feature extractor
    in head-refit evaluation).
    """

    spec: NetSpec
    params: ParamVector

    def __post_init__(self):
        if self.params.layout != self.spec.layout():
            raise ValueError("parameter layout does not match spec")

    @property
    def head_boundary(self) -> int:
        w_name, _ = self.spec.head_names()
        return next(part.start for name, part, _ in layout_slices(self.params.layout)
                    if name == w_name)

    def body_values(self) -> np.ndarray:
        return self.params.values[: self.head_boundary]

    def head(self) -> tuple[np.ndarray, np.ndarray]:
        """The final layer's weight and bias, as read-only views."""
        w_name, b_name = self.spec.head_names()
        views = self.params.views()
        return views[w_name], views[b_name]

    def body_features(self, inputs: np.ndarray) -> np.ndarray:
        """Activations entering the head (identity for a single layer)."""
        return activations(self.spec, self.params, inputs)[-2]


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the benchmark.

    `method` picks the regime ("pt", "fo_maml", "ho_maml"). `meta_batch`
    is the number of episodes per outer step during episodic training.
    Stopping: the run ends when the relative improvement of the train loss
    over a sliding window of PLATEAU_WINDOW evaluations drops below
    `convergence_tol`, or at `max_epochs`. Episode shape defaults to
    5-way 5-shot with 15 queries. Hidden widths, the episode shape, every
    count, the seed, the rates and the tolerance are checked here, so a
    bad one fails before training; a count or seed that is not an integer
    (a float or a bool) is refused, not truncated.
    """

    method: str
    outer_lr: float = 0.2
    inner_lr: float = 0.05
    inner_steps_train: int = 5
    meta_batch: int = 8
    max_epochs: int = 300
    convergence_tol: float = 1e-4
    seed: int = 0
    hidden_dims: tuple[int, ...] = (32,)
    n_way: int = 5
    k_shot: int = 5
    q_query: int = 15
    examples_per_class: int = 20

    def __post_init__(self):
        if self.method not in ("pt", "fo_maml", "ho_maml"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("inner_steps_train", "meta_batch", "max_epochs", "seed", "n_way",
                     "k_shot", "q_query", "examples_per_class"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "hidden_dims", tuple(
            _integer(h, "hidden_dims") for h in self.hidden_dims))
        if not all(math.isfinite(lr) and lr > 0 for lr in (self.outer_lr, self.inner_lr)):
            raise ValueError("learning rates must be finite and positive")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol >= 0):
            raise ValueError("convergence_tol must be finite and nonnegative")
        if min(self.inner_steps_train, self.max_epochs, self.seed) < 0:
            raise ValueError("inner_steps_train, max_epochs and seed must be nonnegative")
        if min(self.meta_batch, self.examples_per_class) < 1:
            raise ValueError("meta_batch and examples_per_class must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be positive widths, got {self.hidden_dims}")
        if self.n_way < 2:
            raise ValueError(f"n_way must be at least 2, got {self.n_way}")
        if self.k_shot < 1 or self.q_query < 1:
            raise ValueError(f"k_shot and q_query must be positive, got "
                             f"{self.k_shot} and {self.q_query}")


@dataclass(frozen=True)
class TrainResult:
    """Final model, per-epoch train loss curve, and stop diagnostics.

    `prefix` is the same run stopped at an earlier cap, when one was asked
    for (`train_pt`'s `prefix_epochs`), else None.
    """

    model: Model
    loss_curve: tuple[float, ...]
    converged: bool
    prefix: TrainResult | None = None

    @property
    def epochs_run(self) -> int:
        """Epochs trained: each one adds exactly one loss to the curve."""
        return len(self.loss_curve)


@dataclass(frozen=True)
class EvalResult:
    """Per-task meta-test accuracies with their normal-approximation CI."""

    per_task_accuracy: tuple[float, ...]
    mean: float
    ci95_halfwidth: float
    meta_batch: int

    def __post_init__(self):
        accs = tuple(float(a) for a in self.per_task_accuracy)
        object.__setattr__(self, "per_task_accuracy", accs)
        if len(accs) != self.meta_batch:
            raise ValueError("meta_batch must equal the number of accuracies")
        if accs and abs(self.mean - float(np.mean(accs))) > 1e-12:
            raise ValueError("mean must be the average of per_task_accuracy")

    @classmethod
    def from_accuracies(cls, accs: Sequence[float]) -> "EvalResult":
        accs = tuple(float(a) for a in accs)
        n = len(accs)
        mean = float(np.mean(accs))
        half = ci95_halfwidth(accs) if n >= 2 else 0.0
        return cls(per_task_accuracy=accs, mean=mean, ci95_halfwidth=half, meta_batch=n)


def _plateaued(curve: list[float], tol: float) -> bool:
    """Window-averaged train loss stopped improving.

    Compares the mean of the last PLATEAU_WINDOW evaluations against the
    mean of the window before it; averaging keeps episodic sampling noise
    from tripping the stop early.
    """
    if len(curve) < 2 * PLATEAU_WINDOW:
        return False
    prev = float(np.mean(curve[-2 * PLATEAU_WINDOW:-PLATEAU_WINDOW]))
    last = float(np.mean(curve[-PLATEAU_WINDOW:]))
    return (prev - last) / max(abs(prev), 1e-12) < tol


def _train(spec: NetSpec, config: TrainConfig, leg: str,
           objective: Callable[[int, ParamVector], tuple],
           prefix_epochs: int | None = None) -> TrainResult:
    """Descend from `spec.init(config.seed)` until `_plateaued` or `max_epochs`.

    `objective(epoch, params)` returns per-item losses and their gradient
    sum; the curve gains their mean, the step is `outer_lr * sum / count`,
    and a `NumericalError` becomes `TrainingError("<leg> diverged ...")`.

    With `prefix_epochs` = k, the result's `prefix` is the run as a cap of
    k epochs would have returned it, bit for bit: the state after epoch k,
    or the final run if the plateau stopped it by then.
    """
    if prefix_epochs is not None and not 0 <= prefix_epochs <= config.max_epochs:
        raise ValueError(f"prefix_epochs {prefix_epochs} lies outside "
                         f"[0, max_epochs={config.max_epochs}]")

    def result(params: ParamVector, curve: list[float]) -> TrainResult:
        return TrainResult(model=Model(spec, params), loss_curve=tuple(curve),
                           converged=_plateaued(curve, config.convergence_tol))

    params = spec.init(config.seed)
    curve: list[float] = []
    prefix = None
    for epoch in range(1, config.max_epochs + 1):
        if epoch - 1 == prefix_epochs:
            prefix = result(params, curve)
        try:
            losses, grad_sum = objective(epoch, params)
        except NumericalError as err:
            raise TrainingError(f"{leg} diverged at epoch {epoch}: {err}") from err
        total = 0.0
        for loss in losses:
            total += float(loss)
        params = ParamVector(
            params.values - config.outer_lr * grad_sum / len(losses), params.layout)
        curve.append(total / len(losses))
        if _plateaued(curve, config.convergence_tol):
            break
    final = result(params, curve)
    if prefix_epochs is None:
        return final
    return dataclasses.replace(final, prefix=final if prefix is None else prefix)


def train_pt(benchmark: Benchmark, config: TrainConfig,
             prefix_epochs: int | None = None) -> TrainResult:
    """Supervised descent on the union dataset under global labels.

    The head spans every global class of the benchmark; classes outside the
    train split simply never occur. Full-batch gradient descent at
    `outer_lr` until plateau or `max_epochs` (`_train`). With
    `prefix_epochs` = k <= `max_epochs`, the result's `prefix` is bitwise
    `train_pt(benchmark, replace(config, max_epochs=k))`, taken on the way.
    """
    if config.method != "pt":
        raise ValueError(f"train_pt requires method 'pt', got {config.method!r}")
    spec = NetSpec(benchmark.input_dim, config.hidden_dims, benchmark.total_classes)
    data = union_dataset(benchmark, "train", config.examples_per_class, config.seed)
    kernel = MLPKernel(spec, data.inputs.shape)

    def full_batch(epoch: int, params: ParamVector):
        value, g = kernel.loss_and_grad(params.values, data.inputs, data.labels)
        return [value], g

    return _train(spec, config, "pre-training", full_batch, prefix_epochs)


def train_maml(benchmark: Benchmark, config: TrainConfig) -> TrainResult:
    """Episodic bilevel descent (first- or higher-order outer gradients).

    Each outer step samples `meta_batch` train episodes, adapts on each
    support set for `inner_steps_train` steps at `inner_lr`, and descends
    the mean query loss at `outer_lr` (`_train`). The higher-order method
    differentiates through the inner updates; the first-order method
    detaches them. Episode draws come from the ("episode", epoch, index)
    streams of `config.seed`, so trajectories are reproducible.
    """
    if config.method not in ("fo_maml", "ho_maml"):
        raise ValueError(f"train_maml requires a maml method, got {config.method!r}")
    spec = NetSpec(benchmark.input_dim, config.hidden_dims, config.n_way)
    kernels = tuple(
        MLPKernel(spec, (config.meta_batch, config.n_way * rows, benchmark.input_dim))
        for rows in (config.k_shot, config.q_query))

    def meta_batch(epoch: int, params: ParamVector):
        tasks = [sample_task(benchmark, "train", config.n_way, config.k_shot,
                             config.q_query, (config.seed, epoch, j))
                 for j in range(config.meta_batch)]
        values, per_task = _meta_gradients(
            kernels, params, tasks, config.inner_steps_train, config.inner_lr,
            higher_order=config.method == "ho_maml")
        return values, per_task.sum(axis=0)

    return _train(spec, config, "meta-training", meta_batch)


def _stacked(batches: Sequence[Batch]) -> tuple[np.ndarray, np.ndarray]:
    """Inputs `(B, n, d)` and labels `(B, n)` of B batches of one shape."""
    return np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches])


def _descend(kernel: MLPKernel, flat: np.ndarray, inputs: np.ndarray, labels: np.ndarray,
             steps: int, lr: float) -> list[np.ndarray]:
    """Plain gradient descent on the kernel's loss: `flat`, then each of `steps` iterates.

    theta_{k+1} = theta_k - lr * grad(theta_k) from theta_0 = `flat`, in
    `(P,)` or stacked `(B, P)` arrays. The inner loop of MAML, in training
    (`_meta_gradients`) and at test time (`_adapted_models`). The kernel
    checks every loss and gradient for finiteness, since the iterates never
    become `ParamVector`s.
    """
    iterates = [flat]
    for _ in range(steps):
        _, g = kernel.loss_and_grad(iterates[-1], inputs, labels)
        iterates.append(iterates[-1] - lr * g)
    return iterates


def _meta_gradients(kernels: tuple[MLPKernel, MLPKernel], params: ParamVector,
                    tasks: Sequence[FewShotTask], steps: int, lr: float,
                    higher_order: bool) -> tuple[np.ndarray, np.ndarray]:
    """Query losses `(B,)` and meta-gradients `(B, P)`, episodes stacked.

    The B episodes' support and query sets are stacked into `(B, n, d)`
    arrays, so each inner step (`_descend`) and the query gradient are one
    kernel call each. With support loss S, query loss Q and iterates
    theta_0 = `params`, ..., theta_K after K inner steps (MAML: Finn et al.
    2017, arXiv 1703.03400):

    - first-order: the meta-gradient is v_K = grad Q(theta_K), the query
      gradient at the adapted parameters;
    - higher-order: the chain rule through the inner steps is a reverse
      sweep of Hessian-vector products with the support Hessian H_S,

          v_k = v_{k+1} - lr * H_S(theta_k) v_{k+1}   for k = K-1, ..., 0,

      one `MLPKernel.hvp` call per step, and the meta-gradient is v_0.

    The kernels check every loss, gradient and product for finiteness; a
    non-finite meta-gradient left by the sweep raises `NumericalError` too.
    """
    support_kernel, query_kernel = kernels
    inputs, labels = _stacked([t.support for t in tasks])
    iterates = _descend(support_kernel, params.values, inputs, labels, steps, lr)
    values, v = query_kernel.loss_and_grad(iterates.pop(), *_stacked([t.query for t in tasks]))
    if higher_order:
        for theta in reversed(iterates):
            v = v - lr * support_kernel.hvp(theta, v, inputs, labels)
        if not np.all(np.isfinite(v)):
            raise NumericalError("non-finite meta-gradient after the Hessian-vector sweep")
    return values, v


def adapt(model: Model, support: Batch, steps: int, lr: float) -> Model:
    """Full-parameter descent on the support cross-entropy, exactly `steps`.

    The stacked descent of `meta_test` run on one episode. The input model
    is untouched; zero steps return it itself, and zero rate its parameters
    bit-for-bit. A non-finite loss or gradient on the way raises
    `NumericalError`.
    """
    return _adapted_models(model, [support], steps, lr)[0]


def _head_objective(xa: np.ndarray, onehot: np.ndarray, wa: np.ndarray,
                    l2: float) -> tuple[float, np.ndarray]:
    """J = mean cross-entropy + (l2/2)*||wa||^2 at `wa`, and the softmax."""
    scores = xa @ wa
    shifted = scores - scores.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    logp = shifted - logz[:, None]
    value = -float(np.mean((logp * onehot).sum(axis=1))) + 0.5 * l2 * float(np.sum(wa * wa))
    return value, np.exp(logp)


def _logistic_head_fit(features: np.ndarray, labels: np.ndarray, n_classes: int,
                       init: tuple[np.ndarray, np.ndarray] | None,
                       l2: float) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton descent on L2-regularized multinomial logistic regression.

    Minimizes J(wa) = mean cross-entropy + (l2/2)*||wa||^2 over the stacked
    head wa = [W; b], bias row included. With l2 > 0 the Hessian is
    positive definite, so the optimum is unique and Newton converges to it
    quadratically. Each round builds the dense (f+1)*k Hessian, solves for
    the Newton direction and backtracks (Armijo) on J, so every accepted
    step lowers J. The fit stops when max|grad J| <= HEAD_TOL.

    At l2 > 0, reaching HEAD_MAX_ITER above HEAD_TOL (or a line search that
    can no longer lower J) raises `NumericalError`. At l2 == 0 the optimum of
    a separable support lies at infinity and the softmax gauge makes the
    Hessian singular, so a tiny relative ridge keeps the solve defined and
    stopping at the cap (or on a stalled line search) returns the last
    iterate normally: it is the best J reached by monotone descent.
    """
    n, f = features.shape
    dim = (f + 1) * n_classes
    xa = np.hstack([features, np.ones((n, 1))])
    outer = np.einsum("ra,rb->rab", xa, xa)
    if init is None:
        wa = np.zeros((f + 1, n_classes))
    else:
        w0, b0 = init
        wa = np.vstack([np.asarray(w0, dtype=np.float64),
                        np.asarray(b0, dtype=np.float64)[None, :]])
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    eye = np.eye(n_classes)
    value, probs = _head_objective(xa, onehot, wa, l2)
    diag = np.arange(dim)
    iterations = 0
    while True:
        g = xa.T @ (probs - onehot) / n + l2 * wa
        gmax = float(np.abs(g).max())
        if gmax <= HEAD_TOL or iterations == HEAD_MAX_ITER:
            break
        curvature = probs[:, :, None] * (eye[None] - probs[:, None, :])
        hess = np.tensordot(outer, curvature, axes=(0, 0)).transpose(0, 2, 1, 3)
        hess = hess.reshape(dim, dim) / n
        hess[diag, diag] += l2 if l2 > 0 else 1e-12 * float(hess[diag, diag].max())
        step = -np.linalg.solve(hess, g.ravel()).reshape(wa.shape)
        slope = float(g.ravel() @ step.ravel())
        t = 1.0
        while t >= MIN_STEP:
            cand = wa + t * step
            cand_value, cand_probs = _head_objective(xa, onehot, cand, l2)
            if cand_value <= value + ARMIJO * t * slope:
                break
            t *= 0.5
        else:  # no step lowers J by the Armijo fraction: the solve has stalled
            break
        wa, value, probs = cand, cand_value, cand_probs
        iterations += 1
    if gmax > HEAD_TOL and l2 > 0:
        raise NumericalError(
            f"head fit stopped after {iterations} Newton iterations with "
            f"max|grad J| = {gmax:.3g} above tol {HEAD_TOL:g}")
    return wa[:-1], wa[-1]


def fit_head(model: Model, support: Batch, n_classes: int | None = None,
             init_head: tuple[np.ndarray, np.ndarray] | None = None,
             l2: float = HEAD_L2) -> Model:
    """Freeze the body and refit a fresh L2-regularized logistic-regression head.

    The head minimizes mean support cross-entropy + (l2/2)*||[W; b]||^2 on
    the body's features, solved by damped Newton until max|grad| <= HEAD_TOL
    (see `_logistic_head_fit`). The default `l2=HEAD_L2` makes the optimum
    finite and unique even on separable supports, and a fit that does not
    reach HEAD_TOL within HEAD_MAX_ITER Newton rounds raises
    `NumericalError`. `l2=0.0` fits the plain multinomial-logistic head; on
    a separable support its optimum is at infinity, so reaching
    HEAD_MAX_ITER there is expected and returns the last iterate.

    The head width defaults to the number of label values in `support`.
    `init_head` warm-starts the fit (used by the episodic-vs-union bound,
    where starting at the global head's restriction makes monotonicity do
    the proving); the default zero start is the deterministic baseline.
    """
    if len(support) == 0:
        raise ValueError("fit_head needs a nonempty support set")
    labels = support.labels
    width = int(labels.max()) + 1 if n_classes is None else int(n_classes)
    if width < 2:
        raise ValueError("head needs at least 2 classes")
    features = model.body_features(support.inputs)
    w, b = _logistic_head_fit(features, labels, width, init_head, l2)
    new_spec = NetSpec(model.spec.input_dim, model.spec.hidden_dims, width)
    flat = np.concatenate([model.body_values(), w.ravel(), b])
    return Model(new_spec, ParamVector(flat, new_spec.layout()))


def _accuracy(model: Model, batch: Batch) -> float:
    logits = forward(model.spec, model.params, batch.inputs)
    return float(np.mean(np.argmax(logits, axis=1) == batch.labels))


def meta_test(model: Model, method: str, tasks: Sequence[FewShotTask],
              steps: int = 5, lr: float = 0.05) -> EvalResult:
    """Per-task adaptation and query accuracy over a batch of episodes.

    `method` is "pt_head_refit" (freeze body, refit head on support) or
    "maml_adapt" (`steps` full-parameter descent steps at `lr` on support).
    "maml_adapt" stacks the supports, which must share one shape, into one
    descent: `steps` kernel calls in all, each episode's iterate bitwise
    that of `adapt` on it alone. Results are order-independent per task,
    so the accuracy vector permutes with `tasks`.
    """
    if not tasks:
        raise ValueError("meta_test needs at least one task")
    if method == "pt_head_refit":
        adapted = [fit_head(model, task.support) for task in tasks]
    elif method == "maml_adapt":
        adapted = _adapted_models(model, [task.support for task in tasks], steps, lr)
    else:
        raise ValueError(f"unknown meta_test method {method!r}")
    return EvalResult.from_accuracies(
        [_accuracy(m, task.query) for m, task in zip(adapted, tasks)])


def _adapted_models(model: Model, supports: Sequence[Batch], steps: int,
                    lr: float) -> list[Model]:
    """`model` after `steps` descent steps on each support, all in one stacked descent."""
    shapes = sorted({support.inputs.shape for support in supports})
    if len(shapes) > 1:
        raise ValueError(f"stacked adaptation needs supports of one shape, got {shapes}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0:
        return [model] * len(supports)
    inputs, labels = _stacked(supports)
    kernel = MLPKernel(model.spec, inputs.shape)
    try:
        flats = _descend(kernel, model.params.values, inputs, labels, steps, lr)[-1]
    except NumericalError as err:
        raise NumericalError(f"adaptation hit a non-finite loss: {err}") from err
    return [Model(model.spec, ParamVector(flat, model.params.layout)) for flat in flats]


def model_l2_norm(model: Model) -> float:
    """Euclidean norm of the full parameter vector."""
    return float(np.linalg.norm(model.params.values))


def episodic_vs_union_loss(model: Model, benchmark: Benchmark,
                           tasks: Sequence[FewShotTask]) -> tuple[float, float]:
    """Evaluate the episodic-optimal-head loss against the one-global-head loss.

    Pools every task's query rows under their global labels, fits one
    global head on the pool (body frozen), and reports:

    - union loss: cross-entropy of that single head over the pooled rows;
    - episodic loss: example-weighted mean over tasks of the cross-entropy
      of a per-task head fitted on that task's rows, warm-started at the
      global head's restriction to the task's classes.

    Restricting the softmax to a task's classes can only drop the loss,
    and descent from the restriction can only drop it further, so
    episodic <= union holds for any fixed body, converged or not.
    """
    if not tasks:
        raise ValueError("episodic_vs_union_loss needs at least one task")
    pooled_inputs = np.concatenate([t.query.inputs for t in tasks])
    pooled_globals = np.concatenate([
        np.asarray(t.class_ids, dtype=np.int64)[t.query.labels] for t in tasks])
    pooled = Batch(pooled_inputs, pooled_globals)
    global_model = fit_head(model, pooled, n_classes=benchmark.total_classes)
    union_loss = cross_entropy(
        forward(global_model.spec, global_model.params, pooled_inputs), pooled.labels)
    w_global, b_global = global_model.head()
    total_rows = 0
    weighted = 0.0
    for task in tasks:
        cols = np.asarray(task.class_ids, dtype=np.int64)
        restricted = (w_global[:, cols], b_global[cols])
        task_model = fit_head(model, task.query, n_classes=task.n_way,
                              init_head=restricted, l2=0.0)
        loss = cross_entropy(
            forward(task_model.spec, task_model.params, task.query.inputs),
            task.query.labels)
        rows = len(task.query)
        weighted += loss * rows
        total_rows += rows
    return weighted / total_rows, union_loss

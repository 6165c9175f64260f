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

Every gradient runs on the stateless numpy kernel `nets.cross_entropy_and_grad`:
`train_pt` (one full-batch call per epoch), `train_maml`, `adapt` and
`meta_test`. MAML's inner loop is written once, `_descend`, and both MAML
orders share `_meta_gradients`: each meta-batch is stacked into
`(B, n, d)` arrays, so each inner step and the query gradient are one
call each, and the higher-order method adds a reverse sweep of
`nets.cross_entropy_hvp` calls. The meta-test supports are stacked the
same way, one call per adaptation step. Every forward pass is
`nets.activations`. The head refit, which `episodic_vs_union_loss` also
runs, is its own Newton solve on the kernel's `nets.softmax_cross_entropy`
and `nets.logit_signal`. No path here runs the autodiff tape; it is the
oracle the tests check these paths against.

The head refit is the L2-penalized logistic-regression head of Tian et
al. 2020 ("Rethinking Few-Shot Image Classification", arXiv 2003.11539):
it minimizes mean cross-entropy + (HEAD_L2/2)*||[W; b]||^2, bias included,
by damped Newton from zero until max|grad| <= HEAD_TOL. The penalty makes
the optimum finite and unique even on separable 5-shot supports, so every
refit is trained to convergence, and one that is not raises
`NumericalError`. It is the only head fit here.

`episodic_vs_union_loss` is the executable form of the bound that the best
union model upper-bounds episodic performance. Both sides are that fit's
objective at its optimum, the J the fit itself returns: per-task heads
against one global head, each fitted from zero. The inequality holds
because the global head's restriction to a task's classes is a feasible
per-task head with no larger objective, so it needs no warm start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from metalab.nets import (
    Batch,
    NetSpec,
    NumericalError,
    ParamVector,
    activations,
    cross_entropy_and_grad,
    cross_entropy_hvp,
    forward,
    layout_slices,
    logit_signal,
    softmax_cross_entropy,
)
from metalab.rng import integer
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
            object.__setattr__(self, name, integer(getattr(self, name), name))
        object.__setattr__(self, "hidden_dims", tuple(
            integer(h, "hidden_dims") for h in self.hidden_dims))
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
    """Final model, per-epoch train loss curve, and stop diagnostics."""

    model: Model
    loss_curve: tuple[float, ...]
    converged: bool

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
           objective: Callable[[int, ParamVector], tuple]) -> TrainResult:
    """Descend from `spec.init(config.seed)` until `_plateaued` or `max_epochs`.

    `objective(epoch, params)` returns per-item losses and their gradient
    sum; the curve gains their mean, the step is `outer_lr * sum / count`,
    and a `NumericalError` becomes `TrainingError("<leg> diverged ...")`.
    """
    params = spec.init(config.seed)
    curve: list[float] = []
    for epoch in range(1, config.max_epochs + 1):
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
    return TrainResult(model=Model(spec, params), loss_curve=tuple(curve),
                       converged=_plateaued(curve, config.convergence_tol))


def train_pt(benchmark: Benchmark, config: TrainConfig) -> TrainResult:
    """Supervised descent on the union dataset under global labels.

    The head spans every global class of the benchmark; classes outside the
    train split simply never occur. Full-batch gradient descent at
    `outer_lr` until plateau or `max_epochs` (`_train`).
    """
    if config.method != "pt":
        raise ValueError(f"train_pt requires method 'pt', got {config.method!r}")
    spec = NetSpec(benchmark.input_dim, config.hidden_dims, benchmark.total_classes)
    data = union_dataset(benchmark, "train", config.examples_per_class, config.seed)

    def full_batch(epoch: int, params: ParamVector):
        value, g = cross_entropy_and_grad(spec, params.values, data.inputs, data.labels)
        return [value], g

    return _train(spec, config, "pre-training", full_batch)


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

    def meta_batch(epoch: int, params: ParamVector):
        tasks = [sample_task(benchmark, "train", config.n_way, config.k_shot,
                             config.q_query, (config.seed, epoch, j))
                 for j in range(config.meta_batch)]
        values, per_task = _meta_gradients(
            spec, params, tasks, config.inner_steps_train, config.inner_lr,
            higher_order=config.method == "ho_maml")
        return values, per_task.sum(axis=0)

    return _train(spec, config, "meta-training", meta_batch)


def _stacked(batches: Sequence[Batch]) -> tuple[np.ndarray, np.ndarray]:
    """Inputs `(B, n, d)` and labels `(B, n)` of B batches of one shape."""
    return np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches])


def _descend(spec: NetSpec, flat: np.ndarray, inputs: np.ndarray, labels: np.ndarray,
             steps: int, lr: float) -> list[np.ndarray]:
    """Plain gradient descent on the cross-entropy: `flat`, then each of `steps` iterates.

    theta_{k+1} = theta_k - lr * grad(theta_k) from theta_0 = `flat`, in
    `(P,)` or stacked `(B, P)` arrays. The inner loop of MAML, in training
    (`_meta_gradients`) and at test time (`_adapted_models`).
    `cross_entropy_and_grad` checks every loss and gradient for
    finiteness, since the iterates never become `ParamVector`s.
    """
    iterates = [flat]
    for _ in range(steps):
        _, g = cross_entropy_and_grad(spec, iterates[-1], inputs, labels)
        iterates.append(iterates[-1] - lr * g)
    return iterates


def _meta_gradients(spec: NetSpec, params: ParamVector,
                    tasks: Sequence[FewShotTask], steps: int, lr: float,
                    higher_order: bool) -> tuple[np.ndarray, np.ndarray]:
    """Query losses `(B,)` and meta-gradients `(B, P)`, episodes stacked.

    The B episodes' support and query sets are stacked into `(B, n, d)`
    arrays, so each inner step (`_descend`) and the query gradient are one
    `cross_entropy_and_grad` call each. With support loss S, query loss Q
    and iterates theta_0 = `params`, ..., theta_K after K inner steps
    (MAML: Finn et al. 2017, arXiv 1703.03400):

    - first-order: the meta-gradient is v_K = grad Q(theta_K), the query
      gradient at the adapted parameters;
    - higher-order: the chain rule through the inner steps is a reverse
      sweep of Hessian-vector products with the support Hessian H_S,

          v_k = v_{k+1} - lr * H_S(theta_k) v_{k+1}   for k = K-1, ..., 0,

      one `cross_entropy_hvp` call per step, and the meta-gradient is v_0.

    Both kernel functions check every loss, gradient and product for
    finiteness; a non-finite meta-gradient left by the sweep raises
    `NumericalError` too.
    """
    inputs, labels = _stacked([t.support for t in tasks])
    iterates = _descend(spec, params.values, inputs, labels, steps, lr)
    values, v = cross_entropy_and_grad(spec, iterates.pop(),
                                       *_stacked([t.query for t in tasks]))
    if higher_order:
        for theta in reversed(iterates):
            v = v - lr * cross_entropy_hvp(spec, theta, v, inputs, labels)
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


def _head_objective(xa: np.ndarray, labels: np.ndarray,
                    wa: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """J = mean cross-entropy + (HEAD_L2/2)*||wa||^2 at `wa`, the softmax, and its picks."""
    probs = xa @ wa
    loss, picks = softmax_cross_entropy(probs, labels)
    return float(loss) + 0.5 * HEAD_L2 * float(np.sum(wa * wa)), probs, picks


def _logistic_head_fit(features: np.ndarray, labels: np.ndarray,
                       n_classes: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Damped Newton descent on L2-penalized multinomial logistic regression.

    Minimizes J(wa) = mean cross-entropy + (HEAD_L2/2)*||wa||^2 over the
    stacked head wa = [W; b], bias row included, from wa = 0. The penalty
    makes the Hessian positive definite, so the optimum is finite and
    unique and Newton converges to it quadratically. Each round builds the
    dense (f+1)*k Hessian, solves for the Newton direction and backtracks
    (Armijo) on J, so every accepted step lowers J. The fit stops when
    max|grad J| <= HEAD_TOL and returns W, b and J there; reaching
    HEAD_MAX_ITER above it, or a line search that can no longer lower J,
    raises `NumericalError`. `labels` must lie in `[0, n_classes)`.
    """
    n, f = features.shape
    dim = (f + 1) * n_classes
    xa = np.hstack([features, np.ones((n, 1))])
    outer = np.einsum("ra,rb->rab", xa, xa)
    wa = np.zeros((f + 1, n_classes))
    eye = np.eye(n_classes)
    value, probs, picks = _head_objective(xa, labels, wa)
    diag = np.arange(dim)
    iterations = 0
    while True:
        g = xa.T @ logit_signal(probs.copy(), picks) + HEAD_L2 * wa
        gmax = float(np.abs(g).max())
        if gmax <= HEAD_TOL or iterations == HEAD_MAX_ITER:
            break
        curvature = probs[:, :, None] * (eye[None] - probs[:, None, :])
        hess = np.tensordot(outer, curvature, axes=(0, 0)).transpose(0, 2, 1, 3)
        hess = hess.reshape(dim, dim) / n
        hess[diag, diag] += HEAD_L2
        step = -np.linalg.solve(hess, g.ravel()).reshape(wa.shape)
        slope = float(g.ravel() @ step.ravel())
        t = 1.0
        while t >= MIN_STEP:
            cand = wa + t * step
            cand_value, cand_probs, _ = _head_objective(xa, labels, cand)
            if cand_value <= value + ARMIJO * t * slope:
                break
            t *= 0.5
        else:  # no step lowers J by the Armijo fraction: the solve has stalled
            break
        wa, value, probs = cand, cand_value, cand_probs
        iterations += 1
    if gmax > HEAD_TOL:
        raise NumericalError(
            f"head fit stopped after {iterations} Newton iterations with "
            f"max|grad J| = {gmax:.3g} above tol {HEAD_TOL:g}")
    return wa[:-1], wa[-1], value


def _refit_head(model: Model, support: Batch,
                n_classes: int | None) -> tuple[Model, float]:
    """`fit_head`'s model, and the objective J its head stopped at."""
    if len(support) == 0:
        raise ValueError("fit_head needs a nonempty support set")
    labels = support.labels
    top = int(labels.max())  # a Batch's labels are nonnegative
    width = top + 1 if n_classes is None else int(n_classes)
    if width < 2:
        raise ValueError("head needs at least 2 classes")
    if top >= width:
        raise ValueError(f"support labels {sorted(set(labels[labels >= width].tolist()))} "
                         f"lie outside [0, {width})")
    features = model.body_features(support.inputs)
    w, b, value = _logistic_head_fit(features, labels, width)
    new_spec = NetSpec(model.spec.input_dim, model.spec.hidden_dims, width)
    flat = np.concatenate([model.body_values(), w.ravel(), b])
    return Model(new_spec, ParamVector(flat, new_spec.layout())), value


def fit_head(model: Model, support: Batch, n_classes: int | None = None) -> Model:
    """Freeze the body and refit a fresh L2-penalized logistic-regression head.

    The head minimizes mean support cross-entropy + (HEAD_L2/2)*||[W; b]||^2
    on the body's features, solved from zero by damped Newton until
    max|grad| <= HEAD_TOL (`_logistic_head_fit`). The penalty makes the
    optimum finite and unique even on separable supports, and a fit that
    does not reach HEAD_TOL within HEAD_MAX_ITER Newton rounds raises
    `NumericalError`. The head width defaults to the number of label
    values in `support`; a support label outside `[0, n_classes)` raises
    ValueError naming it, before any fitting.
    """
    return _refit_head(model, support, n_classes)[0]


def _accuracy(model: Model, batch: Batch) -> float:
    logits = forward(model.spec, model.params, batch.inputs)
    return float(np.mean(np.argmax(logits, axis=1) == batch.labels))


def meta_test(model: Model, method: str, tasks: Sequence[FewShotTask],
              steps: int = 5, lr: float = 0.05) -> EvalResult:
    """Per-task adaptation and query accuracy over a batch of episodes.

    `method` is "pt_head_refit" (freeze body, refit head on support) or
    "maml_adapt" (`steps` full-parameter descent steps at `lr` on support).
    "maml_adapt" stacks the supports, which must share one shape, into one
    descent: `steps` gradient calls in all, each episode's iterate bitwise
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
    try:
        flats = _descend(model.spec, model.params.values, inputs, labels, steps, lr)[-1]
    except NumericalError as err:
        raise NumericalError(f"adaptation hit a non-finite loss: {err}") from err
    return [Model(model.spec, ParamVector(flat, model.params.layout)) for flat in flats]


def model_l2_norm(model: Model) -> float:
    """Euclidean norm of the full parameter vector."""
    return float(np.linalg.norm(model.params.values))


def episodic_vs_union_loss(model: Model, benchmark: Benchmark,
                           tasks: Sequence[FewShotTask]) -> tuple[float, float]:
    """The per-task head objective against the one-global-head objective.

    Both sides are the objective J = mean cross-entropy +
    (HEAD_L2/2)*||[W; b]||^2 of `fit_head`, as the fit returns it at the
    head it stopped at (body frozen):

    - union: J of one global head fitted on every task's query rows,
      pooled under their global labels (`benchmark.total_classes` wide);
    - episodic: the row-weighted mean over tasks of J of each task's own
      head, fitted on that task's query rows.

    Why episodic <= union: restrict the union head to a task's classes
    (their columns of W and b). On that task's rows the restricted softmax
    drops the other classes from each normalizer, so its cross-entropy is
    no larger than the union head's, and its penalty is no larger either.
    Each task's minimum J is at most that restriction's J, and the pooled
    cross-entropy is the row-weighted mean of the per-task ones, so
    averaging gives episodic <= union. That holds for whichever union head
    the fit returns, so only the per-task fits' tolerance enters: each stops
    at max|grad J| <= HEAD_TOL, and J is HEAD_L2-strongly convex, so it lies
    above its minimum by at most ||grad J||^2 / (2*HEAD_L2), at most
    HEAD_TOL^2 / (2*HEAD_L2) = 5e-15 per head parameter.
    """
    if not tasks:
        raise ValueError("episodic_vs_union_loss needs at least one task")
    pooled = Batch(
        np.concatenate([t.query.inputs for t in tasks]),
        np.concatenate([np.asarray(t.class_ids, dtype=np.int64)[t.query.labels]
                        for t in tasks]))
    union = _refit_head(model, pooled, benchmark.total_classes)[1]
    episodic = [_refit_head(model, t.query, t.n_way)[1] for t in tasks]
    return float(np.average(episodic, weights=[len(t.query) for t in tasks])), union

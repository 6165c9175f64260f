"""Training regimes, head refitting and meta-test evaluation.

The logistic head fit is checked against scipy's L-BFGS on the same
L2-penalized convex objective from a different starting point;
adaptation and first- and higher-order MAML against manual loops through the
kernel and through the autodiff tape; and the episodic-vs-union inequality
on that objective over random bodies, where it must hold for structural
reasons.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from metalab import harness, learners, task2vec
from metalab.learners import (
    HEAD_L2,
    HEAD_STACK,
    EvalResult,
    Model,
    TrainConfig,
    TrainingError,
    _adapted_models,
    _meta_gradients,
    _plateaued,
    adapt,
    episodic_vs_union_loss,
    fit_head,
    fit_heads,
    meta_test,
    model_l2_norm,
    train_maml,
    train_pt,
)
from metalab.harness import low_diversity_preset
from metalab.nets import (
    Batch,
    NetSpec,
    NumericalError,
    ParamVector,
    cross_entropy_and_grad,
    forward,
    loss_and_grad,
    loss_and_grad_through_updates,
    net_loss,
)
from metalab.tasks import benchmark_from_sources, make_source, sample_task


def _ce(scores: np.ndarray, labels: np.ndarray) -> float:
    logp = scipy.special.log_softmax(scores, axis=1)
    return -float(np.mean(logp[np.arange(len(labels)), labels]))


def _overlapping_batch(seed: int, n_per_class: int = 20, k: int = 3, dim: int = 2) -> Batch:
    # Class means at unit scale with spread 1.5: heavy overlap, so the
    # logistic optimum is finite and unique up to the softmax gauge.
    gen = np.random.default_rng(seed)
    means = gen.normal(size=(k, dim))
    rows = np.concatenate([m + 1.5 * gen.normal(size=(n_per_class, dim)) for m in means])
    return Batch(rows, np.repeat(np.arange(k), n_per_class))


def _scipy_head(features: np.ndarray, labels: np.ndarray, k: int, l2: float):
    """L-BFGS on the multinomial logistic loss + (l2/2)*||[W; b]||^2, random start."""
    n, f = features.shape
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0

    def fun(theta):
        wa = theta.reshape(f + 1, k)
        scores = features @ wa[:-1] + wa[-1]
        logp = scipy.special.log_softmax(scores, axis=1)
        loss = -np.mean(logp[np.arange(n), labels]) + 0.5 * l2 * theta @ theta
        gs = (np.exp(logp) - onehot) / n
        grad = np.concatenate([(features.T @ gs).ravel(), gs.sum(axis=0)])
        return loss, grad + l2 * theta

    theta0 = 0.1 * np.random.default_rng(999).normal(size=(f + 1) * k)
    res = scipy.optimize.minimize(fun, theta0, jac=True, method="L-BFGS-B",
                                  options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-10})
    wa = res.x.reshape(f + 1, k)
    return wa[:-1], wa[-1]


def _head_grad_maxabs(features, labels, w, b, l2: float) -> float:
    n = len(labels)
    k = w.shape[1]
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    gs = (scipy.special.softmax(features @ w + b, axis=1) - onehot) / n
    return max(np.abs(features.T @ gs + l2 * w).max(), np.abs(gs.sum(axis=0) + l2 * b).max())


def _head_objective(features, labels, w, b, l2: float) -> float:
    return _ce(features @ w + b, labels) + 0.5 * l2 * (np.sum(w * w) + np.sum(b * b))


# ---------------------------------------------------------------------------
# head refitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_fit_head_reaches_the_scipy_regularized_optimum(seed):
    # The default L2 penalty covers the bias too, so the optimum is unique:
    # the weights themselves match, not just the predicted probabilities.
    support = _overlapping_batch(seed)
    model = Model(NetSpec(2, (), 2), NetSpec(2, (), 2).init(seed))
    fitted = fit_head(model, support)
    w, b = fitted.head()
    assert _head_grad_maxabs(support.inputs, support.labels, w, b, HEAD_L2) <= 1e-8
    ws, bs = _scipy_head(support.inputs, support.labels, 3, l2=HEAD_L2)
    ours = _head_objective(support.inputs, support.labels, w, b, HEAD_L2)
    theirs = _head_objective(support.inputs, support.labels, ws, bs, HEAD_L2)
    assert ours <= theirs + 1e-12
    np.testing.assert_allclose(w, ws, atol=1e-5)
    np.testing.assert_allclose(b, bs, atol=1e-5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_head_through_hidden_body_fits_on_body_features(seed):
    # Relu-lifted small supports are often separable; the L2 penalty keeps
    # the optimum finite, so the fit converges there too. The hidden-body
    # fit is bitwise the identity-body fit on precomputed features (so the
    # identity-body oracles above transfer) and leaves the body untouched.
    support = _overlapping_batch(seed, n_per_class=15)
    spec = NetSpec(2, (8,), 3)
    model = Model(spec, spec.init(seed))
    fitted = fit_head(model, support)
    feats = model.body_features(support.inputs)
    w, b = fitted.head()
    flat_spec = NetSpec(8, (), 3)
    refit = fit_head(Model(flat_spec, flat_spec.init(seed)), Batch(feats, support.labels))
    wf, bf = refit.head()
    assert np.array_equal(w, wf) and np.array_equal(b, bf)
    assert np.array_equal(fitted.body_values(), model.body_values())
    assert _head_grad_maxabs(feats, support.labels, w, b, HEAD_L2) <= 1e-8
    ws, bs = _scipy_head(feats, support.labels, 3, l2=HEAD_L2)
    ours = _head_objective(feats, support.labels, w, b, HEAD_L2)
    theirs = _head_objective(feats, support.labels, ws, bs, HEAD_L2)
    assert ours <= theirs + 1e-12
    assert ours < np.log(3)


def test_fit_head_that_misses_tol_under_l2_is_loud(monkeypatch):
    support = _overlapping_batch(0)
    model = Model(NetSpec(2, (), 2), NetSpec(2, (), 2).init(0))
    monkeypatch.setattr("metalab.learners.HEAD_MAX_ITER", 2)
    with pytest.raises(NumericalError, match=r"after 2 Newton iterations .*grad"):
        fit_head(model, support)


@pytest.mark.parametrize("seed", [4, 7, 12])
def test_fit_head_takes_the_newton_step_where_j_cannot_tell(seed, monkeypatch):
    # Near the optimum a Newton step lowers J by less than one ulp, so its
    # computed J can round up however short the step. Simulated by
    # rounding every such J 2 ulp above the best seen, under a tolerance
    # tight enough that the fit reaches that regime: the line search
    # cannot judge those steps, takes them whole, and still converges to
    # the fit made without the rounding.
    support = _overlapping_batch(seed)
    model = Model(NetSpec(2, (), 2), NetSpec(2, (), 2).init(0))
    monkeypatch.setattr(learners, "HEAD_TOL", 1e-13)
    w_want, b_want = fit_head(model, support).head()
    real, best, rounded = learners._head_objective, [], []

    def rounded_up(xa, labels, wa):
        value, probs, picks = real(xa, labels, wa)
        if best and value > best[0] - np.spacing(best[0]):
            rounded.append(value)
            value = best[0] + 2 * np.spacing(best[0])
        else:
            best[:] = [value]
        return value, probs, picks

    monkeypatch.setattr(learners, "_head_objective", rounded_up)
    w, b = fit_head(model, support).head()
    assert rounded
    np.testing.assert_allclose(w, w_want, rtol=0, atol=1e-10)
    np.testing.assert_allclose(b, b_want, rtol=0, atol=1e-10)


def test_every_lowdiv_meta_test_refit_converges():
    # The lowdiv-fo benchmark workload's meta-test: PT body at seed 0, its
    # first 12 test episodes, each refitted at the default penalty.
    config = low_diversity_preset(0, meta_batch=12)
    benchmark = config.benchmark.build()
    body = train_pt(benchmark, config.pt_config()).model
    for i in range(config.meta_batch):
        task = sample_task(benchmark, "test", config.n_way, config.k_shot,
                           config.q_query, (config.seed, i))
        w, b = fit_head(body, task.support).head()
        feats = body.body_features(task.support.inputs)
        assert _head_grad_maxabs(feats, task.support.labels, w, b, HEAD_L2) <= 1e-8, i


def test_a_stack_of_fits_is_each_support_fitted_alone_bitwise():
    # HEAD_STACK + 1 supports make two stacks, so the boundary between
    # them is covered too.
    spec = NetSpec(8, (32,), 5)
    model = Model(spec, spec.init(4))
    supports = [task.support for task in _lowdiv_episodes(HEAD_STACK + 1)]
    stacked = fit_heads(model, supports)
    assert len(stacked) == HEAD_STACK + 1
    for support, many in zip(supports, stacked):
        assert np.array_equal(fit_head(model, support).params.values, many.params.values)


def test_pt_meta_test_refits_every_episode_in_one_stacked_fit(monkeypatch):
    spec = NetSpec(8, (32,), 5)
    model = Model(spec, spec.init(4))
    calls = []
    original = learners._logistic_head_fit
    monkeypatch.setattr(learners, "_logistic_head_fit",
                        lambda features, *rest: calls.append(features.shape)
                        or original(features, *rest))
    meta_test(model, "pt_head_refit", _lowdiv_episodes(12))
    assert calls == [(12, 25, 32)]


def test_a_stacked_fit_that_misses_tol_raises_naming_it(monkeypatch):
    # Within 5 Newton rounds the supports of seeds 0 and 1 reach HEAD_TOL
    # and that of seed 2 does not, so only fit 1 of the stack misses.
    model = Model(NetSpec(2, (), 2), NetSpec(2, (), 2).init(0))
    supports = [_overlapping_batch(seed) for seed in (0, 2, 1)]
    monkeypatch.setattr(learners, "HEAD_MAX_ITER", 5)
    fit_head(model, supports[0])
    fit_head(model, supports[2])
    with pytest.raises(NumericalError, match=r"head fit 1 stopped after 5 Newton iterations .*grad"):
        fit_heads(model, supports)


def test_head_refit_and_embedding_leave_scipy_optimize_unimported(child_env):
    # Importing scipy.optimize after metalab costs about 0.56 s and 43 MB of
    # resident memory (34 MB -> 78 MB), which the benchmark's setup and
    # peak-memory metrics would show, so the library solves on numpy alone.
    script = textwrap.dedent("""
        import sys
        import metalab
        from metalab.learners import TrainConfig
        from metalab.task2vec import build_probe, embed_task
        from metalab.tasks import benchmark_from_sources, make_source, sample_task
        bench = benchmark_from_sources([make_source(1, 12, 3, 2.0, 1.0)])
        probe = build_probe(bench, 0, config=TrainConfig(method="pt", seed=0,
                                                         hidden_dims=(4,), max_epochs=2))
        task = sample_task(bench, "test", 2, 3, 3, (0, 0))
        metalab.fit_head(probe.model, task.support)
        embed_task(probe, task)
        pair = [task, sample_task(bench, "test", 2, 3, 3, (0, 1))]
        metalab.meta_test(probe.model, "pt_head_refit", pair)
        metalab.diversity_coefficient(probe, bench, 3, 0, n_way=2, k_shot=3, q_query=3)
        print("scipy.optimize" in sys.modules)
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=child_env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_fit_head_width_override_and_validation():
    support = _overlapping_batch(4)
    model = Model(NetSpec(2, (), 2), NetSpec(2, (), 2).init(0))
    wide = fit_head(model, support, n_classes=7)
    assert wide.spec.output_dim == 7
    assert forward(wide.spec, wide.params, support.inputs).shape == (len(support), 7)
    with pytest.raises(ValueError):
        fit_head(model, Batch(np.zeros((0, 2)), np.zeros(0, dtype=int)))
    with pytest.raises(ValueError):
        fit_head(model, Batch(np.zeros((3, 2)), np.zeros(3, dtype=int)))  # width 1


def test_fit_head_refuses_a_label_outside_its_width():
    # The refit's cross-entropy reads each row's true-class entry by flat
    # index, so label 3 of a 3-wide head would read the next row's logit.
    support = _overlapping_batch(0, n_per_class=2)
    support = Batch(support.inputs, np.array([3, 0, 1, 2, 0, 1]))
    model = Model(NetSpec(2, (), 2), NetSpec(2, (), 2).init(0))
    with pytest.raises(ValueError, match=r"labels \[3\] lie outside \[0, 3\)"):
        fit_head(model, support, n_classes=3)


# ---------------------------------------------------------------------------
# adaptation
# ---------------------------------------------------------------------------


def _tiny_model(seed: int = 0) -> Model:
    spec = NetSpec(3, (6,), 4)
    return Model(spec, spec.init(seed))


def _tiny_task(seed: int = 0):
    src = make_source(seed, 20, 3, 1.5, 1.0)
    bench = benchmark_from_sources([src])
    return bench, sample_task(bench, "test", 4, 3, 5, rng_seed=seed)


def test_adapt_matches_manual_descent_bitwise():
    model = _tiny_model()
    _, task = _tiny_task()
    adapted = adapt(model, task.support, 4, 0.07)
    params = model.params
    for _ in range(4):
        _, g = cross_entropy_and_grad(model.spec, params.values, task.support.inputs,
                                      task.support.labels)
        params = ParamVector(params.values - 0.07 * g, params.layout)
    assert np.array_equal(adapted.params.values, params.values)


def test_adapt_matches_autodiff_descent():
    model = _tiny_model(2)
    _, task = _tiny_task(2)
    adapted = adapt(model, task.support, 6, 0.1)
    loss_fn = net_loss(model.spec, task.support)
    params = model.params
    for _ in range(6):
        _, g = loss_and_grad(loss_fn, params)
        params = ParamVector(params.values - 0.1 * g.values, params.layout)
    assert np.abs(adapted.params.values - params.values).max() <= (
        1e-12 * np.abs(params.values).max())


def test_adapt_zero_steps_is_the_identity():
    model = _tiny_model()
    _, task = _tiny_task()
    assert adapt(model, task.support, 0, 0.07) is model
    frozen = adapt(model, task.support, 3, 0.0)
    assert np.array_equal(frozen.params.values, model.params.values)
    with pytest.raises(ValueError):
        adapt(model, task.support, -1, 0.07)


def test_adapt_reduces_support_loss():
    model = _tiny_model(5)
    _, task = _tiny_task(5)
    before = _ce(forward(model.spec, model.params, task.support.inputs),
                 task.support.labels)
    after_model = adapt(model, task.support, 10, 0.1)
    after = _ce(forward(after_model.spec, after_model.params, task.support.inputs),
                task.support.labels)
    assert after < before


# ---------------------------------------------------------------------------
# meta-test
# ---------------------------------------------------------------------------


def test_meta_test_permutes_with_tasks():
    bench, _ = _tiny_task()
    model = _tiny_model()
    tasks = [sample_task(bench, "test", 4, 3, 5, rng_seed=(1, i)) for i in range(3)]
    fwd = meta_test(model, "maml_adapt", tasks, steps=2, lr=0.1)
    rev = meta_test(model, "maml_adapt", tasks[::-1], steps=2, lr=0.1)
    assert fwd.per_task_accuracy == rev.per_task_accuracy[::-1]
    assert fwd.mean == pytest.approx(rev.mean)
    refit = meta_test(model, "pt_head_refit", tasks)
    assert refit.meta_batch == 3


def test_meta_test_validation():
    model = _tiny_model()
    bench, task = _tiny_task()
    with pytest.raises(ValueError):
        meta_test(model, "maml_adapt", [])
    with pytest.raises(ValueError):
        meta_test(model, "finetune_everything", [task])
    with pytest.raises(ValueError, match="nonnegative"):
        meta_test(model, "maml_adapt", [task], steps=-1)


def _lowdiv_episodes(count: int):
    bench = low_diversity_preset(0).benchmark.build()
    return [sample_task(bench, "test", 5, 5, 15, (0, i)) for i in range(count)]


@pytest.mark.parametrize("steps", [0, 1, 5])
def test_stacked_maml_meta_test_is_adapt_per_episode_bitwise(steps, monkeypatch):
    spec = NetSpec(8, (32,), 5)
    model = Model(spec, spec.init(4))
    tasks = _lowdiv_episodes(16)
    serial = [adapt(model, task.support, steps, 0.05) for task in tasks]
    calls = []
    original = learners.cross_entropy_and_grad
    monkeypatch.setattr(learners, "cross_entropy_and_grad",
                        lambda spec, flat, inputs, labels: calls.append(inputs.shape)
                        or original(spec, flat, inputs, labels))
    stacked = _adapted_models(model, [task.support for task in tasks], steps, 0.05)
    assert calls == [(16, 25, 8)] * steps  # one kernel call per step for all episodes
    for one, many in zip(serial, stacked):
        assert np.array_equal(one.params.values, many.params.values)
    result = meta_test(model, "maml_adapt", tasks, steps=steps, lr=0.05)
    assert result.per_task_accuracy == tuple(
        float(np.mean(np.argmax(forward(m.spec, m.params, t.query.inputs), axis=1)
                      == t.query.labels))
        for m, t in zip(serial, tasks))


def test_stacked_maml_meta_test_refuses_supports_of_different_shapes():
    model = _tiny_model()
    bench, _ = _tiny_task()
    tasks = [sample_task(bench, "test", 4, k, 5, rng_seed=(1, k)) for k in (3, 2)]
    for steps in (0, 2):
        with pytest.raises(ValueError, match="one shape"):
            meta_test(model, "maml_adapt", tasks, steps=steps, lr=0.1)
    with pytest.raises(ValueError, match="one shape"):  # the refits stack too
        meta_test(model, "pt_head_refit", tasks)


def test_stacked_maml_meta_test_keeps_the_adaptation_error():
    spec = NetSpec(8, (32,), 5)
    model = Model(spec, spec.init(4))
    with pytest.raises(NumericalError, match="adaptation hit a non-finite loss"), \
            np.errstate(over="ignore", invalid="ignore"):
        meta_test(model, "maml_adapt", _lowdiv_episodes(3), steps=3, lr=1e300)


def test_eval_result_accounting():
    r = EvalResult.from_accuracies([1.0, 0.0, 1.0, 1.0])
    assert r.mean == pytest.approx(0.75)
    assert r.ci95_halfwidth == pytest.approx(1.96 * np.std([1, 0, 1, 1], ddof=1) / 2.0)
    assert r.meta_batch == 4
    with pytest.raises(ValueError, match="a CI needs two episodes"):
        EvalResult.from_accuracies([0.6])
    with pytest.raises(ValueError):
        EvalResult(per_task_accuracy=(1.0, 0.0), mean=0.9, ci95_halfwidth=0.0, meta_batch=2)
    with pytest.raises(ValueError):
        EvalResult(per_task_accuracy=(1.0,), mean=1.0, ci95_halfwidth=0.0, meta_batch=2)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _bench(seed: int = 0):
    return benchmark_from_sources([make_source(seed, 10, 3, 2.0, 1.0)])


def test_train_pt_is_deterministic_and_descends():
    cfg = TrainConfig(method="pt", hidden_dims=(8,), max_epochs=40, seed=3)
    a = train_pt(_bench(), cfg)
    b = train_pt(_bench(), cfg)
    assert np.array_equal(a.model.params.values, b.model.params.values)
    assert a.loss_curve == b.loss_curve
    assert a.loss_curve[-1] < a.loss_curve[0]
    assert a.epochs_run == len(a.loss_curve)
    assert a.model.spec.output_dim == 10  # head spans all global classes


def test_train_maml_is_deterministic_and_descends():
    cfg = TrainConfig(method="fo_maml", hidden_dims=(8,), max_epochs=8, meta_batch=2,
                      n_way=3, k_shot=2, q_query=3, seed=3)
    a = train_maml(_bench(), cfg)
    b = train_maml(_bench(), cfg)
    assert np.array_equal(a.model.params.values, b.model.params.values)
    assert a.model.spec.output_dim == 3  # head spans n_way only
    ho = train_maml(_bench(), TrainConfig(
        method="ho_maml", hidden_dims=(8,), max_epochs=8, meta_batch=2,
        n_way=3, k_shot=2, q_query=3, seed=3))
    assert not np.array_equal(a.model.params.values, ho.model.params.values)


def test_zero_epochs_returns_the_initialization():
    cfg = TrainConfig(method="pt", hidden_dims=(8,), max_epochs=0, seed=7)
    out = train_pt(_bench(), cfg)
    init = NetSpec(3, (8,), 10).init(7)
    assert np.array_equal(out.model.params.values, init.values)
    assert out.epochs_run == 0
    assert out.loss_curve == ()
    assert not out.converged


def test_training_method_cross_checks():
    with pytest.raises(ValueError):
        train_pt(_bench(), TrainConfig(method="fo_maml"))
    with pytest.raises(ValueError):
        train_maml(_bench(), TrainConfig(method="pt"))
    with pytest.raises(ValueError):
        TrainConfig(method="sgd")
    with pytest.raises(ValueError):
        TrainConfig(method="pt", outer_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(method="pt", meta_batch=0)
    # A zero examples_per_class would fail at the union dataset and a
    # negative seed at the init stream; a NaN rate or tolerance would train
    # on with NaN parameters or without its plateau stop.
    for bad, named in (({"hidden_dims": (8, 0)}, "hidden_dims"), ({"n_way": 1}, "n_way"),
                       ({"k_shot": 0}, "k_shot"), ({"q_query": 0}, "q_query"),
                       ({"examples_per_class": 0}, "examples_per_class"),
                       ({"outer_lr": float("nan")}, "learning rates"),
                       ({"inner_lr": float("inf")}, "learning rates"),
                       ({"convergence_tol": float("nan")}, "convergence_tol"),
                       ({"convergence_tol": float("inf")}, "convergence_tol"),
                       ({"convergence_tol": -1e-4}, "convergence_tol"),
                       ({"seed": -1}, "seed")):
        with pytest.raises(ValueError, match=named):
            TrainConfig(method="pt", **bad)


def test_divergent_runs_raise_training_error():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError):
            train_pt(_bench(), TrainConfig(
                method="pt", hidden_dims=(8,), outer_lr=1e8, max_epochs=300))
        with pytest.raises(TrainingError):
            # inner updates overflow within the first episode's unroll
            train_maml(_bench(), TrainConfig(
                method="fo_maml", hidden_dims=(8,), inner_lr=1e100, max_epochs=5,
                meta_batch=1, n_way=3, k_shot=2, q_query=2))
        with pytest.raises(TrainingError, match="at epoch 1"):
            train_maml(_bench(), TrainConfig(
                method="ho_maml", hidden_dims=(8,), inner_lr=1e100, max_epochs=5,
                meta_batch=1, n_way=3, k_shot=2, q_query=2))


def _assert_meta_gradients_match_autodiff(first_order: bool):
    # The stacked kernel path against loss_and_grad_through_updates, one
    # episode at a time, with and without inner steps.
    spec = NetSpec(3, (8,), 3)
    params = spec.init(4)
    tasks = [sample_task(_bench(), "train", 3, 2, 4, (4, 1, j)) for j in range(5)]
    for steps in (0, 1, 3):
        values, grads = _meta_gradients(spec, params, tasks, steps, 0.3,
                                        higher_order=not first_order)
        assert values.shape == (5,) and grads.shape == (5, spec.param_count())
        for task, value, g in zip(tasks, values, grads):
            want_value, want = loss_and_grad_through_updates(
                net_loss(spec, task.query), params, steps, 0.3,
                inner_loss_fn=net_loss(spec, task.support), first_order=first_order)
            assert abs(value - want_value) <= 1e-12 * abs(want_value)
            assert np.abs(g - want.values).max() <= 1e-12 * np.abs(want.values).max()


def test_first_order_meta_gradients_match_autodiff():
    # The outer gradient of FO-MAML is the query gradient at the adapted
    # parameters.
    _assert_meta_gradients_match_autodiff(first_order=True)


def test_higher_order_meta_gradients_match_autodiff():
    # The Hessian-vector sweep against the tape's backward pass through
    # the whole inner update chain.
    _assert_meta_gradients_match_autodiff(first_order=False)


def test_higher_order_sweep_flags_a_nonfinite_meta_gradient(monkeypatch):
    # Finite but huge products overflow v - lr * Hv; the sweep's own check
    # must catch what no kernel call sees.
    spec = NetSpec(3, (8,), 3)
    tasks = [sample_task(_bench(), "train", 3, 2, 4, (4, 1, j)) for j in range(2)]
    monkeypatch.setattr(learners, "cross_entropy_hvp",
                        lambda spec, flat, vec, *a: np.full_like(vec, 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="non-finite meta-gradient"):
            _meta_gradients(spec, spec.init(4), tasks, 1, 10.0, higher_order=True)


def _autodiff_maml_loop(bench, cfg: TrainConfig, spec: NetSpec):
    """train_maml's episode draws, episode-order sum and outer step, on the tape."""
    params = spec.init(cfg.seed)
    curve = []
    for epoch in range(1, cfg.max_epochs + 1):
        grads = np.zeros_like(params.values)
        total = 0.0
        for j in range(cfg.meta_batch):
            task = sample_task(bench, "train", cfg.n_way, cfg.k_shot, cfg.q_query,
                               (cfg.seed, epoch, j))
            value, g = loss_and_grad_through_updates(
                net_loss(spec, task.query), params, cfg.inner_steps_train, cfg.inner_lr,
                inner_loss_fn=net_loss(spec, task.support),
                first_order=cfg.method == "fo_maml")
            grads += g.values
            total += value
        params = ParamVector(params.values - cfg.outer_lr * grads / cfg.meta_batch,
                             params.layout)
        curve.append(total / cfg.meta_batch)
    return params, curve


def _assert_training_matches_an_autodiff_loop(method: str):
    cfg = TrainConfig(method=method, hidden_dims=(8,), max_epochs=6, meta_batch=3,
                      n_way=3, k_shot=2, q_query=3, seed=5)
    bench = _bench()
    got = train_maml(bench, cfg)
    params, curve = _autodiff_maml_loop(bench, cfg, got.model.spec)
    assert np.abs(got.model.params.values - params.values).max() <= (
        1e-12 * np.abs(params.values).max())
    np.testing.assert_allclose(got.loss_curve, curve, rtol=1e-12)


def test_fo_maml_training_matches_an_autodiff_loop():
    _assert_training_matches_an_autodiff_loop("fo_maml")


def test_ho_maml_training_matches_an_autodiff_loop():
    _assert_training_matches_an_autodiff_loop("ho_maml")


def test_no_training_path_runs_the_tape(monkeypatch):
    # Autodiff is the test oracle only. The counter is bound wherever `backward` is bound in a metalab module,
    # since `nets` imports it by name.
    import metalab.autodiff
    from metalab.task2vec import build_probe, embed_task

    original = metalab.autodiff.backward
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "metalab" or name.startswith("metalab."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)

    bench = _bench()
    model = _tiny_model()
    tiny_bench, task = _tiny_task()
    pair = [task, sample_task(tiny_bench, "test", 4, 3, 5, rng_seed=1)]
    small = dict(hidden_dims=(8,), max_epochs=3, meta_batch=2, n_way=3, k_shot=2,
                 q_query=3, seed=1)
    runs = {
        "train_pt": lambda: train_pt(bench, TrainConfig(method="pt", **small)),
        "fo train_maml": lambda: train_maml(bench, TrainConfig(method="fo_maml", **small)),
        "adapt": lambda: adapt(model, task.support, 3, 0.1),
        "meta_test maml_adapt": lambda: meta_test(model, "maml_adapt", pair, steps=2),
        "meta_test pt_head_refit": lambda: meta_test(model, "pt_head_refit", pair),
        "fit_head": lambda: fit_head(model, task.support),
        "embed_task": lambda: embed_task(
            build_probe(bench, small["seed"], config=TrainConfig(method="pt", **small)),
            sample_task(bench, "train", 3, 2, 3, (0, 0))),
    }
    for label, run in runs.items():
        run()
        assert not calls, f"{label} ran autodiff.backward {len(calls)} times"
    train_maml(bench, TrainConfig(method="ho_maml", **small))
    assert not calls, f"ho train_maml ran autodiff.backward {len(calls)} times"


def _benchmark_tracer(monkeypatch):
    """The benchmark's `spans.Tracer`, over every metalab module it looks up."""
    import metalab.autodiff  # noqa: F401  the tracer looks these modules up
    import metalab.stats  # noqa: F401
    import metalab.task2vec  # noqa: F401

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    return spans.Tracer()


def test_tracing_the_benchmark_spans_leaves_ho_training_bit_identical(monkeypatch):
    # The benchmark's tracer binds wrappers in place of named metalab
    # functions (`nets.loss_and_grad`, `nets.loss_and_grad_through_updates`,
    # `autodiff.backward`, ...), looked up in each module's namespace. It must
    # still install over this library, and a traced run must reproduce an
    # untraced one bit for bit without entering the tape.
    cfg = TrainConfig(method="ho_maml", hidden_dims=(8,), max_epochs=3, meta_batch=2,
                      n_way=3, k_shot=2, q_query=3, seed=2)
    untraced = train_maml(_bench(), cfg)
    tracer = _benchmark_tracer(monkeypatch)
    tracer.install()
    try:
        traced = learners.train_maml(_bench(), cfg)
    finally:
        tracer.uninstall()
    assert np.array_equal(traced.model.params.values, untraced.model.params.values)
    assert traced.loss_curve == untraced.loss_curve
    names = {span[3] for span in tracer.spans}
    assert "learners.train_maml" in names
    assert not names & {"autodiff.backward", "nets.loss_and_grad_through_updates"}


def test_tracing_the_benchmark_spans_leaves_a_comparison_record_unchanged(
        monkeypatch, tmp_path):
    # The benchmark traces whole `run_comparison` units, and `RunRecord.save`
    # is a traced method. A traced unit must still run and write the
    # untraced record. The pipeline refits its heads and embeds its tasks in
    # stacks, so the one-support wrappers are run directly: the `fit_head`
    # wrapper checks the returned head (`spans.head_gradient_max` reads
    # `body_features` and `head()`), and a traced call must return the
    # untraced result.
    config = low_diversity_preset(0, meta_batch=4, eval_steps=(1,), diversity_tasks=4,
                                  histogram_tasks=4, maml={"max_epochs": 2})
    untraced = harness.run_comparison(config, out_dir=tmp_path / "untraced")
    task = sample_task(config.benchmark.build(), "test", 5, 5, 15, (0, 0))
    spec = NetSpec(8, (32,), 5)
    probe = task2vec.Probe(Model(spec, spec.init(0)), "random(seed=0)")
    head = fit_head(probe.model, task.support)
    embedding = task2vec.embed_task(probe, task)
    tracer = _benchmark_tracer(monkeypatch)
    tracer.install()
    try:
        traced = harness.run_comparison(config, out_dir=tmp_path / "traced")
        pipeline = {span[3] for span in tracer.spans}
        traced_head = learners.fit_head(probe.model, task.support)
        traced_embedding = task2vec.embed_task(probe, task)
    finally:
        tracer.uninstall()

    def plain(record):
        return {k: v for k, v in record.to_dict().items() if k != "wall_clock_seconds"}

    assert plain(traced) == plain(untraced)
    assert {"learners.meta_test.pt", "learners.meta_test.maml",
            "task2vec.diversity_coefficient", "harness.persist"} <= pipeline
    assert np.array_equal(traced_head.params.values, head.params.values)
    assert np.array_equal(traced_embedding.fim_diag, embedding.fim_diag)
    assert {"learners.fit_head", "task2vec.embed_task"} <= {span[3] for span in tracer.spans}


def test_plateau_detector_window_semantics():
    assert not _plateaued([1.0] * 39, tol=1e-4)  # needs two full windows
    assert _plateaued([1.0] * 40, tol=1e-4)
    falling = list(np.linspace(2.0, 1.0, 40))
    assert not _plateaued(falling, tol=1e-4)
    assert _plateaued(falling, tol=10.0)  # loose tolerance accepts anything


def test_convergence_stops_before_max_epochs():
    cfg = TrainConfig(method="pt", hidden_dims=(4,), max_epochs=3000, seed=1,
                      convergence_tol=1e-3)
    out = train_pt(_bench(1), cfg)
    assert out.converged
    assert out.epochs_run < 3000


# ---------------------------------------------------------------------------
# model accessors and the episodic-vs-union bound
# ---------------------------------------------------------------------------


def test_model_accessors():
    spec = NetSpec(3, (6,), 4)
    model = Model(spec, spec.init(0))
    assert model.head_boundary == 3 * 6 + 6
    assert len(model.body_values()) == model.head_boundary
    w, b = model.head()
    assert w.shape == (6, 4) and b.shape == (4,)
    segs = model.params.segments()
    assert np.array_equal(w, segs["W1"]) and np.array_equal(b, segs["b1"])
    assert np.shares_memory(w, model.params.values) and not w.flags.writeable
    feats = model.body_features(np.zeros((2, 3)))
    assert feats.shape == (2, 6)
    flat = Model(NetSpec(3, (), 4), NetSpec(3, (), 4).init(0))
    assert np.array_equal(flat.body_features(np.eye(3)), np.eye(3))  # identity body
    assert model_l2_norm(model) == pytest.approx(np.linalg.norm(model.params.values))
    with pytest.raises(ValueError):
        Model(spec, NetSpec(3, (7,), 4).init(0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_episodic_loss_never_exceeds_union_loss(seed):
    sources = [make_source(10 + seed, 10, 4, 2.0, 1.0),
               make_source(20 + seed, 10, 4, 2.0, 1.0)]
    bench = benchmark_from_sources(sources)
    spec = NetSpec(4, (16,), 2)
    model = Model(spec, spec.init(seed))
    tasks = [sample_task(bench, "test", 3, 2, 4, rng_seed=(seed, i)) for i in range(4)]
    episodic, union_loss = episodic_vs_union_loss(model, bench, tasks)
    assert episodic <= union_loss + 1e-9
    with pytest.raises(ValueError):
        episodic_vs_union_loss(model, bench, [])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_episodic_side_is_the_penalized_objective_on_separable_queries(seed):
    # Means 8 apart at spread 0.3: every query set is separable, so an
    # unpenalized per-task head runs off toward zero loss. The bound compares
    # the objective the refit minimizes, which stays well above zero there.
    bench = benchmark_from_sources([make_source(40 + seed, 20, 4, 8.0, 0.3)])
    spec = NetSpec(4, (16,), 2)
    model = Model(spec, spec.init(seed))
    tasks = [sample_task(bench, "test", 3, 2, 4, rng_seed=(seed, i)) for i in range(4)]
    episodic, union_loss = episodic_vs_union_loss(model, bench, tasks)
    objectives, rows = [], []
    for task in tasks:
        fitted = fit_head(model, task.query, n_classes=task.n_way)
        logits = forward(fitted.spec, fitted.params, task.query.inputs)
        assert np.array_equal(np.argmax(logits, axis=1), task.query.labels)
        w, b = fitted.head()
        objectives.append(_ce(logits, task.query.labels)
                          + HEAD_L2 / 2 * (np.sum(w * w) + np.sum(b * b)))
        rows.append(len(task.query))
    assert episodic == pytest.approx(np.average(objectives, weights=rows), rel=1e-12)
    assert episodic > 1e-3
    assert episodic <= union_loss + 1e-9

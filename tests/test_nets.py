"""MLP forward/loss/gradient machinery against independent oracles.

The forward pass is checked against nested pure-python loops, the loss
against scipy's log_softmax, plain gradients against central differences,
the closed-form kernel (`cross_entropy_and_grad`, `cross_entropy_hvp`)
against the autodiff tape (single and double backward), the product also
against central differences of the kernel gradient, and the unrolled
adaptation gradients against both closed forms (quadratic objective) and a
manual numpy SGD loop.
"""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from metalab.autodiff import add, backward, constant, exp, mul, tsum
from metalab.learners import Model
from metalab.nets import (
    Batch,
    NetSpec,
    NumericalError,
    ParamVector,
    ShapeError,
    activations,
    cross_entropy_and_grad,
    cross_entropy_hvp,
    finite_diff_grad,
    forward,
    forward_t,
    loss_and_grad,
    loss_and_grad_through_updates,
    net_loss,
    params_to_leaves,
    softmax_cross_entropy,
)


def _random_params(spec: NetSpec, seed: int) -> ParamVector:
    gen = np.random.default_rng(seed)
    return ParamVector(gen.normal(0.0, 0.7, size=spec.param_count()), spec.layout())


def _random_batch(spec: NetSpec, n: int, seed: int) -> Batch:
    gen = np.random.default_rng(seed)
    return Batch(gen.normal(size=(n, spec.input_dim)),
                 gen.integers(0, spec.output_dim, size=n))


def _forward_oracle(spec: NetSpec, params: ParamVector, inputs: np.ndarray) -> np.ndarray:
    """Forward pass with explicit python loops, no matrix ops."""
    segs = params.segments()
    rows = []
    for x in inputs:
        h = [float(v) for v in x]
        for i in range(spec.num_layers):
            w, b = segs[f"W{i}"], segs[f"b{i}"]
            nxt = []
            for j in range(w.shape[1]):
                acc = float(b[j])
                for k in range(w.shape[0]):
                    acc += h[k] * float(w[k, j])
                nxt.append(acc)
            if i < spec.num_layers - 1:
                nxt = [v if v > 0.0 else 0.0 for v in nxt]
            h = nxt
        rows.append(h)
    return np.array(rows)


# ---------------------------------------------------------------------------
# forward pass and loss values
# ---------------------------------------------------------------------------


@given(
    input_dim=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 4), max_size=2),
    output_dim=st.integers(2, 4),
    n=st.integers(1, 5),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=25, deadline=None)
def test_forward_matches_nested_loop_oracle(input_dim, hidden, output_dim, n, seed):
    spec = NetSpec(input_dim, tuple(hidden), output_dim)
    params = _random_params(spec, seed)
    inputs = np.random.default_rng(seed + 1).normal(size=(n, input_dim))
    got = forward(spec, params, inputs)
    want = _forward_oracle(spec, params, inputs)
    assert got.shape == (n, output_dim)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_forward_rejects_wrong_width_and_wrong_layout():
    spec = NetSpec(3, (5,), 2)
    params = _random_params(spec, 0)
    with pytest.raises(ShapeError):
        forward(spec, params, np.zeros((4, 2)))
    other = _random_params(NetSpec(3, (6,), 2), 0)
    with pytest.raises(ShapeError):
        forward(spec, other, np.zeros((4, 3)))


@pytest.mark.parametrize("seed", range(30))
def test_activations_are_the_one_plain_forward_pass(seed):
    # Random relu MLPs of depth 0-2: the top output is `forward` and the one
    # below it `Model.body_features`, bit for bit; hidden outputs are
    # rectified, and the logits agree with the tape's traced pass.
    gen = np.random.default_rng(seed)
    spec = NetSpec(int(gen.integers(1, 6)),
                   tuple(int(w) for w in gen.integers(1, 7, size=seed % 3)),
                   int(gen.integers(2, 6)))
    params = _random_params(spec, seed)
    inputs = gen.normal(size=(int(gen.integers(1, 9)), spec.input_dim))
    acts = activations(spec, params, inputs)
    assert [a.shape[1] for a in acts] == list(spec.dims)
    assert np.array_equal(acts[0], inputs)
    assert np.array_equal(acts[-1], forward(spec, params, inputs))
    model = Model(spec, params)
    assert np.array_equal(acts[-2], model.body_features(inputs))
    assert all(np.all(a >= 0.0) for a in acts[1:-1])
    traced = forward_t(spec, params_to_leaves(params), inputs).data
    np.testing.assert_allclose(acts[-1], traced, rtol=1e-12, atol=1e-12)
    wrong = np.zeros((2, spec.input_dim + 1))
    with pytest.raises(ShapeError):
        forward(spec, params, wrong)
    with pytest.raises(ShapeError):
        model.body_features(wrong)


@pytest.mark.parametrize("seed", range(12))
def test_stacked_activations_are_separate_calls_bitwise(seed):
    # B batches of one shape stacked along a leading axis, under one shared
    # (P,) vector and under one (B, P) vector per batch: every layer's
    # output equals that of B separate calls, bit for bit.
    gen = np.random.default_rng(seed)
    spec = NetSpec(int(gen.integers(1, 6)),
                   tuple(int(w) for w in gen.integers(1, 7, size=seed % 3)),
                   int(gen.integers(2, 6)))
    batches = int(gen.integers(1, 5))
    inputs = gen.normal(size=(batches, int(gen.integers(1, 9)), spec.input_dim))
    shared = _random_params(spec, seed).values
    per_batch = np.stack([_random_params(spec, 100 * seed + b).values
                          for b in range(batches)])
    for flat, pick in ((shared, lambda b: shared), (per_batch, lambda b: per_batch[b])):
        stacked = activations(spec, flat, inputs)
        for b in range(batches):
            alone = activations(spec, pick(b), inputs[b])
            assert all(s[b].tobytes() == a.tobytes() for s, a in zip(stacked, alone))
    with pytest.raises(ShapeError):
        activations(spec, per_batch, inputs[0])
    with pytest.raises(ShapeError):
        activations(spec, shared[:-1], inputs)


def _scipy_ce(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-softmax of the true class, by scipy."""
    logp = scipy.special.log_softmax(logits, axis=-1)
    return -float(np.mean(logp[np.arange(len(labels)), labels]))


def _ce(logits: np.ndarray, labels: np.ndarray) -> float:
    """`softmax_cross_entropy` on a copy of `logits`, as a float."""
    loss, _ = softmax_cross_entropy(np.array(logits, dtype=np.float64), np.asarray(labels))
    return float(loss)


def test_softmax_rows_sum_to_one_and_survive_large_logits():
    logits = np.array([[1000.0, 999.0, 0.0], [-1000.0, -999.0, -998.0]])
    for labels in (np.array([0, 2]), None):
        p = logits.copy()
        softmax_cross_entropy(p, labels)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(p, scipy.special.softmax(logits, axis=1), rtol=1e-12)


@given(n=st.integers(1, 8), k=st.integers(2, 5), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_cross_entropy_matches_scipy_log_softmax(n, k, seed):
    gen = np.random.default_rng(seed)
    logits = gen.normal(scale=5.0, size=(n, k))
    labels = gen.integers(0, k, size=n)
    assert _ce(logits, labels) == pytest.approx(_scipy_ce(logits, labels), rel=1e-12)


def test_cross_entropy_is_stable_for_extreme_logits():
    logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    labels = np.array([0, 0])
    got = _ce(logits, labels)
    assert np.isfinite(got)
    assert got == pytest.approx(_scipy_ce(logits, labels), rel=1e-12)


def test_uniform_logits_cost_log_k():
    # A zeroed network is the uniform predictor; its loss is exactly ln(k).
    for k in (2, 3, 5):
        spec = NetSpec(4, (6,), k)
        zero = ParamVector(np.zeros(spec.param_count()), spec.layout())
        batch = _random_batch(spec, 20, k)
        logits = forward(spec, zero, batch.inputs)
        assert _ce(logits, batch.labels) == pytest.approx(np.log(k), rel=1e-12)


def test_cross_entropy_validation():
    with pytest.raises(ShapeError):
        softmax_cross_entropy(np.zeros(3), np.array([0]))
    with pytest.raises(ShapeError):
        softmax_cross_entropy(np.zeros((2, 2)), np.array([0]))
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((0, 2)), np.array([], dtype=int))
    # It reads labels as flat picks, unchecked: its callers refuse a label
    # outside [0, k) (test_kernel_validates_shapes_and_labels and
    # test_fit_head_refuses_a_label_outside_its_width).


# ---------------------------------------------------------------------------
# plain gradients
# ---------------------------------------------------------------------------


def test_net_loss_value_agrees_with_untraced_path():
    spec = NetSpec(4, (8, 6), 3)
    params = _random_params(spec, 3)
    batch = _random_batch(spec, 12, 4)
    traced = net_loss(spec, batch)(params_to_leaves(params)).item()
    plain = _scipy_ce(forward(spec, params, batch.inputs), batch.labels)
    assert traced == pytest.approx(plain, rel=1e-14)


@pytest.mark.parametrize("hidden", [(), (8,), (8, 5)])
def test_grad_matches_central_differences(hidden):
    spec = NetSpec(4, hidden, 3)
    params = _random_params(spec, 11)
    batch = _random_batch(spec, 10, 12)
    loss_fn = net_loss(spec, batch)
    got = loss_and_grad(loss_fn, params)[1].values
    want = finite_diff_grad(loss_fn, params).values
    rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)
    assert rel < 1e-6


def test_loss_and_grad_returns_matching_value():
    spec = NetSpec(3, (5,), 2)
    params = _random_params(spec, 21)
    batch = _random_batch(spec, 9, 22)
    loss_fn = net_loss(spec, batch)
    value, g = loss_and_grad(loss_fn, params)
    assert value == pytest.approx(
        _scipy_ce(forward(spec, params, batch.inputs), batch.labels))
    assert g.layout == params.layout
    assert np.array_equal(g.values, loss_and_grad(loss_fn, params)[1].values)


def test_finite_diff_grad_rejects_bad_step():
    spec = NetSpec(2, (), 2)
    params = _random_params(spec, 0)
    with pytest.raises(ValueError):
        finite_diff_grad(net_loss(spec, _random_batch(spec, 3, 1)), params, step=0.0)


# ---------------------------------------------------------------------------
# the closed-form kernel against the autodiff oracle
# ---------------------------------------------------------------------------


def _assert_close_to_oracle(spec, flat, inputs, labels, value, g):
    """Kernel value and gradient within 1e-12 of autodiff, relative to scale."""
    params = ParamVector(flat, spec.layout())
    want_value, want = loss_and_grad(net_loss(spec, Batch(inputs, labels)), params)
    assert abs(float(value) - want_value) <= 1e-12 * abs(want_value)
    assert np.abs(g - want.values).max() <= 1e-12 * np.abs(want.values).max()


@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_autodiff_value_and_gradient(seed):
    # Random relu MLPs of depth 0-2; every fourth draw stacks three batches,
    # alternating a shared parameter vector and one vector per batch.
    gen = np.random.default_rng(seed)
    spec = NetSpec(int(gen.integers(1, 6)),
                   tuple(int(w) for w in gen.integers(1, 7, size=seed % 3)),
                   int(gen.integers(2, 6)))
    n = int(gen.integers(1, 9))
    lead = (3,) if seed % 4 == 0 else ()
    inputs = gen.normal(size=(*lead, n, spec.input_dim))
    labels = gen.integers(0, spec.output_dim, size=(*lead, n))
    shared = seed % 8 == 0
    flat = gen.normal(0.0, 0.7, size=(() if shared else lead) + (spec.param_count(),))
    value, g = cross_entropy_and_grad(spec, flat, inputs, labels)
    assert value.shape == lead and g.shape == (*lead, spec.param_count())
    if not lead:
        _assert_close_to_oracle(spec, flat, inputs, labels, value, g)
    for b in range(lead[0] if lead else 0):
        _assert_close_to_oracle(spec, flat if shared else flat[b], inputs[b], labels[b],
                                value[b], g[b])


def test_kernel_returns_fresh_gradients_and_repeats_its_bits():
    spec = NetSpec(4, (6,), 3)
    first, second = _random_batch(spec, 10, 1), _random_batch(spec, 10, 2)
    params = _random_params(spec, 3).values
    v1, g1 = cross_entropy_and_grad(spec, params, first.inputs, first.labels)
    kept = g1.copy()
    v2, g2 = cross_entropy_and_grad(spec, params, second.inputs, second.labels)
    assert np.array_equal(g1, kept) and not np.shares_memory(g1, g2)
    _assert_close_to_oracle(spec, params, second.inputs, second.labels, v2, g2)
    again, g3 = cross_entropy_and_grad(spec, params, first.inputs, first.labels)
    assert again == v1 and np.array_equal(g3, g1)


def test_kernel_validates_shapes_and_labels():
    spec = NetSpec(3, (4,), 2)
    params = _random_params(spec, 0).values
    with pytest.raises(ShapeError):
        cross_entropy_and_grad(spec, params, np.zeros((5, 4)), np.zeros(5, dtype=int))
    inputs, labels = np.zeros((2, 5, 3)), np.zeros((2, 5), dtype=int)
    with pytest.raises(ShapeError):
        cross_entropy_and_grad(spec, params[:-1], inputs, labels)
    with pytest.raises(ShapeError):
        cross_entropy_and_grad(spec, np.stack([params] * 3), inputs, labels)
    with pytest.raises(ValueError):
        cross_entropy_and_grad(spec, params, inputs, labels + 2)
    with pytest.raises(ValueError):
        cross_entropy_and_grad(spec, params, np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_kernel_flags_nonfinite_loss_and_gradient_like_autodiff():
    spec = NetSpec(2, (2,), 3)
    batch = Batch(np.ones((1, 2)), np.array([0]))
    overflow = ParamVector(np.full(spec.param_count(), 1e200), spec.layout())
    # Both hidden units are held dead by their bias, so the logits are b1 and
    # the loss is finite; the backprop signal (-1, 0.5, 0.5) against head
    # rows of +-1.7e308 overflows, and inf * 0 = nan reaches W0 through the
    # rectifier mask.
    big = 1.7e308
    dead = ParamVector(np.concatenate([np.ones(4), [-1e3, -1e3],
                                       np.tile([-big, big, big], 2), [-1e3, 0.0, 0.0]]),
                       spec.layout())
    with np.errstate(over="ignore", invalid="ignore"):
        for params, message in ((overflow, "non-finite value"),
                                (dead, "non-finite gradient in segment W0")):
            with pytest.raises(NumericalError, match=message):
                cross_entropy_and_grad(spec, params.values, batch.inputs, batch.labels)
            with pytest.raises(NumericalError, match=message):
                loss_and_grad(net_loss(spec, batch), params)


def _tape_hvp(spec: NetSpec, flat: np.ndarray, vec: np.ndarray, batch: Batch) -> np.ndarray:
    """H(flat) @ vec as the tape's gradient of <grad loss, vec> (double backward)."""
    leaves = params_to_leaves(ParamVector(flat, spec.layout()))
    ordered = [leaves[name] for name, _ in spec.layout()]
    cots = backward(net_loss(spec, batch)(leaves), ordered)
    direction = ParamVector(vec, spec.layout()).segments()
    inner = constant(0.0)
    for (name, _), cot in zip(spec.layout(), cots):
        inner = add(inner, tsum(mul(cot, constant(direction[name]))))
    return np.concatenate([t.data.ravel() for t in backward(inner, ordered)])


@pytest.mark.parametrize("seed", range(40))
def test_kernel_hvp_matches_tape_double_backward(seed):
    # Random relu MLPs of depth 0-2; every other draw stacks three batches,
    # with the parameters and the direction each either shared or per batch.
    gen = np.random.default_rng(seed)
    spec = NetSpec(int(gen.integers(1, 6)),
                   tuple(int(w) for w in gen.integers(1, 7, size=seed % 3)),
                   int(gen.integers(2, 6)))
    n = int(gen.integers(1, 9))
    lead = (3,) if seed % 2 == 0 else ()
    inputs = gen.normal(size=(*lead, n, spec.input_dim))
    labels = gen.integers(0, spec.output_dim, size=(*lead, n))
    flat = gen.normal(0.0, 0.7, size=(() if seed % 4 == 0 else lead) + (spec.param_count(),))
    vec = gen.normal(size=(() if seed % 3 == 0 else lead) + (spec.param_count(),))
    hv = cross_entropy_hvp(spec, flat, vec, inputs, labels)
    assert hv.shape == (*lead, spec.param_count())
    for b in range(lead[0]) if lead else (None,):
        def pick(a, stacked):
            return a[b] if b is not None and stacked else a
        want = _tape_hvp(spec, pick(flat, flat.ndim == 2), pick(vec, vec.ndim == 2),
                         Batch(pick(inputs, True), pick(labels, True)))
        assert np.abs(pick(hv, True) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_kernel_hvp_matches_central_differences_of_the_kernel_gradient(hidden):
    spec = NetSpec(3, hidden, 4)
    batch = _random_batch(spec, 7, 71)
    flat = _random_params(spec, 72).values
    vec = np.random.default_rng(73).normal(size=spec.param_count())
    eps = 1e-6
    up = cross_entropy_and_grad(spec, flat + eps * vec, batch.inputs, batch.labels)[1]
    down = cross_entropy_and_grad(spec, flat - eps * vec, batch.inputs, batch.labels)[1]
    want = (up - down) / (2 * eps)
    got = cross_entropy_hvp(spec, flat, vec, batch.inputs, batch.labels)
    assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)


def test_kernel_hvp_validates_and_flags_nonfinite_products():
    spec = NetSpec(2, (2,), 3)
    batch = Batch(np.ones((1, 2)), np.array([0]))
    params = _random_params(spec, 0).values
    with pytest.raises(ShapeError):
        cross_entropy_hvp(spec, params, params[:-1], batch.inputs, batch.labels)
    # Dead hidden units and a finite loss, as in the gradient case above: the
    # direction's head rows of +-1.7e308 overflow the R-signal below the
    # head, and inf * 0 = nan reaches W0 through the rectifier mask.
    big = 1.7e308
    dead = np.concatenate([np.ones(4), [-1e3, -1e3], np.ones(6), [-1e3, 0.0, 0.0]])
    vec = np.concatenate([np.zeros(6), np.tile([-big, big, big], 2), np.zeros(3)])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite Hessian-vector product in segment W0"):
            cross_entropy_hvp(spec, dead, vec, batch.inputs, batch.labels)


# ---------------------------------------------------------------------------
# gradients through unrolled adaptation
# ---------------------------------------------------------------------------


def _quadratic_loss(tensors):
    # 0.5 * ||p||^2 over all segments: inner SGD contracts p by (1 - lr).
    total = constant(0.0)
    for t in tensors.values():
        total = add(total, tsum(mul(t, t)))
    return mul(constant(0.5), total)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_unrolled_quadratic_closed_form(steps):
    layout = (("w", (4,)), ("v", (2, 3)))
    params = ParamVector(np.arange(1.0, 11.0), layout)
    lr = 0.3
    shrink = (1.0 - lr) ** steps
    value, g = loss_and_grad_through_updates(_quadratic_loss, params, steps, lr)
    assert value == pytest.approx(0.5 * shrink**2 * np.sum(params.values**2), rel=1e-12)
    np.testing.assert_allclose(g.values, shrink**2 * params.values, rtol=1e-12)
    g_fo = loss_and_grad_through_updates(_quadratic_loss, params, steps, lr,
                                         first_order=True)[1]
    np.testing.assert_allclose(g_fo.values, shrink * params.values, rtol=1e-12)


def test_zero_steps_is_bitwise_plain_gradient():
    spec = NetSpec(4, (6,), 3)
    params = _random_params(spec, 31)
    loss_fn = net_loss(spec, _random_batch(spec, 8, 32))
    for first_order in (False, True):
        unrolled = loss_and_grad_through_updates(loss_fn, params, 0, 0.7,
                                                 first_order=first_order)[1]
        assert np.array_equal(unrolled.values, loss_and_grad(loss_fn, params)[1].values)


def _manual_sgd(loss_fn, params: ParamVector, steps: int, lr: float) -> ParamVector:
    current = params
    for _ in range(steps):
        g = loss_and_grad(loss_fn, current)[1]
        current = ParamVector(current.values - lr * g.values, params.layout)
    return current


def test_first_order_gradient_is_plain_gradient_at_adapted_point():
    # Detached inner steps make the chain Jacobian the identity, so the
    # result must equal the outer gradient evaluated after a manual loop.
    spec = NetSpec(4, (6,), 3)
    params = _random_params(spec, 41)
    inner_fn = net_loss(spec, _random_batch(spec, 10, 42))
    outer_fn = net_loss(spec, _random_batch(spec, 15, 43))
    for steps in (1, 4):
        got = loss_and_grad_through_updates(
            outer_fn, params, steps, 0.05, inner_loss_fn=inner_fn, first_order=True)[1]
        adapted = _manual_sgd(inner_fn, params, steps, 0.05)
        want = loss_and_grad(outer_fn, adapted)[1]
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-14)


def test_higher_order_gradient_matches_finite_differences_of_composite():
    # phi(p) = outer(sgd_k(p)); differentiate the whole composite numerically.
    spec = NetSpec(3, (4,), 2)
    params = _random_params(spec, 51)
    inner_fn = net_loss(spec, _random_batch(spec, 8, 52))
    outer_fn = net_loss(spec, _random_batch(spec, 12, 53))
    steps, lr = 2, 0.1

    def phi(p: ParamVector) -> float:
        adapted = _manual_sgd(inner_fn, p, steps, lr)
        return loss_and_grad(outer_fn, adapted)[0]

    got = loss_and_grad_through_updates(outer_fn, params, steps, lr,
                                        inner_loss_fn=inner_fn)[1].values
    eps = 1e-5
    want = np.zeros_like(params.values)
    for i in range(len(params)):
        up, dn = params.values.copy(), params.values.copy()
        up[i] += eps
        dn[i] -= eps
        want[i] = (phi(ParamVector(up, params.layout))
                   - phi(ParamVector(dn, params.layout))) / (2 * eps)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel < 1e-6


def test_unrolled_value_is_outer_loss_at_adapted_point():
    spec = NetSpec(3, (4,), 2)
    params = _random_params(spec, 61)
    inner_fn = net_loss(spec, _random_batch(spec, 8, 62))
    outer_fn = net_loss(spec, _random_batch(spec, 12, 63))
    value, _ = loss_and_grad_through_updates(
        outer_fn, params, 3, 0.08, inner_loss_fn=inner_fn)
    adapted = _manual_sgd(inner_fn, params, 3, 0.08)
    assert value == pytest.approx(loss_and_grad(outer_fn, adapted)[0], rel=1e-12)


def test_unrolled_rejects_negative_steps_and_flags_nonfinite():
    layout = (("w", (1,)),)
    with pytest.raises(ValueError):
        loss_and_grad_through_updates(_quadratic_loss, ParamVector(np.ones(1), layout), -1, 0.1)

    def explosive(tensors):
        return exp(tsum(mul(tensors["w"], constant(1.0))))

    big = ParamVector(np.array([800.0]), layout)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            loss_and_grad_through_updates(explosive, big, 1, 0.1)  # inner evaluation
        with pytest.raises(NumericalError):
            loss_and_grad_through_updates(explosive, big, 0, 0.1)  # outer evaluation


# ---------------------------------------------------------------------------
# containers and validation
# ---------------------------------------------------------------------------


def test_param_vector_views_share_memory_and_are_read_only():
    pv = ParamVector(np.arange(7.0), (("a", (2, 2)), ("b", (3,))))
    views = pv.views()
    for name, seg in pv.segments().items():
        assert np.array_equal(views[name], seg)
        assert np.shares_memory(views[name], pv.values)
        assert not np.shares_memory(seg, pv.values) and seg.flags.writeable
    with pytest.raises(ValueError):
        views["b"][0] = 1.0
    assert pv.values.flags.writeable


def test_param_vector_round_trip_and_validation():
    layout = (("a", (2, 2)), ("b", (3,)))
    pv = ParamVector(np.arange(7.0), layout)
    segs = pv.segments()
    assert segs["a"].shape == (2, 2) and segs["b"].shape == (3,)
    rebuilt = ParamVector.from_segments(layout, segs)
    assert np.array_equal(rebuilt.values, pv.values)
    assert np.array_equal(pv.segments()["b"], [4.0, 5.0, 6.0])
    with pytest.raises(KeyError):
        pv.segments()["missing"]
    with pytest.raises(ShapeError):
        ParamVector(np.arange(6.0), layout)
    with pytest.raises(ValueError):
        ParamVector(np.array([1.0, np.nan] + [0.0] * 5), layout)
    with pytest.raises(ShapeError):
        ParamVector.from_segments(layout, {"a": np.zeros((2, 2)), "b": np.zeros(4)})


def test_netspec_layout_and_validation():
    spec = NetSpec(4, (6, 5), 3)
    assert spec.dims == (4, 6, 5, 3)
    assert spec.num_layers == 3
    assert spec.layout() == (
        ("W0", (4, 6)), ("b0", (6,)),
        ("W1", (6, 5)), ("b1", (5,)),
        ("W2", (5, 3)), ("b2", (3,)),
    )
    assert spec.head_names() == ("W2", "b2")
    assert spec.param_count() == 4 * 6 + 6 + 6 * 5 + 5 + 5 * 3 + 3
    # a dimension that is not an integer is refused, not truncated
    for bad in (8.7, True):
        with pytest.raises(ValueError, match=str(bad)):
            NetSpec(3, (bad,), 2)
    with pytest.raises(ValueError, match="2.5"):
        NetSpec(2.5, (6,), 2)
    with pytest.raises(ValueError, match="3.0"):
        NetSpec(2, (6,), 3.0)
    numpy_dims = NetSpec(np.int64(4), (np.int32(6), np.int64(5)), np.int64(3))
    assert numpy_dims == spec and all(type(d) is int for d in numpy_dims.dims)
    with pytest.raises(ValueError):
        NetSpec(4, (6,), 1)
    with pytest.raises(ValueError):
        NetSpec(0, (6,), 2)


def test_batch_validation():
    with pytest.raises(ShapeError):
        Batch(np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(ShapeError):
        Batch(np.zeros((3, 2)), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 2)), np.array([0, -1]))
    assert len(Batch(np.zeros((5, 2)), np.zeros(5, dtype=int))) == 5


def test_init_is_deterministic_with_he_scale_and_zero_biases():
    spec = NetSpec(50, (40,), 6)
    a = spec.init(9)
    b = spec.init(9)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, spec.init(10).values)
    assert np.array_equal(a.segments()["b0"], np.zeros(40))
    assert np.array_equal(a.segments()["b1"], np.zeros(6))
    # He scaling: sample std of W0 near sqrt(2 / fan_in).
    assert a.segments()["W0"].std() == pytest.approx(np.sqrt(2.0 / 50), rel=0.1)


def test_init_body_is_identical_across_head_widths():
    # Same seed, different output widths: the shared body draws first from
    # the same stream, so hidden layers must agree bit for bit.
    wide = NetSpec(6, (16, 8), 7).init(9)
    narrow = NetSpec(6, (16, 8), 3).init(9)
    for name in ("W0", "b0", "W1", "b1"):
        assert np.array_equal(wide.segments()[name], narrow.segments()[name])

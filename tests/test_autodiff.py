"""Engine-level checks: adjoint identities, numeric oracles, second order.

Every differentiation result is compared against an independent route:
central finite differences for gradients, dot-product (adjoint) identities
for individual vjps, and closed-form calculus for the second-order cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metalab import autodiff as ad


def _finite_diff(fn, xs, step=1e-6):
    """Central-difference gradient of a scalar fn of numpy arrays."""
    grads = []
    for k, x in enumerate(xs):
        g = np.zeros_like(x, dtype=np.float64)
        flat = g.reshape(-1)
        xf = x.reshape(-1)
        for i in range(xf.size):
            orig = xf[i]
            xf[i] = orig + step
            hi = fn(*xs)
            xf[i] = orig - step
            lo = fn(*xs)
            xf[i] = orig
            flat[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def _grad(fn, arrays):
    leaves = [ad.leaf(a) for a in arrays]
    out = fn(*leaves)
    return [g.data for g in ad.backward(out, leaves)]


def _relerr(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


# ---------------------------------------------------------------------------
# first-order gradients vs finite differences
# ---------------------------------------------------------------------------


def test_composite_gradient_matches_finite_difference():
    gen = np.random.default_rng(7)
    w = gen.normal(size=(4, 3))
    x = gen.normal(size=(5, 4))
    b = gen.normal(size=(3,))

    def fn_np(w, x, b):
        h = np.maximum(x @ w + b, 0.0)
        z = np.exp(h / 3.0)
        return float(np.sum(np.log(1.0 + z)))

    def fn_t(w, x, b):
        h = ad.relu(ad.add(ad.matmul(x, w), ad.broadcast_to(b, (5, 3))))
        z = ad.exp(h / 3.0)
        return ad.tsum(ad.log(ad.constant(1.0) + z))

    got = _grad(fn_t, [w, x, b])
    want = _finite_diff(lambda *a: fn_np(*a), [w, x, b])
    for g, f in zip(got, want):
        assert _relerr(g, f) < 1e-7


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.integers(2, 5))
def test_rational_chain_gradient(seed, n, m):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(n, m)) + 3.0
    b = gen.normal(size=(m,))

    def fn_np(a, b):
        return float(np.sum((a * a) / (a + 10.0)) + np.sum(b**3))

    def fn_t(a, b):
        return ad.tsum(a * a / (a + 10.0)) + ad.tsum(b**3)

    got = _grad(fn_t, [a, b])
    want = _finite_diff(lambda *xs: fn_np(*xs), [a, b])
    for g, f in zip(got, want):
        assert _relerr(g, f) < 1e-6


def test_many_random_small_graphs():
    gen = np.random.default_rng(123)
    for _ in range(25):
        n, m = gen.integers(2, 6), gen.integers(2, 6)
        x = gen.normal(size=(n, m))
        y = gen.normal(size=(m, n))

        def fn_np(x, y):
            z = x @ y
            return float(np.sum(np.maximum(z, 0) * z) / (n * m))

        def fn_t(x, y):
            z = ad.matmul(x, y)
            return ad.tsum(ad.relu(z) * z) / float(n * m)

        got = _grad(fn_t, [x, y])
        want = _finite_diff(lambda *a: fn_np(*a), [x, y])
        for g, f in zip(got, want):
            assert _relerr(g, f) < 1e-6


# ---------------------------------------------------------------------------
# adjoint identities: <cot, J v> == <J^T cot, v> per primitive
# ---------------------------------------------------------------------------


def _adjoint_check(op_t, op_np, x_shape, seed, tol=1e-7):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=x_shape)
    v = gen.normal(size=x_shape)
    out_shape = op_np(x).shape
    cot = gen.normal(size=out_shape)

    leafx = ad.leaf(x)
    out = op_t(leafx)
    (gx,) = ad.backward(ad.tsum(out * ad.constant(cot)), [leafx])

    eps = 1e-7
    jv = (op_np(x + eps * v) - op_np(x - eps * v)) / (2 * eps)
    lhs = float(np.sum(cot * jv))
    rhs = float(np.sum(gx.data * v))
    assert abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize("case", [
    ("transpose", lambda t: ad.transpose(t), lambda x: x.T, (3, 4)),
    ("reshape", lambda t: ad.reshape(t, (2, 6)), lambda x: x.reshape(2, 6), (3, 4)),
    ("broadcast", lambda t: ad.broadcast_to(t, (5, 4)),
     lambda x: np.broadcast_to(x, (5, 4)), (4,)),
    ("sum-axis0", lambda t: ad.tsum(t, axis=0), lambda x: x.sum(axis=0), (3, 4)),
    ("sum-keepdims", lambda t: ad.tsum(t, axis=1, keepdims=True),
     lambda x: x.sum(axis=1, keepdims=True), (3, 4)),
    ("mean", lambda t: ad.mean(t), lambda x: np.array(x.mean()), (3, 4)),
    ("exp", lambda t: ad.exp(t), np.exp, (3, 4)),
    ("reciprocal", lambda t: ad.reciprocal(t + 5.0),
     lambda x: 1.0 / (x + 5.0), (3, 4)),
    ("logsumexp", lambda t: ad.logsumexp_rows(t),
     lambda x: np.log(np.exp(x).sum(axis=1)), (3, 4)),
], ids=lambda c: c[0])
def test_adjoint_identity(case):
    _, op_t, op_np, shape = case
    for seed in (0, 1, 2):
        _adjoint_check(op_t, op_np, shape, seed)


def test_take_scatter_are_mutual_adjoints():
    """take_rows picks a[i, idx[i]]; scatter_rows is its exact transpose."""
    gen = np.random.default_rng(5)
    idx = np.array([0, 2, 2, 1, 0])
    a = gen.normal(size=(5, 3))
    leafa = ad.leaf(a)
    out = ad.take_rows(leafa, idx)
    np.testing.assert_array_equal(out.data, a[np.arange(5), idx])
    cot = gen.normal(size=(5,))
    (ga,) = ad.backward(ad.tsum(out * ad.constant(cot)), [leafa])
    want = np.zeros((5, 3))
    want[np.arange(5), idx] = cot
    np.testing.assert_allclose(ga.data, want, rtol=0, atol=0)

    v = gen.normal(size=(5,))
    leafv = ad.leaf(v)
    out2 = ad.scatter_rows(leafv, idx, 3)
    want2 = np.zeros((5, 3))
    want2[np.arange(5), idx] = v
    np.testing.assert_array_equal(out2.data, want2)
    cot2 = gen.normal(size=(5, 3))
    (gv,) = ad.backward(ad.tsum(out2 * ad.constant(cot2)), [leafv])
    np.testing.assert_allclose(gv.data, cot2[np.arange(5), idx], rtol=0, atol=0)


def test_logsumexp_matches_oracle_and_shift_invariance():
    gen = np.random.default_rng(11)
    x = gen.normal(size=(6, 4)) * 3
    got = ad.logsumexp_rows(ad.constant(x)).data
    want = np.log(np.exp(x).sum(axis=1))
    np.testing.assert_allclose(got, want, rtol=1e-12)
    # the internal max-shift must make large inputs exact, not overflow
    big = x + 500.0
    got_big = ad.logsumexp_rows(ad.constant(big)).data
    np.testing.assert_allclose(got_big, want + 500.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# structure of backward
# ---------------------------------------------------------------------------


def test_backward_requires_scalar_output():
    t = ad.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(t + 1.0, [t])


def test_unreached_leaf_gets_zero_gradient():
    a = ad.leaf(np.ones(3))
    b = ad.leaf(np.ones(3))
    out = ad.tsum(a * 2.0)
    ga, gb = ad.backward(out, [a, b])
    np.testing.assert_array_equal(ga.data, np.full(3, 2.0))
    np.testing.assert_array_equal(gb.data, np.zeros(3))


def test_constant_subgraphs_are_pruned():
    a = ad.leaf(np.ones(3))
    c = ad.constant(np.arange(3.0))
    out = ad.tsum(a * c + c * c)
    assert (c * c).parents == ()  # constant-only ops keep no history
    (ga,) = ad.backward(out, [a])
    np.testing.assert_array_equal(ga.data, np.arange(3.0))


def test_gradient_is_deterministic_bitwise():
    gen = np.random.default_rng(3)
    x = gen.normal(size=(4, 4))

    def run():
        t = ad.leaf(x)
        out = ad.tsum(ad.relu(ad.matmul(t, ad.transpose(t))) * 0.5)
        return ad.backward(out, [t])[0].data

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_linearity_of_gradients():
    gen = np.random.default_rng(9)
    x = gen.normal(size=(3, 3))

    def g_of(alpha, beta):
        t = ad.leaf(x)
        out = ad.constant(alpha) * ad.tsum(t * t) + ad.constant(beta) * ad.tsum(ad.exp(t))
        return ad.backward(out, [t])[0].data

    combined = g_of(2.0, 3.0)
    parts = 2.0 * g_of(1.0, 0.0) + 3.0 * g_of(0.0, 1.0)
    np.testing.assert_allclose(combined, parts, rtol=1e-12)


def test_pow_requires_positive_integer():
    t = ad.leaf(np.ones(2))
    with pytest.raises((ValueError, TypeError)):
        t ** 0.5
    with pytest.raises((ValueError, TypeError)):
        t ** 0


def test_matmul_requires_2d():
    with pytest.raises(ValueError):
        ad.matmul(ad.leaf(np.ones(3)), ad.leaf(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# second order
# ---------------------------------------------------------------------------


def test_grad_of_grad_cubic():
    x = ad.leaf(np.array([1.5, -2.0, 0.5]))
    out = ad.tsum(x ** 3)
    (g,) = ad.backward(out, [x])  # 3x^2, still differentiable
    (h,) = ad.backward(ad.tsum(g), [x])  # d/dx sum(3x^2) = 6x
    np.testing.assert_allclose(h.data, 6.0 * x.data, rtol=1e-14)


def test_grad_of_grad_with_matmul():
    gen = np.random.default_rng(21)
    a = gen.normal(size=(3, 3))
    x = ad.leaf(gen.normal(size=(3, 3)))
    # f = sum((A x)^2); grad f = 2 A^T A x; sum(grad f) differentiated again
    # gives 2 A^T A 1 in every column-gradient slot.
    out = ad.tsum(ad.matmul(ad.constant(a), x) ** 2)
    (g,) = ad.backward(out, [x])
    np.testing.assert_allclose(g.data, 2.0 * a.T @ a @ x.data, rtol=1e-12)
    (h,) = ad.backward(ad.tsum(g), [x])
    want = np.tile((2.0 * a.T @ a @ np.ones((3, 1))), (1, 3))
    np.testing.assert_allclose(h.data, want, rtol=1e-12)


def test_unrolled_sgd_second_order_closed_form():
    """d/dp of f(p - eta f'(p)) for f = 0.5 p^2 is (1 - eta)^2 p per step."""
    eta = 0.3
    for steps, factor in ((1, (1 - eta) ** 2), (2, (1 - eta) ** 4)):
        p = ad.leaf(np.array([2.0, -1.0, 0.25]))
        cur = p
        for _ in range(steps):
            loss = ad.tsum(cur * cur) * 0.5
            (g,) = ad.backward(loss, [cur])
            cur = cur - ad.constant(eta) * g
        outer = ad.tsum(cur * cur) * 0.5
        (gp,) = ad.backward(outer, [p])
        np.testing.assert_allclose(gp.data, factor * p.data, rtol=1e-12)


def test_first_order_truncation_via_detach():
    eta = 0.3
    p = ad.leaf(np.array([2.0, -1.0]))
    loss = ad.tsum(p * p) * 0.5
    (g,) = ad.backward(loss, [p])
    cur = p - ad.constant(eta) * g.detach()
    outer = ad.tsum(cur * cur) * 0.5
    (gp,) = ad.backward(outer, [p])
    np.testing.assert_allclose(gp.data, (1 - eta) * p.data, rtol=1e-12)

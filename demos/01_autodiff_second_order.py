"""Reverse-mode autodiff from scratch, including gradients of gradients.

The trainers differentiate through unrolled SGD, so the tape has to support
building a second tape over operations that were themselves produced by a
backward pass. This script checks the machinery against two oracles anyone
can verify by hand: central finite differences, and the closed form for a
quadratic bowl, where k inner SGD steps scale the parameter by (1-lr)^k and
the higher-order outer gradient picks up the factor twice.
"""

import numpy as np

from metalab.autodiff import add, constant, mul, tsum
from metalab.nets import (
    Batch,
    NetSpec,
    ParamVector,
    finite_diff_grad,
    loss_and_grad,
    loss_and_grad_through_updates,
    net_loss,
)

gen = np.random.default_rng(0)

# --- plain gradients on a small relu classifier ---------------------------
spec = NetSpec(input_dim=3, hidden_dims=(8, 5), output_dim=4)
params = spec.init(seed=1)
batch = Batch(gen.normal(size=(10, 3)), gen.integers(0, 4, size=10))
loss_fn = net_loss(spec, batch)

loss, g = loss_and_grad(loss_fn, params)
fd = finite_diff_grad(loss_fn, params)
rel = np.linalg.norm(g.values - fd.values) / np.linalg.norm(fd.values)
print(f"cross-entropy at init: {loss:.6f}")
print(f"backward vs central differences over {len(params)} parameters: "
      f"relative error {rel:.2e}")

# --- differentiate through inner SGD steps ---------------------------------


def half_norm_sq(tensors):
    total = constant(0.0)
    for t in tensors.values():
        total = add(total, tsum(mul(t, t)))
    return mul(constant(0.5), total)


layout = (("w", (4,)),)
p0 = ParamVector(np.array([1.0, -2.0, 0.5, 3.0]), layout)
lr, steps = 0.2, 3
shrink = (1.0 - lr) ** steps

value, g_ho = loss_and_grad_through_updates(half_norm_sq, p0, steps, lr)
g_fo = loss_and_grad_through_updates(half_norm_sq, p0, steps, lr, first_order=True)[1]

print(f"\nquadratic bowl, {steps} inner steps at lr {lr}:")
print(f"  unrolled loss    {value:.10f}   closed form {0.5 * shrink**2 * p0.values @ p0.values:.10f}")
print(f"  ho outer grad    {np.round(g_ho.values, 10)}")
print(f"  (1-lr)^(2k) * p  {np.round(shrink**2 * p0.values, 10)}")
print(f"  fo outer grad    {np.round(g_fo.values, 10)}")
print(f"  (1-lr)^k * p     {np.round(shrink * p0.values, 10)}")

# --- the fo/ho distinction on a real episode -------------------------------
support = Batch(gen.normal(size=(8, 3)), gen.integers(0, 4, size=8))
query = Batch(gen.normal(size=(12, 3)), gen.integers(0, 4, size=12))
inner = net_loss(spec, support)
outer = net_loss(spec, query)

g_ho = loss_and_grad_through_updates(outer, params, 5, 0.05, inner_loss_fn=inner)[1]
g_fo = loss_and_grad_through_updates(outer, params, 5, 0.05, inner_loss_fn=inner,
                                     first_order=True)[1]
angle = (g_ho.values @ g_fo.values
         / (np.linalg.norm(g_ho.values) * np.linalg.norm(g_fo.values)))
print(f"\nepisode outer gradients after 5 adaptation steps:")
print(f"  ho norm {np.linalg.norm(g_ho.values):.6f}, "
      f"fo norm {np.linalg.norm(g_fo.values):.6f}, cosine {angle:.4f}")
print("  (first-order drops the inner Jacobian, so the two differ "
      "whenever the inner loss curves)")

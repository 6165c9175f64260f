"""Brute-force oracle for the body's Fisher-information diagonal."""

import numpy as np

from metalab.learners import Model
from metalab.nets import Batch, forward, loss_and_grad, net_loss, softmax


def brute_fim_body(model: Model, batch: Batch) -> np.ndarray:
    """Posterior-weighted squared score, one autodiff pass per (example, class)."""
    spec = model.spec
    probs = softmax(forward(spec, model.params, batch))
    fim = np.zeros(len(model.params))
    for i in range(len(batch)):
        for c in range(spec.output_dim):
            single = Batch(batch.inputs[i:i + 1], np.array([c]))
            g = loss_and_grad(net_loss(spec, single), model.params)[1].values
            fim += probs[i, c] * g * g
    return fim[: model.head_boundary] / len(batch)

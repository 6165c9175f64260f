"""Train both contenders on one benchmark and meta-test them head to head.

Union pre-training (PT) fits one classifier over every training class under
global labels; at meta-test its body is frozen and a fresh logistic head is
refit per episode. MAML instead meta-learns an initialization whose value
is measured after a few SGD steps on each episode's support set. Both see
the same evaluation episodes, so their per-task accuracy vectors are
directly comparable.
"""

import numpy as np

from metalab.learners import (
    TrainConfig,
    meta_test,
    model_l2_norm,
    train_maml,
    train_pt,
)
from metalab.stats import decide_all
from metalab.tasks import benchmark_from_sources, make_source, sample_task

bench = benchmark_from_sources([make_source(seed=0, num_classes=20,
                                            input_dim=4, mean_scale=2.0,
                                            class_spread=1.0)])
shared = dict(seed=0, hidden_dims=(16,), n_way=3, k_shot=5, q_query=10)

pt_cfg = TrainConfig(method="pt", max_epochs=200, **shared)
pt = train_pt(bench, pt_cfg)
print(f"pt:   {pt.epochs_run} epochs, final loss {pt.loss_curve[-1]:.4f}, "
      f"converged={pt.converged}, |params| {model_l2_norm(pt.model):.3f}")

maml_cfg = TrainConfig(method="fo_maml", max_epochs=60, meta_batch=8, **shared)
maml = train_maml(bench, maml_cfg)
print(f"maml: {maml.epochs_run} epochs, final loss {maml.loss_curve[-1]:.4f}, "
      f"converged={maml.converged}, |params| {model_l2_norm(maml.model):.3f}")

# --- shared meta-test episodes ----------------------------------------------
tasks = [sample_task(bench, "test", 3, 5, 10, rng_seed=(99, i))
         for i in range(60)]
pt_eval = meta_test(pt.model, "pt_head_refit", tasks)
print(f"\npt head refit     : {pt_eval.mean:.4f} +/- {pt_eval.ci95_halfwidth:.4f}")
for steps in (5, 10):
    ev = meta_test(maml.model, "maml_adapt", tasks, steps=steps,
                   lr=maml_cfg.inner_lr)
    print(f"maml {steps:2d}-step adapt: {ev.mean:.4f} +/- {ev.ci95_halfwidth:.4f}")

    es, ci, ci_1pct = decide_all(pt_eval.per_task_accuracy, ev.per_task_accuracy,
                                 f"maml{steps}")
    print(f"  effect size {es.effect_size:+.3f} vs threshold {es.delta:.3f} "
          f"-> {es.verdict}; CI overlap -> {ci.verdict}, "
          f"with 1% allowance -> {ci_1pct.verdict}")

print("\n(positive effect size favors PT; the verdict is H0 when the "
      "standardized gap is inside the 1% threshold)")

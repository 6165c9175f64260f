"""The effect-size decision rule, and replaying published decision tables.

The lab adjudicates "who won" with Cohen's d against a practical
significance threshold of 1% accuracy, standardized by the pooled standard
deviation. The package ships reference tables from large-scale few-shot
comparison studies (effect sizes with verdicts, their thresholds, raw
accuracy summaries); this script replays the rule over them and rebuilds
their summary statistics.
"""

import numpy as np

from metalab import refdata
from metalab.harness import reproduce_decisions
from metalab.stats import (
    H0,
    H1_MAML,
    H1_PT,
    SampleStats,
    cohens_d_from_stats,
    decide_from_es,
    delta_threshold_from_stats,
    summarize_cells,
)

# --- the rule on raw samples --------------------------------------------------
gen = np.random.default_rng(0)
pt_accs = 0.70 + 0.10 * gen.standard_normal(300)
maml_accs = 0.68 + 0.10 * gen.standard_normal(300)
a, b = SampleStats.from_sample(pt_accs), SampleStats.from_sample(maml_accs)
es = cohens_d_from_stats(a, b)
delta = delta_threshold_from_stats(a, b)
print(f"simulated comparison: es {es:+.4f}, 1% threshold {delta:.4f} "
      f"-> {decide_from_es(es, delta)}")

# --- replay the packaged reference tables --------------------------------------
from pathlib import Path

ref = Path(refdata.__file__).parent
rows = reproduce_decisions(ref / "reported_effect_sizes.csv",
                           ref / "reported_deltas.csv")
verifiable = [r for r in rows if r.match is not None]
print(f"\nreference decision cells: {len(rows)} total, "
      f"{len(verifiable)} with published thresholds, "
      f"{sum(r.match for r in verifiable)} verdicts reproduced, "
      f"{sum(not r.match for r in verifiable)} mismatches")

edge = [r for r in rows if r.delta is not None and 0 < r.es - r.delta < 0.005]
for r in edge:
    print(f"  boundary cell {r.dataset}/{r.variant}: es {r.es} vs "
          f"delta {r.delta} -> {r.computed_verdict}")

# --- rebuild the verdict-count, bucket-mean and pooled-H1 summaries -------------
print(f"\n{'setting':14s} {'n':>3s} {'H0':>3s} {'PT':>3s} {'MAML':>4s}"
      f" {'mean(H0)':>9s} {'mean(PT)':>9s} {'mean(MAML)':>10s}"
      f"  pooled H1 (95% CI)")
for counts in refdata.load_summary_counts():
    cells = [(r.es, r.verdict) for r in refdata.load_effect_sizes(counts.setting)]
    g = summarize_cells(cells, group=counts.setting)
    assert g.counts == {H0: counts.h0, H1_PT: counts.h1_pt, H1_MAML: counts.h1_maml}
    fmt = lambda v: "     --  " if v is None else f"{v:+9.4f}"
    print(f"{counts.setting:14s} {g.total:3d} {g.counts[H0]:3d} "
          f"{g.counts[H1_PT]:3d} {g.counts[H1_MAML]:4d} "
          f"{fmt(g.bucket_means[H0])} {fmt(g.bucket_means[H1_PT])} "
          f"{fmt(g.bucket_means[H1_MAML])}  "
          f"{g.h1_pooled_mean:+.4f} +/- {g.h1_pooled_ci95:.4f}")

# --- effect sizes from accuracy tables alone -------------------------------------
print("\nrebuilding effect sizes from accuracy means and CI halfwidths (n=300):")
acc = {(r.dataset, r.method): r for r in refdata.load_accuracies("lowdiv_fo")}
for dataset in ("cifar-fs", "mini-imagenet", "flower"):
    pt, m5 = acc[(dataset, "pt")], acc[(dataset, "maml5")]
    d = cohens_d_from_stats(SampleStats.from_ci_halfwidth(pt.mean, pt.ci95, pt.n),
                            SampleStats.from_ci_halfwidth(m5.mean, m5.ci95, m5.n))
    reported = next(r.es for r in refdata.load_effect_sizes("lowdiv_fo")
                    if r.dataset == dataset and r.variant == "maml5")
    print(f"  {dataset:14s} reconstructed {d:+.4f}, reported {reported:+.4f}")

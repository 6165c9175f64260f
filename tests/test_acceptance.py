"""Package acceptance criteria, one test (and one pass/fail line) per criterion.

Criteria 1-4 replay the packaged reference tables through the statistics
machinery; 5-9 are oracle and property checks with wall-clock budgets; 10
runs both experiment presets across seeds and *reports* the qualitative
trend (as a warning) without asserting it. Reference cells that are not
the arithmetic consequence of their own reported rows are marked
xfail(strict) with the faithful values pinned in the hard-asserted tests;
the row exclusions that regenerate the printed numbers are asserted too.
"""

import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from fim_oracle import brute_fim_body
from metalab import refdata
from metalab.autodiff import add, constant, mul, tsum
from metalab.harness import (
    emit_report,
    high_diversity_preset,
    low_diversity_preset,
    reproduce_decisions,
    run_comparison,
)
from metalab.learners import (
    Model,
    TrainConfig,
    adapt,
    episodic_vs_union_loss,
    fit_head,
    meta_test,
)
from metalab.nets import (
    Batch,
    NetSpec,
    ParamVector,
    finite_diff_grad,
    forward,
    loss_and_grad,
    loss_and_grad_through_updates,
    net_loss,
)
from metalab.stats import (
    H0,
    H1_MAML,
    H1_PT,
    SampleStats,
    cohens_d_from_stats,
    delta_threshold_from_stats,
    summarize_cells,
)
from metalab.task2vec import (
    Probe,
    build_probe,
    distance_histogram,
    diversity_coefficient,
    embed_task,
)
from metalab.tasks import (
    benchmark_from_sources,
    make_source,
    sample_task,
    translate_source,
)

_REFDIR = Path(refdata.__file__).parent


# ---------------------------------------------------------------------------
# criterion 1: decision-table reproduction
# ---------------------------------------------------------------------------


def test_criterion_01_decision_table_reproduction():
    t0 = time.monotonic()
    rows = reproduce_decisions(_REFDIR / "reported_effect_sizes.csv",
                               _REFDIR / "reported_deltas.csv")
    assert len(rows) == 82
    verifiable = [r for r in rows if r.match is not None]
    assert len(verifiable) == 50
    assert all(r.match for r in verifiable)
    per_group = {g: sum(1 for r in verifiable if r.group == g)
                 for g in ("lowdiv_fo", "lowdiv_ho", "highdiv_all")}
    assert per_group == {"lowdiv_fo": 22, "lowdiv_ho": 18, "highdiv_all": 10}

    by_key = {(r.group, r.dataset, r.variant): r for r in rows}
    # boundary cells: effect sizes a hair above their thresholds
    edge1 = by_key[("highdiv_all", "hdb7-afto", "maml5")]
    assert (edge1.es, edge1.delta) == (0.0528, 0.050)
    assert edge1.computed_verdict == edge1.reported_verdict == "H1_pt"
    edge2 = by_key[("highdiv_all", "hdb9-cavdo", "maml10")]
    assert (edge2.es, edge2.delta) == (0.0552, 0.054)
    assert edge2.computed_verdict == edge2.reported_verdict == "H1_pt"
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 2: summary-table reproduction
# ---------------------------------------------------------------------------

_POOLED_SETTINGS = {
    "pooled_lowdiv": ("lowdiv_fo", "lowdiv_ho"),
    "pooled_highdiv": ("highdiv_all", "highdiv_5cnn"),
}

# (setting, bucket) cells whose reported value is not the mean of the
# reported rows; see test_criterion_02_unreachable_reported_summary_cells
_DEFECT_CELLS = {
    ("highdiv_5cnn", H1_MAML),
    ("pooled_lowdiv", H1_PT),
    ("pooled_lowdiv", H1_MAML),
    ("pooled_highdiv", H1_MAML),
}


def _cells_for(setting: str) -> list[tuple[float, str]]:
    groups = _POOLED_SETTINGS.get(setting, (setting,))
    return [(r.es, r.verdict) for r in refdata.load_effect_sizes()
            if r.group in groups]


def test_criterion_02_summary_reproduction():
    t0 = time.monotonic()
    counts = {c.setting: c for c in refdata.load_summary_counts()}
    fo = counts["lowdiv_fo"]
    assert (fo.h0, fo.h1_pt, fo.h1_maml) == (1, 11, 10)
    for setting, want in counts.items():
        got = summarize_cells(_cells_for(setting), group=setting)
        assert got.counts == {H0: want.h0, H1_PT: want.h1_pt,
                              H1_MAML: want.h1_maml}, setting

    for m in refdata.load_summary_means():
        tol = 0.002 if m.setting.startswith("pooled") else 0.001
        got = summarize_cells(_cells_for(m.setting), group=m.setting)
        for bucket, want in ((H0, m.h0), (H1_PT, m.h1_pt), (H1_MAML, m.h1_maml)):
            if (m.setting, bucket) in _DEFECT_CELLS:
                continue
            if want is None:
                assert got.bucket_means[bucket] is None, (m.setting, bucket)
            else:
                assert got.bucket_means[bucket] == pytest.approx(want, abs=tol), \
                    (m.setting, bucket)

    # frozen straight-pool oracle for the four defect cells (hand-derived
    # from the reference rows before implementation)
    low = summarize_cells(_cells_for("pooled_lowdiv"))
    high = summarize_cells(_cells_for("pooled_highdiv"))
    cnn = summarize_cells(_cells_for("highdiv_5cnn"))
    assert low.bucket_means[H1_PT] == pytest.approx(0.72920, abs=1e-5)
    assert low.bucket_means[H1_MAML] == pytest.approx(-0.55668, abs=1e-5)
    assert cnn.bucket_means[H1_MAML] == pytest.approx(-0.17202, abs=1e-5)
    assert high.bucket_means[H1_MAML] == pytest.approx(-0.16334, abs=1e-5)

    # the reported pooled numbers arise from dropping specific rows; pinning
    # the exclusions documents exactly how those cells were produced
    low_pt = [es for es, v in _cells_for("pooled_lowdiv") if v == H1_PT]
    low_maml = [es for es, v in _cells_for("pooled_lowdiv") if v == H1_MAML]
    assert round(float(np.mean(low_pt + low_maml)), 5) == 0.10274
    low_pt.remove(0.768)
    low_maml.remove(-0.126)
    assert round(float(np.mean(low_pt)), 3) == 0.727
    assert round(float(np.mean(low_maml)), 3) == -0.581
    assert round(float(np.mean(low_pt + low_maml)), 4) == 0.0909
    high_maml = [es for es, v in _cells_for("pooled_highdiv") if v == H1_MAML]
    high_maml.remove(-0.102)
    assert round(float(np.mean(high_maml)), 3) == -0.167
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_pooled_h1_per_published_group():
    # the paper's headline statistic, summarized the way the lab's own is
    want = {"lowdiv_fo": (0.2118, 0.3152), "lowdiv_ho": (-0.0244, 0.3605),
            "highdiv_all": (-0.1000, 0.0696), "highdiv_5cnn": (-0.1091, 0.0846)}
    for setting, (mean, ci95) in want.items():
        got = summarize_cells(_cells_for(setting), group=setting)
        assert got.h1_pooled_mean == pytest.approx(mean, abs=1e-4), setting
        assert got.h1_pooled_ci95 == pytest.approx(ci95, abs=1e-4), setting


_UNREACHABLE_MEANS = [
    pytest.param("highdiv_5cnn", H1_MAML, -0.192, 0.001, id="5cnn-maml-bucket"),
    pytest.param("pooled_lowdiv", H1_PT, 0.727, 0.002, id="lowdiv-pooled-pt"),
    pytest.param("pooled_lowdiv", H1_MAML, -0.581, 0.002, id="lowdiv-pooled-maml"),
    pytest.param("pooled_highdiv", H1_MAML, -0.167, 0.002, id="highdiv-pooled-maml"),
]


@pytest.mark.parametrize(("setting", "bucket", "reported", "tol"), _UNREACHABLE_MEANS)
@pytest.mark.xfail(
    strict=True,
    reason="reported summary cell is not the mean of its own reported rows; "
           "the straight-pool value and the row exclusion regenerating the "
           "reported number are asserted in test_criterion_02_summary_reproduction")
def test_criterion_02_unreachable_reported_summary_cells(setting, bucket, reported, tol):
    got = summarize_cells(_cells_for(setting), group=setting)
    assert got.bucket_means[bucket] == pytest.approx(reported, abs=tol)


# ---------------------------------------------------------------------------
# criterion 3: effect sizes from accuracy CIs
# ---------------------------------------------------------------------------

# fo rows whose reported accuracies do not regenerate the reported effect
# size (the same arithmetic reproduces other settings to 3 decimals)
_IRRECONSTRUCIBLE = {
    ("dtd", "maml5"): 0.97325,
    ("dtd", "maml10"): 0.84356,
    ("delaunay", "maml5"): 1.23966,
    ("delaunay", "maml10"): 1.16555,
}


def _reconstructed_es(dataset: str, variant: str) -> float:
    acc = {(r.dataset, r.method): r for r in refdata.load_accuracies("lowdiv_fo")}
    pt, ml = acc[(dataset, "pt")], acc[(dataset, variant)]
    assert pt.n == ml.n == 300
    return cohens_d_from_stats(
        SampleStats.from_ci_halfwidth(pt.mean, pt.ci95, pt.n),
        SampleStats.from_ci_halfwidth(ml.mean, ml.ci95, ml.n))


def test_criterion_03_effect_size_reconstruction():
    reported = refdata.load_effect_sizes("lowdiv_fo")
    assert len(reported) == 22
    checked = 0
    for row in reported:
        if (row.dataset, row.variant) in _IRRECONSTRUCIBLE:
            continue
        d = _reconstructed_es(row.dataset, row.variant)
        assert d == pytest.approx(row.es, abs=0.05), (row.dataset, row.variant)
        checked += 1
    assert checked == 18
    # pin what faithful reconstruction gives for the defect rows
    for (dataset, variant), want in _IRRECONSTRUCIBLE.items():
        assert _reconstructed_es(dataset, variant) == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize(("dataset", "variant"), sorted(_IRRECONSTRUCIBLE),
                         ids=lambda v: str(v))
@pytest.mark.xfail(
    strict=True,
    reason="the reported accuracy rows for these datasets belong to different "
           "runs than the reported effect sizes; faithful reconstruction lands "
           "0.05-0.36 away (pinned in test_criterion_03_effect_size_reconstruction)")
def test_criterion_03_unreachable_reported_effect_sizes(dataset, variant):
    row = next(r for r in refdata.load_effect_sizes("lowdiv_fo")
               if r.dataset == dataset and r.variant == variant)
    assert _reconstructed_es(dataset, variant) == pytest.approx(row.es, abs=0.05)


# ---------------------------------------------------------------------------
# criterion 4: threshold sanity
# ---------------------------------------------------------------------------


def test_criterion_04_delta_threshold_sanity():
    a = SampleStats(n=300, mean=0.5, sd=0.167)
    b = SampleStats(n=300, mean=0.4, sd=0.167)
    delta = delta_threshold_from_stats(a, b)
    assert delta == pytest.approx(0.06, abs=1e-3)
    assert delta == pytest.approx(0.01 / 0.167, rel=1e-12)


# ---------------------------------------------------------------------------
# criterion 5: gradient correctness
# ---------------------------------------------------------------------------


def _quad(tensors):
    total = constant(0.0)
    for t in tensors.values():
        total = add(total, tsum(mul(t, t)))
    return mul(constant(0.5), total)


def test_criterion_05_gradient_correctness():
    t0 = time.monotonic()
    gen = np.random.default_rng(20240815)
    for trial in range(50):
        depth = int(gen.integers(0, 3))
        hidden = tuple(int(h) for h in gen.integers(2, 7, size=depth))
        d_in = int(gen.integers(2, 6))
        k = int(gen.integers(2, 5))
        n = int(gen.integers(3, 9))
        spec = NetSpec(d_in, hidden, k)
        params = ParamVector(gen.normal(0.0, 0.7, size=spec.param_count()),
                             spec.layout())
        batch = Batch(gen.normal(size=(n, d_in)), gen.integers(0, k, size=n))
        loss_fn = net_loss(spec, batch)
        _, g = loss_and_grad(loss_fn, params)
        fd = finite_diff_grad(loss_fn, params)
        rel = (np.linalg.norm(g.values - fd.values)
               / max(np.linalg.norm(fd.values), 1e-12))
        assert rel <= 1e-4, f"trial {trial}: relative error {rel}"

    # unrolled second-order gradients against the quadratic closed form:
    # k inner steps contract p by (1-lr)^k, so the outer gradient is
    # (1-lr)^(2k) p and the first-order variant drops one factor
    layout = (("w", (3,)), ("v", (2, 2)))
    vals = np.array([1.0, -2.0, 0.5, 0.8, -0.3, 1.2, -0.7])
    for steps in (1, 2, 4):
        for lr in (0.05, 0.3):
            params = ParamVector(vals, layout)
            shrink = (1.0 - lr) ** steps
            value, g = loss_and_grad_through_updates(_quad, params, steps, lr)
            assert abs(value - 0.5 * shrink**2 * float(vals @ vals)) <= 1e-8
            assert np.max(np.abs(g.values - shrink**2 * vals)) <= 1e-8
            g_fo = loss_and_grad_through_updates(_quad, params, steps, lr,
                                                 first_order=True)[1]
            assert np.max(np.abs(g_fo.values - shrink * vals)) <= 1e-8
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 6: FIM embedding against brute force
# ---------------------------------------------------------------------------


def test_criterion_06_fim_oracle_equivalence():
    t0 = time.monotonic()
    gen = np.random.default_rng(606)
    checked = 0
    for trial in range(20):
        dim = int(gen.integers(2, 5))
        source = make_source(700 + trial, 8, dim, 2.0, 1.0)
        bench = benchmark_from_sources([source])
        n_way = int(gen.integers(2, 4))
        task = sample_task(bench, "train", n_way, int(gen.integers(2, 4)),
                           int(gen.integers(2, 5)), (900, trial))
        hidden = ((int(gen.integers(3, 7)),) if trial % 2 == 0
                  else (int(gen.integers(3, 6)), int(gen.integers(2, 5))))
        spec = NetSpec(dim, hidden, n_way)
        probe = Probe(
            model=Model(spec, ParamVector(gen.normal(0.0, 0.8, spec.param_count()),
                                          spec.layout())),
            provenance=f"random-trial-{trial}")
        embedding = embed_task(probe, task)

        data = Batch(np.concatenate([task.support.inputs, task.query.inputs]),
                     np.concatenate([task.support.labels, task.query.labels]))
        fitted = fit_head(probe.model, data, n_classes=n_way)
        want = brute_fim_body(fitted, data)
        assert embedding.fim_diag.shape == want.shape
        np.testing.assert_allclose(embedding.fim_diag, want, rtol=1e-10, atol=1e-14)
        checked += 1
    assert checked >= 20
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 7: diversity ordering and histogram partitions
# ---------------------------------------------------------------------------


def test_criterion_07_diversity_ordering_and_histogram():
    t0 = time.monotonic()
    dim = 6
    offset = np.zeros(dim)
    offset[0] = 20.0
    left = make_source(11, 30, dim, 1.0, 1.0, name="left")
    right = translate_source(make_source(12, 30, dim, 1.0, 1.0), offset,
                             name="right")
    union_bench = benchmark_from_sources([left, right])
    benches = {
        "union": union_bench,
        "left": benchmark_from_sources([left]),
        "right": benchmark_from_sources([right]),
    }
    # one probe shared by every measurement, pre-trained on the union.
    # Episodes are large (75 rows) so the per-task head fit is stable:
    # within-source embeddings then cluster and the translated clouds
    # dominate the pairwise spread.
    probe = build_probe(union_bench, 7,
                        config=TrainConfig(method="pt", seed=7, hidden_dims=(16,)))
    episode = dict(n_way=3, k_shot=10, q_query=15)
    reports = {name: diversity_coefficient(probe, bench, 500, 7, **episode)
               for name, bench in benches.items()}
    union_rep = reports["union"]
    for name in ("left", "right"):
        rep = reports[name]
        assert union_rep.coefficient > rep.coefficient, name
        # non-overlapping 95% CIs
        assert (union_rep.coefficient - union_rep.ci95_halfwidth
                > rep.coefficient + rep.ci95_halfwidth), name

    hist = distance_histogram(probe, union_bench, 60, 20, 7, **episode)
    assert {"within-left", "within-right", "cross"} <= set(hist.partition_means)
    cross = hist.partition_means["cross"]
    assert cross > hist.partition_means["within-left"]
    assert cross > hist.partition_means["within-right"]
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# criterion 8: episodic loss never exceeds union loss
# ---------------------------------------------------------------------------


def test_criterion_08_episodic_never_exceeds_union():
    t0 = time.monotonic()
    gen = np.random.default_rng(808)
    for trial in range(20):
        dim = int(gen.integers(3, 6))
        sources = [make_source(300 + 7 * trial + s, int(gen.integers(6, 12)),
                               dim, 2.0, 1.0)
                   for s in range(1 + trial % 2)]
        bench = benchmark_from_sources(sources)
        hidden = () if trial % 3 == 0 else (int(gen.integers(4, 12)),)
        spec = NetSpec(dim, hidden, int(gen.integers(2, 5)))
        model = Model(spec, ParamVector(gen.normal(0.0, 0.8, spec.param_count()),
                                        spec.layout()))
        n_way = int(gen.integers(2, 4))
        tasks = [sample_task(bench, "train", n_way, int(gen.integers(2, 4)),
                             int(gen.integers(2, 5)), (trial, i))
                 for i in range(int(gen.integers(3, 6)))]
        episodic, union_loss = episodic_vs_union_loss(model, bench, tasks)
        assert episodic <= union_loss + 1e-9, f"trial {trial}"
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# criterion 9: zero-step adaptation is the identity
# ---------------------------------------------------------------------------


def test_criterion_09_zero_step_adaptation_is_identity():
    bench = benchmark_from_sources([make_source(5, 25, 4, 2.0, 1.0)])
    spec = NetSpec(4, (16,), 3)
    model = Model(spec, spec.init(9))
    tasks = [sample_task(bench, "test", 3, 4, 6, (3, i)) for i in range(12)]
    result = meta_test(model, "maml_adapt", tasks, steps=0, lr=0.4)
    unadapted = []
    for task in tasks:
        logits = forward(spec, model.params, task.query.inputs)
        unadapted.append(float(np.mean(np.argmax(logits, axis=1)
                                       == task.query.labels)))
    assert np.array_equal(np.array(result.per_task_accuracy), np.array(unadapted))
    assert adapt(model, tasks[0].support, 0, 0.4) is model


# ---------------------------------------------------------------------------
# criterion 10: qualitative trend across seeds (reported, not asserted)
# ---------------------------------------------------------------------------


def test_criterion_10_qualitative_trend_reported(tmp_path):
    t0 = time.monotonic()
    records = []
    for seed in range(5):
        records.append(run_comparison(low_diversity_preset(
            seed=seed, diversity_tasks=0, histogram_tasks=0)))
        records.append(run_comparison(high_diversity_preset(
            seed=seed, diversity_tasks=0, histogram_tasks=0)))
    report_dir = emit_report(records, tmp_path / "trend")
    digest = (report_dir / "digest.txt").read_text(encoding="utf-8")

    means: dict[str, tuple[float, float]] = {}
    for group in ("lowdiv_fo", "highdiv_fo"):
        m = re.search(group + r":.*?mean H1 effect size: (\S+) \+/- (\S+) "
                              r"\(95% CI\)", digest, re.S)
        assert m is not None, f"digest lacks the H1 line for {group}"
        means[group] = (float(m.group(1)), float(m.group(2)))

    # the digest numbers must be the pooled H1 effect sizes of the records
    for regime, group in (("lowdiv", "lowdiv_fo"), ("highdiv", "highdiv_fo")):
        pool = [d.effect_size
                for r in records if r.config.regime == regime
                for label, d in zip(r.decision_ids, r.decisions)
                if label.endswith("/es") and d.verdict != H0]
        assert pool, regime
        assert means[group][0] == pytest.approx(float(np.mean(pool)), rel=1e-4)

    low_mean, low_ci = means["lowdiv_fo"]
    high_mean, high_ci = means["highdiv_fo"]
    assert np.isfinite(low_mean) and np.isfinite(high_mean)
    trend_holds = low_mean >= 0.0 and high_mean <= 0.0
    warnings.warn(
        f"qualitative trend over 5 seeds (reported, not asserted): "
        f"low-diversity pooled H1 effect size {low_mean:+.4f} +/- {low_ci:.4f} "
        f"(expected nonnegative), high-diversity {high_mean:+.4f} +/- "
        f"{high_ci:.4f} (expected nonpositive); pattern "
        f"{'holds' if trend_holds else 'DOES NOT hold'} at these seeds")
    assert time.monotonic() - t0 < 1800.0

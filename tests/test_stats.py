"""Effect sizes, thresholds, decision rules and summaries, on hand values."""

import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metalab.stats import (
    H0,
    H1_MAML,
    H1_PT,
    Z95,
    Decision,
    DegenerateSampleError,
    SampleStats,
    ci95_halfwidth,
    ci_overlap,
    cohens_d_from_stats,
    confidence_interval,
    decide_all,
    decide_ci,
    decide_es,
    decide_from_es,
    delta_threshold_from_stats,
    pooled_std_from_stats,
    read_table,
    sig6,
    summarize,
    summarize_cells,
    write_table,
)

samples = st.lists(st.floats(-10, 10), min_size=2, max_size=8)


def _stats(*raw):
    """One `SampleStats` per raw sample: the only input of the statistics."""
    return [SampleStats.from_sample(s) for s in raw]


# ---------------------------------------------------------------------------
# pooled std, Cohen's d, delta
# ---------------------------------------------------------------------------


def test_hand_values_symmetric_unit_case():
    a, b = _stats([0.0, 1.0], [0.0, 1.0])
    assert pooled_std_from_stats(a, b) == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert cohens_d_from_stats(a, b) == 0.0
    assert delta_threshold_from_stats(a, b) == pytest.approx(0.01 / np.sqrt(0.5), rel=1e-12)


def test_hand_values_unequal_sizes():
    a, b = _stats([0.0, 1.0, 2.0], [0.0, 2.0])  # sd 1 and sqrt(2)
    assert pooled_std_from_stats(a, b) == pytest.approx(np.sqrt((2 * 1 + 1 * 2) / 3),
                                                        rel=1e-12)
    assert cohens_d_from_stats(a, b) == pytest.approx((1.0 - 1.0) / np.sqrt(4 / 3),
                                                      abs=1e-12)


def test_one_constant_sample_is_fine_both_constant_is_not():
    a, b = _stats([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
    # pooled = sqrt((2*1 + 2*0)/4) = sqrt(1/2); mean difference 1.5
    assert cohens_d_from_stats(a, b) == pytest.approx(1.5 / np.sqrt(0.5), rel=1e-12)
    with pytest.raises(DegenerateSampleError):
        cohens_d_from_stats(*_stats([1.0, 1.0], [2.0, 2.0]))
    with pytest.raises(DegenerateSampleError):
        delta_threshold_from_stats(*_stats([1.0, 1.0], [2.0, 2.0]))


def test_sample_stats_validation():
    with pytest.raises(ValueError):
        SampleStats.from_sample([1.0])
    with pytest.raises(ValueError):
        SampleStats(n=1, mean=0.0, sd=1.0)
    with pytest.raises(ValueError):
        SampleStats(n=3, mean=0.0, sd=-0.1)


@given(a=samples, b=samples)
@settings(max_examples=60, deadline=None)
def test_cohens_d_antisymmetry_and_invariances(a, b):
    sa, sb = _stats(a, b)
    assume(pooled_std_from_stats(sa, sb) > 1e-3)
    d = cohens_d_from_stats(sa, sb)
    assert cohens_d_from_stats(sb, sa) == pytest.approx(-d, rel=1e-9, abs=1e-12)
    shifted = cohens_d_from_stats(*_stats([x + 3.7 for x in a], [x + 3.7 for x in b]))
    assert shifted == pytest.approx(d, rel=1e-6, abs=1e-9)
    scaled = _stats([2.5 * x for x in a], [2.5 * x for x in b])
    assert cohens_d_from_stats(*scaled) == pytest.approx(d, rel=1e-9, abs=1e-12)
    # delta carries the units: scaling the data divides it
    assert delta_threshold_from_stats(*scaled) == pytest.approx(
        delta_threshold_from_stats(sa, sb) / 2.5, rel=1e-9)


@given(a=st.lists(st.floats(0, 1), min_size=3, max_size=12))
@settings(max_examples=40, deadline=None)
def test_ci_halfwidth_round_trips_to_the_sample_sd(a):
    stats = SampleStats.from_sample(a)
    assume(stats.sd > 1e-6)
    lo, hi = confidence_interval(a)
    half = (hi - lo) / 2.0
    rebuilt = SampleStats.from_ci_halfwidth(stats.mean, half, stats.n)
    assert rebuilt.sd == pytest.approx(stats.sd, rel=1e-9)
    assert cohens_d_from_stats(rebuilt, stats) == pytest.approx(0.0, abs=1e-9)


def test_confidence_interval_hand_value_and_validation():
    lo, hi = confidence_interval([0.0, 1.0])
    assert lo == pytest.approx(0.5 - 1.96 * np.sqrt(0.5) / np.sqrt(2), rel=1e-12)
    assert hi == pytest.approx(0.5 + 1.96 * np.sqrt(0.5) / np.sqrt(2), rel=1e-12)
    with pytest.raises(ValueError):
        confidence_interval([0.5])
    with pytest.raises(ValueError):
        ci95_halfwidth([0.5])


@given(a=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_ci95_halfwidth_is_bitwise_the_formula_each_caller_spelled_out(a):
    assert ci95_halfwidth(a) == float(1.96 * np.std(a, ddof=1) / np.sqrt(len(a)))
    assert ci95_halfwidth(a) == float(1.96 * np.std(a, ddof=1) / math.sqrt(len(a)))


@given(a=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=400))
@settings(max_examples=80, deadline=None)
def test_sample_ci95_is_bitwise_the_normal_interval(a):
    arr = np.asarray(a, dtype=np.float64)
    half = Z95 * arr.std(ddof=1) / math.sqrt(arr.size)
    expected = (float(arr.mean() - half), float(arr.mean() + half))
    assert SampleStats.from_sample(a).ci95() == expected
    assert confidence_interval(a) == expected


# ---------------------------------------------------------------------------
# decision rules
# ---------------------------------------------------------------------------


def test_effect_size_rule_boundary_is_closed():
    assert decide_from_es(0.06, 0.06) == H0
    assert decide_from_es(-0.06, 0.06) == H0
    assert decide_from_es(0.0, 0.0) == H0
    assert decide_from_es(np.nextafter(0.06, 1.0), 0.06) == H1_PT
    assert decide_from_es(np.nextafter(-0.06, -1.0), 0.06) == H1_MAML
    assert decide_from_es(1.5, 0.06) == H1_PT
    assert decide_from_es(-1.5, 0.06) == H1_MAML
    with pytest.raises(ValueError):
        decide_from_es(0.0, -0.01)


def test_decide_es_is_consistent_with_its_parts():
    a = [0.70, 0.74, 0.72, 0.71, 0.73]
    b = [0.60, 0.66, 0.63, 0.61, 0.65]
    decision = decide_es(a, b, maml_variant="maml5")
    assert decision.effect_size == pytest.approx(cohens_d_from_stats(*_stats(a, b)), rel=1e-12)
    assert decision.delta == pytest.approx(delta_threshold_from_stats(*_stats(a, b)),
                                           rel=1e-12)
    assert decision.verdict == decide_from_es(decision.effect_size, decision.delta)
    assert decision.verdict == H1_PT
    assert decision.rule == "es"
    assert decision.maml_variant == "maml5"
    assert decide_es(b, a).verdict == H1_MAML


def test_decision_constructor_enforces_es_rule_consistency():
    with pytest.raises(ValueError):
        Decision(verdict=H0, effect_size=5.0, delta=0.1, rule="es")
    # the ci rules may carry any verdict alongside the diagnostics
    Decision(verdict=H0, effect_size=5.0, delta=0.1, rule="ci")
    with pytest.raises(ValueError):
        Decision(verdict="H2_draw", effect_size=0.0, delta=0.1)
    with pytest.raises(ValueError):
        Decision(verdict=H0, effect_size=0.0, delta=-0.1)
    with pytest.raises(ValueError):
        Decision(verdict=H0, effect_size=0.0, delta=0.1, maml_variant="maml7")


def test_ci_overlap_geometry():
    assert ci_overlap((0.0, 1.0), (0.5, 2.0)) == pytest.approx(0.5)
    assert ci_overlap((0.0, 3.0), (1.0, 2.0)) == pytest.approx(1.0)  # nested
    assert ci_overlap((0.0, 1.0), (2.0, 3.0)) == 0.0  # disjoint
    assert ci_overlap((0.0, 1.0), (1.0, 2.0)) == 0.0  # touching
    assert ci_overlap((1.0, 2.0), (0.0, 1.0)) == 0.0  # order independent


def test_decide_ci_overlap_thresholds():
    # CIs engineered to overlap by about 0.005 accuracy units: the strict
    # rule keeps H0, the 1%-overlap rule rejects and decides by sign.
    a = [0.0, 0.1]
    b = [0.191, 0.291]
    overlap = ci_overlap(confidence_interval(a), confidence_interval(b))
    assert 0.0 < overlap < 0.01
    strict = decide_ci(a, b, overlap_threshold=0.0)
    assert strict.verdict == H0
    assert strict.rule == "ci"
    loose = decide_ci(a, b, overlap_threshold=0.01)
    assert loose.verdict == H1_MAML  # b's mean is higher
    assert loose.rule == "ci_1pct"
    assert decide_ci(b, a, overlap_threshold=0.01).verdict == H1_PT
    with pytest.raises(ValueError):
        decide_ci(a, b, overlap_threshold=-0.5)


def test_decide_ci_labels_only_the_two_published_thresholds():
    a = [0.50, 0.52, 0.51, 0.53]
    b = [0.90, 0.92, 0.91, 0.93]
    # positional threshold, as the benchmark's workloads call it
    assert decide_ci(a, b, 0.0, maml_variant="maml5").rule == "ci"
    assert decide_ci(a, b, 0.01, maml_variant="maml5").rule == "ci_1pct"
    for threshold in (0.05, 0.001, 1.0):
        with pytest.raises(ValueError, match="overlap_threshold"):
            decide_ci(a, b, threshold)


@pytest.mark.parametrize(("label", "variant"), [("maml5", "maml5"), ("maml10", "maml10"),
                                                ("maml7", "other")])
def test_decide_all_is_the_three_rules_in_report_order(label, variant):
    pt = [0.80, 0.84, 0.79, 0.86, 0.82]
    maml = [0.78, 0.83, 0.80, 0.81, 0.79]
    assert decide_all(pt, maml, label) == (
        decide_es(pt, maml, maml_variant=variant),
        decide_ci(pt, maml, overlap_threshold=0.0, maml_variant=variant),
        decide_ci(pt, maml, overlap_threshold=0.01, maml_variant=variant),
    )
    assert [d.rule for d in decide_all(pt, maml, label)] == ["es", "ci", "ci_1pct"]


def test_decide_ci_disjoint_and_contained():
    low = [0.50, 0.52, 0.51, 0.53]
    high = [0.90, 0.92, 0.91, 0.93]
    assert decide_ci(high, low).verdict == H1_PT
    assert decide_ci(low, high).verdict == H1_MAML
    assert decide_ci(low, [x + 0.001 for x in low]).verdict == H0
    d = decide_ci(high, low, maml_variant="maml10")
    assert d.effect_size == pytest.approx(cohens_d_from_stats(*_stats(high, low)), rel=1e-12)
    assert d.maml_variant == "maml10"


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _ci_decision(es: float, verdict: str) -> Decision:
    return Decision(verdict=verdict, effect_size=es, delta=0.05, rule="ci")


def test_summarize_counts_and_bucket_means():
    decisions = [
        _ci_decision(0.5, H1_PT),
        _ci_decision(0.7, H1_PT),
        _ci_decision(-0.4, H1_MAML),
        _ci_decision(0.01, H0),
    ]
    report = summarize(decisions)
    g = report["all"]
    assert g.counts == {H0: 1, H1_PT: 2, H1_MAML: 1}
    assert g.total == 4
    assert g.bucket_means[H1_PT] == pytest.approx(0.6)
    assert g.bucket_means[H1_MAML] == pytest.approx(-0.4)
    assert g.bucket_means[H0] == pytest.approx(0.01)
    assert sum(gs.total for gs in report.values()) == 4
    with pytest.raises(KeyError):
        report["missing"]


def test_summarize_groups_keep_first_seen_order_and_none_for_empty():
    decisions = [_ci_decision(0.5, H1_PT), _ci_decision(-0.2, H1_MAML),
                 _ci_decision(0.3, H1_PT)]
    report = summarize(decisions, groups=["low", "high", "low"])
    assert [g.group for g in report.values()] == ["low", "high"]
    low = report["low"]
    assert low.counts[H1_PT] == 2 and low.counts[H0] == 0
    assert low.bucket_means[H0] is None
    high = report["high"]
    assert high.bucket_means[H1_MAML] == pytest.approx(-0.2)
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        summarize(decisions, groups=["low"])


def test_group_summary_pools_the_h1_effect_sizes():
    g = summarize_cells([(0.5, H1_PT), (0.7, H1_PT), (-0.4, H1_MAML), (0.01, H0)])
    assert g.h1_pooled_mean == pytest.approx(0.8 / 3)  # H0's 0.01 is left out
    assert g.h1_pooled_ci95 == ci95_halfwidth([0.5, 0.7, -0.4])
    one = summarize_cells([(0.5, H1_PT), (0.01, H0)])
    assert one.h1_pooled_mean == 0.5 and one.h1_pooled_ci95 is None
    none = summarize_cells([(0.01, H0), (-0.02, H0)])
    assert none.h1_pooled_mean is None and none.h1_pooled_ci95 is None


def test_summarize_cells_agrees_with_summarize():
    cells = [(0.5, H1_PT), (0.7, H1_PT), (-0.4, H1_MAML), (0.01, H0)]
    from_cells = summarize_cells(cells, group="g")
    from_decisions = summarize([_ci_decision(es, v) for es, v in cells])["all"]
    assert from_cells.counts == from_decisions.counts
    assert from_cells.total == from_decisions.total
    for verdict in (H0, H1_PT, H1_MAML):
        assert from_cells.bucket_means[verdict] == pytest.approx(
            from_decisions.bucket_means[verdict])
    assert from_cells.group == "g"
    with pytest.raises(ValueError):
        summarize_cells([])
    with pytest.raises(ValueError):
        summarize_cells([(0.1, "H2_draw")])


# ---------------------------------------------------------------------------
# decision-table files
# ---------------------------------------------------------------------------


DECISION_COLUMNS = ("experiment_id", "es", "delta", "verdict")


def test_decision_table_round_trip(tmp_path):
    rows = [("low/maml5", 0.72920333, 0.0141421356, H1_PT),
            ("high/maml10", -0.16334, 0.054, H1_MAML)]
    path = tmp_path / "decisions.csv"
    write_table(path, DECISION_COLUMNS, rows)
    back = read_table(path, DECISION_COLUMNS)
    assert len(back) == 2
    for (eid, es, delta, verdict), row in zip(rows, back):
        assert row["experiment_id"] == eid and row["verdict"] == verdict
        assert float(row["es"]) == pytest.approx(es, rel=1e-5)  # 6 significant digits
        assert float(row["delta"]) == pytest.approx(delta, rel=1e-5)


def test_decision_table_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["experiment_id", "es", "verdict"])  # no delta
        writer.writerow(["x", "0.1", "H0_no_diff"])
    with pytest.raises(ValueError, match="delta"):
        read_table(path, DECISION_COLUMNS)


def test_table_cells_follow_one_rule(tmp_path):
    path = tmp_path / "cells.csv"
    write_table(path, ("none", "true", "false", "np_bool", "np_int", "int",
                       "np_float", "float", "np_float32", "text"),
                [(None, True, False, np.bool_(True), np.int64(7), 12,
                  np.float64(0.72920333), 1234567.0, np.float32(0.5), "a, b")])
    assert path.read_bytes() == (
        b"none,true,false,np_bool,np_int,int,np_float,float,np_float32,text\r\n"
        b',true,false,true,7,12,0.729203,1.23457e+06,0.5,"a, b"\r\n')


def test_read_table_names_every_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("a", "b"), [("x", 1)])
    assert read_table(path, ("a", "b")) == [{"a": "x", "b": "1"}]
    with pytest.raises(ValueError, match=r"missing columns \['c', 'd'\]"):
        read_table(path, ("d", "a", "c"))


def test_sig6_rendering():
    assert sig6(0.0528) == "0.0528"
    assert sig6(0.72920333) == "0.729203"
    assert sig6(-0.5) == "-0.5"
    assert sig6(1234567.0) == "1.23457e+06"
    assert sig6(0.0) == "0"

"""Effect sizes, practical-difference thresholds, and decision rules.

The comparison machinery: two accuracy samples (one per method) are
reduced to their `SampleStats`, and only from those come Cohen's d over
the pooled standard deviation and the standardized 1% threshold
delta = 0.01 / pooled sd (`*_from_stats`). The two are mapped to a
three-way verdict: no practical difference (H0), first sample
wins (H1_pt), second sample wins (H1_maml). The boundary belongs to H0
(closed interval). Confidence-interval variants decide by CI overlap
instead; `summarize` aggregates verdicts and bucket-mean effect sizes
across many experiments.

It also owns the table format: the package writes every CSV through
`write_table` and reads it through `read_table`, one rule rendering each
cell (float: `sig6`; int: digits; None: blank; bool: true/false).

Samples are treated as unpaired throughout: the pooled standard deviation
is the variance-weighted combination of the two samples' standard
deviations (n-1 denominators), not the spread of element-wise differences.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

H0 = "H0_no_diff"
H1_PT = "H1_pt"
H1_MAML = "H1_maml"
VERDICTS = (H0, H1_PT, H1_MAML)

Z95 = 1.96  # two-sided 95% normal quantile behind every CI in the package


class DegenerateSampleError(ValueError):
    """Both samples are constant; standardized comparisons are undefined."""


@dataclass(frozen=True)
class SampleStats:
    """Size, mean, and (n-1)-denominator standard deviation of one sample."""

    n: int
    mean: float
    sd: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a sample needs n >= 2 for its sd to be defined")
        if self.sd < 0:
            raise ValueError("sd must be nonnegative")

    @classmethod
    def from_sample(cls, sample: Sequence[float]) -> "SampleStats":
        arr = np.asarray(sample, dtype=np.float64)
        if arr.size < 2:
            raise ValueError("a sample needs n >= 2 for its sd to be defined")
        return cls(n=int(arr.size), mean=float(arr.mean()), sd=float(arr.std(ddof=1)))

    @classmethod
    def from_ci_halfwidth(cls, mean: float, halfwidth: float, n: int) -> "SampleStats":
        """Invert mean +/- Z95 sd / sqrt(n) back to the sample sd."""
        return cls(n=n, mean=mean, sd=float(halfwidth * np.sqrt(n) / Z95))


@dataclass(frozen=True)
class Decision:
    """One adjudicated comparison.

    `rule` records which procedure produced the verdict ("es" for the
    effect-size threshold rule, "ci" / "ci_1pct" for the overlap rules);
    the effect size and delta are carried along for every rule, but only
    the "es" rule's verdict is required to be consistent with them.
    """

    verdict: str
    effect_size: float
    delta: float
    maml_variant: str = "other"
    rule: str = "es"

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.maml_variant not in ("maml5", "maml10", "other"):
            raise ValueError(f"unknown maml variant {self.maml_variant!r}")
        if self.rule == "es" and self.verdict != decide_from_es(self.effect_size, self.delta):
            raise ValueError("verdict inconsistent with the effect-size rule")


def pooled_std_from_stats(a: SampleStats, b: SampleStats) -> float:
    """Variance-weighted combination of two samples' standard deviations."""
    num = (a.n - 1) * a.sd ** 2 + (b.n - 1) * b.sd ** 2
    return float(np.sqrt(num / (a.n + b.n - 2)))


def cohens_d_from_stats(a: SampleStats, b: SampleStats) -> float:
    """Standardized mean difference (a.mean - b.mean) / pooled sd."""
    pooled = pooled_std_from_stats(a, b)
    if pooled == 0.0:
        raise DegenerateSampleError("pooled standard deviation is zero")
    return float((a.mean - b.mean) / pooled)


def delta_threshold_from_stats(a: SampleStats, b: SampleStats) -> float:
    """The standardized 1% practical-difference threshold, 0.01 / pooled sd."""
    pooled = pooled_std_from_stats(a, b)
    if pooled == 0.0:
        raise DegenerateSampleError("pooled standard deviation is zero")
    return float(0.01 / pooled)


def decide_from_es(es: float, delta: float) -> str:
    """Three-way rule: H0 inside [-delta, delta] (closed), else by sign."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if -delta <= es <= delta:
        return H0
    return H1_PT if es > delta else H1_MAML


def decide_es(a: Sequence[float], b: Sequence[float],
              maml_variant: str = "other") -> Decision:
    """Adjudicate two accuracy samples by the effect-size threshold rule."""
    sa, sb = SampleStats.from_sample(a), SampleStats.from_sample(b)
    es = cohens_d_from_stats(sa, sb)
    delta = delta_threshold_from_stats(sa, sb)
    return Decision(verdict=decide_from_es(es, delta), effect_size=es,
                    delta=delta, maml_variant=maml_variant, rule="es")


def ci95_halfwidth(values: Sequence[float]) -> float:
    """Normal-approximation 95% half-width Z95 * sd / sqrt(n).

    sd has the n-1 denominator, so n >= 2 is required; callers decide
    what a shorter sample means for them before calling.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("a CI half-width needs n >= 2")
    return float(Z95 * arr.std(ddof=1) / math.sqrt(arr.size))


def confidence_interval(a: Sequence[float]) -> tuple[float, float]:
    """Normal-approximation 95% interval mean +/- Z95 sd / sqrt(n)."""
    arr = np.asarray(a, dtype=np.float64)
    half = ci95_halfwidth(arr)  # raises for n < 2
    return float(arr.mean() - half), float(arr.mean() + half)


def ci_overlap(ci_a: tuple[float, float], ci_b: tuple[float, float]) -> float:
    """Length of the intersection of two intervals (0 when disjoint)."""
    return max(0.0, min(ci_a[1], ci_b[1]) - max(ci_a[0], ci_b[0]))


_CI_RULES = {0.0: "ci", 0.01: "ci_1pct"}  # overlap threshold -> rule label


def decide_ci(a: Sequence[float], b: Sequence[float],
              overlap_threshold: float = 0.0,
              maml_variant: str = "other") -> Decision:
    """Adjudicate by CI overlap: H0 when overlap exceeds the threshold.

    Overlap is measured in accuracy units. Threshold 0 is the strict rule
    "ci": any positive overlap keeps H0, and intervals that merely touch
    (overlap exactly 0) reject it. Threshold 0.01 is "ci_1pct"; any other
    raises ValueError. When H0 is rejected the verdict follows the sign of
    the mean difference. Effect size and delta are attached for reporting
    only; the "es" consistency invariant does not apply here.
    """
    rule = _CI_RULES.get(overlap_threshold)
    if rule is None:
        raise ValueError(f"overlap_threshold must be one of {sorted(_CI_RULES)}, "
                         f"got {overlap_threshold!r}")
    sa, sb = SampleStats.from_sample(a), SampleStats.from_sample(b)
    overlap = ci_overlap(confidence_interval(a), confidence_interval(b))
    try:
        es = cohens_d_from_stats(sa, sb)
        delta = delta_threshold_from_stats(sa, sb)
    except DegenerateSampleError:
        es, delta = 0.0, 0.0
    if overlap > overlap_threshold:
        verdict = H0
    else:
        verdict = H1_PT if sa.mean > sb.mean else H1_MAML
    return Decision(verdict=verdict, effect_size=es, delta=delta,
                    maml_variant=maml_variant, rule=rule)


@dataclass(frozen=True)
class GroupSummary:
    """Verdict counts and per-bucket mean effect sizes for one group."""

    group: str
    counts: dict[str, int]
    bucket_means: dict[str, float | None]
    total: int


@dataclass(frozen=True)
class SummaryReport:
    """Per-group summaries; groups appear in first-seen order."""

    groups: tuple[GroupSummary, ...]

    def group(self, name: str) -> GroupSummary:
        for g in self.groups:
            if g.group == name:
                return g
        raise KeyError(name)

    @property
    def total(self) -> int:
        return sum(g.total for g in self.groups)


def summarize(decisions: Sequence[Decision],
              groups: Sequence[str] | None = None) -> SummaryReport:
    """Count verdicts and average effect sizes per verdict bucket.

    `groups` optionally assigns each decision a group label (parallel
    sequence); by default everything lands in one group "all". An empty
    verdict bucket gets a None mean (rendered as "no data" downstream).
    """
    if not decisions:
        raise ValueError("summarize needs at least one decision")
    if groups is None:
        groups = ["all"] * len(decisions)
    if len(groups) != len(decisions):
        raise ValueError("groups must parallel decisions")
    by_group: dict[str, list[Decision]] = {}  # first-seen group order
    for g, d in zip(groups, decisions):
        by_group.setdefault(g, []).append(d)
    return SummaryReport(groups=tuple(
        summarize_cells([(d.effect_size, d.verdict) for d in ds], group=g)
        for g, ds in by_group.items()))


def summarize_cells(cells: Sequence[tuple[float, str]],
                    group: str = "all") -> GroupSummary:
    """Like summarize, but over bare (effect_size, verdict) pairs.

    Covers externally reported decision cells where no threshold is
    available to rebuild a full Decision. Unknown verdict labels are
    rejected; empty buckets get a None mean.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("summarize_cells needs at least one cell")
    for es, v in cells:
        if v not in VERDICTS:
            raise ValueError(f"unknown verdict {v!r}")
    counts = {v: sum(1 for _, w in cells if w == v) for v in VERDICTS}
    means: dict[str, float | None] = {}
    for v in VERDICTS:
        bucket = [es for es, w in cells if w == v]
        means[v] = float(np.mean(bucket)) if bucket else None
    return GroupSummary(group=group, counts=counts, bucket_means=means,
                        total=len(cells))


# ---------------------------------------------------------------------------
# the table format: every CSV the package writes or reads
# ---------------------------------------------------------------------------

def sig6(x: float) -> str:
    """Render a float with 6 significant digits, '.' decimal separator."""
    return f"{float(x):.6g}"


def _cell(value) -> str:
    """float -> sig6, None -> blank, bool -> true/false, else str (int -> digits)."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return sig6(value)
    return str(value)


def write_table(path: str | Path, columns: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Emit a header and `rows` as UTF-8 CSV, each value rendered by `_cell`."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)


def read_table(path: str | Path, columns: Sequence[str]) -> list[dict[str, str]]:
    """Read a UTF-8 CSV into one str-valued dict per row.

    Raises ValueError naming every column of `columns` the header lacks.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        missing = sorted(set(columns) - set(reader.fieldnames or ()))
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        return list(reader)

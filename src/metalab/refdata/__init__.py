"""Frozen reference statistics from large-scale few-shot comparison studies.

The CSV files in this directory are transcribed measurement outputs, not
anything this package computes: per-benchmark effect sizes with their
published verdicts, the practical-significance thresholds that accompanied
them, raw accuracy summaries, verdict counts with bucket means, and
final-parameter L2 norms.  They are the ground truth that the
table-reproduction machinery and the acceptance suite check against.

Group keys name four experimental settings:

- ``lowdiv_fo``   low-diversity benchmarks, first-order meta-learner
- ``lowdiv_ho``   low-diversity benchmarks, higher-order meta-learner
- ``highdiv_all`` high-diversity benchmarks, both orders mixed
- ``highdiv_5cnn`` one high-diversity benchmark swept over model width

plus ``pooled_lowdiv`` / ``pooled_highdiv`` rows in the summary-means table
(verdict buckets pooled across settings) and a plain ``highdiv`` key in the
delta table (thresholds were only published for one high-diversity batch).

Each table has one frozen row class; `load_rows` reads a table of that
shape from any path through `stats.read_table` and converts every cell by
its field's annotation (`str`, `int`, `float`, or `float | None`, where a
blank cell is None). The `load_*` functions read the packaged tables with
it, and `harness.reproduce_decisions` reads tables given to it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from metalab.stats import read_table

__all__ = [
    "ReportedEffectSize",
    "ReportedDelta",
    "ReportedAccuracy",
    "ReportedCounts",
    "ReportedMeans",
    "ReportedNorms",
    "load_rows",
    "load_effect_sizes",
    "load_deltas",
    "load_accuracies",
    "load_summary_counts",
    "load_summary_means",
    "load_l2_norms",
]

_DIR = Path(__file__).parent


@dataclass(frozen=True)
class ReportedEffectSize:
    """One published effect-size cell: PT-minus-MAML Cohen's d and verdict."""

    group: str
    dataset: str
    variant: str
    es: float
    verdict: str


@dataclass(frozen=True)
class ReportedDelta:
    """One published practical-significance threshold (1% of pooled std)."""

    group: str
    dataset: str
    variant: str
    delta: float


@dataclass(frozen=True)
class ReportedAccuracy:
    """One published meta-test accuracy: mean with 95% CI halfwidth over n tasks."""

    group: str
    dataset: str
    method: str
    mean: float
    ci95: float
    n: int


@dataclass(frozen=True)
class ReportedCounts:
    """Published verdict counts for one experimental setting."""

    setting: str
    h0: int
    h1_pt: int
    h1_maml: int

    @property
    def total(self) -> int:
        return self.h0 + self.h1_pt + self.h1_maml


@dataclass(frozen=True)
class ReportedMeans:
    """Published mean effect size per verdict bucket; None where no row fell."""

    setting: str
    h0: float | None
    h1_pt: float | None
    h1_maml: float | None


@dataclass(frozen=True)
class ReportedNorms:
    """Published L2 norm of the final parameter vector for both methods."""

    group: str
    dataset: str
    maml: float
    pt: float


_CONVERTERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": lambda text: float(text) if text else None,
}


def load_rows(cls, path: str | Path, group: str | None = None) -> tuple:
    """Rows of the table at `path` as `cls`, optionally only those of one group.

    The table needs a column per field of `cls`; one without them raises
    ValueError naming the missing columns.
    """
    fields = dataclasses.fields(cls)
    rows = tuple(cls(*(_CONVERTERS[f.type](r[f.name]) for f in fields))
                 for r in read_table(path, [f.name for f in fields]))
    if group is not None:
        rows = tuple(r for r in rows if r.group == group)
    return rows


def load_effect_sizes(group: str | None = None) -> tuple[ReportedEffectSize, ...]:
    return load_rows(ReportedEffectSize, _DIR / "reported_effect_sizes.csv", group)


def load_deltas(group: str | None = None) -> tuple[ReportedDelta, ...]:
    return load_rows(ReportedDelta, _DIR / "reported_deltas.csv", group)


def load_accuracies(group: str | None = None) -> tuple[ReportedAccuracy, ...]:
    return load_rows(ReportedAccuracy, _DIR / "reported_accuracies.csv", group)


def load_summary_counts() -> tuple[ReportedCounts, ...]:
    return load_rows(ReportedCounts, _DIR / "reported_summary_counts.csv")


def load_summary_means() -> tuple[ReportedMeans, ...]:
    return load_rows(ReportedMeans, _DIR / "reported_summary_means.csv")


def load_l2_norms(group: str | None = None) -> tuple[ReportedNorms, ...]:
    return load_rows(ReportedNorms, _DIR / "reported_l2_norms.csv", group)

"""The benchmark's workloads: what one unit runs and how its output is checked.

Each workload has `setup(seed)`, the work `setup_s` times (config and
benchmark construction); `compute(state, work_dir)`, one unit of work, the
part `wall_s` times; and `check(state, result, work_dir)`, which returns an
`Outcome` with the accuracies, a determinism fingerprint and the list of
failed output checks. Library calls go through module attributes
(`harness.run_comparison`, not a name imported from it) so that the
tracer's wrappers are the ones called.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from metalab import harness, learners, stats, task2vec, tasks


@dataclass(frozen=True)
class Outcome:
    acc_pt: float
    acc_maml: float | None
    fingerprint: str
    problems: tuple[str, ...]


def _fingerprint(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _accuracy_problems(label: str, ev: learners.EvalResult, chance: float) -> list[str]:
    problems = []
    accs = ev.per_task_accuracy
    if not all(0.0 <= a <= 1.0 for a in accs):
        problems.append(f"{label}: a per-task accuracy lies outside [0, 1]")
    if ev.mean != float(np.mean(accs)):
        problems.append(f"{label}: mean {ev.mean!r} is not the mean of its per-task values")
    if not ev.mean > chance:
        problems.append(f"{label}: accuracy {ev.mean:.4f} is not above chance {chance:.4f}")
    return problems


# ---------------------------------------------------------------------------
# comparison workloads: one run_comparison per unit
# ---------------------------------------------------------------------------


class Comparison:
    """`run_comparison` on a preset, persisted to a scratch run directory."""

    def __init__(self, make_config):
        self.make_config = make_config

    def setup(self, seed: int):
        config = self.make_config(seed)
        config.benchmark.build()
        return config

    def compute(self, config, work_dir: Path):
        return harness.run_comparison(config, out_dir=work_dir / "run")

    def check(self, config, record, work_dir: Path) -> Outcome:
        problems = []
        loaded = harness.RunRecord.load(work_dir / "run")
        if loaded.to_dict() != record.to_dict():
            problems.append("persisted record.json differs from the returned record")
        chance = 1.0 / config.n_way
        for label in record.eval_labels():
            problems += _accuracy_problems(label, record.evals[label], chance)
        pt = record.evals["pt"].per_task_accuracy
        expected_ids = []
        for steps in config.eval_steps:
            label = f"maml{steps}"
            variant = label if label in ("maml5", "maml10") else "other"
            maml = record.evals[label].per_task_accuracy
            for rule, decision in (
                ("es", stats.decide_es(pt, maml, maml_variant=variant)),
                ("ci", stats.decide_ci(pt, maml, 0.0, maml_variant=variant)),
                ("ci_1pct", stats.decide_ci(pt, maml, 0.01, maml_variant=variant)),
            ):
                did = f"{label}/{rule}"
                expected_ids.append(did)
                if did in record.decision_ids:
                    got = record.decisions[record.decision_ids.index(did)]
                    if got != decision:
                        problems.append(f"decision {did} differs from the re-applied rule")
        if list(record.decision_ids) != expected_ids:
            problems.append(f"decision ids {record.decision_ids} != {expected_ids}")
        deepest = f"maml{max(config.eval_steps)}"
        return Outcome(
            acc_pt=record.evals["pt"].mean,
            acc_maml=record.evals[deepest].mean,
            fingerprint=_fingerprint({
                "accuracies": {k: list(v.per_task_accuracy)
                               for k, v in sorted(record.evals.items())},
                "verdicts": [d.verdict for d in record.decisions],
                "diversity": None if record.diversity is None else [
                    record.diversity.coefficient, record.diversity.ci95_halfwidth],
            }),
            problems=tuple(problems))


# The comparison workloads keep each preset's benchmark at seed 0 and let
# the workload seed draw the initialization and every episode, so runs on
# different seeds do the same kind of work on the same class geometry.


def _lowdiv_fo(seed: int):
    # 12 meta-test episodes and 4 diversity embeddings (preset: 300 and
    # 120), FO-MAML capped at 20 epochs (preset: 150): the head refit
    # stays the largest self time, as at full size.
    return harness.low_diversity_preset(
        seed, benchmark=harness.low_diversity_preset(0).benchmark,
        meta_batch=12, diversity_tasks=4, maml={"max_epochs": 20})


def _highdiv_ho(seed: int):
    # Higher-order MAML capped at 12 epochs (plateau stop at full size:
    # about 167) with the preset's 16 episodes per step, and 12 meta-test
    # episodes: second-order tapes stay the largest self time.
    return harness.high_diversity_preset(
        seed, benchmark=harness.high_diversity_preset(0).benchmark,
        maml_order="ho", diversity_tasks=0, meta_batch=12,
        maml={"max_epochs": 12, "inner_lr": 0.1, "meta_batch": 16})


# ---------------------------------------------------------------------------
# diversity on two translated clouds: no meta-training
# ---------------------------------------------------------------------------


class TwoClouds:
    """Diversity of a two-cloud union against each cloud alone.

    The clouds and the probe are those of acceptance criterion 7 (source
    seeds 11 and 12, probe seed 7); the ordering union > left > right is
    a property of that probe, so the workload seed drives the episode
    draws. The PT probe's head-refit meta-test accuracy on the union is
    `acc_pt`; there is no meta-learner, so no `acc_maml`.
    """

    episode = {"n_way": 3, "k_shot": 10, "q_query": 15}
    # Tasks per benchmark for each coefficient. Union and left differ by
    # about 0.15; at 20 tasks their CIs overlapped on 2 of 16 seeds, and
    # resampling 150 embedded tasks put the overlap rate at 60 tasks
    # below 1 in 4000.
    num_tasks = 60
    histogram_tasks = 12    # source-pure, round-robin over the two clouds
    meta_test_tasks = 16

    def setup(self, seed: int):
        dim = 6
        offset = np.zeros(dim)
        offset[0] = 20.0
        left = tasks.make_source(11, 30, dim, 1.0, 1.0, name="left")
        right = tasks.translate_source(tasks.make_source(12, 30, dim, 1.0, 1.0),
                                       offset, name="right")
        benches = {
            "union": tasks.benchmark_from_sources([left, right]),
            "left": tasks.benchmark_from_sources([left]),
            "right": tasks.benchmark_from_sources([right]),
        }
        return seed, benches

    def compute(self, state, work_dir: Path):
        seed, benches = state
        union = benches["union"]
        probe = task2vec.build_probe(
            union, 7, config=learners.TrainConfig(method="pt", seed=7,
                                                  hidden_dims=(16,)))
        reports = {name: task2vec.diversity_coefficient(
                       probe, bench, self.num_tasks, seed, **self.episode)
                   for name, bench in benches.items()}
        hist = task2vec.distance_histogram(probe, union, self.histogram_tasks, 20,
                                           seed, **self.episode)
        # (seed, 1, i): not the (seed, i) episodes the coefficients embed
        episodes = [tasks.sample_task(union, "test", self.episode["n_way"],
                                      self.episode["k_shot"], self.episode["q_query"],
                                      (seed, 1, i))
                    for i in range(self.meta_test_tasks)]
        acc = learners.meta_test(probe.model, "pt_head_refit", episodes)
        return reports, hist, acc

    def check(self, state, result, work_dir: Path) -> Outcome:
        reports, hist, acc = result
        problems = _accuracy_problems("pt", acc, 1.0 / self.episode["n_way"])
        union = reports["union"]
        for name in ("left", "right"):
            rep = reports[name]
            if not (union.coefficient - union.ci95_halfwidth
                    > rep.coefficient + rep.ci95_halfwidth):
                problems.append(
                    f"union diversity {union.coefficient:.4f} +/- {union.ci95_halfwidth:.4f}"
                    f" does not clear {name} {rep.coefficient:.4f} +/- "
                    f"{rep.ci95_halfwidth:.4f}")
        means = hist.partition_means
        within = {k: v for k, v in means.items() if k.startswith("within-")}
        if set(within) != {"within-left", "within-right"} or "cross" not in means:
            problems.append(f"histogram partitions {sorted(means)}")
        elif not all(means["cross"] > v for v in within.values()):
            problems.append(f"cross mean does not exceed every within mean: {means}")
        return Outcome(
            acc_pt=acc.mean,
            acc_maml=None,
            fingerprint=_fingerprint({
                "accuracies": list(acc.per_task_accuracy),
                "diversity": {k: [r.coefficient, r.ci95_halfwidth]
                              for k, r in sorted(reports.items())},
                "histogram": dict(sorted(means.items())),
            }),
            problems=tuple(problems))


WORKLOADS = {
    "lowdiv-fo": Comparison(_lowdiv_fo),
    "highdiv-ho": Comparison(_highdiv_ho),
    "diversity-twoclouds": TwoClouds(),
}

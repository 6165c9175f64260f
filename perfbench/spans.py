"""Outside-in span tracing of metalab's layers, installed by the benchmark.

`Tracer.install()` replaces the boundary functions listed in `BOUNDARIES`
with wrappers that record one span per call: span id, parent span id, run
id, name, start and end (`time.perf_counter`). The wrappers are bound
wherever the original function object is bound in a loaded `metalab`
module, so `from metalab.learners import fit_head` in another module is
traced too. `uninstall()` puts every original back. The library itself is
never edited.

A span's self time is its duration minus the durations of its child spans
(calls are single-threaded and nested, so children never overlap). A
layer's self time is the sum of the self times of its spans; the layer is
the first component of the span name. Tape construction in `autodiff`
(`add`, `matmul`, ...) is not wrapped, since a span per array operation
would cost more than the operation; it is counted in the self time of the
`nets` function that builds the tape. Spans named `trace.*` are the
tracer's own checks: they are excluded from their parent's self time and
belong to no layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("harness", "tasks", "learners", "nets", "autodiff", "task2vec", "stats")

# (module, attribute path, span name); a dotted attribute is a method.
BOUNDARIES = (
    ("metalab.harness", "run_comparison", "harness.run_comparison"),
    ("metalab.harness", "BenchmarkSpec.build", "harness.build"),
    ("metalab.harness", "RunRecord.save", "harness.persist"),
    ("metalab.tasks", "sample_task", "tasks.sample_task"),
    ("metalab.tasks", "union_dataset", "tasks.union_dataset"),
    ("metalab.learners", "train_pt", "learners.train_pt"),
    ("metalab.learners", "train_maml", "learners.train_maml"),
    ("metalab.learners", "meta_test", "learners.meta_test"),
    ("metalab.learners", "adapt", "learners.adapt"),
    ("metalab.learners", "fit_head", "learners.fit_head"),
    ("metalab.nets", "loss_and_grad", "nets.loss_and_grad"),
    ("metalab.nets", "loss_and_grad_through_updates",
     "nets.loss_and_grad_through_updates"),
    ("metalab.autodiff", "backward", "autodiff.backward"),
    ("metalab.task2vec", "build_probe", "task2vec.build_probe"),
    ("metalab.task2vec", "diversity_coefficient", "task2vec.diversity_coefficient"),
    ("metalab.task2vec", "distance_histogram", "task2vec.distance_histogram"),
    ("metalab.task2vec", "embed_task", "task2vec.embed_task"),
    ("metalab.task2vec", "cosine_distance", "task2vec.cosine_distance"),
    ("metalab.stats", "decide_es", "stats.decide"),
    ("metalab.stats", "decide_ci", "stats.decide"),
)

# The refit's own stopping tolerance; a call converged when the returned
# head's gradient is at most this (the refit's default `tol`).
HEAD_TOL = 1e-8

# Percentiles tried for `tail_ms`, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def head_gradient_max(model, support) -> float:
    """Max-abs gradient of the mean multinomial-logistic loss at `model`'s head.

    Features are the body activations of `support`; the gradient is taken
    over the head weights and bias, the quantity the refit stops on.
    """
    feats = model.body_features(support.inputs)
    w, b = model.head()
    xa = np.hstack([feats, np.ones((feats.shape[0], 1))])
    logits = xa @ np.vstack([w, b[None, :]])
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(support.labels)), support.labels] -= 1.0
    return float(np.abs(xa.T @ probs / feats.shape[0]).max())


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.epochs: dict[str, int] = {}
        self.head_fits = 0
        self.head_fits_converged = 0
        self.run_id = ""
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _record(self, name: str, fn, args, kwargs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.run_id, name, start, end))

    def _wrapper(self, fn, name: str):
        if name == "learners.meta_test":
            @functools.wraps(fn)
            def traced(model, method, *args, **kwargs):
                suffix = "pt" if method == "pt_head_refit" else "maml"
                return self._record(f"{name}.{suffix}", fn,
                                    (model, method) + args, kwargs)
        elif name in ("learners.train_pt", "learners.train_maml"):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = self._record(name, fn, args, kwargs)
                self.epochs[name] = self.epochs.get(name, 0) + result.epochs_run
                return result
        elif name == "learners.fit_head":
            @functools.wraps(fn)
            def traced(model, support, *args, **kwargs):
                fitted = self._record(name, fn, (model, support) + args, kwargs)
                gmax = self._record("trace.head_gradient", head_gradient_max,
                                    (fitted, support), {})
                self.head_fits += 1
                self.head_fits_converged += gmax <= HEAD_TOL
                return fitted
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._record(name, fn, args, kwargs)
        return traced

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Bind a tracing wrapper in place of every boundary function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple] = {}
        for module_name, attr, name in BOUNDARIES:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrapper(original, name)
            if path:
                self._set(owner, leaf, wrapper)
            else:
                wrappers[id(original)] = (original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if not (module_name == "metalab" or module_name.startswith("metalab.")):
                continue
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, key, hit[1])

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every original binding."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- reporting --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each recorded span, parallel to `self.spans`."""
        index = {span[0]: i for i, span in enumerate(self.spans)}
        covered = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None and parent in index:
                covered[index[parent]] += end - start
        return [end - start - covered[i]
                for i, (_, _, _, _, start, end) in enumerate(self.spans)]

    def write(self, path: Path, extra: dict) -> None:
        """Dump every span plus `extra` (summary tables) as one JSON file."""
        doc = dict(extra)
        doc["span_fields"] = ["id", "parent", "run", "name", "start", "end"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)), 1) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples above.

    Falls back to (100, max) when there are fewer than 20 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct, percentile(ordered, pct)
    return 100.0, percentile(ordered, 100.0)


def summarize(tracer: Tracer, units: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics averaged per traced unit, and the self-time table.

    Counts and times are totals over all traced units divided by `units`;
    p50 and tail latencies pool every call.
    """
    selfs = tracer.self_times()
    by_name: dict[str, dict[str, list[float]]] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for (_, _, _, name, start, end), own in zip(tracer.spans, selfs):
        entry = by_name.setdefault(name, {"dur": [], "self": []})
        entry["dur"].append(end - start)
        entry["self"].append(own)
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own

    def calls(name):
        return len(by_name.get(name, {"dur": []})["dur"]) / units

    def total(name, key="dur"):
        return sum(by_name.get(name, {key: []})[key]) / units

    def p50_ms(name):
        return percentile(sorted(by_name.get(name, {"dur": []})["dur"]), 50.0) * 1e3

    metrics: dict[str, float] = {}
    fit = by_name.get("learners.fit_head", {"dur": []})["dur"]
    tail_pct, tail_ms = tail([d * 1e3 for d in fit])
    metrics.update({
        "learners.fit_head.calls": calls("learners.fit_head"),
        "learners.fit_head.self_s": total("learners.fit_head", "self"),
        "learners.fit_head.p50_ms": p50_ms("learners.fit_head"),
        "learners.fit_head.tail_ms": tail_ms,
        "learners.fit_head.converged_ratio": (
            tracer.head_fits_converged / tracer.head_fits if tracer.head_fits else 0.0),
    })
    for name in ("nets.loss_and_grad_through_updates", "nets.loss_and_grad",
                 "task2vec.embed_task"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = total(name, "self")
        metrics[f"{name}.p50_ms"] = p50_ms(name)
    for name in ("autodiff.backward", "task2vec.cosine_distance",
                 "tasks.sample_task", "stats.decide"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = total(name)
    metrics["learners.adapt.calls"] = calls("learners.adapt")
    metrics["learners.adapt.self_s"] = total("learners.adapt", "self")
    for name in ("learners.train_pt", "learners.train_maml"):
        metrics[f"{name}.s"] = total(name)
        metrics[f"{name}.epochs"] = tracer.epochs.get(name, 0) / units
    for name in ("learners.meta_test.pt", "learners.meta_test.maml",
                 "task2vec.build_probe", "tasks.union_dataset",
                 "harness.build", "harness.persist"):
        metrics[f"{name}.s"] = total(name)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / units

    table = {
        "units": units,
        "fit_head_tail_percentile": tail_pct,
        "layer_self_s": {k: v / units for k, v in layer_self.items()},
        "spans": {name: {"calls": len(e["dur"]) / units,
                         "total_s": sum(e["dur"]) / units,
                         "self_s": sum(e["self"]) / units}
                  for name, e in sorted(by_name.items())},
    }
    return metrics, table

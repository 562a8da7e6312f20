"""Outside-in tracer: spans around quadlab's public functions, recorded
from the benchmark's own files without editing the package.

``Tracer.install`` rebinds each target function in every ``quadlab.*``
module that binds it (``residual_gq``, for example, is imported by name
into ``stability``, ``asymptotics`` and ``cli``) and wraps the two
``__call__`` methods on their classes.  ``uninstall`` puts the originals
back.  Spans are kept in memory as ``(name, start, end, parent, work,
extra)`` tuples; ``job_metrics`` folds one job's spans into the per-layer
metrics and clears them.

Self time is a span's duration minus the time its child spans cover.
Calls are single-threaded and properly nested, so children never overlap.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np


def _rows(x) -> int:
    """Vectors in a single vector (1) or a batch of rows."""
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _no_work(args, result):
    return 0, 0


def _arg_rows(position):
    def work(args, result):
        return _rows(args[position]), 0

    return work


def _pairs_returned(args, result):
    return result[0].shape[0], 0


def _extraction(args, result):
    diag = result[1]
    return diag.iterations, 0 if diag.converged else 1


def _grid_patterns(args, result):
    return len(result.entries), 0


def _profile_pairs(args, result):
    return result.shell_count * result.per_shell_count, 0


# (defining module, attribute, span name, work extractor).  A dotted
# attribute names a method wrapped on its class.  ``work`` returns the span's
# work count (rows, pairs, iterations or patterns) and one extra count
# (non-converged extractions).
TARGETS = (
    ("space", "norm_eval", "space.norm_eval", _arg_rows(1)),
    ("space", "sample_pairs_restricted", "space.sample_pairs", _pairs_returned),
    ("quadratic", "MapHandle.__call__", "quadratic.map", _arg_rows(1)),
    ("quadratic", "QuadraticForm.__call__", "quadratic.form", _arg_rows(1)),
    ("quadratic", "residual_gq", "quadratic.residual", _arg_rows(2)),
    ("quadratic", "residual_q", "quadratic.residual", _arg_rows(1)),
    ("perturb", "noise_values", "perturb.noise", _arg_rows(1)),
    ("stability", "extract_quadratic", "stability.extract", _extraction),
    ("stability", "estimate_delta_restricted", "stability.estimate_delta", _no_work),
    ("stability", "stability_constants", "stability.constants", _no_work),
    ("stability", "certify", "stability.certify", _no_work),
    ("stability", "verify_czerwik", "stability.czerwik", _no_work),
    ("geometry", "parallelogram_defect", "geometry.parallelogram", _no_work),
    ("geometry", "recover_gram", "geometry.recover_gram", _no_work),
    ("geometry", "detect_inner_product", "geometry.detect", _no_work),
    ("geometry", "gq_norm_defect", "geometry.gq_norm_defect", _no_work),
    ("geometry", "exponent_scan", "geometry.scan", _grid_patterns),
    ("asymptotics", "shell_delta_profile", "asymptotics.profile", _profile_pairs),
    ("asymptotics", "asymptotic_verdict", "asymptotics.verdict", _no_work),
    ("cli", "main", "cli.main", _no_work),
)

LAYERS = ("space", "quadratic", "perturb", "stability", "geometry", "asymptotics", "cli")


class Tracer:
    """Span recorder for one process; install around traced jobs only."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, 0, 0)
                raise
            finally:
                stack.pop()
            end = clock()
            spans[index] = (name, start, end, parent, *work(args, result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "quadlab" or key.startswith("quadlab."))
        ]
        for module_name, attr, span_name, work in TARGETS:
            home = sys.modules[f"quadlab.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = vars(cls)[method]
                self._rebind(cls, method, self._wrap(span_name, original, work))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(span_name, original, work)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._rebind(mod, attr, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def job_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last call."""
        spans = list(self.spans)
        self.spans.clear()
        return fold_spans(spans)


def fold_spans(spans: list) -> dict:
    """Per-layer metrics of one job's spans (see the benchmark README)."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    extra: dict[str, int] = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_self = dict.fromkeys(LAYERS, 0.0)
    sampled_norm_rows = 0
    scan_norm_calls = 0
    for i, (name, start, end, parent, w, x) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        work[name] = work.get(name, 0) + w
        extra[name] = extra.get(name, 0) + x
        layer_self[name.partition(".")[0]] += dur - child[i]
        if name == "space.norm_eval":
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            if "space.sample_pairs" in ancestors:
                sampled_norm_rows += w
            if "geometry.scan" in ancestors:
                scan_norm_calls += 1

    def ratio(num, den):
        return num / den if den else 0.0

    map_calls = calls.get("quadratic.map", 0)
    return {
        "perturb.noise.self_s": self_s.get("perturb.noise", 0.0),
        "perturb.noise.rows": work.get("perturb.noise", 0),
        "stability.extract.calls": calls.get("stability.extract", 0),
        "stability.extract.iterations": work.get("stability.extract", 0),
        "stability.extract.nonconverged": extra.get("stability.extract", 0),
        "stability.extract.s": total.get("stability.extract", 0.0),
        "stability.self_s": layer_self["stability"],
        "quadratic.map.calls": map_calls,
        "quadratic.map.rows": work.get("quadratic.map", 0),
        "quadratic.rows_per_map_call": ratio(work.get("quadratic.map", 0), map_calls),
        "quadratic.map.self_s": self_s.get("quadratic.map", 0.0),
        "quadratic.form.self_s": self_s.get("quadratic.form", 0.0),
        "quadratic.form.rows": work.get("quadratic.form", 0),
        "quadratic.residual.calls": calls.get("quadratic.residual", 0),
        "quadratic.residual.s": total.get("quadratic.residual", 0.0),
        "space.sample_pairs.calls": calls.get("space.sample_pairs", 0),
        "space.sample_pairs.s": total.get("space.sample_pairs", 0.0),
        "space.rows_per_pair": ratio(sampled_norm_rows, work.get("space.sample_pairs", 0)),
        "space.norm_eval.calls": calls.get("space.norm_eval", 0),
        "space.norm_eval.rows": work.get("space.norm_eval", 0),
        "space.norm_eval.self_s": self_s.get("space.norm_eval", 0.0),
        "geometry.norm_evals_per_pattern": ratio(scan_norm_calls, work.get("geometry.scan", 0)),
        "geometry.scan.s": total.get("geometry.scan", 0.0),
        "geometry.detect.s": total.get("geometry.detect", 0.0),
        "geometry.self_s": layer_self["geometry"],
        "asymptotics.profile.s": total.get("asymptotics.profile", 0.0),
        "asymptotics.self_s": layer_self["asymptotics"],
        "asymptotics.pairs": work.get("asymptotics.profile", 0),
        "cli.self_s": layer_self["cli"],
    }


def median_metrics(per_job: list[dict]) -> dict:
    """Median of each metric over traced jobs (counts repeat exactly)."""
    return {key: statistics.median(job[key] for job in per_job) for key in per_job[0]}

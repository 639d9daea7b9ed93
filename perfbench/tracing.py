"""Spans around the public entry points of each siegelcy layer.

The wrappers live in the benchmark, not in the program: `install` replaces
each entry point on the name its caller looks up (a module attribute, a
class attribute, or an entry of `suite.SELECTORS`), so nothing under `src/`
changes.  A wrapper on a name nobody looks up would silently record
nothing; the benchmark therefore checks after every traced run that each
span its workload declares recorded at least one call.

Spans are kept in memory as [name, parent index, start, end, count] and
aggregated when the run ends.  A span's own time is its duration minus the
durations of its direct child spans.  `count` is work recorded at the
boundary (term pairs, matrix cells, samples kept, report bytes).
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call.  `name` is a string or a
        function of the call's arguments; `count(args, result)` gives the
        span's work count."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args, kwargs),
                    self._stack[-1] if self._stack else -1, 0.0, 0.0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) s, self s, summed count.
        Spans inside a battery are also totalled under "<battery>/<name>"."""
        child_time = [0.0] * len(self.spans)
        battery: list[str | None] = []
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            battery.append(name if name.startswith("suite.")
                           else battery[parent] if parent >= 0 else None)
        out: dict[str, dict[str, float]] = {}
        for i, (name, _, start, end, count) in enumerate(self.spans):
            keys = [name] if battery[i] in (None, name) else [name, f"{battery[i]}/{name}"]
            for key in keys:
                t = out.setdefault(key, {"calls": 0, "total": 0.0, "self": 0.0,
                                         "count": 0})
                t["calls"] += 1
                t["total"] += end - start
                t["self"] += end - start - child_time[i]
                t["count"] += count
        return out


def _mul_name(args, kwargs) -> str:
    """Series products are qseries.mul; products with a scalar are
    qseries.scale, kept apart so that mul counts only series products."""
    return "qseries.mul" if hasattr(args[1], "terms") else "qseries.scale"


def _mul_pairs(args, result) -> int:
    a, b = args
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _solve_cells(args, result) -> int:
    columns, target = args
    return len(columns) * len(target)


#: span name -> ((module, attribute path) on which callers look it up, ...),
#: and the work count recorded at the boundary
SPANS: dict[str, tuple[tuple[tuple[str, str], ...], object]] = {
    "modforms.registry": ((("siegelcy.modforms", "FormRegistry.__init__"),), None),
    "modforms.verify_identity": ((("siegelcy.modforms", "verify_identity"),), None),
    "qseries.mul": ((("siegelcy.qseries", "QSeries.__mul__"),
                     ("siegelcy.qseries", "QSeries.__rmul__")), _mul_pairs),
    "qseries.theta_qexp": ((("siegelcy.qseries", "theta_qexp"),), None),
    "mpoly.graded_membership": ((("siegelcy.mpoly", "graded_membership"),
                                 ("siegelcy.variety", "graded_membership")), None),
    "mpoly.solve_exact": ((("siegelcy.mpoly", "solve_exact"),), _solve_cells),
    "mpoly.threeform_pullback": ((("siegelcy.mpoly", "threeform_pullback"),
                                  ("siegelcy.variety", "threeform_pullback")), None),
    "variety.curve_checks": ((("siegelcy.variety", "curve_checks"),), None),
    "variety.omega_stabilizer": ((("siegelcy.variety", "omega_stabilizer"),), None),
    "variety.coordinate_change": ((("siegelcy.variety", "coordinate_change_check"),), None),
    "symplectic.sample_element": ((("siegelcy.symplectic", "sample_element"),), None),
    "numeric.conditioned_samples": ((("siegelcy.numeric", "conditioned_samples"),),
                                    lambda args, result: len(result)),
    "numeric.theta_eval_batch": ((("siegelcy.numeric", "theta_eval_batch"),), None),
    "numeric.siegel_transform": ((("siegelcy.numeric", "siegel_transform"),), None),
    "characteristics.sp4f2_elements": ((("siegelcy.characteristics", "sp4f2_elements"),), None),
}

#: spans whose name depends on the call
NAMERS = {"qseries.mul": _mul_name}

#: battery spans, installed on the entries of suite.SELECTORS
BATTERIES = ("chars", "series", "relations", "boundary", "variety", "numeric")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every entry point in SPANS, the batteries and the JSON report
    writer, on the names their callers look up."""
    for name, (targets, count) in SPANS.items():
        wrapped = {}
        for module, path in targets:
            owner, attr = _resolve(module, path)
            fn = getattr(owner, attr)
            if fn not in wrapped:
                wrapped[fn] = tracer.wrap(NAMERS.get(name, name), fn, count)
            setattr(owner, attr, wrapped[fn])

    suite = importlib.import_module("siegelcy.suite")
    batteries = {fn: tracer.wrap("suite." + fn.__name__.removeprefix("run_"), fn)
                 for fns in suite.SELECTORS.values() for fn in fns}
    for fns in suite.SELECTORS.values():
        fns[:] = [batteries[fn] for fn in fns]

    # the CLI imports emit_report by name; only the JSON form is the report
    cli = importlib.import_module("siegelcy.cli")
    cli.emit_report = tracer.wrap(
        lambda args, kwargs: "cli.emit_" + (args[1] if len(args) > 1
                                            else kwargs.get("fmt", "text")),
        cli.emit_report,
        lambda args, result: len(result.encode("utf-8")))


#: per-layer metric -> (unit, span, field of Tracer.totals)
SPAN_METRICS: dict[str, tuple[str, str, str]] = {
    **{f"suite.{b}_s": ("s", f"suite.{b}", "total") for b in BATTERIES},
    "cli.emit_json_s": ("s", "cli.emit_json", "total"),
    "cli.report_bytes": ("bytes", "cli.emit_json", "count"),
    "modforms.registry_builds": ("count", "modforms.registry", "calls"),
    "modforms.registry_s": ("s", "modforms.registry", "total"),
    "modforms.verify_identity_calls": ("count", "modforms.verify_identity", "calls"),
    "modforms.verify_identity_s": ("s", "modforms.verify_identity", "total"),
    "qseries.mul_calls": ("count", "qseries.mul", "calls"),
    "qseries.mul_self_s": ("s", "qseries.mul", "self"),
    "qseries.term_pairs": ("count", "qseries.mul", "count"),
    "qseries.theta_qexp_calls": ("count", "qseries.theta_qexp", "calls"),
    "qseries.theta_qexp_s": ("s", "qseries.theta_qexp", "total"),
    "mpoly.graded_membership_calls": ("count", "mpoly.graded_membership", "calls"),
    "mpoly.graded_membership_s": ("s", "mpoly.graded_membership", "total"),
    "mpoly.solve_exact_calls": ("count", "mpoly.solve_exact", "calls"),
    "mpoly.solve_exact_self_s": ("s", "mpoly.solve_exact", "self"),
    "mpoly.solve_cells": ("count", "mpoly.solve_exact", "count"),
    "mpoly.threeform_pullback_calls": ("count", "mpoly.threeform_pullback", "calls"),
    "mpoly.threeform_pullback_s": ("s", "mpoly.threeform_pullback", "total"),
    "variety.curve_checks_s": ("s", "variety.curve_checks", "total"),
    "variety.omega_stabilizer_s": ("s", "variety.omega_stabilizer", "total"),
    "variety.coordinate_change_s": ("s", "variety.coordinate_change", "total"),
    "symplectic.sample_element_calls": ("count", "symplectic.sample_element", "calls"),
    "symplectic.sample_element_s": ("s", "symplectic.sample_element", "total"),
    "symplectic.samples_kept": ("count", "numeric.conditioned_samples", "count"),
    "numeric.theta_eval_batch_calls": ("count", "numeric.theta_eval_batch", "calls"),
    "numeric.theta_eval_batch_s": ("s", "numeric.theta_eval_batch", "total"),
    "numeric.siegel_transform_s": ("s", "numeric.siegel_transform", "total"),
    "characteristics.sp4f2_elements_s": ("s", "characteristics.sp4f2_elements", "total"),
}

#: per-layer metrics computed from the run, not read off one span
DERIVED_METRICS: dict[str, str] = {
    "suite.checks": "count",
    "suite.checks_crashed": "count",
    "suite.cpu_s": "s",
    "symplectic.accept_ratio": "ratio",
    "trace.overhead_share": "ratio",
}

#: every per-layer metric -> unit
LAYER_UNITS: dict[str, str] = {
    **{m: unit for m, (unit, _, _) in SPAN_METRICS.items()}, **DERIVED_METRICS}

#: (span, battery span): shares compared with the traced baseline
SHARES = (("mpoly.solve_exact", "suite.variety"),
          ("qseries.mul", "suite.relations"),
          ("symplectic.sample_element", "suite.numeric"),
          ("numeric.theta_eval_batch", "suite.numeric"))


def span_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    out = {}
    for metric, (_, span, field) in SPAN_METRICS.items():
        out[metric] = totals.get(span, {}).get(field, 0)
    calls = out["symplectic.sample_element_calls"]
    out["symplectic.accept_ratio"] = out["symplectic.samples_kept"] / calls if calls else 0.0
    return out

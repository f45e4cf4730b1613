"""Span tracer for the benchmark's traced run.

``install`` wraps graphonlab's public functions at the names their callers
look them up through: module attributes such as ``experiments.cut_norm_auto``
or ``rng.uniforms_at``, and class methods such as
``ProductGraphon.eval_grid``. No file of the package is edited. Each wrapped
call records a span (name, layer, start, end, enclosing span) and the counters
that belong to that boundary, taken from the call's arguments or result.

A layer is the graphonlab module that owns the function. The private module
``_kernels`` is reported as ``kernels`` because metric names must start with
a letter.

After each op the spans are folded into running totals:

* self time of a span = its duration minus the durations of its direct
  children (calls are sequential, so children never overlap);
* busy time of a name = summed duration of its spans that are not nested in
  a span of the same name (recursive products count once);
* uncovered time = op wall time minus the top-level spans, i.e. the
  workload's own glue plus wrapper overhead outside any span.

So the layer self times plus the uncovered time add up to the op time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAYERS = ("cli", "experiments", "sampling", "rng", "core", "algebra", "expr", "norms", "kernels")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at top level


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def busy_times(spans) -> Counter:
    """Per name, total duration of spans with no ancestor of the same name."""
    busy = Counter()
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            busy[s.name] += s.end - s.start
    return busy


class Tracer:
    """In-memory span recorder; ``end_op`` folds one op's spans into totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self.counts = Counter()
        self.errors = Counter()
        self.totals = Counter()
        self.grid_bytes_max = 0
        self.ops = 0
        self.op_seconds = 0.0
        self.missing: list = []

    def parent(self):
        """The innermost open span, or None outside every span."""
        return self.spans[self._stack[-1]] if self._stack else None

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def end_op(self, seconds: float) -> None:
        """Add one finished op of the given wall time to the totals."""
        if self._stack:
            raise RuntimeError("end_op called inside an open span")
        self.ops += 1
        self.op_seconds += seconds
        for span, own in zip(self.spans, self_times(self.spans)):
            self.totals["layer:" + span.layer] += own
            self.totals["self:" + span.name] += own
        for name, t in busy_times(self.spans).items():
            self.totals["busy:" + name] += t
        covered = sum(s.end - s.start for s in self.spans if s.parent < 0)
        self.totals["uncovered"] += seconds - covered
        self.spans.clear()


# ---------------------------------------------------------------------------
# Counters taken at the wrapped boundaries
# ---------------------------------------------------------------------------


def _count_variates(tr, args, kwargs):
    tr.counts["rng.variates"] += int(np.size(args[1]))


def _count_pairs(tr, args, kwargs):
    n = args[0].n
    tr.counts["sampling.pairs"] += n * (n - 1) // 2


def _count_edges(tr, args, kwargs):
    tr.counts["core.edges"] += args[0].edge_count


def _count_cell_means(tr, args, kwargs):
    tr.counts["algebra.cell_means.calls"] += 1


def _grid_bytes(args) -> int:
    return 8 * int(np.size(args[1])) * int(np.size(args[2]))


def _count_grid(tr, args, kwargs):
    """Kernel grids evaluated by algebra (quadrature or a lazy product)."""
    parent = tr.parent()
    if parent is not None and parent.layer == "algebra":
        tr.grid_bytes_max = max(tr.grid_bytes_max, _grid_bytes(args))
        if parent.name == "algebra.cell_means":
            tr.counts["algebra.cell_means.grids"] += 1


def _count_product(tr, args, kwargs):
    _count_grid(tr, args, kwargs)
    tr.grid_bytes_max = max(tr.grid_bytes_max, _grid_bytes(args))
    kernel = args[0]
    if kernel.step is None and kernel.asym_values is None:
        gz = args[3] if len(args) > 3 else kwargs["gz"]
        tr.counts["algebra.product_eval.flops"] += 2 * int(np.size(args[1])) * gz * int(
            np.size(args[2])
        )


def _count_points(tr, args, kwargs):
    tr.counts["expr.eval_array.points"] += np.broadcast(
        np.asarray(args[1]), np.asarray(args[2])
    ).size


def _count_exact(tr, args, kwargs):
    tr.counts["norms.cut_exact.calls"] += 1
    tr.counts["norms.cut_exact.subsets"] += 2 ** args[0].n


def _counter_lower_bound(fn):
    sig = inspect.signature(fn)

    def count(tr, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tr.counts["norms.cut_lb.calls"] += 1
        tr.counts["norms.cut_lb.restarts"] += int(bound.arguments["restarts"])

    return count


def _count_rows(tr, report):
    tr.counts["experiments.rows"] += len(report.rows)


def _count_report_bytes(tr, written):
    tr.counts["io.report_bytes"] += sum(Path(p).stat().st_size for p in written.values())


def _targets():
    """(owner, attribute, span name, layer, before, after) for every wrap site."""
    from graphonlab import _kernels, algebra, cli, core, experiments, expr, norms, rng, sampling

    lower_bound = _counter_lower_bound(norms.cut_norm_lower_bound)
    return [
        (cli, "main", "cli.main", "cli", None, None),
        (cli, "from_expression", "expr.from_expression", "expr", None, None),
        (cli, "run_theorem_sweep", "experiments.sweep", "experiments", None, _count_rows),
        (cli, "run_counterexample_sweep", "experiments.sweep", "experiments", None, _count_rows),
        (cli, "emit_report", "experiments.emit_report", "experiments", None, _count_report_bytes),
        (experiments, "validate_graphon", "core.validate_graphon", "core", None, None),
        (experiments, "power", "algebra.power", "algebra", None, None),
        (experiments, "cell_means", "algebra.cell_means", "algebra", _count_cell_means, None),
        (experiments, "expected_graphon", "sampling.expected_graphon", "sampling", None, None),
        (experiments, "sample_latents", "sampling.sample_latents", "sampling", None, None),
        (experiments, "sample_graph", "sampling.sample_graph", "sampling", _count_pairs, None),
        (experiments, "canonical_graphon", "core.canonical_graphon", "core", _count_edges, None),
        (experiments, "cut_norm_auto", "norms.cut_norm_auto", "norms", None, None),
        (sampling, "cell_means", "algebra.cell_means", "algebra", _count_cell_means, None),
        (sampling, "expected_graphon", "sampling.expected_graphon", "sampling", None, None),
        (sampling, "sample_latents", "sampling.sample_latents", "sampling", None, None),
        (sampling, "sample_graph", "sampling.sample_graph", "sampling", _count_pairs, None),
        (rng, "uniforms_at", "rng.uniforms_at", "rng", _count_variates, None),
        (norms, "cut_norm_exact", "norms.cut_exact", "norms", _count_exact, None),
        (norms, "cut_norm_lower_bound", "norms.cut_lb", "norms", lower_bound, None),
        (_kernels, "enum_best_mask", "kernels.enum_best_mask", "kernels", None, None),
        (_kernels, "altmax_best_rows", "kernels.altmax_best_rows", "kernels", None, None),
        (core, "canonical_graphon", "core.canonical_graphon", "core", _count_edges, None),
        (core.SimpleGraph, "__post_init__", "core.simple_graph", "core", None, None),
        (core.StepGraphon, "__post_init__", "core.step_graphon", "core", None, None),
        (core.StepGraphon, "eval_grid", "core.eval_grid", "core", _count_grid, None),
        (core.GraphonSpec, "eval_grid", "core.eval_grid", "core", _count_grid, None),
        (algebra.ProductGraphon, "eval_grid", "algebra.product_eval", "algebra",
         _count_product, None),
        (expr, "eval_array", "expr.eval_array", "expr", _count_points, None),
    ]


def install(tracer: Tracer) -> None:
    """Replace every wrap site by its traced version (for this process only).

    A site that no longer exists is skipped and listed in ``tracer.missing``,
    so a later refactor shows up as a missing site instead of a crash.
    """
    for owner, attr, name, layer, before, after in _targets():
        fn = owner.__dict__.get(attr)
        if fn is None:
            tracer.missing.append(f"{owner.__name__}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(fn, name, layer, before, after))


# ---------------------------------------------------------------------------
# Per-layer metrics (the names BENCHMARK.json lists under per_layer)
# ---------------------------------------------------------------------------


def _per_op(key):
    return lambda tr, v: v[key] / tr.ops


def _ratio(num, den):
    return lambda tr, v: v[num] / v[den] if v[den] else 0.0


_METRICS = {
    "rng.variates": ("count/op", _per_op("rng.variates")),
    "rng.busy_s": ("s", _per_op("busy:rng.uniforms_at")),
    "sampling.pairs": ("count/op", _per_op("sampling.pairs")),
    "sampling.sample_graph.self_s": ("s", _per_op("self:sampling.sample_graph")),
    "sampling.expected_graphon.busy_s": ("s", _per_op("busy:sampling.expected_graphon")),
    "core.edges": ("count/op", _per_op("core.edges")),
    "core.canonical_graphon.busy_s": ("s", _per_op("busy:core.canonical_graphon")),
    "core.simple_graph.busy_s": ("s", _per_op("busy:core.simple_graph")),
    "algebra.cell_means.busy_s": ("s", _per_op("busy:algebra.cell_means")),
    "algebra.cell_means.grids_per_call": (
        "grids/call",
        _ratio("algebra.cell_means.grids", "algebra.cell_means.calls"),
    ),
    "algebra.product_eval.busy_s": ("s", _per_op("busy:algebra.product_eval")),
    "algebra.product_eval.flops_computed": ("flop/op", _per_op("algebra.product_eval.flops")),
    "algebra.grid_bytes_max_computed": ("B", lambda tr, v: float(tr.grid_bytes_max)),
    "expr.eval_array.busy_s": ("s", _per_op("busy:expr.eval_array")),
    "expr.eval_array.points": ("count/op", _per_op("expr.eval_array.points")),
    "norms.cut_exact.calls": ("count/op", _per_op("norms.cut_exact.calls")),
    "norms.cut_exact.subsets": ("count/op", _per_op("norms.cut_exact.subsets")),
    "norms.cut_exact.busy_s": ("s", _per_op("busy:norms.cut_exact")),
    "kernels.enum_best_mask.busy_s": ("s", _per_op("busy:kernels.enum_best_mask")),
    "norms.cut_lb.calls": ("count/op", _per_op("norms.cut_lb.calls")),
    "norms.cut_lb.restarts": ("count/op", _per_op("norms.cut_lb.restarts")),
    "norms.cut_lb.busy_s": ("s", _per_op("busy:norms.cut_lb")),
    "kernels.altmax_best_rows.busy_s": ("s", _per_op("busy:kernels.altmax_best_rows")),
    "experiments.self_s": ("s", _per_op("self:experiments.sweep")),
    "experiments.rows": ("count/op", _per_op("experiments.rows")),
    "experiments.emit_report.busy_s": ("s", _per_op("busy:experiments.emit_report")),
    "io.report_bytes": ("B/op", _per_op("io.report_bytes")),
    "cli.self_s": ("s", _per_op("self:cli.main")),
}
_METRICS.update(
    {f"layer.{layer}.self_s": ("s", _per_op("layer:" + layer)) for layer in LAYERS}
)
_METRICS["layer.uncovered_s"] = ("s", _per_op("uncovered"))
_METRICS["trace.op_s"] = ("s", lambda tr, v: tr.op_seconds / tr.ops)
_METRICS.update(
    {f"{layer}.errors": ("count", lambda tr, v, layer=layer: tr.errors[layer]) for layer in LAYERS}
)

# Added by run.py, which alone sees both the traced and the untraced run.
OVERHEAD_METRIC = ("trace.overhead_frac", "frac")

PER_LAYER_UNITS = {name: unit for name, (unit, _) in _METRICS.items()}
PER_LAYER_UNITS[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer metric except the overhead, as ``{name: {value, unit}}``.

    Counts and times are per op (means over the traced ops), except the
    largest grid (a maximum) and the error counts (totals).
    """
    if tr.ops < 1:
        raise ValueError("no traced op finished")
    values = Counter(tr.counts)
    values.update(tr.totals)
    return {
        name: {"value": float(fn(tr, values)), "unit": unit}
        for name, (unit, fn) in _METRICS.items()
    }

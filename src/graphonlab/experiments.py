"""Convergence sweeps: expected graphons against their limits, and the
ER counterexample where only the cut norm decays.

The headline quantity of a theorem sweep is

    e_n = || (expected step graphon at n)^(k) - W^(k) ||_1

computed with exact matrix algebra whenever the k-th power of the limit is a
step function (constants, step inputs), and by aligned midpoint quadrature
otherwise. Both sum |limit - E| through `norms` (`l1_distance`, and
`_mean_abs_diff` on the limit's grid levels); this module keeps no norm code.
Each row also records, for one seeded sample graph per n, the L1 distance of
the sampled power to the limit and the cut norm of its signed difference to the
discretized limit. At k = 1 the sampled L1 distance does not
decay (its mean tends to 2 * integral of W(1 - W)); at k >= 2 it does, more
slowly than e_n: in theorem-large sweeps (minmax, k = 2) the one-draw column
falls from 0.008-0.010 at n = 64 to 0.0021 at n = 1024. The counterexample
sweep makes the k = 1 contrast exact: its sampled columns are the same two
numbers at W = constant(p), k = 1, averaged over several draws.

For an analytic limit, e_n settles when two successive grid levels agree within
min(q.tol, (sqrt(2) L + sup W) / (10 max(ns))), a tenth of the rate bound at the
largest n. That can exceed e_n, so measurement error can mask convergence: in the
perfbench theorem-large sweep (k = 2, n up to 1024) it is 1e-4, while e_n at
n = 1024 is 3.46e-5 (see ROADMAP). The rate constant L is taken from the
builtin catalog and defaults to 1; the O(1/n) target itself is derived for
Lipschitz kernels and is not asserted for merely integrable inputs.
Reports are byte-reproducible for a given (config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import io as glio
from . import rng
from .algebra import (
    QuadratureSpec, _first_grid, block_means, cell_means, midpoints, power, settle,
    validate_graphon,
)
from .core import StepGraphon, _check_count, _trusted, as_kernel, canonical_graphon, constant
from .errors import QuadratureError, ValidationError
from .norms import _mean_abs_diff, cut_norm_auto, l1_distance
from .sampling import SamplerConfig, sample_graph, sample_latents, expected_graphon

_TAG_SWEEP_GRAPH = 5
_TAG_SWEEP_CUT = 6
_TAG_CE_DRAW = 7
_TAG_CE_CUT = 8

_SHARED_ALIGN_CAP = 2048


@dataclass(frozen=True)
class SweepRow:
    n: int
    l1_expected_vs_limit: Optional[float]
    l1_sampled_vs_limit: Optional[float]
    cutnorm_sampled_vs_limit: Optional[float]


_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass
class ConvergenceReport:
    label: str
    kind: str
    k: int
    seed: int
    quadrature: QuadratureSpec
    rows: list
    incomplete: bool = False
    # the QuadratureError message that stopped an incomplete sweep; not in the report files
    error: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if ns != sorted(set(ns)):
            raise ValidationError("rows must be sorted by strictly increasing n")
        for r in self.rows:
            if any(v is not None and v < 0 for v in (getattr(r, c) for c in _COLUMNS)):
                raise ValidationError(f"negative distance in row n={r.n}")


class _LimitDistance:
    """Shared machinery for L1 distances from n-step graphons to the limit.

    When the limit power is itself a step function the distance is
    `l1_distance`, exact on the common lcm grid. Otherwise limit values are
    evaluated on midpoint grids aligned to every swept n (so one cache level
    serves the whole sweep) and refined per comparison until the estimate
    settles within tol.
    """

    def __init__(self, w, k: int, ns, q: QuadratureSpec):
        self.q = q
        self.kw = as_kernel(power(w, k, q))
        self.limit_step = self.kw.step
        self.cache = {}
        if self.limit_step is None:
            lip = getattr(w, "lipschitz", None) or 1.0
            sup = getattr(w, "sup_bound", 1.0)
            self.tol = min(q.tol, (math.sqrt(2.0) * lip + sup) / (10.0 * max(ns)))
            lcm_all = math.lcm(*ns)
            self.shared_align = lcm_all if lcm_all <= _SHARED_ALIGN_CAP else None

    def _limit_at(self, g: int) -> np.ndarray:
        if g not in self.cache:
            mids = midpoints(g)
            self.cache[g] = self.kw.eval_grid(mids, mids, g)
        return self.cache[g]

    def distance(self, step: StepGraphon) -> float:
        if self.limit_step is not None:
            return l1_distance(step, self.limit_step, self.q)
        n = step.n
        g0 = _first_grid(self.q, self.shared_align or n)
        return settle(self.q, g0, lambda g: _mean_abs_diff(self._limit_at(g), step.values),
                      f"limit distance at n={n}", self.tol).value

    def limit_cells(self, n: int) -> np.ndarray:
        """Cell averages of the limit power on the n-grid, in a new array that the caller
        owns and may overwrite, for a step limit as for an analytic one."""
        if self.limit_step is not None:
            return cell_means(self.kw, n, self.q)
        # called after distance() at this n, which cached levels that n divides
        return block_means(self._limit_at(max(g for g in self.cache if g % n == 0)), n)


def _sorted_ns(ns) -> list:
    out = set()
    for n in ns:  # as StepGraphon.refine's factor: int() would truncate 4.9 and parse "8"
        if not isinstance(n, (int, np.integer)):
            raise ValidationError(f"sweep sizes must be integers, got {n!r}")
        out.add(int(n))
    out = sorted(out)
    if not out:
        raise ValidationError("empty sweep")
    return out


def run_theorem_sweep(
    w, k: int, ns, q: QuadratureSpec = QuadratureSpec(), seed: int = 0
) -> ConvergenceReport:
    """Record e_n plus one-draw sampled distances for each n."""
    ns = _sorted_ns(ns)
    if ns[0] < 2:
        raise ValidationError("theorem sweep needs every n >= 2")
    _check_count(k, "power k", 1)
    validate_graphon(w, q)
    dist = _LimitDistance(w, k, ns, q)
    rows = []
    error = None
    for n in ns:
        try:
            e_n = dist.distance(power(expected_graphon(w, n, q), k, q))
            graph_key = rng.derive_key(seed, _TAG_SWEEP_GRAPH, n)
            cut_key = rng.derive_key(seed, _TAG_SWEEP_CUT, n)
            rows.append(SweepRow(n, e_n, *_sampled(w, k, n, q, dist, graph_key, cut_key)))
        except QuadratureError as exc:
            error = str(exc)
            break
    label = getattr(as_kernel(w), "label", "graphon")
    return ConvergenceReport(
        label=label, kind="theorem", k=k, seed=seed, quadrature=q, rows=rows,
        incomplete=error is not None, error=error,
    )


def _sampled(w, k: int, n: int, q: QuadratureSpec, dist: _LimitDistance,
             graph_key: int, cut_key: int) -> tuple[float, float]:
    """The sampled columns at n: the L1 distance of the k-th power of the graph drawn
    under graph_key to the limit, and the cut norm of its signed difference to the
    limit's cell averages, written into the cells' own buffer. Each n x n array (8 MiB
    at n = 1024) lives only inside the stage that uses it: the power is dead before the
    cut norm runs."""
    cfg = SamplerConfig(n, graph_key, w)
    ak = power(canonical_graphon(sample_graph(cfg, sample_latents(cfg))), k, q)
    l1 = dist.distance(ak)
    cells = dist.limit_cells(n)
    diff = np.subtract(ak.values, cells, out=cells)
    del ak, cells
    # both terms are bitwise symmetric, so the clipped difference is a valid step: no copy
    signed = _trusted(StepGraphon, n=n, values=np.clip(diff, -1.0, 1.0, out=diff),
                      lo=-1.0, hi=1.0)
    del diff
    return l1, cut_norm_auto(signed, seed=cut_key).value


def run_counterexample_sweep(
    p: float, ns, draws_per_n: int, seed: int = 0, q: QuadratureSpec = QuadratureSpec()
) -> ConvergenceReport:
    """Sampled ER graphons: L1 distance stays put while the cut norm decays.

    The sampled columns are the theorem sweep's at W = constant(p), k = 1,
    averaged over draws_per_n graphs per n: the exact L1 distance of each
    canonical graphon to the constant, and the cut norm of the signed
    difference, exact within the enumeration budget. The expected-graphon
    column carries its closed form p/n (only the zeroed diagonal differs from
    the constant limit).
    """
    if not (0.0 < p < 1.0):
        raise ValidationError("counterexample level p must lie in (0, 1)")
    _check_count(draws_per_n, "draws_per_n", 1)
    ns = _sorted_ns(ns)
    w = constant(p)
    dist = _LimitDistance(w, 1, ns, q)
    rows = []
    for n in ns:
        draws = []
        for d in range(draws_per_n):
            sub = rng.derive_key(seed, _TAG_CE_DRAW, n, d)
            draws.append(_sampled(w, 1, n, q, dist, sub, rng.derive_key(sub, _TAG_CE_CUT)))
        l1s, cuts = zip(*draws)
        rows.append(SweepRow(n, p / n, float(np.mean(l1s)), float(np.mean(cuts))))
    return ConvergenceReport(
        label=f"er(p={p:g})", kind="counterexample", k=1, seed=seed, quadrature=q, rows=rows
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

_FORMATS = ("csv", "json", "svg")


def report_to_dict(r: ConvergenceReport) -> dict:
    return {
        "label": r.label,
        "kind": r.kind,
        "k": r.k,
        "seed": r.seed,
        "incomplete": r.incomplete,
        "quadrature": asdict(r.quadrature),
        "rows": [{c: getattr(row, c) for c in _COLUMNS} for row in r.rows],
    }


def _typed_fields(doc, cls) -> dict:
    """The fields of the record cls that the JSON object doc holds, each checked against its
    annotation (a nested record's as a JSON object). A field that cls does not declare is
    refused, and so is a missing one without a default; a ValidationError names it."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{cls.__name__} must be a JSON object, got {type(doc).__name__}")
    hints = get_type_hints(cls)
    if unknown := sorted(doc.keys() - hints.keys()):
        raise ValidationError(f"{cls.__name__} has unknown fields {unknown}")
    for name, f in cls.__dataclass_fields__.items():
        if name not in doc and f.default is MISSING:
            raise ValidationError(f"{cls.__name__} has no field '{name}'")
        tp = dict if is_dataclass(hints[name]) else hints[name]
        if name in doc and not glio._has_type(doc[name], tp):
            raise ValidationError(f"{cls.__name__} field '{name}' must be {f.type}, "
                                  f"got {doc[name]!r:.60}")
    return {name: doc[name] for name in hints if name in doc}


def report_from_dict(doc) -> ConvergenceReport:
    """The report that `report_to_dict` gave as doc, every field checked by `_typed_fields`."""
    top = _typed_fields(doc, ConvergenceReport)
    top["quadrature"] = QuadratureSpec(**_typed_fields(top["quadrature"], QuadratureSpec))
    top["rows"] = [SweepRow(**_typed_fields(row, SweepRow)) for row in top["rows"]]
    return ConvergenceReport(**top)


def load_report(path) -> ConvergenceReport:
    """Public because it reads back the JSON report that `emit_report` writes. A file that
    is not such a report is refused with a ValidationError that names it."""
    p = Path(path)
    try:
        return report_from_dict(json.loads(p.read_text()))
    except (ValueError, ValidationError) as exc:  # not JSON (or not UTF-8), or not a report
        raise ValidationError(f"{p.name}: not a sweep report: {exc}") from None


def _csv_cell(v: Optional[float]) -> str:
    return "" if v is None else glio.fmt_float(v)


def report_paths(out, formats) -> dict:
    """Report file per chosen format: `out` resolved, the format as extension."""
    if not formats:
        raise ValidationError("no report format chosen (choose from csv, json, svg)")
    bad = set(formats) - set(_FORMATS)
    if bad:
        raise ValidationError(f"unknown report formats {sorted(bad)}")
    base = glio.resolve_out(out)
    return {fmt: base.with_suffix("." + fmt) for fmt in _FORMATS if fmt in formats}


def emit_report(report: ConvergenceReport, out, formats=("csv", "json")) -> dict:
    """Write the report next to `out` (base path, extension per format)."""
    if not report.rows:
        # a sweep stopped at its first n names what did not settle
        raise QuadratureError(report.error) if report.error else ValidationError("empty sweep")
    written = report_paths(out, formats)
    if "csv" in written:
        lines = [",".join(_COLUMNS)]
        lines += [",".join(_csv_cell(getattr(row, c)) for c in _COLUMNS) for row in report.rows]
        written["csv"].write_text("\n".join(lines) + "\n")
    if "json" in written:
        written["json"].write_text(json.dumps(report_to_dict(report), indent=2) + "\n")
    if "svg" in written:
        written["svg"].write_text(render_svg(report))
    return written


# ---------------------------------------------------------------------------
# SVG log-log chart (self-contained, no plotting dependency)
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 36, 56

# per distance column: its short name in row summaries, its chart title and colour;
# the first series anchors the chart's 1/n reference line
_SERIES = {
    "l1_expected_vs_limit": ("e_n", "expected vs limit (L1)", "#1f77b4"),
    "l1_sampled_vs_limit": ("sampled_l1", "sampled vs limit (L1)", "#d62728"),
    "cutnorm_sampled_vs_limit": ("sampled_cut", "sampled vs limit (cut)", "#2ca02c"),
}


def row_summary(row: SweepRow) -> str:
    """n and each recorded distance of the row, by short name, to 6 digits."""
    cells = [f"n={row.n}"]
    for name, (short, _, _) in _SERIES.items():
        v = getattr(row, name)
        if v is not None:
            cells.append(f"{short}={v:.6g}")
    return "  ".join(cells)


def _xml_text(text: str) -> str:
    """text as XML character data: &, < and > escaped (a callable's label is <lambda>)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(report: ConvergenceReport) -> str:
    pts = {name: [] for name in _SERIES}
    for row in report.rows:
        for name in _SERIES:
            v = getattr(row, name)
            if v is not None and v > 0.0:
                pts[name].append((row.n, v))
    ns = [row.n for row in report.rows]
    values = [v for series in pts.values() for _, v in series]
    if not values:
        values = [1.0]
    lx0, lx1 = math.log10(min(ns)), math.log10(max(ns))
    ref = None
    anchor = next(iter(pts.values()))
    if anchor:
        n0, v0 = anchor[0]
        ref = [(n, v0 * n0 / n) for n in ns]
        values.extend(v for _, v in ref)
    ly0, ly1 = math.log10(min(values)), math.log10(max(values))
    if lx1 - lx0 < 1e-9:
        lx1 = lx0 + 1.0
    if ly1 - ly0 < 1e-9:
        ly1 = ly0 + 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(n):
        return _MARGIN_L + (math.log10(n) - lx0) / (lx1 - lx0) * plot_w

    def sy(v):
        return _MARGIN_T + (ly1 - math.log10(v)) / (ly1 - ly0) * plot_h

    def poly(series):
        return " ".join(f"{sx(n):.2f},{sy(v):.2f}" for n, v in series)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{_MARGIN_L}" y="{_MARGIN_T - 12}">'
        + _xml_text(f"{report.kind} sweep: {report.label}, k={report.k} (log-log)")
        + "</text>",
    ]
    for n in ns:
        x = sx(n)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle">{n}</text>'
        )
    decade = math.floor(ly0)
    while decade <= math.ceil(ly1):
        v = 10.0**decade
        if ly0 <= decade <= ly1:
            y = sy(v)
            parts.append(
                f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" '
                'stroke="#333"/>'
            )
            parts.append(
                f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end">1e{decade}</text>'
            )
        decade += 1
    if ref is not None:
        parts.append(
            f'<polyline points="{poly(ref)}" fill="none" stroke="#999" '
            'stroke-dasharray="6,4"/>'
        )
    legend_y = _MARGIN_T + 14
    for name, (_, title, color) in _SERIES.items():
        if not pts[name]:
            continue
        parts.append(
            f'<polyline points="{poly(pts[name])}" fill="none" stroke="{color}" '
            'stroke-width="1.6"/>'
        )
        for n, v in pts[name]:
            parts.append(f'<circle cx="{sx(n):.2f}" cy="{sy(v):.2f}" r="2.4" fill="{color}"/>')
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 8}" y="{legend_y}" text-anchor="end" '
            f'fill="{color}">{title}</text>'
        )
        legend_y += 16
    if ref is not None:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 8}" y="{legend_y}" text-anchor="end" '
            'fill="#999">reference 1/n</text>'
        )
    parts.append(f'<text x="{_MARGIN_L + plot_w // 2}" y="{_SVG_H - 16}" '
                 'text-anchor="middle">n (blocks / vertices)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

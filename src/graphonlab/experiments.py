"""Convergence sweeps: expected graphons against their limits, and the
ER counterexample where only the cut norm decays.

The headline quantity of a theorem sweep is

    e_n = || (expected step graphon at n)^(k) - W^(k) ||_1

computed with exact matrix algebra whenever the k-th power of the limit is a
step function (constants, step inputs), and by aligned midpoint quadrature
otherwise. Each row also records, for one seeded sample graph per n, the L1
distance of the sampled power to the limit and the cut norm of its signed
difference to the discretized limit; sampled L1 distances do not decay, which
is the contrast the counterexample sweep makes exact at W = constant(p).

Quadrature tolerances for analytic limits are tightened to one tenth of the
smallest expected e_n in the sweep, (sqrt(2) L + sup W) / (10 max(ns)), so
measurement error cannot mask convergence. The rate constant L is taken from
the builtin catalog and defaults to 1; the O(1/n) target itself is derived
for Lipschitz kernels and is not asserted for merely integrable inputs.

Wall-clock timings are kept on rows in memory but excluded from emitted
files and equality, which keeps reports byte-reproducible for a given
(config, seed).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as glio
from . import rng
from .algebra import (
    QuadratureSpec, _first_grid, block_means, cell_means, midpoints, power, settle,
)
from .core import StepGraphon, as_kernel, canonical_graphon, constant, validate_graphon
from .errors import QuadratureError, ValidationError
from .norms import cut_norm_auto, l1_distance
from .sampling import SamplerConfig, sample_graph, sample_latents, expected_graphon

_TAG_SWEEP_GRAPH = 5
_TAG_SWEEP_CUT = 6
_TAG_CE_DRAW = 7
_TAG_CE_CUT = 8

_SHARED_ALIGN_CAP = 2048
_SWEEP_RESTARTS = 50


@dataclass(frozen=True)
class SweepRow:
    n: int
    l1_expected_vs_limit: Optional[float]
    l1_sampled_vs_limit: Optional[float]
    cutnorm_sampled_vs_limit: Optional[float]
    wall_time: float = field(default=0.0, compare=False)


# the report columns: every field a row is compared on
_COLUMNS = tuple(f.name for f in fields(SweepRow) if f.compare)


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
        self.limit_step = self.kw.step_form()
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

        def distance_at(g: int) -> float:
            s = g // n
            lim = self._limit_at(g).reshape(n, s, n, s)
            diff = np.subtract(lim, step.values[:, None, :, None])
            return float(np.abs(diff, out=diff).mean())

        g0 = _first_grid(self.q, self.shared_align or n)
        return settle(self.q, g0, distance_at, f"limit distance at n={n}", self.tol).value

    def limit_cells(self, n: int) -> np.ndarray:
        """Cell averages of the limit power on the n-grid."""
        if self.limit_step is not None:
            return cell_means(self.kw, n, self.q)
        # called after distance() at this n, which cached levels that n divides
        return block_means(self._limit_at(max(g for g in self.cache if g % n == 0)), n)


def _sorted_ns(ns) -> list:
    out = sorted({int(n) for n in ns})
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
    if k < 1:
        raise ValidationError("power k must be >= 1")
    validate_graphon(w, samples=512, seed=seed).raise_if_failed()
    dist = _LimitDistance(w, k, ns, q)
    rows = []
    error = None
    for n in ns:
        try:
            rows.append(_theorem_row(w, k, n, q, dist, seed))
        except QuadratureError as exc:
            error = str(exc)
            break
    label = getattr(w, "label", "graphon")
    return ConvergenceReport(
        label=label, kind="theorem", k=k, seed=seed, quadrature=q, rows=rows,
        incomplete=error is not None, error=error,
    )


def _theorem_row(w, k: int, n: int, q: QuadratureSpec, dist: _LimitDistance,
                 seed: int) -> SweepRow:
    """The sweep row at n. Each n x n array (8 MiB at n = 1024) lives only inside the
    call that uses it, so none is held through a later stage."""
    t0 = time.perf_counter()
    e_n = dist.distance(power(expected_graphon(w, n, q).step, k, q))
    l1_sampled, signed = _sampled_vs_limit(w, k, n, q, dist, seed)
    cut = cut_norm_auto(
        signed, restarts=_SWEEP_RESTARTS, seed=rng.derive_key(seed, _TAG_SWEEP_CUT, n)
    ).value
    return SweepRow(n, e_n, l1_sampled, cut, time.perf_counter() - t0)


def _sampled_vs_limit(w, k: int, n: int, q: QuadratureSpec, dist: _LimitDistance,
                      seed: int) -> tuple[float, StepGraphon]:
    """L1 distance of one sampled graph's k-th power to the limit, and the signed
    difference of that power to the limit's cell averages."""
    cfg = SamplerConfig(n, rng.derive_key(seed, _TAG_SWEEP_GRAPH, n), w)
    ak = power(canonical_graphon(sample_graph(cfg, sample_latents(cfg))), k, q)
    l1_sampled = dist.distance(ak)
    diff = np.clip(ak.values - dist.limit_cells(n), -1.0, 1.0)
    return l1_sampled, StepGraphon(n, diff, -1.0, 1.0)  # both terms are symmetric


def run_counterexample_sweep(
    p: float, ns, draws_per_n: int, seed: int = 0, q: QuadratureSpec = QuadratureSpec()
) -> ConvergenceReport:
    """Sampled ER graphons: L1 distance stays put while the cut norm decays.

    Per draw, the L1 distance of the canonical graphon to constant(p) is the
    exact cell sum; the cut norm of the signed difference is exact within the
    enumeration budget. The expected-graphon column carries its closed form
    p/n (only the zeroed diagonal differs from the constant limit).
    """
    if not (0.0 < p < 1.0):
        raise ValidationError("counterexample level p must lie in (0, 1)")
    if draws_per_n < 1:
        raise ValidationError("draws_per_n must be >= 1")
    ns = _sorted_ns(ns)
    w = constant(p)
    rows = []
    for n in ns:
        t0 = time.perf_counter()
        l1s = np.empty(draws_per_n)
        cuts = np.empty(draws_per_n)
        for d in range(draws_per_n):
            sub = rng.derive_key(seed, _TAG_CE_DRAW, n, d)
            cfg = SamplerConfig(n, sub, w)
            adj = canonical_graphon(sample_graph(cfg, sample_latents(cfg))).values
            l1s[d] = float(np.abs(adj - p).mean())
            signed = StepGraphon(n, adj - p, -1.0, 1.0)
            cuts[d] = cut_norm_auto(
                signed, restarts=_SWEEP_RESTARTS, seed=rng.derive_key(sub, _TAG_CE_CUT)
            ).value
        rows.append(
            SweepRow(n, p / n, float(np.mean(l1s)), float(np.mean(cuts)),
                     time.perf_counter() - t0)
        )
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


def report_from_dict(doc: dict) -> ConvergenceReport:
    rows = [SweepRow(**{c: row[c] for c in _COLUMNS}) for row in doc["rows"]]
    return ConvergenceReport(
        label=doc["label"],
        kind=doc["kind"],
        k=doc["k"],
        seed=doc["seed"],
        quadrature=QuadratureSpec(**doc["quadrature"]),
        rows=rows,
        incomplete=doc.get("incomplete", False),
    )


def load_report(path) -> ConvergenceReport:
    return report_from_dict(json.loads(Path(path).read_text()))


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
        f'<text x="{_MARGIN_L}" y="{_MARGIN_T - 12}">{report.kind} sweep: '
        f'{report.label}, k={report.k} (log-log)</text>',
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

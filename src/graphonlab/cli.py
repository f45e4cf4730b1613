"""Command-line interface.

Subcommands: validate, sample, expect, mc-expect, product, power, norm,
sweep theorem|counterexample. A JSON config file (--config) mirrors the
flags; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as glio
from .algebra import QuadratureSpec, discretize, power, product, require_symmetric
from .core import builtin, builtin_names, from_step, validate_graphon
from .errors import GraphonLabError
from .experiments import emit_report, run_counterexample_sweep, run_theorem_sweep
from .expr import from_expression
from .norms import (
    cut_distance_upper_via_discretization,
    cut_norm_auto,
    l1_distance,
)
from .sampling import SamplerConfig, mc_expected_graphon, expected_graphon, sample_graph, \
    sample_latents, sample_latents_iid


def _add_graphon_flags(p, prefix="graphon", required=True):
    g = p.add_mutually_exclusive_group(required=False)
    g.add_argument(f"--{prefix}-builtin", metavar="NAME[:P]",
                   help=f"builtin kernel ({', '.join(builtin_names())}); constant takes :p")
    g.add_argument(f"--{prefix}-expr", metavar="EXPR", help="expression in x and y")
    g.add_argument(f"--{prefix}-step", metavar="FILE", help="step matrix file (csv/json)")


def _add_common(p):
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", type=int, default=None, help="quadrature base grid")
    p.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
    p.add_argument("--max-refinements", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--clamp", action="store_true", help="clamp expression values to [0,1]")
    p.add_argument("--symmetrize", action="store_true",
                   help="average the expression with its transpose")


def _build_parser():
    ap = argparse.ArgumentParser(prog="graphon", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check range and symmetry of a kernel")
    _add_graphon_flags(p)
    _add_common(p)
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("sample", help="draw a random graph from a kernel")
    _add_graphon_flags(p)
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--iid", action="store_true",
                   help="classical i.i.d. latents instead of stratified (comparison only)")

    p = sub.add_parser("expect", help="expected step graphon at resolution n")
    _add_graphon_flags(p)
    _add_common(p)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("mc-expect", help="Monte-Carlo estimate of the expected graphon")
    _add_graphon_flags(p)
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--draws", type=int, default=None)

    p = sub.add_parser("product", help="kernel product of two graphons")
    _add_graphon_flags(p)
    _add_graphon_flags(p, prefix="with")
    _add_common(p)
    p.add_argument("--discretize", type=int, metavar="M",
                   help="materialize the result as an M-block step matrix")

    p = sub.add_parser("power", help="k-fold kernel power")
    _add_graphon_flags(p)
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--discretize", type=int, metavar="M")

    p = sub.add_parser("norm", help="L1 distance or cut norm")
    _add_graphon_flags(p)
    _add_graphon_flags(p, prefix="with")
    _add_common(p)
    p.add_argument("--l1", action="store_true", help="L1 distance to the --with kernel")
    p.add_argument("--cut", action="store_true", help="cut norm (of the kernel, or of the "
                   "difference when --with is given)")
    p.add_argument("--discretize", type=int, metavar="M",
                   help="bracket an analytic cut norm via an M-block discretization")
    p.add_argument("--restarts", type=int, default=50)

    p = sub.add_parser("sweep", help="convergence sweeps")
    p.add_argument("mode", choices=("theorem", "counterexample"))
    _add_graphon_flags(p)
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--ns", default=None, help="comma-separated block counts, e.g. 4,8,16")
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--p", type=float, default=None, help="ER edge density (counterexample)")
    p.add_argument("--format", default=None, help="comma-separated: csv,json,svg")
    return ap


def _merge(args) -> glio.ExperimentConfig:
    cfg = glio.load_config(args.config) if args.config else glio.ExperimentConfig()
    over = {
        "builtin": getattr(args, "graphon_builtin", None),
        "expr": getattr(args, "graphon_expr", None),
        "step_file": getattr(args, "graphon_step", None),
        "n": getattr(args, "n", None),
        "k": getattr(args, "k", None),
        "draws": getattr(args, "draws", None),
        "seed": getattr(args, "seed", None),
        "p": getattr(args, "p", None),
        "grid": getattr(args, "grid", None),
        "tol": getattr(args, "tol", None),
        "max_refinements": getattr(args, "max_refinements", None),
        "out": getattr(args, "out", None),
    }
    if any(over[k] is not None for k in ("builtin", "expr", "step_file")):
        cfg.builtin = cfg.expr = cfg.step_file = None
    ns = getattr(args, "ns", None)
    if ns is not None:
        cfg.ns = [_parse_n(tok) for tok in str(ns).split(",") if tok.strip()]
    fmt = getattr(args, "format", None)
    if fmt is not None:
        cfg.formats = [tok.strip() for tok in fmt.split(",") if tok.strip()]
    for key, val in over.items():
        if val is not None:
            setattr(cfg, key, val)
    if len(cfg.graphon_sources()) > 1:
        raise GraphonLabError("more than one graphon source given")
    return cfg


def _parse_n(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GraphonLabError(f"bad --ns value '{tok.strip()}'") from None


def _parse_builtin(text: str):
    name, _, param = text.partition(":")
    if name == "constant":
        if not param:
            raise GraphonLabError("builtin constant needs a level, e.g. constant:0.5")
        return builtin("constant", p=float(param))
    if param:
        raise GraphonLabError(f"builtin '{name}' takes no parameter")
    return builtin(name)


def _graphon_from(cfg: glio.ExperimentConfig, args, required=True):
    if cfg.builtin:
        return _parse_builtin(cfg.builtin)
    if cfg.expr:
        return from_expression(cfg.expr, clamp=getattr(args, "clamp", False),
                               symmetrize=getattr(args, "symmetrize", False))
    if cfg.step_file:
        return from_step(glio.load_step_matrix(cfg.step_file))
    if required:
        raise GraphonLabError(
            "no graphon source: pass --graphon-builtin / --graphon-expr / --graphon-step"
        )
    return None


def _with_graphon(args):
    if getattr(args, "with_builtin", None):
        return _parse_builtin(args.with_builtin)
    if getattr(args, "with_expr", None):
        return from_expression(args.with_expr)
    if getattr(args, "with_step", None):
        return from_step(glio.load_step_matrix(args.with_step))
    return None


def _quadrature(cfg: glio.ExperimentConfig) -> QuadratureSpec:
    return QuadratureSpec(cfg.grid, cfg.max_refinements, cfg.tol)


def _need(value, flag):
    if value is None:
        raise GraphonLabError(f"missing required option {flag}")
    return value


def _save_step(step, out, what):
    path = glio.save_step_matrix(step, out)
    print(f"{what} written to {path}")


def _cmd_validate(args):
    cfg = _merge(args)
    w = _graphon_from(cfg, args)
    report = validate_graphon(w, samples=args.samples, seed=cfg.seed)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.label}: {report.samples} points, "
          f"max asymmetry {report.max_asymmetry:.3g}, "
          f"{len(report.range_violations)} range violation(s)")
    for x, y, v in report.range_violations[:10]:
        print(f"  range: W({x:.6g},{y:.6g}) = {v:.6g}")
    for x, y, d in report.asymmetry_violations[:10]:
        print(f"  asymmetry {d:.3g} at ({x:.6g},{y:.6g})")
    return 0 if report.passed else 1


def _cmd_sample(args):
    cfg = _merge(args)
    w = _graphon_from(cfg, args)
    n = _need(cfg.n, "--n")
    sampler = SamplerConfig(n, cfg.seed, w)
    latents = sample_latents_iid(sampler) if args.iid else sample_latents(sampler)
    g = sample_graph(sampler, latents)
    if cfg.out:
        path = glio.save_graph(g, cfg.out)
        print(f"graph with {g.edge_count} edge(s) written to {path}")
    else:
        print(f"n={g.n}")
        for u, v in g.pairs.tolist():
            print(u, v)
    return 0


def _cmd_expect(args):
    cfg = _merge(args)
    w = _graphon_from(cfg, args)
    n = _need(cfg.n, "--n")
    e = expected_graphon(w, n, _quadrature(cfg))
    if cfg.out:
        _save_step(e.step, cfg.out, e.label)
    else:
        for row in e.step.values:
            print(",".join(glio.fmt_float(v) for v in row))
    return 0


def _cmd_mc_expect(args):
    cfg = _merge(args)
    w = _graphon_from(cfg, args)
    n = _need(cfg.n, "--n")
    est = mc_expected_graphon(SamplerConfig(n, cfg.seed, w), cfg.draws)
    out = _need(cfg.out, "--out")
    path = glio.save_step_matrix(est.step, out)
    err_path = glio.save_matrix(est.stderr, path.with_suffix(".stderr.csv"))
    print(f"mean of {est.draws} draw(s) written to {path}; standard errors to {err_path}")
    return 0


def _materialize(result, cfg, args):
    require_symmetric(result)
    m = getattr(args, "discretize", None)
    if m:
        return discretize(result, m, _quadrature(cfg))
    step = result.step_form() if hasattr(result, "step_form") else None
    if step is None:
        raise GraphonLabError("analytic result: pass --discretize M to materialize it")
    return step


def _cmd_product(args):
    cfg = _merge(args)
    a = _graphon_from(cfg, args)
    b = _with_graphon(args)
    if b is None:
        raise GraphonLabError("product needs a second kernel (--with-builtin/expr/step)")
    r = product(a, b, _quadrature(cfg))
    kindname = "graphon" if r.symmetric else "kernel (not verified symmetric)"
    step = _materialize(r, cfg, args)
    if cfg.out:
        _save_step(step, cfg.out, f"product ({kindname})")
    else:
        print(f"# product is a {kindname}")
        for row in step.values:
            print(",".join(glio.fmt_float(v) for v in row))
    return 0


def _cmd_power(args):
    cfg = _merge(args)
    w = _graphon_from(cfg, args)
    r = power(w, _need(cfg.k, "--k"), _quadrature(cfg))
    step = _materialize(r, cfg, args)
    if cfg.out:
        _save_step(step, cfg.out, f"power k={cfg.k}")
    else:
        for row in step.values:
            print(",".join(glio.fmt_float(v) for v in row))
    return 0


def _cmd_norm(args):
    cfg = _merge(args)
    if args.l1 == args.cut:
        raise GraphonLabError("pass exactly one of --l1 / --cut")
    a = _graphon_from(cfg, args)
    b = _with_graphon(args)
    q = _quadrature(cfg)
    if args.l1:
        if b is None:
            raise GraphonLabError("--l1 needs a second kernel (--with-builtin/expr/step)")
        print(glio.fmt_float(l1_distance(a, b, q)))
        return 0
    # cut norm
    if b is not None:
        sa, sb = a.step_form(), b.step_form()
        if sa is None or sb is None or sa.n != sb.n:
            raise GraphonLabError("--cut with --with needs two step kernels on one grid")
        diff = sa.values - sb.values
        from .core import StepGraphon

        target = StepGraphon(sa.n, diff, -1.0, 1.0)
        result = cut_norm_auto(target, restarts=args.restarts, seed=cfg.seed).to_dict()
    else:
        step = a.step_form()
        if step is not None:
            result = cut_norm_auto(step, restarts=args.restarts, seed=cfg.seed).to_dict()
        else:
            m = getattr(args, "discretize", None)
            if not m:
                raise GraphonLabError("analytic kernel: pass --discretize M to bracket "
                                      "its cut norm")
            iv = cut_distance_upper_via_discretization(a, m, q, restarts=args.restarts,
                                                       seed=cfg.seed)
            result = {
                "low": iv.low,
                "high": iv.high,
                "l1_gap": iv.l1_gap,
                "m": iv.m,
                "discretized": iv.discretized.to_dict(),
            }
    text = json.dumps(result, indent=2)
    if cfg.out:
        path = glio.resolve_out(cfg.out)
        path.write_text(text + "\n")
        print(f"cut norm result written to {path}")
    else:
        print(text)
    return 0


def _cmd_sweep(args):
    cfg = _merge(args)
    q = _quadrature(cfg)
    if args.mode == "theorem":
        w = _graphon_from(cfg, args)
        if not cfg.ns:
            raise GraphonLabError("missing --ns")
        report = run_theorem_sweep(w, cfg.k, cfg.ns, q, cfg.seed)
    else:
        p = cfg.p if cfg.p is not None else 0.5
        if not cfg.ns:
            raise GraphonLabError("missing --ns")
        report = run_counterexample_sweep(p, cfg.ns, cfg.draws, cfg.seed, q)
    out = _need(cfg.out, "--out")
    written = emit_report(report, out, cfg.formats)
    flag = " (incomplete)" if report.incomplete else ""
    print(f"{report.kind} sweep '{report.label}' k={report.k}{flag}:")
    for row in report.rows:
        cells = [f"n={row.n}"]
        if row.l1_expected_vs_limit is not None:
            cells.append(f"e_n={row.l1_expected_vs_limit:.6g}")
        if row.l1_sampled_vs_limit is not None:
            cells.append(f"sampled_l1={row.l1_sampled_vs_limit:.6g}")
        if row.cutnorm_sampled_vs_limit is not None:
            cells.append(f"sampled_cut={row.cutnorm_sampled_vs_limit:.6g}")
        print("  " + "  ".join(cells))
    for fmt, path in written.items():
        print(f"{fmt}: {path}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "sample": _cmd_sample,
    "expect": _cmd_expect,
    "mc-expect": _cmd_mc_expect,
    "product": _cmd_product,
    "power": _cmd_power,
    "norm": _cmd_norm,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GraphonLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

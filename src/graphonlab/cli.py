"""Command-line interface.

Subcommands: validate, sample, expect, mc-expect, product, power, norm,
sweep theorem|counterexample. A JSON config file (--config) holds the
fields of io.ExperimentConfig; each flag that sets a field stores it under the
field's name, and explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import io as glio
from .algebra import (
    SYMMETRY_TOL, QuadratureSpec, discretize, power, product, validate_graphon,
)
from .core import StepGraphon, builtin, builtin_names
from .errors import GraphonLabError, ValidationError
from .experiments import (
    emit_report, report_paths, row_summary, run_counterexample_sweep, run_theorem_sweep,
)
from .expr import from_expression
from .norms import (
    DEFAULT_RESTARTS,
    cut_distance_upper_via_discretization,
    cut_norm_auto,
    l1_distance,
)
from .sampling import SamplerConfig, mc_expected_graphon, expected_graphon, sample_graph, \
    sample_latents, sample_latents_iid


def _add_graphon_flags(p, prefix="graphon"):
    # the main kernel's flags set config fields, so they store under the field names
    dests = ("builtin", "expr", "step_file") if prefix == "graphon" else (None, None, None)
    g = p.add_mutually_exclusive_group(required=False)
    g.add_argument(f"--{prefix}-builtin", dest=dests[0], metavar="NAME[:P]",
                   help=f"builtin kernel ({', '.join(builtin_names())}); constant takes :p")
    g.add_argument(f"--{prefix}-expr", dest=dests[1], metavar="EXPR",
                   help="expression in x and y")
    g.add_argument(f"--{prefix}-step", dest=dests[2], metavar="FILE",
                   help="step matrix file (csv/json)")
    if prefix == "graphon":
        p.add_argument("--clamp", action="store_true", help="clamp expression values to [0,1]")
        p.add_argument("--symmetrize", action="store_true",
                       help="average the expression with its transpose")


def _add_common(p):
    # every leaf parser calls this; main refuses a stray flag with that parser's usage
    p.set_defaults(_parser=p)
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", type=int, default=None, help="quadrature base grid")
    p.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
    p.add_argument("--max-refinements", type=int, default=None)
    p.add_argument("--out", default=None)


def _build_parser():
    ap = argparse.ArgumentParser(prog="graphon", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check range and symmetry of a kernel")
    _add_graphon_flags(p)
    _add_common(p)

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
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)

    modes = sub.add_parser("sweep", help="convergence sweeps").add_subparsers(
        dest="mode", required=True)
    t = modes.add_parser("theorem", help="expected graphons of a kernel against its limit")
    _add_graphon_flags(t)
    t.add_argument("--k", type=int, default=None)
    c = modes.add_parser("counterexample", help="sampled ER graphs against constant(p)")
    c.add_argument("--draws", type=int, default=None)
    c.add_argument("--p", type=float, default=None, help="ER edge density")
    for p in (t, c):
        _add_common(p)
        p.add_argument("--ns", type=_parse_ns, default=None,
                       help="comma-separated block counts, e.g. 4,8,16")
        p.add_argument("--format", dest="formats", type=_comma_list, default=None,
                       help="comma-separated: csv,json,svg")
    return ap


def _merge(args) -> glio.ExperimentConfig:
    cfg = glio.load_config(args.config) if args.config else glio.ExperimentConfig()
    flags = {f.name: v for f in fields(cfg) if (v := getattr(args, f.name, None)) is not None}
    if flags.keys() & {"builtin", "expr", "step_file"}:
        cfg.builtin = cfg.expr = cfg.step_file = None
    for name, val in flags.items():
        setattr(cfg, name, val)
    return cfg


def _comma_list(text: str) -> list:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _parse_n(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GraphonLabError(f"bad --ns value '{tok}'") from None


def _parse_ns(text: str) -> list:
    return [_parse_n(tok) for tok in _comma_list(text)]


def _parse_builtin(text: str):
    name, _, param = text.partition(":")
    if name == "constant":
        if not param:
            raise GraphonLabError("builtin constant needs a level, e.g. constant:0.5")
        try:
            level = float(param)
        except ValueError:
            raise GraphonLabError(f"builtin '{text}': level '{param}' is not a number") from None
        return builtin("constant", p=level)
    if param:
        raise GraphonLabError(f"builtin '{name}' takes no parameter")
    return builtin(name)


def _kernel(builtin_text, expr, step_file, clamp=False, symmetrize=False):
    """The kernel of whichever source is given, or None; clamp and symmetrize
    apply to an expression only."""
    if builtin_text:
        return _parse_builtin(builtin_text)
    if expr:
        return from_expression(expr, clamp=clamp, symmetrize=symmetrize)
    if step_file:
        return glio.load_step_matrix(step_file)  # loaded in [0, 1], so a graphon
    return None


def _graphon_from(cfg: glio.ExperimentConfig, args):
    w = _kernel(cfg.builtin, cfg.expr, cfg.step_file, args.clamp, args.symmetrize)
    if w is None:
        raise GraphonLabError(
            "no graphon source: pass --graphon-builtin / --graphon-expr / --graphon-step"
        )
    return w


def _with_graphon(args):
    return _kernel(args.with_builtin, args.with_expr, args.with_step)


def _quadrature(cfg: glio.ExperimentConfig) -> QuadratureSpec:
    return QuadratureSpec(cfg.grid, cfg.max_refinements, cfg.tol)


def _need(value, flag):
    if value is None:
        raise GraphonLabError(f"missing required option {flag}")
    return value


def _emit_step(step, cfg, what, header=None):
    """Write the step matrix to --out, or print it (under an optional header line)."""
    if cfg.out:
        path = glio.save_step_matrix(step, cfg.out)
        print(f"{what} written to {path}")
        return
    if header:
        print(header)
    for row in step.values:
        print(",".join(glio.fmt_float(v) for v in row))


def _cmd_validate(args, cfg):
    w = _graphon_from(cfg, args)
    q = _quadrature(cfg)
    try:
        validate_graphon(w, q)
    except ValidationError as exc:
        print(f"FAIL {exc}")
        return 1
    where = "" if w.step is not None else f" on the {q.base_grid}-grid"
    print(f"PASS {w.label}: symmetric within {SYMMETRY_TOL:g} and in [0, 1]{where}")
    return 0


def _cmd_sample(args, cfg):
    w = _graphon_from(cfg, args)
    validate_graphon(w, _quadrature(cfg))  # before any cell or draw
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


def _cmd_expect(args, cfg):
    w = _graphon_from(cfg, args)
    validate_graphon(w, _quadrature(cfg))  # before any cell or draw
    n = _need(cfg.n, "--n")
    e = expected_graphon(w, n, _quadrature(cfg))
    _emit_step(e, cfg, f"expected[{w.label},n={n}]")
    return 0


def _cmd_mc_expect(args, cfg):
    w = _graphon_from(cfg, args)
    validate_graphon(w, _quadrature(cfg))  # before any cell or draw
    n = _need(cfg.n, "--n")
    est = mc_expected_graphon(SamplerConfig(n, cfg.seed, w), cfg.draws)
    out = _need(cfg.out, "--out")
    path = glio.save_step_matrix(est.step, out)
    err_path = glio.save_matrix(est.stderr, path.with_suffix(".stderr.csv"))
    print(f"mean of {est.draws} draw(s) written to {path}; standard errors to {err_path}")
    return 0


def _materialize(result, cfg, args):
    q = _quadrature(cfg)
    if args.discretize is not None:
        return discretize(result, args.discretize, q)  # validates a kernel without a step form
    validate_graphon(result, q)
    step = result.step
    if step is None:
        raise GraphonLabError("analytic result: pass --discretize M to materialize it")
    return step


def _cmd_product(args, cfg):
    a = _graphon_from(cfg, args)
    b = _with_graphon(args)
    if b is None:
        raise GraphonLabError("product needs a second kernel (--with-builtin/expr/step)")
    q = _quadrature(cfg)
    validate_graphon(a, q)  # each factor before the product is formed
    validate_graphon(b, q)
    step = _materialize(product(a, b, q), cfg, args)
    _emit_step(step, cfg, "product (graphon)", header="# product is a graphon")
    return 0


def _cmd_power(args, cfg):
    w = _graphon_from(cfg, args)
    q = _quadrature(cfg)
    validate_graphon(w, q)  # the factor before the power is formed
    step = _materialize(power(w, _need(cfg.k, "--k"), q), cfg, args)
    _emit_step(step, cfg, f"power k={cfg.k}")
    return 0


def _cmd_norm(args, cfg):
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
    # cut norm: of the step, of the difference of two steps, or else bracketed
    step = a.step
    if b is not None:
        sb = b.step
        if step is None or sb is None or step.n != sb.n:
            raise GraphonLabError("--cut with --with needs two step kernels on one grid")
        step = StepGraphon(step.n, step.values - sb.values, -1.0, 1.0)
    if step is not None:
        result = cut_norm_auto(step, restarts=args.restarts, seed=cfg.seed)
    elif args.discretize is None:
        raise GraphonLabError("analytic kernel: pass --discretize M to bracket its cut norm")
    else:
        result = cut_distance_upper_via_discretization(a, args.discretize, q,
                                                       restarts=args.restarts, seed=cfg.seed)
    text = json.dumps(asdict(result), indent=2)
    if cfg.out:
        path = glio.resolve_out(cfg.out)
        path.write_text(text + "\n")
        print(f"cut norm result written to {path}")
    else:
        print(text)
    return 0


def _cmd_sweep(args, cfg):
    q = _quadrature(cfg)
    w = _graphon_from(cfg, args) if args.mode == "theorem" else None
    if not cfg.ns:
        raise GraphonLabError("missing --ns")
    inputs = {Path(f).resolve() for f in (args.config, cfg.step_file) if f}
    for path in report_paths(_need(cfg.out, "--out"), cfg.formats).values():
        if path.resolve() in inputs:  # refused before the sweep runs
            raise GraphonLabError(f"report {path} would overwrite an input of this run")
    if args.mode == "theorem":
        report = run_theorem_sweep(w, cfg.k, cfg.ns, q, cfg.seed)
    else:
        p = cfg.p if cfg.p is not None else 0.5
        report = run_counterexample_sweep(p, cfg.ns, cfg.draws, cfg.seed, q)
    written = emit_report(report, cfg.out, cfg.formats)
    flag = " (incomplete)" if report.incomplete else ""
    print(f"{report.kind} sweep '{report.label}' k={report.k}{flag}:")
    for row in report.rows:
        print("  " + row_summary(row))
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
    try:
        args, extra = _build_parser().parse_known_args(argv)  # a bad --ns value raises here
        if extra:
            args._parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return _COMMANDS[args.command](args, _merge(args))
    # NumPy's MemoryError names the request; an OSError names the file it could not use
    except (GraphonLabError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

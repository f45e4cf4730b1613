"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Criteria with runtime budgets time their own computations (a
session fixture runs each hot kernel once beforehand).
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import graphonlab as gl
from graphonlab import rng
from graphonlab.algebra import midpoints
from conftest import brute_force_cut_norm, random_step

SEED = 20240801
NS_K1 = [4, 8, 16, 32, 64]
NS_HIGHK = [4, 8, 16, 32]

BUILTIN_GRAPHONS = [
    ("constant(0.5)", gl.constant(0.5)),
    ("x*y", gl.builtin("product")),
    ("min(x,y)*(1-max(x,y))", gl.builtin("minmax")),
    ("1-max(x,y)", gl.builtin("attachment")),
]


def _report_line(cid: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def k1_reports():
    t0 = time.perf_counter()
    reports = {
        name: gl.run_theorem_sweep(w, 1, NS_K1, seed=SEED)
        for name, w in BUILTIN_GRAPHONS
    }
    return reports, time.perf_counter() - t0


def test_criterion_1_theorem_sweep_k1(k1_reports):
    reports, elapsed = k1_reports
    problems = []
    for name, report in reports.items():
        es = [row.l1_expected_vs_limit for row in report.rows]
        if not all(b < a for a, b in zip(es, es[1:])):
            problems.append(f"{name} not strictly decreasing: {es}")
        if not es[-1] < es[0] / 4.0:
            problems.append(f"{name} e_64={es[-1]} not < e_4/4={es[0] / 4.0}")
    const_es = [row.l1_expected_vs_limit for row in reports["constant(0.5)"].rows]
    for n, e in zip(NS_K1, const_es):
        if abs(e - 0.5 / n) > 1e-12:
            problems.append(f"constant e_{n}={e!r} != {0.5 / n!r}")
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    _report_line(
        "1 (k=1 sweeps)", not problems,
        "; ".join(problems) or f"4 graphons, n up to 64, {elapsed:.1f}s",
    )


def test_criterion_2_theorem_sweep_high_powers():
    t0 = time.perf_counter()
    problems = []
    const_vals = {}
    for name, w in BUILTIN_GRAPHONS:
        for k in (2, 3):
            report = gl.run_theorem_sweep(w, k, NS_HIGHK, seed=SEED)
            es = [row.l1_expected_vs_limit for row in report.rows]
            if not all(b < a for a, b in zip(es, es[1:])):
                problems.append(f"{name} k={k} not strictly decreasing: {es}")
            if name == "constant(0.5)":
                const_vals[k] = es
    for k, es in const_vals.items():
        for n, e in zip(NS_HIGHK, es):
            em = 0.5 * (np.ones((n, n)) - np.eye(n))
            want = float(np.abs(np.linalg.matrix_power(em, k) / n ** (k - 1) - 0.5**k).mean())
            if abs(e - want) > 1e-10:
                problems.append(f"constant k={k} n={n}: {e!r} vs matrix algebra {want!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s >= 120s")
    _report_line(
        "2 (k=2,3 sweeps)", not problems,
        "; ".join(problems) or f"4 graphons x k in {{2,3}}, {elapsed:.1f}s",
    )


def test_criterion_3_lipschitz_rate(k1_reports):
    reports, _ = k1_reports
    problems = []
    for name in ("x*y", "1-max(x,y)"):
        for row in reports[name].rows:
            bound = (math.sqrt(2.0) + 1.0) / row.n
            if not row.l1_expected_vs_limit <= bound:
                problems.append(f"{name} n={row.n}: {row.l1_expected_vs_limit} > {bound}")
    _report_line("3 (Lipschitz rate)", not problems,
                 "; ".join(problems) or "e_n <= (sqrt(2)+1)/n for both 1-Lipschitz kernels")


def test_criterion_4_counterexample():
    t0 = time.perf_counter()
    p = 0.5
    w = gl.constant(p)
    ns = [4, 8, 12, 16]
    problems = []
    mean_cut = {}
    for n in ns:
        cuts = []
        for d in range(20):
            cfg = gl.SamplerConfig(n, rng.derive_key(SEED, n, d), w)
            graph = gl.sample_graph(cfg, gl.sample_latents(cfg))
            step = gl.canonical_graphon(graph)
            l1 = gl.l1_distance(step, w)
            if abs(l1 - 0.5) > 1e-12:
                problems.append(f"n={n} draw={d}: L1={l1!r} != 0.5")
            signed = gl.StepGraphon(n, step.values - p, -1.0, 1.0)
            cuts.append(gl.cut_norm_exact(signed).value)
        mean_cut[n] = float(np.mean(cuts))
    if not mean_cut[16] < mean_cut[4] / 2.0:
        problems.append(f"mean cut at 16 ({mean_cut[16]:.4f}) not < half of n=4 "
                        f"({mean_cut[4]:.4f})")
    report = gl.run_counterexample_sweep(p, ns, 20, seed=SEED)
    for row in report.rows:
        if abs(row.l1_sampled_vs_limit - 0.5) > 1e-12:
            problems.append(f"sweep row n={row.n}: mean L1 != 0.5")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    _report_line(
        "4 (ER counterexample)", not problems,
        "; ".join(problems)
        or f"L1 pinned at 0.5; mean cut {mean_cut[4]:.4f} -> {mean_cut[16]:.4f}; "
           f"{elapsed:.1f}s",
    )


def _riemann_product_cell(a: gl.StepGraphon, b: gl.StepGraphon, x: float, y: float,
                          g: int) -> float:
    zs = midpoints(g)
    row = a.eval_grid(np.array([x]), zs)[0]
    col = b.eval_grid(zs, np.array([y]))[:, 0]
    return float(np.sum(row * col)) / g


def test_criterion_5_product_oracle():
    worst = 0.0
    for trial in range(50):
        n = 2 + trial % 5  # n in 2..6
        a = random_step(n, key=1000 + trial, signed=False)
        prod = gl.product(a, a)
        step = prod.step_form()
        g = n * 128
        for i in range(n):
            for j in range(n):
                x, y = (i + 0.5) / n, (j + 0.5) / n
                want = _riemann_product_cell(a, a, x, y, g)
                worst = max(worst, abs(step.values[i, j] - want))
    ok = worst <= 1e-6
    _report_line("5 (product oracle)", ok,
                 f"50 random step graphons, max |matrix - quadrature| = {worst:.2e}")


def test_criterion_6_contraction_inequality():
    worst = -1.0
    for trial in range(200):
        n = 2 + trial % 7  # n in 2..8
        a, b, c, d = (random_step(n, key=2000 + 4 * trial + i, signed=False)
                      for i in range(4))
        ab = gl.product(a, b)
        cd = gl.product(c, d)
        va = ab.step_form().values if ab.step_form() is not None else ab.asym_values
        vc = cd.step_form().values if cd.step_form() is not None else cd.asym_values
        lhs = float(np.abs(va - vc).mean())
        rhs = gl.l1_distance(a, c) + gl.l1_distance(b, d)
        worst = max(worst, lhs - rhs)
    ok = worst <= 1e-9
    _report_line("6 (contraction)", ok,
                 f"200 quadruples, max violation = {worst:.2e}")


def test_criterion_7_cut_norm_correctness():
    problems = []
    for trial in range(100):
        n = 2 + trial % 9  # n in 2..10
        s = random_step(n, key=3000 + trial)
        exact = gl.cut_norm_exact(s)
        lb = gl.cut_norm_lower_bound(s, restarts=50, seed=trial)
        if lb.value > exact.value + 1e-12:
            problems.append(f"trial {trial}: heuristic {lb.value} > exact {exact.value}")
        l1 = float(np.abs(s.values).mean())
        if exact.value > l1 + 1e-12:
            problems.append(f"trial {trial}: cut {exact.value} > L1 {l1}")
        nonneg = random_step(n, key=4000 + trial, signed=False)
        full = gl.cut_norm_exact(nonneg)
        if abs(full.value - float(nonneg.values.mean())) > 1e-12:
            problems.append(f"trial {trial}: nonneg cut != integral")
    hand = gl.cut_norm_exact(
        gl.StepGraphon(2, np.array([[-0.5, 0.5], [0.5, -0.5]]), -1.0, 1.0)
    )
    want, _ = brute_force_cut_norm(np.array([[-0.5, 0.5], [0.5, -0.5]]))
    if abs(hand.value - 0.125) > 1e-15 or abs(want - 0.125) > 1e-15:
        problems.append(f"hand instance: {hand.value} (oracle {want})")
    _report_line("7 (cut norm)", not problems,
                 "; ".join(problems[:3]) or "100 instances: heuristic sound, cut <= L1, "
                 "nonneg = integral, hand value 0.125")


def test_criterion_8_monte_carlo_consistency():
    t0 = time.perf_counter()
    n, draws = 6, 10_000
    w = gl.builtin("product")
    cfg = gl.SamplerConfig(n, SEED, w)
    est = gl.mc_expected_graphon(cfg, draws)
    exact = gl.expected_graphon(w, n).values
    off = ~np.eye(n, dtype=bool)
    gap = np.abs(est.step.values - exact)[off]
    band = 5.0 * est.stderr[off]
    ok = bool(np.all(gap <= band))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        ok = False
    _report_line(
        "8 (Monte-Carlo)", ok,
        f"{draws} draws, max |mc-exact|/SE = {float(np.max(gap / np.maximum(band / 5.0, 1e-30))):.2f}, "
        f"{elapsed:.1f}s",
    )


def _run_cli_sweep(tmp_path, tag: str, threads: str, mode_args):
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
    base = tmp_path / f"r_{tag}"
    cmd = [sys.executable, "-m", "graphonlab", "sweep", *mode_args,
           "--seed", str(SEED), "--out", str(base), "--format", "csv,json"]
    subprocess.run(cmd, check=True, capture_output=True, env=env)
    return base.with_suffix(".csv").read_bytes(), base.with_suffix(".json").read_bytes()


def test_criterion_9_byte_identical_reports(tmp_path):
    problems = []
    sweeps = {
        "theorem": ["theorem", "--graphon-builtin", "product", "--k", "1", "--ns", "4,8,16"],
        "counterexample": ["counterexample", "--p", "0.5", "--ns", "4,8", "--draws", "5"],
        # k = 2 multiplies matrices whose sizes are not multiples of the BLAS blocking
        "theorem_k2": ["theorem", "--graphon-builtin", "minmax", "--k", "2", "--ns", "5,10,20,40"],
    }
    for name, args in sweeps.items():
        one = _run_cli_sweep(tmp_path, f"{name}_t1", "1", args)
        four = _run_cli_sweep(tmp_path, f"{name}_t4", "4", args)
        if one != four:
            problems.append(f"{name}: outputs differ across thread counts")
        again = _run_cli_sweep(tmp_path, f"{name}_t1b", "1", args)
        if one != again:
            problems.append(f"{name}: outputs differ across reruns")
    _report_line("9 (determinism)", not problems,
                 "; ".join(problems) or "CSV/JSON byte-identical across reruns and "
                 "thread counts")

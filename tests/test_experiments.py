import hashlib
import json
import math
from xml.dom import minidom

import numpy as np
import pytest

import graphonlab as gl
from graphonlab.algebra import midpoints
from graphonlab.cli import main
from graphonlab.core import cell_index
from graphonlab.errors import ValidationError
from graphonlab.experiments import _LimitDistance, render_svg, report_from_dict, report_to_dict
from graphonlab.norms import _mean_abs_diff, _pairwise_sum
from conftest import blas_family, random_step


def test_sweep_over_a_named_function_carries_its_name():
    def tent(x, y):
        return np.minimum(x, y) * (1.0 - np.maximum(x, y))

    assert gl.power(tent, 2).label == "pow[tent,2]"
    assert gl.run_theorem_sweep(tent, 1, [2, 4], seed=1).label == "tent"


def test_theorem_constant_closed_form():
    r = gl.run_theorem_sweep(gl.constant(0.5), 1, [2, 4, 8], seed=7)
    es = [row.l1_expected_vs_limit for row in r.rows]
    assert es == [0.25, 0.125, 0.0625]
    assert [row.n for row in r.rows] == [2, 4, 8]
    assert not r.incomplete


def test_theorem_product_decreasing_with_lipschitz_bound():
    r = gl.run_theorem_sweep(gl.builtin("product"), 1, [4, 8, 16, 32], seed=7)
    es = [row.l1_expected_vs_limit for row in r.rows]
    assert all(b < a for a, b in zip(es, es[1:]))
    for row in r.rows:
        assert row.l1_expected_vs_limit <= (math.sqrt(2.0) + 1.0) / row.n


def test_theorem_k2_constant_matches_matrix_algebra():
    k = 2
    r = gl.run_theorem_sweep(gl.constant(0.5), k, [4, 8], seed=7)
    for row in r.rows:
        n = row.n
        e = 0.5 * (np.ones((n, n)) - np.eye(n))
        pk = np.linalg.matrix_power(e, k) / float(n) ** (k - 1)
        want = float(np.abs(pk - 0.5**k).mean())
        assert row.l1_expected_vs_limit == pytest.approx(want, abs=1e-10)
    es = [row.l1_expected_vs_limit for row in r.rows]
    assert es[1] < es[0]


@pytest.mark.parametrize("name", ["constant", "product", "minmax", "attachment"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_theorem_doubling_invariant_to_64(name, k):
    w = gl.constant(0.5) if name == "constant" else gl.builtin(name)
    r = gl.run_theorem_sweep(w, k, [4, 8, 16, 32, 64], seed=7)
    es = [row.l1_expected_vs_limit for row in r.rows]
    assert all(b < a for a, b in zip(es, es[1:]))
    assert es[-1] < es[0] / 4.0
    if k == 1 and w.lipschitz is not None:
        bound = math.sqrt(2.0) * w.lipschitz + w.sup_bound
        for row in r.rows:
            assert row.l1_expected_vs_limit <= bound / row.n


def test_theorem_rows_carry_sampled_distances():
    r = gl.run_theorem_sweep(gl.builtin("attachment"), 1, [4, 8], seed=7)
    for row in r.rows:
        assert row.l1_sampled_vs_limit is not None and row.l1_sampled_vs_limit >= 0
        assert row.cutnorm_sampled_vs_limit is not None and row.cutnorm_sampled_vs_limit >= 0


def test_theorem_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        gl.run_theorem_sweep(gl.constant(0.5), 1, [], seed=1)
    with pytest.raises(ValidationError):
        gl.run_theorem_sweep(gl.constant(0.5), 1, [1, 2], seed=1)
    with pytest.raises(ValidationError):
        gl.run_theorem_sweep(gl.constant(0.5), 0, [2, 4], seed=1)
    with pytest.raises(ValidationError):
        gl.run_theorem_sweep(gl.from_expression("x"), 1, [2, 4], seed=1)


def test_theorem_incomplete_on_quadrature_failure():
    q = gl.QuadratureSpec(base_grid=4, max_refinements=0, tol=1e-9)
    r = gl.run_theorem_sweep(gl.builtin("minmax"), 1, [3, 5], q, seed=1)
    assert r.incomplete
    assert r.rows == []


def test_counterexample_er_distances():
    r = gl.run_counterexample_sweep(0.5, [4, 8], draws_per_n=5, seed=7)
    for row in r.rows:
        assert row.l1_sampled_vs_limit == pytest.approx(0.5, abs=1e-15)
        assert row.l1_expected_vs_limit == pytest.approx(0.5 / row.n, abs=1e-15)
        assert row.cutnorm_sampled_vs_limit > 0


def test_counterexample_one_edge_graph_cut_norm():
    g = gl.SimpleGraph(2, frozenset({(0, 1)}))
    diff = gl.StepGraphon(2, gl.canonical_graphon(g).values - 0.5, -1.0, 1.0)
    assert gl.cut_norm_exact(diff).value == pytest.approx(0.125, abs=1e-15)


def test_counterexample_validates_inputs():
    with pytest.raises(ValidationError):
        gl.run_counterexample_sweep(1.5, [4], 2, seed=1)
    with pytest.raises(ValidationError):
        gl.run_counterexample_sweep(0.5, [4], 0, seed=1)
    with pytest.raises(ValidationError):
        gl.run_counterexample_sweep(0.5, [], 2, seed=1)


def test_report_json_round_trip():
    r = gl.run_theorem_sweep(gl.constant(0.5), 1, [2, 4, 8], seed=7)
    assert report_from_dict(report_to_dict(r)) == r


def test_emit_report_files(tmp_path):
    r = gl.run_counterexample_sweep(0.5, [4, 8, 12], draws_per_n=2, seed=7)
    written = gl.emit_report(r, tmp_path / "report", formats=("csv", "json", "svg"))
    csv_lines = written["csv"].read_text().splitlines()
    assert len(csv_lines) == 4
    assert csv_lines[0].startswith("n,l1_expected_vs_limit")
    assert gl.load_report(written["json"]) == r
    svg = written["svg"].read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def _spoiled_reports():
    """(name, the text of a report file that is not a sweep report, the refusal's end)."""
    r = gl.run_theorem_sweep(gl.constant(0.5), 1, [2, 4], seed=7)

    def spoiled(edit) -> str:
        doc = report_to_dict(r)
        edit(doc)
        return json.dumps(doc)

    quad = lambda d: d["quadrature"].update(grid=d["quadrature"].pop("base_grid"))
    yield "not-json", "{rows: []}", r"Expecting property name .*"
    yield "list", "[]", r"ConvergenceReport must be a JSON object, got list"
    yield "no-rows", spoiled(lambda d: d.pop("rows")), r"ConvergenceReport has no field 'rows'"
    yield "grid", spoiled(quad), r"QuadratureSpec has unknown fields \['grid'\]"
    yield "no-e_n", spoiled(lambda d: d["rows"][1].pop("l1_expected_vs_limit")), (
        r"SweepRow has no field 'l1_expected_vs_limit'")
    yield "string", spoiled(lambda d: d["rows"][0].update(l1_sampled_vs_limit="0.5")), (
        r"SweepRow field 'l1_sampled_vs_limit' must be Optional\[float\], got '0.5'")
    yield "negative", spoiled(lambda d: d["rows"][1].update(l1_sampled_vs_limit=-0.5)), (
        r"negative distance in row n=4")


@pytest.mark.parametrize("text, refusal", [
    pytest.param(text, refusal, id=name) for name, text, refusal in _spoiled_reports()])
def test_load_report_refuses_a_file_that_is_not_a_report_by_its_name(tmp_path, text, refusal):
    path = tmp_path / "spoiled.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^spoiled.json: not a sweep report: {refusal}$"):
        gl.load_report(path)


def test_emit_report_rejects_empty_and_unknown_formats(tmp_path):
    r = gl.run_theorem_sweep(gl.constant(0.5), 1, [2, 4], seed=7)
    with pytest.raises(ValidationError, match="empty sweep"):
        gl.emit_report(gl.ConvergenceReport("x", "theorem", 1, 0, gl.QuadratureSpec(), []),
                       tmp_path / "r")
    with pytest.raises(ValidationError, match="unknown report formats"):
        gl.emit_report(r, tmp_path / "r", formats=("csv", "pdf"))


def test_reports_are_byte_reproducible(tmp_path):
    for runner in (
        lambda: gl.run_theorem_sweep(gl.builtin("product"), 1, [4, 8], seed=5),
        lambda: gl.run_counterexample_sweep(0.5, [4, 8], 3, seed=5),
    ):
        a = runner()
        b = runner()
        pa = gl.emit_report(a, tmp_path / "a", formats=("csv", "json", "svg"))
        pb = gl.emit_report(b, tmp_path / "b", formats=("csv", "json", "svg"))
        for fmt in pa:
            assert pa[fmt].read_bytes() == pb[fmt].read_bytes()


def test_report_row_ordering_enforced():
    rows = [gl.SweepRow(8, 0.1, None, None), gl.SweepRow(4, 0.2, None, None)]
    with pytest.raises(ValidationError):
        gl.ConvergenceReport("x", "theorem", 1, 0, gl.QuadratureSpec(), rows)


def test_report_refuses_a_negative_distance():
    rows = [gl.SweepRow(4, -0.1, None, None)]
    with pytest.raises(ValidationError) as info:
        gl.ConvergenceReport("x", "theorem", 1, 0, gl.QuadratureSpec(), rows)
    assert str(info.value) == "negative distance in row n=4"


def test_svg_of_a_callable_sweep_is_well_formed():
    # a plain callable's label is <lambda>, which the title must escape
    svg = render_svg(gl.run_theorem_sweep(lambda x, y: x * y, 1, [4, 8]))
    title = minidom.parseString(svg).getElementsByTagName("text")[0]
    assert title.firstChild.data == "theorem sweep: <lambda>, k=1 (log-log)"


@pytest.mark.parametrize("rows, circles", [
    ([gl.SweepRow(4, 0.25, None, None)], 1),  # one n: the x range is widened to a decade
    ([gl.SweepRow(4, 0.0, None, None), gl.SweepRow(8, None, None, 0.0)], 0),  # nothing > 0
], ids=["one-n", "no-positive-value"])
def test_svg_of_degenerate_rows_is_well_formed(rows, circles):
    r = gl.ConvergenceReport("x", "theorem", 1, 0, gl.QuadratureSpec(), rows)
    doc = minidom.parseString(render_svg(r))
    assert len(doc.getElementsByTagName("circle")) == circles
    ticks = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert [str(row.n) for row in rows] == [t for t in ticks if t.isdigit()]
    assert ("reference 1/n" in ticks) == (circles > 0)


def test_svg_handles_single_series():
    rows = [gl.SweepRow(4, 0.25, None, None), gl.SweepRow(8, 0.125, None, None)]
    r = gl.ConvergenceReport("x", "theorem", 1, 0, gl.QuadratureSpec(), rows)
    svg = render_svg(r)
    assert "reference 1/n" in svg


# Reference digests of two step-limit theorem sweeps (k = 2, seed 7), where
# e_n is exact step algebra. The 3-block limit is refined to each n.
GOLDEN_STEP3 = "0.9,0.2,0.5\n0.2,0.6,0.1\n0.5,0.1,0.3\n"
GOLDEN_REPORTS = {
    "constant": (
        ["--graphon-builtin", "constant:0.3"], "4,8,16,32",
        "9d50312be439a08f86c1a0cf432ab0e57fed443b51f0f7a6f08e11710ff005ba",
        "4f22f8900988c58cecfb044ea569d9bc0aa3661bcd45da660b331c0372f7cdab",
    ),
    "step3": (
        ["--graphon-step", "w3.csv"], "3,6,12,24",
        "03cd49df719368bd2a45b8e9bf24f292885e909a380db7646d8732ae5116575b",
        "da14d79886d4403aa79d2ae70a841f01052e294d1e634f4e93e332eb654fef8b",
    ),
}
# the (csv, json) digests on OpenBLAS's Prescott kernel (no FMA), which rounds the products
# of the 3-block limit differently, and so does Sandybridge (AVX, no FMA), alike; the
# constant limit's products are exact
GOLDEN_REPORTS_PRESCOTT = {
    "step3": (
        "d2e26ff2958ba49e905acfc273ba3d5278643d717535d329462037b80ac5b29d",
        "2423ae65b7194d85161598502d56d3d68a8aee04cbf1c06fda3e7daa0661e3e2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_step_limit_reports_match_golden_bytes(tmp_path, monkeypatch, name):
    source, ns, csv_sha, json_sha = GOLDEN_REPORTS[name]
    if blas_family() != "default":
        csv_sha, json_sha = GOLDEN_REPORTS_PRESCOTT.get(name, (csv_sha, json_sha))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w3.csv").write_text(GOLDEN_STEP3)
    code = main(["sweep", "theorem", *source, "--k", "2", "--ns", ns, "--seed", "7",
                 "--out", str(tmp_path / name), "--format", "csv,json"])
    assert code == 0
    for ext, want in (("csv", csv_sha), ("json", json_sha)):
        got = hashlib.sha256((tmp_path / f"{name}.{ext}").read_bytes()).hexdigest()
        assert got == want, ext


# Reference digests of two sweeps past the enumeration cap (n > 24): an
# analytic limit, whose e_n is a quadrature distance and whose cut norms are
# heuristic, and ER draws with heuristic cut norms from n = 26 on. A third
# analytic sweep settles on grids that are no power of 2: ns 3, 5, 6 share
# the alignment 30, so its e_n are sums over the 270- and 540-grids.
GOLDEN_LARGE_REPORTS = {
    "expr": (
        ["theorem", "--graphon-expr", "min(x,y)*(1-max(x,y))", "--k", "2",
         "--ns", "32,64,128", "--seed", "7"],
        "7135c9874e9ce65497b6229c5e3ce298d72d7f015bfddbf734baeebbf9d2cc38",
        "bd8cc25af8b280fd6f4b1ef6229f173457b664e32992001c66300d8e0eb78395",
    ),
    "er": (
        ["counterexample", "--p", "0.3", "--ns", "26,40,64,150", "--draws", "3", "--seed", "9"],
        "e6bd07b4e2489b5b71990df01f9db3b67a869da74e2c31a5cef685e33f202dfb",
        "571edfec35631e77a42aeb5acc8262c2d4003b173721f6c05cc368b002c9dd72",
    ),
    "expr-270": (
        ["theorem", "--graphon-expr", "min(x,y)*(1-max(x,y))", "--k", "2",
         "--ns", "3,5,6", "--seed", "7"],
        "5eee7f0c293fcada2b9744eb5487840be875d94aea8dfef91c7c0855ae0c7d8c",
        "b8b2d03a070b7303a8e0d68401547d140e229955b4d6e02bc7593fff9379a592",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LARGE_REPORTS))
def test_heuristic_range_reports_match_golden_bytes(tmp_path, name):
    args, csv_sha, json_sha = GOLDEN_LARGE_REPORTS[name]
    code = main(["sweep", *args, "--out", str(tmp_path / name), "--format", "csv,json"])
    assert code == 0
    for ext, want in (("csv", csv_sha), ("json", json_sha)):
        got = hashlib.sha256((tmp_path / f"{name}.{ext}").read_bytes()).hexdigest()
        assert got == want, ext


# Reference digests of a constant-limit sweep past the enumeration cap: the cut norm of
# each sampled ER - 1/2 difference comes from the heuristic, whose column sums are often
# exactly 0, so its batch redoes many half passes in the reference order
GOLDEN_CONSTANT_HALF = {
    "csv": "cb4c88358c80b2adb1cd9013a0ef2d237e0300b8ad4f71911fd93dbde13027bb",
    "json": "ead913d4f6be5f37172f12ef730db1ca5b4e9c42a5d42952b05cd75171b021ed",
    "svg": "31f8cd0ad4957a4536b6fa4876781610eb0b5b3cb7aa236e5c6b8ae8c0476331",
}


def test_constant_limit_sweep_past_the_cap_matches_golden_bytes(tmp_path):
    code = main(["sweep", "theorem", "--graphon-builtin", "constant:0.5", "--k", "1",
                 "--ns", "40,64", "--seed", "1", "--out", str(tmp_path / "half"),
                 "--format", "csv,json,svg"])
    assert code == 0
    for ext, want in GOLDEN_CONSTANT_HALF.items():
        got = hashlib.sha256((tmp_path / f"half.{ext}").read_bytes()).hexdigest()
        assert got == want, ext


@pytest.mark.parametrize("ns", [[4.9], [4, "8"], [4.5, 8]])
def test_sweeps_refuse_sizes_that_are_not_integers(ns):
    # int() would truncate 4.9 to a row n = 4 and parse "8"
    bad = next(n for n in ns if not isinstance(n, int))
    for run in (lambda: gl.run_counterexample_sweep(0.5, ns, 2),
                lambda: gl.run_theorem_sweep(gl.constant(0.5), 1, ns, seed=1)):
        with pytest.raises(ValidationError, match=f"must be integers, got {bad!r}"):
            run()


# Reference digests of ER draws in the exact range, at p != 1/2: n = 1 (one
# vertex, no edge), n = 2 and n = 12, each cut norm from exact enumeration
GOLDEN_ER_EXACT = {
    "csv": "8ebf565dcede75a2ad32f5c612b29eab03a89c220812a828b6b3266b1bd812ce",
    "json": "2818f702a874baf316602d5b9bf8b242339cc737a5afb4c6ced04be284f4b1af",
    "svg": "5737e03f002620d85a7c3f078c4e324093a7ebabb9820643a132ef88dec509d7",
}


def test_exact_range_er_report_matches_golden_bytes(tmp_path):
    code = main(["sweep", "counterexample", "--p", "0.3", "--ns", "1,2,12", "--draws", "3",
                 "--seed", "2", "--out", str(tmp_path / "er"), "--format", "csv,json,svg"])
    assert code == 0
    for ext, want in GOLDEN_ER_EXACT.items():
        got = hashlib.sha256((tmp_path / f"er.{ext}").read_bytes()).hexdigest()
        assert got == want, ext


def test_midpoint_grid_cells_are_contiguous_runs():
    # _LimitDistance broadcasts each step cell over an s x s block of the g-point
    # midpoint grid (s = g // n), which needs cell_index to map the midpoints
    # to n equal runs for every n dividing a reachable grid size g
    for g in range(2, 4097):
        mids = midpoints(g)
        for n in range(2, g + 1):
            if g % n == 0:
                want = np.repeat(np.arange(n), g // n)
                assert np.array_equal(cell_index(mids, n), want), (g, n)


def _spread(size: int, seed: int) -> np.ndarray:
    # signed values over 20 decades, so that any other summation order moves the bits
    r = np.random.default_rng(seed)
    return r.standard_normal(size) * 10.0 ** r.uniform(-10, 10, size)


@pytest.mark.parametrize("size", [1, 7, 8, 127, 129, 2**15 - 1, 2**15 + 1, 2**16 - 1,
                                  2**16 + 1, 3 * 2**16 + 5])
def test_pairwise_sum_is_numpys_mean_to_the_bit(size):
    d = _spread(size, size)
    got = _pairwise_sum(lambda lo, hi: np.abs(d[lo:hi]), 0, size) / size
    assert got == float(np.abs(d).mean())


@pytest.mark.parametrize("g,n", [(15, 3), (15, 5), (270, 5), (270, 6), (516, 4), (516, 129),
                                 (1080, 8), (1080, 540), (2048, 64), (2048, 1024), (2064, 16),
                                 (2064, 129), (1536, 512), (2048, 512), (1792, 256),
                                 (516, 516), (1024, 1024), (1536, 1536), (1536, 3),
                                 (1536, 96), (1536, 768)])
def test_limit_distance_sum_is_the_whole_grid_mean_to_the_bit(g, n):
    lim = np.abs(_spread(g * g, g).reshape(g, g))
    v = np.abs(_spread(n * n, n).reshape(n, n))
    s = g // n
    want = float(np.abs(lim.reshape(n, s, n, s) - v[:, None, :, None]).mean())
    assert _mean_abs_diff(lim, v) == want


def test_limit_distance_holds_no_grid_sized_temporary(peak_bytes):
    dist = _LimitDistance(gl.builtin("minmax"), 1, [256], gl.QuadratureSpec(base_grid=512))
    step = gl.constant(0.1).step.refine(256)
    dist.distance(step)
    assert sorted(dist.cache) == [512, 1024]
    # a whole-grid |lim - v| would be one 1024 x 1024 array, 8 MiB; a leaf is 256 KiB
    assert peak_bytes(lambda: dist.distance(step)) < 1024 * 1024 * 8 // 8


def test_incomplete_sweep_keeps_what_stopped_it():
    q = gl.QuadratureSpec(base_grid=8, max_refinements=1, tol=1e-3)
    r = gl.run_theorem_sweep(gl.builtin("minmax"), 1, [2, 4, 8, 16], q, seed=1)
    assert r.incomplete and [row.n for row in r.rows] == [2, 4, 8]
    assert r.error == "limit distance at n=16 did not settle within tol=0.001 at grid 32"
    assert "error" not in report_to_dict(r)
    assert gl.run_theorem_sweep(gl.builtin("minmax"), 1, [2, 4], seed=1).error is None



@pytest.mark.parametrize("limit", ["analytic", "step"])
def test_limit_cells_are_bitwise_symmetric(limit):
    # the sweep's signed difference A^k - limit cells is a step without symmetrizing
    w = gl.builtin("minmax") if limit == "analytic" else random_step(3, key=5, signed=False)
    dist = _LimitDistance(w, 2, [4, 6], gl.QuadratureSpec(base_grid=32, tol=1e-3))
    for n in (4, 6):
        dist.distance(gl.constant(0.1).step.refine(n))  # caches the levels n divides
        cells = dist.limit_cells(n)
        assert np.array_equal(cells, cells.T)


@pytest.mark.parametrize("g", [300, 768, 1000, 1200, 2048])
def test_limit_distance_equals_the_kron_spread_mean_in_leaves_that_start_mid_row(g, monkeypatch):
    from graphonlab import norms
    pairwise, starts = norms._pairwise_sum, set()

    def spying(entries, lo, hi):  # records where each leaf starts
        return pairwise(lambda a, b: starts.add(a % g) or entries(a, b), lo, hi)

    monkeypatch.setattr(norms, "_pairwise_sum", spying)
    lim = np.abs(_spread(g * g, g + 1).reshape(g, g))
    for n in [n for n in (1, 2, 3, 4, 5, 8, 16, 100, 256, 300, 768, 1000, 1200, 2048)
              if g % n == 0]:
        v = np.abs(_spread(n * n, n + 1).reshape(n, n))
        s = g // n
        want = np.abs(lim - np.kron(v, np.ones((s, s)))).mean()
        assert np.float64(_mean_abs_diff(lim, v)).tobytes() == want.tobytes(), n
    # g * g halves to leaves of whole rows at g = 300, 768 and 2048, and mid-row at 1000 and
    # 1200 (a leaf of 62,500 and of 45,000 entries)
    assert (starts != {0}) == (g in (1000, 1200))


def test_a_sampled_difference_leaves_the_cells_of_a_step_limit_untouched():
    from graphonlab import experiments
    q = gl.QuadratureSpec()
    dist = _LimitDistance(random_step(3, key=5, signed=False), 2, [6], q)
    kept = dist.limit_cells(6).copy()
    cuts = [experiments._sampled(dist.kw, 1, 6, q, dist, key, 9)[1] for key in (1, 2, 1)]
    assert dist.limit_cells(6).tobytes() == kept.tobytes()
    assert cuts[0] == cuts[2] and cuts[0] != cuts[1]


@pytest.mark.parametrize("w", ["minmax", "step"])
def test_the_caller_owns_each_array_of_limit_cells(w):
    q = gl.QuadratureSpec(base_grid=64, tol=1e-3)
    w = gl.builtin("minmax") if w == "minmax" else random_step(4, key=3, signed=False)
    dist = _LimitDistance(w, 2, [8], q)
    dist.distance(gl.expected_graphon(w, 8, q))  # an analytic limit's cells read its levels
    first, second = dist.limit_cells(8), dist.limit_cells(8)
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("w", ["minmax", "step"])
def test_a_sampled_difference_is_the_clipped_difference_it_was(w, monkeypatch):
    from graphonlab import experiments
    q = gl.QuadratureSpec(base_grid=64, tol=1e-3)
    w = gl.builtin("minmax") if w == "minmax" else random_step(4, key=3, signed=False)
    dist = _LimitDistance(w, 2, [8], q)
    cfg = gl.SamplerConfig(8, 4, w)
    ak = gl.power(gl.canonical_graphon(gl.sample_graph(cfg, gl.sample_latents(cfg))), 2, q)
    dist.distance(ak)
    want = np.clip(ak.values - dist.limit_cells(8), -1.0, 1.0)
    seen = []
    auto = experiments.cut_norm_auto
    monkeypatch.setattr(experiments, "cut_norm_auto",
                        lambda s, seed: seen.append(s) or auto(s, seed=seed))
    experiments._sampled(w, 2, 8, q, dist, 4, 9)
    gl.StepGraphon(8, seen[0].values, -1.0, 1.0)  # every check of the public constructor holds
    assert seen[0].values.tobytes() == want.tobytes() and not seen[0].values.flags.writeable

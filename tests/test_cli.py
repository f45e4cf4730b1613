import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
import graphonlab.io as glio
from graphonlab.algebra import MAX_LAZY_POWER
from graphonlab.cli import main
from conftest import blas_family


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_pass_and_fail(capsys):
    code, out, _ = run(capsys, "validate", "--graphon-builtin", "constant:0.5")
    assert code == 0 and out.startswith("PASS")

    code, out, _ = run(capsys, "validate", "--graphon-expr", "x")
    assert code == 1 and out.startswith("FAIL")


def test_validate_symmetrize_flag(capsys):
    code, out, _ = run(capsys, "validate", "--graphon-expr", "x", "--symmetrize")
    assert code == 0


def test_sample_writes_edge_list(tmp_path, capsys):
    out_path = tmp_path / "g.txt"
    code, out, _ = run(capsys, "sample", "--graphon-builtin", "constant:1", "--n", "4",
                       "--seed", "3", "--out", str(out_path))
    assert code == 0
    g = glio.load_graph(out_path)
    assert g.edge_count == 6


def test_expect_writes_matrix(tmp_path, capsys):
    out_path = tmp_path / "e.csv"
    code, _, _ = run(capsys, "expect", "--graphon-builtin", "constant:0.5", "--n", "2",
                     "--out", str(out_path))
    assert code == 0
    s = glio.load_step_matrix(out_path)
    assert s.values.tolist() == [[0.0, 0.5], [0.5, 0.0]]


def test_mc_expect_writes_mean_and_stderr(tmp_path, capsys):
    out_path = tmp_path / "m.csv"
    code, out, _ = run(capsys, "mc-expect", "--graphon-builtin", "constant:1", "--n", "3",
                       "--draws", "2", "--seed", "1", "--out", str(out_path))
    assert code == 0
    mean = glio.load_step_matrix(out_path)
    assert np.all(mean.values[~np.eye(3, dtype=bool)] == 1.0)
    assert (tmp_path / "m.stderr.csv").exists()


def test_product_of_step_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("0,1\n1,0\n")
    out_path = tmp_path / "p.csv"
    code, _, _ = run(capsys, "product", "--graphon-step", str(a), "--with-step", str(a),
                     "--out", str(out_path))
    assert code == 0
    assert glio.load_step_matrix(out_path).values.tolist() == [[0.5, 0.0], [0.0, 0.5]]


@pytest.mark.parametrize("flags", [[], ["--discretize", "6"]])
def test_product_proven_asymmetric_is_rejected(tmp_path, capsys, flags):
    a, b = tmp_path / "s3.csv", tmp_path / "s2.csv"
    a.write_text("0.1,0.2,0.9\n0.2,0.4,0.5\n0.9,0.5,0.7\n")
    b.write_text("0.5,0.25\n0.25,1\n")
    code, out, err = run(capsys, "product", "--graphon-step", str(a), "--with-step", str(b),
                         *flags)
    assert code == 2 and out == ""
    assert "not symmetric" in err and "--discretize" not in err


def test_power_requires_discretize_for_analytic(tmp_path, capsys):
    code, _, err = run(capsys, "power", "--graphon-expr", "x*y", "--k", "2")
    assert code == 2 and "discretize" in err

    out_path = tmp_path / "p.csv"
    code, _, _ = run(capsys, "power", "--graphon-expr", "x*y", "--k", "2",
                     "--discretize", "2", "--out", str(out_path))
    assert code == 0
    vals = glio.load_step_matrix(out_path).values
    want = gl.discretize(gl.power(gl.builtin("product"), 2), 2).values
    assert np.allclose(vals, want, atol=1e-12)


def test_norm_l1(capsys):
    code, out, _ = run(capsys, "norm", "--l1", "--graphon-builtin", "constant:1",
                       "--with-builtin", "constant:0")
    assert code == 0
    assert float(out.strip()) == 1.0


def test_norm_cut_step_json(tmp_path, capsys):
    m = tmp_path / "m.csv"
    m.write_text("0,1\n1,0\n")
    code, out, _ = run(capsys, "norm", "--cut", "--graphon-step", str(m))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.5)
    assert doc["exact"] is True
    assert doc["witness_s"] == [0, 1]


def test_norm_cut_analytic_needs_discretize(capsys):
    code, _, err = run(capsys, "norm", "--cut", "--graphon-builtin", "product")
    assert code == 2 and "--discretize" in err
    code, out, _ = run(capsys, "norm", "--cut", "--graphon-builtin", "product",
                       "--discretize", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["low"] <= 0.25 <= doc["high"]


def test_norm_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "norm", "--graphon-builtin", "product")
    assert code == 2 and "exactly one" in err


# the first two enumerate (n <= 24) and exited 0; the third runs the heuristic
@pytest.mark.parametrize("argv", [
    ("--graphon-builtin", "minmax", "--discretize", "4", "--restarts", "-5"),
    ("--graphon-builtin", "constant:0.5", "--restarts", "0"),
    ("--graphon-builtin", "minmax", "--discretize", "25", "--restarts", "-5"),
], ids=["discretize-4", "constant", "discretize-25"])
def test_norm_cut_refuses_restarts_below_1_on_every_path(capsys, argv):
    code, out, err = run(capsys, "norm", "--cut", *argv)
    assert code == 2 and out == ""
    assert err == "error: restarts must be >= 1\n"


def test_sweep_theorem_emits_formats(tmp_path, capsys):
    base = tmp_path / "r"
    code, out, _ = run(capsys, "sweep", "theorem", "--graphon-builtin", "constant:0.5",
                       "--k", "1", "--ns", "2,4", "--seed", "3", "--out", str(base),
                       "--format", "csv,json,svg")
    assert code == 0
    assert (tmp_path / "r.csv").exists()
    report = gl.load_report(tmp_path / "r.json")
    assert [row.l1_expected_vs_limit for row in report.rows] == [0.25, 0.125]
    assert (tmp_path / "r.svg").exists()


def test_sweep_counterexample(tmp_path, capsys):
    base = tmp_path / "ce"
    code, out, _ = run(capsys, "sweep", "counterexample", "--p", "0.5", "--ns", "4,8",
                       "--draws", "2", "--seed", "3", "--out", str(base))
    assert code == 0
    report = gl.load_report(tmp_path / "ce.json")
    assert report.kind == "counterexample"
    assert all(row.l1_sampled_vs_limit == 0.5 for row in report.rows)


def test_sweep_bad_ns_value_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "counterexample", "--ns", "4,x",
                       "--out", str(tmp_path / "ce"))
    assert code == 2 and "bad --ns value 'x'" in err


def test_validate_non_finite_step_file_exits_2(tmp_path, capsys):
    p = tmp_path / "nan.csv"
    p.write_text("0.1,nan\nnan,0.2\n")
    code, _, err = run(capsys, "validate", "--graphon-step", str(p))
    assert code == 2 and "non-finite entry at (1,2)" in err and "symmetric" not in err


def test_json_step_with_non_numeric_entry_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2, "values": [["a", 0.1], [0.1, 0.2]]}')
    code, _, err = run(capsys, "validate", "--graphon-step", str(p))
    assert code == 2 and "bad.json" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "builtin": "constant:0.5",
        "ns": [2, 4],
        "seed": 3,
        "out": str(tmp_path / "from_config"),
        "formats": ["json"],
    }))
    code, _, _ = run(capsys, "sweep", "theorem", "--config", str(cfg))
    assert code == 0
    assert (tmp_path / "from_config.json").exists()

    # flags override the file
    code, _, _ = run(capsys, "sweep", "theorem", "--config", str(cfg),
                     "--out", str(tmp_path / "flag_wins"), "--ns", "2")
    assert code == 0
    report = gl.load_report(tmp_path / "flag_wins.json")
    assert [row.n for row in report.rows] == [2]


@pytest.mark.parametrize("doc", [{"ns": ["x"]}, {"p": "0.5"}, {"k": "2"}])
def test_config_field_of_wrong_type_exits_2(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"builtin": "constant:0.5", "ns": [2, 4],
                               "out": str(tmp_path / "r"), **doc}))
    code, _, err = run(capsys, "sweep", "counterexample" if "p" in doc else "theorem",
                       "--config", str(cfg))
    assert code == 2 and f"cfg.json: config field '{next(iter(doc))}'" in err


def test_conflicting_sources_rejected(capsys):
    code, _, err = run(capsys, "norm", "--l1", "--graphon-builtin", "product",
                       "--with-builtin", "constant:0.5", "--grid", "64")
    assert code == 0
    # mutually exclusive group is enforced by argparse at parse time
    with pytest.raises(SystemExit):
        main(["validate", "--graphon-builtin", "product", "--graphon-expr", "x*y"])


def test_unknown_builtin_is_reported(capsys):
    code, _, err = run(capsys, "validate", "--graphon-builtin", "blancmange")
    assert code == 2 and "unknown builtin" in err


# sha256 digests of sampler outputs; these bytes must not depend on how
# SimpleGraph stores its edges
SAMPLE_MINMAX_SHA = "391a00153955a9c3c2a8f16ac92a4bddb3c4c55ad85b8861bf4a7e8fc0152874"
MC_PRODUCT_SHA = {
    "m.csv": "9abab312dbbc99385f01496195a20bc3254cb82dea73dad528d49e345bf76469",
    "m.stderr.csv": "7129f6748318e00c2eea76a0ba920f65fe668ef066d6d48ddd18ac154b88819b",
}


def test_sample_stdout_matches_golden_bytes(capsys):
    code, out, _ = run(capsys, "sample", "--graphon-builtin", "minmax", "--n", "64",
                       "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_MINMAX_SHA


def test_mc_expect_matches_golden_bytes(tmp_path, capsys):
    code, _, _ = run(capsys, "mc-expect", "--graphon-builtin", "product", "--n", "8",
                     "--draws", "200", "--seed", "7", "--out", str(tmp_path / "m.csv"))
    assert code == 0
    for name, want in MC_PRODUCT_SHA.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


def test_sweep_refuses_to_overwrite_its_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"builtin": "constant:0.5", "ns": [2, 4],
                               "out": str(tmp_path / "cfg"), "formats": ["json"]}))
    before = cfg.read_bytes()
    code, _, err = run(capsys, "sweep", "theorem", "--config", str(cfg))
    assert code == 2 and str(cfg) in err
    assert cfg.read_bytes() == before


def test_sweep_refuses_to_overwrite_its_step_file(tmp_path, capsys):
    step = tmp_path / "w.csv"
    step.write_text("0.5,0.5\n0.5,0.5\n")
    before = step.read_bytes()
    code, _, err = run(capsys, "sweep", "theorem", "--graphon-step", str(step), "--ns", "2",
                       "--out", str(tmp_path / "w"), "--format", "json,csv")
    assert code == 2 and str(step) in err
    assert step.read_bytes() == before


def test_config_int_tol_writes_the_same_report_as_the_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1, "grid": 64}))
    sweep = ("sweep", "theorem", "--graphon-builtin", "constant:0.5", "--ns", "2,4")
    code, _, _ = run(capsys, *sweep, "--config", str(cfg), "--out", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run(capsys, *sweep, "--tol", "1", "--grid", "64", "--out", str(tmp_path / "b"))
    assert code == 0
    for ext in (".csv", ".json"):
        a = (tmp_path / "a").with_suffix(ext).read_bytes()
        assert a == (tmp_path / "b").with_suffix(ext).read_bytes(), ext


# exp overflows to inf at the far corner, and 0 * inf is NaN
_NAN_CORNER_EXPR = "0.5+0*exp(1000*x*y)"


@pytest.mark.parametrize("command, extra", [
    ("sample", ()),
    ("mc-expect", ("--draws", "3", "--out", "m.csv")),
])
def test_non_finite_edge_probability_exits_2(tmp_path, monkeypatch, capsys, command, extra):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, command, "--graphon-expr", _NAN_CORNER_EXPR, "--n", "12",
                       "--seed", "1", *extra)
    assert code == 2 and "is not finite: W(" in err and "nan" in err
    assert not (tmp_path / "m.csv").exists()


def _refuse_to_sweep(*args, **kwargs):
    raise AssertionError("the sweep started")


def test_sweep_with_empty_format_flag_exits_2_before_the_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("graphonlab.cli.run_theorem_sweep", _refuse_to_sweep)
    code, _, err = run(capsys, "sweep", "theorem", "--graphon-builtin", "minmax", "--ns", "4",
                       "--out", str(tmp_path / "r"), "--format", "")
    assert code == 2 and "no report format" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_with_empty_config_formats_exits_2_before_the_sweep(tmp_path, monkeypatch,
                                                                  capsys):
    monkeypatch.setattr("graphonlab.cli.run_counterexample_sweep", _refuse_to_sweep)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ns": [4], "out": str(tmp_path / "r"), "formats": []}))
    code, _, err = run(capsys, "sweep", "counterexample", "--config", str(cfg))
    assert code == 2 and "no report format" in err
    assert list(tmp_path.iterdir()) == [cfg]


# sha256 digests of the stdout of commands whose printing paths share one step
# emitter and one sweep-row schema; the bytes must not move when those paths do
_S3 = "0.1,0.2,0.9\n0.2,0.4,0.5\n0.9,0.5,0.7\n"
STDOUT_SHA = {
    "expect": "f00d061276044a11ddf2ad5f0148b1e2ebbf4296703324d18806b7a380436e2c",
    "product": "349d842001312b7344df236aa2012c734ba3fdf946870bad453b27804661e0b9",
    "power_step": "3473b445ab3d8c6c184cdc7ba6707b6d4a2df57279737732b8b0237e02e1025d",
    "power_expr": "bf321f5bd076a7df8cc4fbb60313dcf23bd454b219743c7aae862e70c3444815",
}
# the same stdout on OpenBLAS's Prescott kernel (no FMA), which rounds the products of
# the unaligned 3-block steps differently; "expect" forms no product
STDOUT_SHA_PRESCOTT = {
    "product": "601aa77b1fe88f59767e5098028b3fd12eea1e16ca02c8fbb2dd45aeebcaf1c3",
    "power_step": "8cf2b4bb1209de55cc14d244e9a1e2c94469c94e9cc3d381c10663eafd2118c6",
    "power_expr": "204b9002409cd7c7de6064693cd5fadec348460b51f6d808a09eb1f685cdb571",
}
# the Sandybridge kernel (AVX, no FMA) prints Prescott's bytes but for the lazy power,
# whose 256-long z-sums it rounds in an order of its own
STDOUT_SHA_SANDYBRIDGE = {
    **STDOUT_SHA_PRESCOTT,
    "power_expr": "67670ac3635164a5b3a37d35247fc0eb4b6493e29e475fedd9cfcd0e17fabe45",
}
SWEEP_ROWS_SHA = {
    "theorem": "b736167413c0b916be5bdcae7f2f3ebea806fcdf0c4fe4edbf2f8912ddbaa8e1",
    "counterexample": "f4820f2fdb1c3272f2c32cbe81b12fdfb9c510d1084b837c0a318d5f978428da",
}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA))
def test_step_printing_commands_match_golden_bytes(tmp_path, capsys, name):
    step = tmp_path / "s3.csv"
    step.write_text(_S3)
    argv = {
        "expect": ("expect", "--graphon-builtin", "product", "--n", "5"),
        "product": ("product", "--graphon-step", str(step), "--with-step", str(step)),
        "power_step": ("power", "--graphon-step", str(step), "--k", "3"),
        "power_expr": ("power", "--graphon-expr", "x*y", "--k", "3", "--discretize", "5"),
    }[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    family = {"Prescott": STDOUT_SHA_PRESCOTT, "Sandybridge": STDOUT_SHA_SANDYBRIDGE}
    golden = {**STDOUT_SHA, **family.get(blas_family(), {})}
    assert hashlib.sha256(out.encode()).hexdigest() == golden[name]


@pytest.mark.parametrize("mode", sorted(SWEEP_ROWS_SHA))
def test_sweep_row_printout_matches_golden_bytes(tmp_path, capsys, mode):
    args = {
        "theorem": ("--graphon-builtin", "minmax", "--k", "2", "--grid", "64", "--seed", "3"),
        "counterexample": ("--p", "0.3", "--draws", "3", "--seed", "2"),
    }[mode]
    code, out, _ = run(capsys, "sweep", mode, *args, "--ns", "4,8",
                       "--out", str(tmp_path / "r"))
    assert code == 0
    rows = "".join(line for line in out.splitlines(True) if line.startswith("  "))
    assert rows.count("\n") == 2
    assert hashlib.sha256(rows.encode()).hexdigest() == SWEEP_ROWS_SHA[mode]


# sha256 digests of `norm --l1` stdout: a 3-block step against an analytic kernel
# settles on the 516-grid, at tol 1e-7 on the 2064-grid (summed in 512-row blocks),
# and two analytic kernels at tol 1e-7 on the 4096-grid
NORM_L1_SHA = {
    "step_516": "2b565755b1679cc1db4bbc51541f28a8f15d76e7ed6d146c8b1da45928838c6b",
    "step_2064": "16f077f34a4e1d21ba796356a4ccc285cf6a37fa6c55c327dae152f493008338",
    "analytic_4096": "19742a2ed75f43f4c46b49c71d7d2017cdfbd185bb9081c57d2dbd3e1437be38",
}


@pytest.mark.parametrize("name", sorted(NORM_L1_SHA))
def test_norm_l1_stdout_matches_golden_bytes(tmp_path, capsys, name):
    step = tmp_path / "s3.csv"
    step.write_text(_S3)
    argv = {
        "step_516": ("--graphon-step", str(step), "--with-builtin", "minmax"),
        "step_2064": ("--graphon-step", str(step), "--with-builtin", "minmax", "--tol", "1e-7"),
        "analytic_4096": ("--graphon-builtin", "attachment", "--with-builtin", "product",
                          "--tol", "1e-7"),
    }[name]
    code, out, _ = run(capsys, "norm", "--l1", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NORM_L1_SHA[name]


# sha256 digests of step-kernel paths: `power --discretize` of a step (the one CLI
# path where `discretize` reads a step's own range) and the two `norm --cut`
# branches of a step kernel, against a second step and written to a file; and of
# the analytic `norm --cut` bracket, exact at m = 4, heuristic at m = 30, and
# written to a file
_H3 = "0.5,0.5,0.5\n0.5,0.5,0.5\n0.5,0.5,0.5\n"
STEP_PATH_SHA = {
    "power_discretize": "5527adbbeeb7280c1ab7d2e445e6410dd53a61f86a0980aab3ea8712b10bf8e9",
    "cut_with_step": "db51f7ecf317a2333c94a510d48598979df09a61311401772e598f6c7b0eaed1",
    "cut_out": "aecd7d85f8f33c7caabf2bb45adebb81336d7bb2abc71784873039e17eb740f2",
    "bracket_exact_4": "33593e3ebec564f97c0da0c17c6baee63d2929babb68b426a090b3c1a655f5ac",
    "bracket_heuristic_30": "3c1073e17cc08083c56b4238dbe7bcbaa1e44fbd092c7871746ff7dfa22f144f",
    "bracket_out": "aecd7d85f8f33c7caabf2bb45adebb81336d7bb2abc71784873039e17eb740f2",
}
CUT_FILE_SHA = {
    "cut_out": "9b4f1be64e89ca6c53c3a1061a0f8f374b466f3d7131616d636014aa9275950e",
    "bracket_out": "c2c49c6e1e04633c23e411c8bdaaabd2b6fdfbd252a949e7559d02c85a684e16",
}


@pytest.mark.parametrize("name", sorted(STEP_PATH_SHA))
def test_step_kernel_paths_match_golden_bytes(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRAPHON_LAB_OUT", raising=False)
    (tmp_path / "s3.csv").write_text(_S3)
    (tmp_path / "h3.csv").write_text(_H3)
    bracket = ("norm", "--cut", "--graphon-builtin", "minmax", "--discretize")
    argv = {
        "power_discretize": ("power", "--graphon-step", "s3.csv", "--k", "2", "--discretize", "2"),
        "cut_with_step": ("norm", "--cut", "--graphon-step", "s3.csv", "--with-step", "h3.csv"),
        "cut_out": ("norm", "--cut", "--graphon-step", "s3.csv", "--out", "cut.json"),
        "bracket_exact_4": (*bracket, "4"),
        "bracket_heuristic_30": (*bracket, "30", "--grid", "64"),
        "bracket_out": ("norm", "--cut", "--graphon-expr", "x*y", "--discretize", "6",
                        "--out", "cut.json"),
    }[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STEP_PATH_SHA[name]
    if name in CUT_FILE_SHA:
        got = hashlib.sha256((tmp_path / "cut.json").read_bytes()).hexdigest()
        assert got == CUT_FILE_SHA[name]


def test_product_asymmetric_on_its_grid_exits_2(capsys):
    code, out, err = run(capsys, "product", "--graphon-builtin", "minmax",
                         "--with-builtin", "product", "--discretize", "4")
    assert code == 2 and out == ""
    assert "not symmetric" in err and "0.0637" in err


def test_product_of_distinct_symmetric_kernels_prints_graphon(capsys):
    code, out, _ = run(capsys, "product", "--graphon-builtin", "product",
                       "--with-expr", "x*y", "--discretize", "3")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "# product is a graphon" and len(rows) == 3


def test_sweep_stopped_at_its_first_n_names_what_did_not_settle(tmp_path, capsys):
    code, out, err = run(capsys, "sweep", "theorem", "--graphon-builtin", "minmax",
                         "--ns", "4,8,16", "--grid", "8", "--max-refinements", "1",
                         "--tol", "1e-5", "--out", str(tmp_path / "inc"))
    assert code == 2 and out == ""
    assert err == "error: limit distance at n=4 did not settle within tol=1e-05 at grid 32\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_stopped_at_a_later_n_is_reported_incomplete(tmp_path, capsys):
    code, out, err = run(capsys, "sweep", "theorem", "--graphon-builtin", "minmax", "--k", "1",
                         "--ns", "2,4,8,16", "--grid", "8", "--max-refinements", "1",
                         "--tol", "1e-3", "--out", str(tmp_path / "inc"))
    assert code == 0 and err == ""
    assert out.startswith("theorem sweep 'minmax' k=1 (incomplete):\n")
    report = gl.load_report(tmp_path / "inc.json")
    assert report.incomplete and [r.n for r in report.rows] == [2, 4, 8]


@pytest.mark.parametrize("level", ["abc", ":", "x"])
def test_constant_level_that_is_not_a_number_exits_2(capsys, level):
    code, out, err = run(capsys, "sample", "--graphon-builtin", f"constant:{level}", "--n", "4")
    assert code == 2 and out == ""
    assert err == f"error: builtin 'constant:{level}': level '{level}' is not a number\n"


def test_config_constant_level_that_is_not_a_number_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"builtin": "constant:x", "n": 4}))
    code, out, err = run(capsys, "sample", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: builtin 'constant:x': level 'x' is not a number\n"


@pytest.mark.parametrize("expr", ["x+\u00b2", "x*\u0663"])  # superscript two, Arabic-Indic three
def test_expression_with_a_non_ascii_digit_exits_2(capsys, expr):
    code, out, err = run(capsys, "validate", "--graphon-expr", expr)
    assert code == 2 and out == ""
    assert err == f"error: unexpected character {expr[2]!r} at offset 2\n"


@pytest.mark.parametrize("command", ["power", "product", "norm_cut"])
def test_discretize_zero_exits_2(tmp_path, capsys, command):
    step = tmp_path / "s3.csv"
    step.write_text(_S3)
    argv = {
        "power": ("power", "--graphon-step", str(step), "--k", "2"),
        "product": ("product", "--graphon-step", str(step), "--with-step", str(step)),
        "norm_cut": ("norm", "--cut", "--graphon-builtin", "minmax"),
    }[command]
    code, out, err = run(capsys, *argv, "--discretize", "0")
    assert code == 2 and out == ""
    assert err == "error: discretization block count must be >= 1\n"


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code


# any text, steered toward builtin names and toward expression tokens and
# digit-like characters (Unicode categories Nd and No: "٣", "²")
_KERNEL_TEXT = {
    "--graphon-builtin": st.builds(
        str.__add__, st.sampled_from(["", "constant:", "minmax", "product:"]), st.text(max_size=12)
    ),
    "--graphon-expr": st.text(st.one_of(
        st.sampled_from(list("xy019+-*/^(), .e")), st.characters(categories=["Nd"]),
        st.characters(categories=["No"]), st.characters(),
    ), max_size=24),
}


# Kernel text from the command line may pass (0), fail validation (1) or be
# refused with a message (2), never raise. Size flags are not fuzzed: a fuzzed
# size can ask for more memory than the machine has.
@pytest.mark.parametrize("flag", sorted(_KERNEL_TEXT))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_validate_exits_0_1_or_2_on_any_kernel_text(flag, data):
    text = data.draw(_KERNEL_TEXT[flag], label="text")
    assert _exit_code(["validate", f"{flag}={text}", "--grid", "4"]) in (0, 1, 2)


# each printed the symmetrized cells of an asymmetric kernel before every kernel
# without a step form was checked on its midpoint grid
@pytest.mark.parametrize("argv", [
    ("power", "--graphon-expr", "x", "--k", "2", "--discretize", "2"),
    ("power", "--graphon-expr", "x", "--k", "1", "--discretize", "2"),
    ("norm", "--cut", "--graphon-expr", "x", "--discretize", "4"),
], ids=["power_k2", "power_k1", "norm_cut"])
def test_asymmetric_analytic_kernel_is_not_discretized(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "is not symmetric: max |V - V^T|" in err and "on the 256-grid" in err


def _refuse(*args, **kwargs):
    raise AssertionError("no grid may be evaluated")


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("target, argv", [
    ("graphonlab.sampling.cell_means", ("expect", "--graphon-builtin", "minmax", "--n", "2")),
    ("graphonlab.cli.l1_distance",
     ("norm", "--l1", "--graphon-builtin", "minmax", "--with-builtin", "product")),
    ("graphonlab.cli.run_theorem_sweep",
     ("sweep", "theorem", "--graphon-builtin", "minmax", "--ns", "4", "--out", "r")),
], ids=["expect", "norm_l1", "sweep_theorem"])
def test_tolerance_that_is_not_a_positive_finite_number_exits_2_before_any_grid(
    tmp_path, monkeypatch, capsys, target, argv, tol
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(target, _refuse)
    code, out, err = run(capsys, *argv, f"--tol={tol}")
    assert code == 2 and out == ""
    assert err == f"error: tol must be a positive finite number, got {tol}\n"


def test_config_tolerance_nan_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("graphonlab.sampling.cell_means", _refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"builtin": "minmax", "n": 2, "tol": NaN}')  # json reads NaN
    code, out, err = run(capsys, "expect", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: tol must be a positive finite number, got nan\n"


def _refuse_to_draw(*args, **kwargs):
    raise AssertionError("no cell or draw may be computed")


# each sampled or averaged the asymmetric kernel x (expect printed 0,0.5 / 0.5,0)
@pytest.mark.parametrize("argv", [
    ("expect", "--n", "2"),
    ("mc-expect", "--n", "4", "--draws", "2", "--out", "m.csv"),
    ("sample", "--n", "4"),
    ("sample", "--n", "4", "--iid"),
], ids=["expect", "mc_expect", "sample", "sample_iid"])
def test_sampling_commands_refuse_an_asymmetric_kernel(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRAPHON_LAB_OUT", raising=False)
    for target in ("graphonlab.sampling.cell_means", "graphonlab.sampling._row_blocks"):
        monkeypatch.setattr(target, _refuse_to_draw)
    code, out, err = run(capsys, *argv, "--graphon-expr", "x", "--seed", "1")
    assert code == 2 and out == ""
    assert "x is not symmetric: max |V - V^T|" in err
    assert list(tmp_path.iterdir()) == []


# every command that needs a graphon asks one rule; before it, expect, sample and
# mc-expect accepted x*y+1e-6*x and power accepted 1+1e-9*x*y, which the sweep refused
_GRAPHON_COMMANDS = {
    "validate": ("validate",),
    "expect": ("expect", "--n", "2"),
    "sample": ("sample", "--n", "4"),
    "mc_expect": ("mc-expect", "--n", "4", "--draws", "2", "--out", "m.csv"),
    "power": ("power", "--k", "1", "--discretize", "2"),
    "sweep": ("sweep", "theorem", "--ns", "4", "--out", "r"),
}


@pytest.mark.parametrize("source, graphon", [
    (("--graphon-expr", "x"), False),
    (("--graphon-expr", "x*y+1e-6*x"), False),
    (("--graphon-expr", "1+1e-9*x*y"), False),
    (("--graphon-expr", "0.5+0.6*x*y"), False),
    (("--graphon-expr", "2*x*y"), False),
    (("--graphon-builtin", "minmax"), True),
], ids=["x", "x*y+1e-6*x", "1+1e-9*x*y", "0.5+0.6*x*y", "2*x*y", "minmax"])
def test_every_command_gives_one_verdict_on_a_kernel(tmp_path, monkeypatch, capsys,
                                                     source, graphon):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRAPHON_LAB_OUT", raising=False)
    if not graphon:  # refused before any cell or draw
        for target in ("graphonlab.sampling.cell_means", "graphonlab.sampling._row_blocks",
                       "graphonlab.algebra.cell_means"):
            monkeypatch.setattr(target, _refuse_to_draw)
    codes = {name: _exit_code([*argv, *source]) for name, argv in _GRAPHON_COMMANDS.items()}
    capsys.readouterr()
    refused = {name: 1 if name == "validate" else 2 for name in _GRAPHON_COMMANDS}
    assert codes == ({name: 0 for name in _GRAPHON_COMMANDS} if graphon else refused)
    if not graphon:
        assert list(tmp_path.iterdir()) == []


def test_power_of_a_kernel_above_1_is_refused(capsys):
    code, out, err = run(capsys, "power", "--graphon-expr", "2*x*y", "--k", "2",
                         "--discretize", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: 2*x*y is not in [0, 1]: W(")


# NumPy raises a MemoryError subclass naming the request when an array does not fit;
# the callee raises it here, so no test allocates a huge array
@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type "
     "float64", "Unable to allocate 74.5 GiB"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_2_without_a_traceback(monkeypatch, capsys, message, shown):
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("graphonlab.cli.validate_graphon", refuse)
    code, out, err = run(capsys, "validate", "--graphon-expr", "x*y", "--grid", "100000")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {shown}") and err.count("\n") == 1


# each exited 1 with a traceback: a path under a file, a directory where a file is read,
# and a step file that is not UTF-8 text
@pytest.mark.parametrize("argv", [
    ("expect", "--graphon-builtin", "minmax", "--n", "2", "--out", "afile/x.csv"),
    ("sweep", "counterexample", "--p", "0.5", "--ns", "4", "--draws", "1", "--out", "afile/r"),
    ("validate", "--graphon-step", "d.csv"),
    ("validate", "--config", "cfg.json"),
    ("validate", "--graphon-step", "bad.csv"),
], ids=["expect-out", "sweep-out", "step-dir", "config-dir", "step-not-text"])
def test_file_errors_exit_2_without_a_traceback(tmp_path, argv):
    (tmp_path / "afile").write_text("")
    (tmp_path / "d.csv").mkdir()
    (tmp_path / "cfg.json").mkdir()
    (tmp_path / "bad.csv").write_bytes(b"\xff")
    src = str(Path(gl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "graphonlab", *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr


# each printed cells in [0, 1], although the factor's W(1, 1) = 1.1: only the result
# was checked
@pytest.mark.parametrize("argv", [
    ("power", "--graphon-expr", "0.5+0.6*x*y", "--k", "2", "--discretize", "2"),
    ("product", "--graphon-expr", "0.5+0.6*x*y", "--with-expr", "0.5+0.6*x*y",
     "--discretize", "2"),
], ids=["power", "product"])
def test_product_and_power_refuse_a_factor_that_is_no_graphon(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: 0.5+0.6*x*y is not in [0, 1]: W(")


def test_validate_prints_a_value_above_1_in_full(capsys):
    code, out, _ = run(capsys, "validate", "--graphon-expr", "1+1e-9*x*y")
    assert code == 1 and out.startswith("FAIL 1+1e-9*x*y is not in [0, 1]: W(")
    assert float(out.rsplit("= ", 1)[1]) > 1.0


# each ran before the sweep modes took only the flags they read: a counterexample
# sweep ignored the kernel and k, a theorem sweep ignored draws and p
@pytest.mark.parametrize("mode, flag", [
    ("counterexample", ("--graphon-builtin", "minmax")),
    ("counterexample", ("--graphon-expr", "x*y")),
    ("counterexample", ("--graphon-step", "s.csv")),
    ("counterexample", ("--clamp",)),
    ("counterexample", ("--symmetrize",)),
    ("counterexample", ("--k", "3")),
    ("theorem", ("--draws", "1")),
    ("theorem", ("--p", "0.5")),
], ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"))
def test_sweep_modes_refuse_flags_they_do_not_read(tmp_path, monkeypatch, capsys, mode, flag):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("graphonlab.cli.run_theorem_sweep", _refuse_to_draw)
    monkeypatch.setattr("graphonlab.cli.run_counterexample_sweep", _refuse_to_draw)
    source = ("--graphon-builtin", "minmax") if mode == "theorem" else ()
    argv = ["sweep", mode, *source, "--ns", "4", "--out", "r", *flag]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    # the mode's own usage, which lists the flags it does take
    assert err.startswith(f"usage: graphon sweep {mode} [-h]")
    assert f"graphon sweep {mode}: error: unrecognized arguments: {' '.join(flag)}" in err
    assert list(tmp_path.iterdir()) == []


def test_step_file_without_a_known_suffix_names_the_suffixes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.txt").write_text(_S3)
    code, out, err = run(capsys, "expect", "--graphon-step", "m.txt", "--n", "2")
    assert code == 2 and out == ""
    assert err == "error: cannot infer matrix format from 'm.txt'; use a .csv or .json suffix\n"


_FOUR_STEP = "1,0.5,0.5,0\n0.5,1,0,0.5\n0.5,0,1,0.5\n0,0.5,0.5,1\n"


# each exited 1 with an OverflowError traceback: 4^(k-1) passes the float range at k = 513
@pytest.mark.parametrize("argv", [
    ("power", "--graphon-step", "four.csv", "--k", "513"),
    ("sweep", "theorem", "--graphon-step", "four.csv", "--k", "600", "--ns", "4", "--out", "r"),
], ids=["power", "sweep"])
def test_step_power_whose_scale_overflows_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "four.csv").write_text(_FOUR_STEP)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    k = argv[argv.index("--k") + 1]
    assert err == f"error: power k={k} of an n=4 step: n^(k-1) overflows a float\n"
    code, out, _ = run(capsys, "power", "--graphon-step", "four.csv", "--k", "512")
    assert code == 0 and len(out.splitlines()) == 4  # the largest k whose scale is finite


# past the bound each exited 1 with a RecursionError traceback; a child process runs the
# CLI with the stack it has outside a test runner. The grids are 4 to 64 points a side.
@pytest.mark.parametrize("argv", [
    ("power", "--graphon-builtin", "minmax", "--discretize", "4", "--grid", "4"),
    ("sweep", "theorem", "--graphon-builtin", "minmax", "--ns", "2", "--grid", "4",
     "--out", "r"),
], ids=["power", "sweep"])
@pytest.mark.parametrize("k", [MAX_LAZY_POWER, MAX_LAZY_POWER + 1])
def test_lazy_power_past_its_depth_bound_exits_2(tmp_path, argv, k):
    src = str(Path(gl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "graphonlab", *argv, "--k", str(k)],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    if k == MAX_LAZY_POWER:
        assert run.returncode == 0 and run.stderr == ""
        return
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == (
        f"error: lazy power k={k} of minmax: at most k={MAX_LAZY_POWER}, the deepest product "
        "chain that evaluates within Python's recursion limit\n"
    )


def test_main_builds_no_parser_after_its_first_call(monkeypatch, capsys):
    import argparse
    assert main(["validate", "--graphon-builtin", "minmax"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    assert main(["validate", "--graphon-builtin", "minmax"]) == 0
    with pytest.raises(SystemExit):  # a refused flag leaves the parser as it was
        main(["validate", "--graphon-builtin", "minmax", "--no-such-flag"])
    assert main(["validate", "--graphon-builtin", "product", "--seed", "3"]) == 0
    assert built == []


# each command's check for a missing input, pinned by one input: exit 2 and one error line
@pytest.mark.parametrize("argv, message", [
    (("sample", "--graphon-builtin", "minmax"), "missing required option --n"),
    (("product", "--graphon-builtin", "minmax"),
     "product needs a second kernel (--with-builtin/expr/step)"),
    (("norm", "--l1", "--graphon-builtin", "minmax"),
     "--l1 needs a second kernel (--with-builtin/expr/step)"),
    (("norm", "--cut", "--graphon-step", "{a}", "--with-step", "{b}"),
     "--cut with --with needs two step kernels on one grid"),
    (("sweep", "theorem", "--graphon-builtin", "minmax", "--out", "{r}"), "missing --ns"),
], ids=["sample-n", "product-with", "l1-with", "cut-two-grids", "sweep-ns"])
def test_a_missing_input_exits_2_with_its_message(tmp_path, capsys, argv, message):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("0,1\n1,0\n")
    b.write_text("0,0,0\n0,0,0\n0,0,0\n")
    argv = [arg.format(a=a, b=b, r=tmp_path / "r") for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


def test_python_m_graphonlab_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["graphonlab", "sample", "--graphon-builtin", "minmax"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("graphonlab", run_name="__main__")
    assert info.value.code == 2
    assert capsys.readouterr().err == "error: missing required option --n\n"

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
import graphonlab.io as glio
from graphonlab.cli import main


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
    assert code == 2 and "edge probability of pair (" in err and "nan" in err
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
    "power_expr": "4504bfafa622a937165ffe97ab11e3d10f1eb642eab2288b7f07a1c267f46b50",
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
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA[name]


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
# branches of a step kernel, against a second step and written to a file
_H3 = "0.5,0.5,0.5\n0.5,0.5,0.5\n0.5,0.5,0.5\n"
STEP_PATH_SHA = {
    "power_discretize": "5527adbbeeb7280c1ab7d2e445e6410dd53a61f86a0980aab3ea8712b10bf8e9",
    "cut_with_step": "db51f7ecf317a2333c94a510d48598979df09a61311401772e598f6c7b0eaed1",
    "cut_out": "aecd7d85f8f33c7caabf2bb45adebb81336d7bb2abc71784873039e17eb740f2",
}
CUT_FILE_SHA = "9b4f1be64e89ca6c53c3a1061a0f8f374b466f3d7131616d636014aa9275950e"


@pytest.mark.parametrize("name", sorted(STEP_PATH_SHA))
def test_step_kernel_paths_match_golden_bytes(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRAPHON_LAB_OUT", raising=False)
    (tmp_path / "s3.csv").write_text(_S3)
    (tmp_path / "h3.csv").write_text(_H3)
    argv = {
        "power_discretize": ("power", "--graphon-step", "s3.csv", "--k", "2", "--discretize", "2"),
        "cut_with_step": ("norm", "--cut", "--graphon-step", "s3.csv", "--with-step", "h3.csv"),
        "cut_out": ("norm", "--cut", "--graphon-step", "s3.csv", "--out", "cut.json"),
    }[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STEP_PATH_SHA[name]
    if name == "cut_out":
        assert hashlib.sha256((tmp_path / "cut.json").read_bytes()).hexdigest() == CUT_FILE_SHA


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
    assert _exit_code(["validate", f"{flag}={text}", "--samples", "4"]) in (0, 1, 2)


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

import hashlib
import json

import numpy as np
import pytest

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

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
import graphonlab.io as glio
from graphonlab.errors import ValidationError
from conftest import random_step


def test_csv_round_trip_simple(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0,1\n1,0\n")
    s = glio.load_step_matrix(p)
    assert s.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_csv_asymmetric_reports_indices(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0,1\n0,0\n")
    with pytest.raises(ValidationError, match=r"\(1,2\)/\(2,1\)"):
        glio.load_step_matrix(p)


def test_csv_asymmetric_reports_the_first_pair_across_tiles(tmp_path):
    m = np.zeros((300, 300))
    m[200, 150] = 0.5  # below the diagonal: named as (col, row), which comes first
    m[250, 4] = 0.5  # an earlier row of the transpose still
    p = tmp_path / "m.csv"
    p.write_text("\n".join(",".join(f"{v:g}" for v in row) for row in m) + "\n")
    with pytest.raises(ValidationError, match=r"^matrix not symmetric at \(5,251\)/\(251,5\)$"):
        glio.load_step_matrix(p)


def test_csv_ragged_names_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0,1\n1\n")
    with pytest.raises(ValidationError, match="row 2"):
        glio.load_step_matrix(p)


def test_csv_parse_error_has_line_number(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0,1\n1,zero\n")
    with pytest.raises(ValidationError, match="m.csv:2"):
        glio.load_step_matrix(p)


def test_csv_nan_is_reported_as_non_finite(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("0.1,nan\nnan,0.2\n")
    with pytest.raises(ValidationError, match=r"nan.csv: non-finite entry at \(1,2\)"):
        glio.load_step_matrix(p)


@pytest.mark.parametrize("text", [
    '{"n": 2, "values": [["a", 0.1], [0.1, 0.2]]}',
    '{"n": 2, "values": [[null, 0.1], [0.1, 0.2]]}',
    '{"n": 2, "values": [[[0.0], 0.1], [0.1, 0.2]]}',
    '{"n": 2, "values": [0.1, 0.2]}',
    '{"values": []}',
    '{"n": 2, "values": [[0.0, 0.1], [0.1, 0.2]',
])
def test_json_bad_matrix_names_file(tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(ValidationError, match="bad.json"):
        glio.load_step_matrix(p)


def test_json_non_finite_entry(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"values": [[0.1, NaN], [NaN, 0.2]]}')
    with pytest.raises(ValidationError, match="non-finite"):
        glio.load_step_matrix(p)


def test_malformed_config_names_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"ns": [4, 8')
    with pytest.raises(ValidationError, match="cfg.json: malformed JSON"):
        glio.load_config(p)


@pytest.mark.parametrize("field,value", [
    ("ns", ["x"]), ("ns", [4, 8.5]), ("ns", 8), ("p", "0.5"), ("k", "2"), ("k", True),
    ("k", None), ("grid", 256.0), ("tol", "1e-4"), ("seed", False), ("builtin", 3),
    ("formats", "csv"),
])
def test_config_field_of_wrong_type_names_file_and_field(tmp_path, field, value):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({field: value}))
    with pytest.raises(ValidationError, match=f"cfg.json: config field '{field}' must be"):
        glio.load_config(p)


def test_config_accepts_every_field_type(tmp_path):
    p = tmp_path / "cfg.json"
    doc = {"expr": "x*y", "ns": [4, 8], "n": None, "k": 2, "draws": 3, "seed": -1,
           "p": 0.25, "grid": 64, "tol": 1, "max_refinements": 2, "out": "o",
           "formats": ["csv", "svg"]}
    p.write_text(json.dumps(doc))
    cfg = glio.load_config(p)
    assert all(getattr(cfg, name) == value for name, value in doc.items())


def test_config_float_fields_hold_floats(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"tol": 1, "p": 0}))
    cfg = glio.load_config(p)
    assert type(cfg.tol) is float and type(cfg.p) is float
    assert (cfg.tol, cfg.p) == (1.0, 0.0)
    p.write_text(json.dumps({"tol": 10**400}))
    with pytest.raises(ValidationError, match="cfg.json: config field 'tol' must be"):
        glio.load_config(p)


def test_range_violation(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0,0.5\n0.5,0\n")
    # the range [0,1] accepts it
    assert glio.load_step_matrix(p).values[0, 1] == 0.5
    two = tmp_path / "m2.csv"
    two.write_text("0,2\n2,0\n")
    with pytest.raises(ValidationError, match="outside"):
        glio.load_step_matrix(two)


def test_json_round_trip(tmp_path):
    s = random_step(4, key=1, signed=False)
    p = glio.save_step_matrix(s, tmp_path / "m.json")
    back = glio.load_step_matrix(p)
    assert np.array_equal(back.values, s.values)


def test_json_declared_n_mismatch(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"n": 3, "values": [[0.0]]}')
    with pytest.raises(ValidationError, match="n=3"):
        glio.load_step_matrix(p)


@given(key=st.integers(0, 2**32), n=st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_csv_floats_roundtrip_bitfaithfully(key, n):
    s = random_step(n, key, signed=False)
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as d:
        p = glio.save_step_matrix(s, pathlib.Path(d) / "m.csv")
        back = glio.load_step_matrix(p)
    assert np.array_equal(back.values, s.values)


def test_graph_round_trip(tmp_path):
    g = gl.SimpleGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
    p = glio.save_graph(g, tmp_path / "k3.txt")
    assert glio.load_graph(p).edges == g.edges
    assert p.read_text().splitlines()[0] == "n=3"


@pytest.mark.parametrize("chunk", [1, 2, 4, 5, 1 << 16])
def test_graph_text_is_the_same_in_every_chunk_size(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(glio, "_EDGE_CHUNK", chunk)
    g = gl.SimpleGraph(4, [(2, 3), (0, 1), (1, 3), (0, 3), (1, 2)])
    want = "n=4\n0 1\n0 3\n1 2\n1 3\n2 3\n"
    assert glio.save_graph(g, tmp_path / "g.txt").read_text() == want
    out = io.StringIO()
    glio.write_graph(g, out)
    assert out.getvalue() == want
    assert glio.save_graph(gl.SimpleGraph(3, []), tmp_path / "e.txt").read_text() == "n=3\n"


def test_graph_self_loop(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("n=3\n2 2\n")
    with pytest.raises(glio.SelfLoopError):
        glio.load_graph(p)


def test_graph_vertex_range(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("n=5\n0 7\n")
    with pytest.raises(glio.VertexRangeError):
        glio.load_graph(p)


def test_graph_duplicate_edge(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("n=3\n0 1\n1 0\n")
    with pytest.raises(glio.DuplicateEdgeError):
        glio.load_graph(p)


def test_graph_header_required(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    with pytest.raises(glio.GraphFormatError):
        glio.load_graph(p)


def test_files_that_are_not_text_name_themselves(tmp_path):
    (tmp_path / "g.txt").write_bytes(b"n=2\n0 1\xff\n")
    (tmp_path / "m.csv").write_bytes(b"\xff")
    with pytest.raises(glio.GraphFormatError, match="^g.txt: not a text file: "):
        glio.load_graph(tmp_path / "g.txt")
    with pytest.raises(ValidationError, match="^m.csv: not a text file: "):
        glio.load_step_matrix(tmp_path / "m.csv")


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHON_LAB_OUT", str(tmp_path / "outputs"))
    s = random_step(2, key=5, signed=False)
    p = glio.save_step_matrix(s, "m.csv")
    assert p == tmp_path / "outputs" / "m.csv"
    assert p.exists()


def test_config_load_and_validation(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"builtin": "constant:0.5", "ns": [4, 8], "seed": 3}')
    cfg = glio.load_config(p)
    assert cfg.builtin == "constant:0.5" and cfg.ns == [4, 8] and cfg.seed == 3

    p.write_text('{"builtin": "product", "expr": "x*y"}')
    with pytest.raises(ValidationError, match="more than one"):
        glio.load_config(p)

    p.write_text('{"unknown_field": 1}')
    with pytest.raises(ValidationError, match="unknown config fields"):
        glio.load_config(p)

    p.write_text('{"step_file": "/nonexistent/m.csv"}')
    with pytest.raises(ValidationError, match="not found"):
        glio.load_config(p)


# each loader branch pinned by one input: the error type and the whole message
@pytest.mark.parametrize("name, text, error, message", [
    ("m.csv", None, ValidationError, "matrix file not found: {p}"),
    ("m.csv", "\n \n", ValidationError, "m.csv: empty matrix file"),
    ("m.json", '[[0.5]]', ValidationError, "m.json: expected an object with a 'values' field"),
    ("m.json", '{"n": 1}', ValidationError, "m.json: expected an object with a 'values' field"),
    ("g.txt", None, glio.GraphFormatError, "graph file not found: {p}"),
    ("g.txt", "n=abc\n", glio.GraphFormatError, "g.txt: bad vertex count 'abc'"),
    ("g.txt", "n=0\n", glio.GraphFormatError, "g.txt: vertex count must be positive"),
    ("g.txt", "n=3\n0 1 2\n", glio.GraphFormatError, "g.txt:2: expected 'u v', got '0 1 2'"),
    ("g.txt", "n=3\n0 x\n", glio.GraphFormatError, "g.txt:2: non-integer vertex"),
    ("c.json", None, ValidationError, "config file not found: {p}"),
    ("c.json", "[1, 2]", ValidationError, "c.json: config must be a JSON object"),
], ids=["matrix-missing", "csv-blank", "json-list", "json-no-values", "graph-missing",
        "graph-bad-count", "graph-zero-count", "graph-three-fields", "graph-non-integer",
        "config-missing", "config-list"])
def test_loaders_refuse_each_bad_file_with_its_message(tmp_path, name, text, error, message):
    p = tmp_path / name
    if text is not None:
        p.write_text(text)
    load = {"m": glio.load_step_matrix, "g": glio.load_graph, "c": glio.load_config}[name[0]]
    with pytest.raises(error) as info:
        load(p)
    assert type(info.value) is error and str(info.value) == message.format(p=p)


def test_csv_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("\n0,0.5\n  \n0.5,0\n\n")
    assert glio.load_step_matrix(p).values.tolist() == [[0.0, 0.5], [0.5, 0.0]]

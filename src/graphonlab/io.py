"""File formats: step-matrix CSV/JSON, graph edge lists, experiment configs.

Matrix decimals are serialized with 17 significant digits so doubles
round-trip bit-faithfully. Loading always validates at the boundary; no
object violating a core invariant can be constructed from a file. The
environment variable GRAPHON_LAB_OUT sets the default output directory for
relative paths.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .algebra import QuadratureSpec
from .core import SimpleGraph, StepGraphon, is_symmetric
from .errors import ValidationError


class GraphFormatError(ValidationError):
    pass


class SelfLoopError(GraphFormatError):
    pass


class DuplicateEdgeError(GraphFormatError):
    pass


class VertexRangeError(GraphFormatError):
    pass


def fmt_float(v: float) -> str:
    return f"{v:.17g}"


def default_out_dir() -> Path:
    return Path(os.environ.get("GRAPHON_LAB_OUT", "."))


def resolve_out(path) -> Path:
    p = Path(path)
    if not p.is_absolute():
        p = default_out_dir() / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _detect_format(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in ("csv", "json"):
        return suffix
    raise ValidationError(f"cannot infer matrix format from '{path.name}'; use a .csv or .json suffix")


def save_step_matrix(step: StepGraphon, path) -> Path:
    """Write the step's matrix as CSV or JSON, by the file suffix."""
    if _detect_format(Path(path)) == "csv":
        return save_matrix(step.values, path)
    p = resolve_out(path)
    doc = {"n": step.n, "values": [[float(v) for v in row] for row in step.values]}
    p.write_text(json.dumps(doc, indent=2) + "\n")
    return p


def save_matrix(values: np.ndarray, path) -> Path:
    """Plain CSV of a matrix: a step's values, or standard errors."""
    p = resolve_out(path)
    lines = [",".join(fmt_float(v) for v in row) for row in np.asarray(values)]
    p.write_text("\n".join(lines) + "\n")
    return p


def _read_text(p: Path, error=ValidationError) -> str:
    try:
        return p.read_text()
    except UnicodeDecodeError as exc:
        raise error(f"{p.name}: not a text file: {exc}") from None


def _matrix_from_rows(rows, name: str) -> StepGraphon:
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"ragged matrix: row {i + 1} has {len(row)} of {n} entries")
    try:
        m = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: {exc}") from None
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValidationError(f"{name}: non-finite entry at ({i + 1},{j + 1})")
    if not is_symmetric(m):
        i, j = np.argwhere(m != m.T)[0]
        raise ValidationError(f"matrix not symmetric at ({i + 1},{j + 1})/({j + 1},{i + 1})")
    if m.min() < 0.0 or m.max() > 1.0:
        raise ValidationError("matrix entries outside [0.0, 1.0]")
    return StepGraphon(n, m, 0.0, 1.0)


def load_step_matrix(path) -> StepGraphon:
    """A graphon step read from CSV or JSON, by the file suffix, with entries in [0, 1]."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"matrix file not found: {p}")
    if _detect_format(p) == "csv":
        rows = []
        for lineno, line in enumerate(_read_text(p).splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValidationError(f"{p.name}:{lineno}: {exc}") from None
        if not rows:
            raise ValidationError(f"{p.name}: empty matrix file")
        return _matrix_from_rows(rows, p.name)
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:
        raise ValidationError(f"{p.name}: malformed JSON: {exc}") from None
    if not isinstance(doc, dict) or "values" not in doc:
        raise ValidationError(f"{p.name}: expected an object with a 'values' field")
    rows = doc["values"]
    if not isinstance(rows, list) or not rows or not all(isinstance(row, list) for row in rows):
        raise ValidationError(f"{p.name}: 'values' must be a non-empty list of rows")
    if "n" in doc and doc["n"] != len(rows):
        raise ValidationError(f"{p.name}: declared n={doc['n']} but {len(rows)} rows present")
    return _matrix_from_rows(rows, p.name)


# ---------------------------------------------------------------------------
# Graph edge-list format
# ---------------------------------------------------------------------------


_EDGE_CHUNK = 1 << 16  # edges formatted per write


def write_graph(g: SimpleGraph, out) -> None:
    """The edge list of g to the text stream ``out``: an ``n=<count>`` line, then one
    ``u v`` line per edge, formatted and written _EDGE_CHUNK edges at a time."""
    out.write(f"n={g.n}\n")
    for lo in range(0, g.edge_count, _EDGE_CHUNK):
        out.write("".join(f"{u} {v}\n" for u, v in g.pairs[lo : lo + _EDGE_CHUNK].tolist()))


def save_graph(g: SimpleGraph, path) -> Path:
    p = resolve_out(path)
    with p.open("w") as f:
        write_graph(g, f)
    return p


def load_graph(path) -> SimpleGraph:
    """Public because it reads back the edge list that `sample --out` writes."""
    p = Path(path)
    if not p.exists():
        raise GraphFormatError(f"graph file not found: {p}")
    lines = [ln for ln in _read_text(p, GraphFormatError).splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise GraphFormatError(f"{p.name}: missing 'n=<count>' header")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise GraphFormatError(f"{p.name}: bad vertex count {lines[0][2:]!r}") from None
    if n < 1:
        raise GraphFormatError(f"{p.name}: vertex count must be positive")
    edges = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{p.name}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"{p.name}:{lineno}: non-integer vertex") from None
        if u == v:
            raise SelfLoopError(f"{p.name}:{lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"{p.name}:{lineno}: vertex out of range for n={n}")
        e = (min(u, v), max(u, v))
        if e in edges:
            raise DuplicateEdgeError(f"{p.name}:{lineno}: duplicate edge {e}")
        edges.add(e)
    return SimpleGraph(n, edges)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Settings of a run: the --config file's fields, each also set by the CLI flag
    stored under the field's name; flags override file values."""

    builtin: Optional[str] = None
    expr: Optional[str] = None
    step_file: Optional[str] = None
    ns: list[int] = field(default_factory=list)
    n: Optional[int] = None
    k: int = 1
    draws: int = 20
    seed: int = 0
    p: Optional[float] = None
    grid: int = QuadratureSpec.base_grid
    tol: float = QuadratureSpec.tol
    max_refinements: int = QuadratureSpec.max_refinements
    out: Optional[str] = None
    formats: list[str] = field(default_factory=lambda: ["csv", "json"])

    def graphon_sources(self) -> list:
        return [s for s in (self.builtin, self.expr, self.step_file) if s]


_CONFIG_FIELDS = ExperimentConfig.__dataclass_fields__
_CONFIG_TYPES = get_type_hints(ExperimentConfig)
_FLOAT_FIELDS = {name for name, tp in _CONFIG_TYPES.items() if float in (tp, *get_args(tp))}


def _has_type(value, tp) -> bool:
    """JSON value check against a config annotation; bool is not an int."""
    origin = get_origin(tp)
    if origin is Union:
        return any(_has_type(value, arg) for arg in get_args(tp))
    if origin is list:
        (item,) = get_args(tp)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if tp is type(None):
        return value is None
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        # an int is stored as a float, so it must convert without overflow
        return isinstance(value, float) or (
            isinstance(value, int) and abs(value) <= sys.float_info.max
        )
    return isinstance(value, tp)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:
        raise ValidationError(f"{p.name}: malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{p.name}: config must be a JSON object")
    unknown = doc.keys() - _CONFIG_FIELDS.keys()
    if unknown:
        raise ValidationError(f"{p.name}: unknown config fields {sorted(unknown)}")
    for name, value in doc.items():
        if not _has_type(value, _CONFIG_TYPES[name]):
            raise ValidationError(
                f"{p.name}: config field '{name}' must be {_CONFIG_FIELDS[name].type}, "
                f"got {json.dumps(value)}"
            )
        if name in _FLOAT_FIELDS and value is not None:
            doc[name] = float(value)  # a JSON int is stored as the float a flag gives
    cfg = ExperimentConfig(**doc)
    if len(cfg.graphon_sources()) > 1:
        raise ValidationError(f"{p.name}: more than one graphon source present")
    if cfg.step_file and not Path(cfg.step_file).exists():
        raise ValidationError(f"{p.name}: referenced step file not found: {cfg.step_file}")
    return cfg

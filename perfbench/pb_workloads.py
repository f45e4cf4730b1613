"""The three benchmark workloads, one op each, and the checks on their outputs.

Why these three (see BENCHMARK.json): together they drive the ``sampling``
layer two ways, many tiny draws (ce-exact) and one bulk draw (graph-large),
and the ``norms`` layer two ways, exact enumeration (ce-exact) and the
alternating-maximization heuristic (theorem-large). A gain for one use that
costs the other shows on the other workload.

* ce-exact: the paper's ER counterexample sweep through the CLI. Nearly all
  of its time is exact cut-norm enumeration over 100 small graph draws.
* theorem-large: the theorem sweep with k = 2 at n = 64..1024, all past the
  enumeration cap: heuristic cut norms, limit-distance quadrature, lazy
  product matmuls, ``cell_means`` and sampling up to n = 1024.
* graph-large: sample latents, sample a graph and build its canonical
  graphon at n = 2048; no norms and no quadrature.

Op ``i`` of every workload uses its own seed ``op_seed(S, i)``, derived from
the workload seed S. The heuristic cut norm's work depends on the sampled
graph, so a fixed seed per run would make op time a property of the seed; a
fresh seed per op makes each run's median average over graphs. The checks
are pure functions of parsed outputs, so tests can feed them corrupted data.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
FORMATS = ("csv", "json", "svg")

CE_P = 0.5
CE_NS = (4, 8, 12, 16, 20)
CE_DRAWS = 20
THEOREM_EXPR = "min(x,y)*(1-max(x,y))"
THEOREM_K = 2
THEOREM_NS = (64, 128, 256, 512, 1024)
GRAPH_N = 2048
GRAPH_BUILTIN = "minmax"
GRAPH_DENSITY = 1.0 / 12.0  # integral of min(x,y)(1-max(x,y)) over the unit square
GRAPH_DENSITY_TOL = 0.002


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` under workload seed ``seed``: a 63-bit hash of both."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ---------------------------------------------------------------------------
# Output checks (each returns a list of problems; empty means correct)
# ---------------------------------------------------------------------------


def _rows_problems(doc: dict, kind: str, ns) -> list:
    if doc.get("kind") != kind:
        return [f"report kind {doc.get('kind')!r}, expected {kind!r}"]
    if doc.get("incomplete"):
        return ["report marked incomplete"]
    got = [row.get("n") for row in doc.get("rows", [])]
    if got != list(ns):
        return [f"report rows n={got}, expected {list(ns)}"]
    return []


def check_counterexample(doc: dict, p: float = CE_P, ns=CE_NS) -> list:
    """ER rows: l1_expected = p/n, l1_sampled = 1/2 exactly, 0 < cut <= l1_sampled.

    At p = 1/2 every cell of |A - p| is 1/2, so the sampled L1 distance is
    exactly 1/2 whatever the draw.
    """
    problems = _rows_problems(doc, "counterexample", ns)
    if problems:
        return problems
    for row in doc["rows"]:
        n = row["n"]
        exp, l1, cut = (
            row["l1_expected_vs_limit"],
            row["l1_sampled_vs_limit"],
            row["cutnorm_sampled_vs_limit"],
        )
        if exp != p / n:
            problems.append(f"n={n}: l1_expected {exp!r} != p/n = {p / n!r}")
        if l1 != 0.5:
            problems.append(f"n={n}: l1_sampled {l1!r} != 0.5")
        if cut is None or not (0.0 < cut <= l1):
            problems.append(f"n={n}: cut {cut!r} not in (0, l1_sampled]")
    return problems


def check_theorem(doc: dict, k: int = THEOREM_K, ns=THEOREM_NS) -> list:
    """e_n strictly decreases along doubling n and stays below k(sqrt 2 + 1)/n."""
    problems = _rows_problems(doc, "theorem", ns)
    if problems:
        return problems
    e = [row["l1_expected_vs_limit"] for row in doc["rows"]]
    for row, en in zip(doc["rows"], e):
        bound = k * (math.sqrt(2.0) + 1.0) / row["n"]
        if en is None or not (0.0 <= en <= bound):
            problems.append(f"n={row['n']}: e_n {en!r} outside [0, {bound!r}]")
    if not problems and any(b >= a for a, b in zip(e, e[1:])):
        problems.append(f"e_n not strictly decreasing: {e}")
    return problems


def check_graph(values: np.ndarray, edge_count: int, n: int = GRAPH_N) -> list:
    """Canonical graphon is 0/1, symmetric, zero-diagonal, matches the edge count
    and has edge density within GRAPH_DENSITY_TOL of the graphon's integral."""
    problems = []
    if values.shape != (n, n):
        return [f"canonical graphon has shape {values.shape}, expected ({n}, {n})"]
    if not np.all((values == 0.0) | (values == 1.0)):
        problems.append("canonical graphon has entries other than 0 and 1")
    if not np.array_equal(values, values.T):
        problems.append("canonical graphon is not symmetric")
    if np.any(np.diagonal(values) != 0.0):
        problems.append("canonical graphon has a nonzero diagonal")
    ones = int(values.sum())
    if ones != 2 * edge_count:
        problems.append(f"edge count {edge_count} but {ones} ones in the adjacency")
    density = edge_count / (n * (n - 1) / 2)
    if abs(density - GRAPH_DENSITY) > GRAPH_DENSITY_TOL:
        problems.append(f"edge density {density!r} not within {GRAPH_DENSITY_TOL} of 1/12")
    return problems


def check_reference(workload: str, index: int, digest, reference: dict) -> list:
    """Compare op ``index``'s output digest with the one recorded at the default
    seed; ops past the end of the recording are not compared."""
    expected = reference.get(workload)
    if expected is None:
        return [f"no reference recorded for {workload}"]
    if index < len(expected) and digest != expected[index]:
        return [f"op {index}: output digest differs from the reference"]
    return []


# ---------------------------------------------------------------------------
# Workloads: run(i) performs op i; check(i, output) -> (problems, digest)
# ---------------------------------------------------------------------------


class _Sweep:
    def __init__(self, gl, seed: int, workdir: Path):
        self.gl = gl
        self.seed = seed
        self.base = workdir / "report"

    def run(self, index: int):
        argv = self.argv + ["--seed", str(op_seed(self.seed, index)),
                            "--format", ",".join(FORMATS), "--out", str(self.base)]
        return self.gl.cli.main(argv)

    def check(self, index: int, rc):
        if rc != 0:
            return [f"cli exited {rc}"], None
        try:
            data = {fmt: self.base.with_suffix("." + fmt).read_bytes() for fmt in FORMATS}
            doc = json.loads(data["json"])
        except (OSError, ValueError) as exc:
            return [f"report unreadable: {exc}"], None
        digest = {fmt: sha256(data[fmt]) for fmt in FORMATS}
        return self.check_doc(doc), digest


class CeExact(_Sweep):
    argv = ["sweep", "counterexample", "--p", repr(CE_P), "--ns", ",".join(map(str, CE_NS)),
            "--draws", str(CE_DRAWS)]

    def check_doc(self, doc):
        return check_counterexample(doc)


class TheoremLarge(_Sweep):
    argv = ["sweep", "theorem", "--graphon-expr", THEOREM_EXPR, "--k", str(THEOREM_K),
            "--ns", ",".join(map(str, THEOREM_NS))]

    def check_doc(self, doc):
        return check_theorem(doc)


class GraphLarge:
    def __init__(self, gl, seed: int, workdir: Path):
        self.gl = gl
        self.seed = seed
        self.w = gl.core.builtin(GRAPH_BUILTIN)

    def run(self, index: int):
        sampling, core = self.gl.sampling, self.gl.core
        cfg = sampling.SamplerConfig(GRAPH_N, op_seed(self.seed, index), self.w)
        g = sampling.sample_graph(cfg, sampling.sample_latents(cfg))
        return g, core.canonical_graphon(g)

    def check(self, index: int, output):
        g, canon = output
        edges = np.array(sorted(g.edges), dtype=np.int64)
        return check_graph(canon.values, g.edge_count), sha256(edges.tobytes())


WORKLOADS = {"ce-exact": CeExact, "theorem-large": TheoremLarge, "graph-large": GraphLarge}

"""Every call site the benchmark's tracer wraps must still exist.

``perfbench/pb_trace.install`` skips a missing site instead of failing, so a
refactor that renames or removes one would silently drop a per-layer metric.
This checks the site list without installing the tracer.
"""

import inspect
import sys
from pathlib import Path

import pytest

import graphonlab as gl
from graphonlab.algebra import midpoints

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import pb_trace  # noqa: E402

SITES = [(owner, attr) for owner, attr, *_ in pb_trace._targets()]


@pytest.mark.parametrize(
    "owner, attr", SITES, ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in SITES]
)
def test_trace_site_exists(owner, attr):
    assert attr in vars(owner)


def _product_counts(kernel, xs, ys, gz):
    """Flops and largest grid that the tracer's product counter reads off one call."""
    args = (kernel, xs, ys, gz)
    inspect.signature(gl.ProductGraphon.eval_grid).bind(*args)  # gz stays positional
    tr = pb_trace.Tracer()
    pb_trace._count_product(tr, args, {})
    return tr.counts["algebra.product_eval.flops"], tr.grid_bytes_max


def test_product_counter_reads_lazy_and_step_products():
    xs, ys, gz = midpoints(8), midpoints(4), 16
    lazy = gl.power(gl.builtin("minmax"), 2)
    assert _product_counts(lazy, xs, ys, gz) == (2 * 8 * gz * 4, 8 * 8 * 4)
    s = gl.StepGraphon(3, [[0.1, 0.2, 0.9], [0.2, 0.4, 0.5], [0.9, 0.5, 0.7]])
    step = gl.product(s, s)
    asym = gl.product(s, gl.StepGraphon(2, [[0.5, 0.25], [0.25, 1.0]]))
    assert step.step is not None and asym.asym_values is not None
    for kernel in (step, asym):
        assert _product_counts(kernel, xs, ys, gz) == (0, 8 * 8 * 4)


def test_grid_counter_counts_grids_under_cell_means_only():
    w, xs = gl.builtin("minmax"), midpoints(8)
    tr = pb_trace.Tracer()
    pb_trace._count_grid(tr, (w, xs, xs, 8), {})  # outside any algebra span
    assert tr.grid_bytes_max == 0 and tr.counts["algebra.cell_means.grids"] == 0
    count = tr.wrap(lambda: pb_trace._count_grid(tr, (w, xs, xs, 8), {}),
                    "algebra.cell_means", "algebra")
    count()
    assert tr.grid_bytes_max == 8 * 8 * 8 and tr.counts["algebra.cell_means.grids"] == 1

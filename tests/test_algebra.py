import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphonlab as gl
from graphonlab.algebra import (
    LCM_GRID_CAP, _clip_to, block_means, ceil_to_multiple, cell_means, grain_of, midpoints,
    settle, validate_graphon,
)
from graphonlab.algebra import MAX_LAZY_POWER, _matmul, _matrix_power, _row_means
from graphonlab.core import as_kernel, asymmetry, is_symmetric
from graphonlab.errors import QuadratureError, ValidationError
from conftest import blas_family, brute_force_product_cell, random_step


def test_quadrature_spec_validation():
    with pytest.raises(ValidationError):
        gl.QuadratureSpec(base_grid=1)
    with pytest.raises(ValidationError):
        gl.QuadratureSpec(tol=0.0)
    with pytest.raises(ValidationError) as info:
        gl.QuadratureSpec(max_refinements=-1)
    assert str(info.value) == "max_refinements must be >= 0"


def test_power_refuses_an_exponent_below_1():
    with pytest.raises(ValidationError) as info:
        gl.power(gl.builtin("minmax"), 0)
    assert str(info.value) == "power exponent must be >= 1"


def test_ceil_to_multiple():
    assert ceil_to_multiple(256, 1) == 256
    assert ceil_to_multiple(256, 48) == 288
    assert ceil_to_multiple(5, 5) == 5


def test_integrate_constant_is_exact():
    # midpoint is grid-independent for constants; only summation ulps remain
    res = gl.integrate2d(lambda x, y: np.full(np.broadcast(x, y).shape, 0.37), gl.QuadratureSpec())
    assert res.value == pytest.approx(0.37, abs=1e-15)
    assert res.error <= 1e-15
    assert res.refinements == 1


def test_integrate_bilinear():
    res = gl.integrate2d(lambda x, y: x * y, gl.QuadratureSpec())
    assert res.value == pytest.approx(0.25, abs=1e-12)


def test_integrate_step_matrix():
    s = gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]])
    res = gl.integrate2d(s, gl.QuadratureSpec())
    assert res.value == pytest.approx(0.5, abs=1e-15)
    # odd block counts still integrate exactly thanks to grid alignment
    s3 = gl.StepGraphon(3, np.array([[0.1, 0.2, 0.9], [0.2, 0.4, 0.5], [0.9, 0.5, 0.7]]))
    res3 = gl.integrate2d(s3, gl.QuadratureSpec())
    assert res3.value == pytest.approx(s3.values.mean(), abs=1e-15)


def test_integrate_scalar_callable_fallback():
    def f(x, y):
        if not np.isscalar(x) and getattr(x, "shape", ()) != ():
            raise TypeError("scalar only")
        return 1.0 if x < 0.5 else 0.0

    res = gl.integrate2d(f, gl.QuadratureSpec(base_grid=8, tol=1e-9))
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_integrate_nonconvergence_raises():
    q = gl.QuadratureSpec(base_grid=4, max_refinements=1, tol=1e-15)
    with pytest.raises(QuadratureError) as err:
        gl.integrate2d(lambda x, y: np.sqrt(x * y + 1e-9), q)
    assert err.value.last_estimates is not None


def test_product_of_constants():
    r = gl.product(gl.constant(0.6), gl.constant(0.5))
    step = r.step
    assert step is not None and step.n == 1
    assert step.values[0, 0] == pytest.approx(0.3, abs=1e-15)
    assert isinstance(r, gl.StepGraphon)


def test_product_of_product_kernel_pointwise():
    w = gl.builtin("product")
    r = gl.product(w, w)
    assert r.step is None
    validate_graphon(r, gl.QuadratureSpec())  # a self-product of a graphon passes
    for x, y in [(0.5, 0.5), (0.2, 0.9), (1.0, 1.0)]:
        assert gl.evaluate(r, x, y) == pytest.approx(x * y / 3.0, abs=1e-6)


def test_step_product_example():
    s = gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]])
    r = gl.product(s, s)
    assert r.step.values.tolist() == [[0.5, 0.0], [0.0, 0.5]]


def test_step_product_unequal_grids_uses_lcm():
    a = random_step(2, key=1, signed=False)
    b = random_step(3, key=2, signed=False)
    r = gl.product(a, b)
    grid = r.step
    n = grid.n if grid is not None else r.asym_values.shape[0]
    assert n == 6
    # oracle: aligned z-quadrature of the defining integral at cell midpoints
    for i, j in [(0, 0), (2, 5), (4, 1)]:
        want = brute_force_product_cell(a, b, i, j)
        x, y = (i + 0.5) / 6, (j + 0.5) / 6
        got = float(r.eval_grid(np.array([x]), np.array([y]), 6 * 64)[0, 0])
        assert got == pytest.approx(want, abs=1e-9)


def test_power_identity_and_constants():
    w = gl.builtin("product")
    assert gl.power(w, 1) is w
    p3 = gl.power(gl.constant(0.5), 3)
    assert p3.step.values[0, 0] == pytest.approx(0.125, abs=1e-15)


def test_power_of_product_kernel():
    w = gl.builtin("product")
    for k in (2, 3):
        pk = gl.power(w, k)
        for x, y in [(0.3, 0.8), (0.9, 0.9)]:
            assert gl.evaluate(pk, x, y) == pytest.approx(x * y / 3.0 ** (k - 1), abs=1e-5)


def test_power_of_step_is_exact_matrix_formula():
    s = random_step(4, key=9, signed=False)
    p = gl.power(s, 3).step
    want = np.linalg.matrix_power(s.values, 3) / 16.0
    assert np.allclose(p.values, want, atol=1e-12)


def _refuse_to_multiply(*args, **kwargs):
    raise AssertionError("a product was formed")


# n^(k-1) first passes the float range at n = 2, k = 1025 and n = 1024, k = 104
@pytest.mark.parametrize("n, k", [(2, 1025), (1024, 104), (3, 10**6)])
def test_step_power_whose_scale_overflows_is_refused_before_any_product(monkeypatch, n, k):
    s = gl.StepGraphon(n, np.full((n, n), 0.5))
    monkeypatch.setattr("graphonlab.algebra._matmul", _refuse_to_multiply)
    with pytest.raises(ValidationError, match=rf"^power k={k} of an n={n} step: n\^\(k-1\) "):
        gl.power(s, k)


def test_lazy_power_past_its_depth_bound_is_refused_before_any_product():
    w = gl.builtin("minmax")
    assert gl.power(w, MAX_LAZY_POWER).label == f"pow[minmax,{MAX_LAZY_POWER}]"
    with pytest.raises(ValidationError, match=rf"^lazy power k={MAX_LAZY_POWER + 1} of minmax"):
        gl.power(w, MAX_LAZY_POWER + 1)


# the plain product on aligned shapes, 256-row panels of the inner dimension otherwise
@pytest.mark.parametrize("m, k, n", [(1, 260, 1), (7, 300, 5), (40, 517, 70), (64, 512, 128)])
def test_matmul_is_the_product_within_rounding(m, k, n):
    rng = np.random.default_rng(m * k * n)
    a, b = rng.random((m, k)), rng.random((k, n))
    got = _matmul(a, b)
    assert got.shape == (m, n) and got.flags.c_contiguous
    into = np.empty((m, n))
    assert _matmul(a, b, into) is into and into.tobytes() == got.tobytes()
    if k % 256 == 0 and n % 64 == 0:
        assert got.tobytes() == (a @ b).tobytes()
    np.testing.assert_allclose(got, a @ b, rtol=k * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("n", [64, 256])
def test_step_matrix_power_keeps_the_order_of_numpy_matrix_power(n):
    a = random_step(n, key=n, signed=False).values
    for k in range(2, 8):
        assert _matrix_power(a, k).tobytes() == np.linalg.matrix_power(a, k).tobytes(), k


def _symmetric_kinds(n: int):
    """Exactly symmetric random, quantized (multiples of 1/16) and 0/1 matrices."""
    r = np.random.default_rng(n)
    u = r.random((n, n))
    q = np.round(r.random((n, n)) * 16.0) / 16.0
    e = (r.random((n, n)) < 0.3).astype(float)
    return {"random": 0.5 * (u + u.T), "quantized": np.triu(q) + np.triu(q, 1).T,
            "zero-one": np.triu(e, 1) + np.triu(e, 1).T}


# 256, 512 and 1024 take the plain product, which NumPy hands to BLAS syrk for a @ a.T;
# the others pad, so their transposed factor is a copy and the product a gemm. _matmul(a, a)
# is always the gemm: a square of a symmetric matrix takes a.T only in _square_in_place.
@pytest.mark.parametrize("n", [1, 30, 100, 270, 256, 512, 1024])
def test_the_transposed_square_keeps_the_bytes_of_the_product(n):
    for kind, a in _symmetric_kinds(n).items():
        want = _matmul(a, a.copy())
        got = _matmul(a, a.T)
        assert got.tobytes() == want.tobytes(), kind
        into = np.empty((n, n))
        assert _matmul(a, a.T, into) is into and into.tobytes() == want.tobytes(), kind
        assert _matmul(a, a).tobytes() == want.tobytes(), kind
        assert _matmul(a, a, into) is into and into.tobytes() == want.tobytes(), kind
        if n % 256 == 0:  # syrk computes one triangle and NumPy mirrors it
            assert np.array_equal(got, got.T), kind


def test_square_of_a_matrix_that_is_not_exactly_symmetric_is_the_product():
    a = _symmetric_kinds(256)["random"]
    a[3, 200] = np.nextafter(a[3, 200], 1.0)  # one ulp off: symmetric within 1e-12
    want = _matmul(a, a.copy())
    assert _matmul(a, a).tobytes() == want.tobytes()
    assert _matmul(a, a.T).tobytes() != want.tobytes()  # the route a self-product must not take


def _old_matrix_power(a, k):
    """The power before self-products took a.T: every product a gemm."""
    if k == 3:
        return _matmul(_matmul(a, a.copy()), a)
    z = result = None
    while k:
        z = a if z is None else _matmul(z, z.copy())
        k, bit = divmod(k, 2)
        if bit:
            result = z if result is None else _matmul(result, z)
    return result


@pytest.mark.parametrize("n", [30, 100, 256, 270, 512])
def test_step_matrix_power_keeps_the_bytes_of_plain_products(n):
    a = random_step(n, key=n + 1, signed=False).values
    for k in range(2, 9):
        assert _matrix_power(a, k).tobytes() == _old_matrix_power(a, k).tobytes(), k


@pytest.mark.parametrize("n", [1, 30, 256, 300])
def test_self_product_of_a_step_keeps_the_bytes_of_the_plain_product(n):
    s = random_step(n, key=7 * n, signed=False)
    vals = np.clip(_matmul(s.values, s.values.copy()) / n, 0.0, 1.0)
    p = gl.product(s, s)
    assert isinstance(p, gl.StepGraphon)
    assert p.values.tobytes() == (0.5 * (vals + vals.T)).tobytes()


def _nearly_symmetric(x, y):
    # symmetric within 1e-12, but not exactly: the lazy square must stay a gemm
    return x * y + 1e-13 * np.maximum(x - y, 0.0)


@pytest.mark.parametrize("label, fn", [("minmax", gl.builtin("minmax").fn),
                                       ("nearly", _nearly_symmetric)])
def test_lazy_self_product_keeps_the_bytes_of_the_plain_product(label, fn):
    w = gl.GraphonSpec(label=label, fn=fn)
    validate_graphon(w)
    for g in (300, 512, 1024):  # the minmax grids are squared in place, by panels past 512
        zm = midpoints(g)
        lhs = np.asarray(w.eval_grid(zm, zm))
        assert np.array_equal(lhs, lhs.T) == (label == "minmax")
        want = _matmul(lhs, lhs.copy()) / g
        assert gl.product(w, w).eval_grid(zm, zm, g).tobytes() == want.tobytes(), g


def test_asymmetry_is_the_largest_gap_to_the_transpose():
    for n in (1, 129, 300):
        v = np.random.default_rng(n).random((n, n))
        assert asymmetry(v) == float(np.abs(v - v.T).max())
        v[n - 1, 0] = np.nan
        assert math.isnan(asymmetry(v))


def test_asymmetry_holds_no_matrix_sized_temporary(peak_bytes):
    v = np.random.default_rng(5).random((1024, 1024))  # 8 MiB
    assert peak_bytes(lambda: asymmetry(v)) < 1 << 20


_BLAS_SQUARES = """
import sys
import numpy as np
from graphonlab.algebra import _matmul, _matrix_power
sys.path.insert(0, sys.argv[1])
from test_algebra import _old_matrix_power, _symmetric_kinds
bad = []
for n in (1, 30, 100, 256, 270, 512, 600, 1024):
    for kind, a in _symmetric_kinds(n).items():
        want = _matmul(a, a.copy())
        into = np.empty((n, n))
        if (_matmul(a, a.T).tobytes() != want.tobytes()
                or _matmul(a, a.T, into).tobytes() != want.tobytes()
                or _matmul(a, a).tobytes() != want.tobytes()):
            bad.append(f"a a.T at n={n} {kind}")
        # 600 rows are two panels of the in-place square, neither aligned to 256
        if (n <= 270 or n == 600) and (
                _matrix_power(a, 4).tobytes() != _old_matrix_power(a, 4).tobytes()):
            bad.append(f"a^4 at n={n} {kind}")
print("; ".join(bad) or "ok")
"""


def _in_child(script: str, core: str, threads: str) -> str:
    """The stdout of ``script`` in a child process on OpenBLAS kernel ``core`` ("default"
    for the host's own) at ``threads`` threads: this process keeps its own kernel and
    thread count. The script gets the tests directory as its first argument."""
    src = str(Path(gl.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if core != "default":
        env["OPENBLAS_CORETYPE"] = core
    run = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                         check=True, capture_output=True, text=True, env=env)
    return run.stdout


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_transposed_squares_keep_the_bytes_on_other_blas_kernels(core, threads):
    # a^4 squares a and then a^2 in place, by panels past 512 rows: it must keep the bytes
    # of the all-gemm power
    assert _in_child(_BLAS_SQUARES, core, threads).strip() == "ok"


# the padded route at every n: the minmax midpoint grid squared, and times a seeded
# uniform matrix; the plain route (aligned inner and column counts) at unaligned row
# counts; and the edge probabilities of a lazy cube, whose inner product takes the plain
# route with n rows. A thread split inside an unaligned edge would change these bytes
_THREAD_PROBE = """
import hashlib
import numpy as np
import graphonlab as gl
from graphonlab.algebra import _matmul, _row_blocks, midpoints

def digest(m):
    return hashlib.sha256(m.tobytes()).hexdigest()[:16]

for n in (30, 100, 270, 300, 517, 1000):
    a = gl.builtin("minmax").eval_grid(midpoints(n), midpoints(n))
    square, cross = _matmul(a, a), _matmul(a, np.random.default_rng(n).random((n, n)))
    print("padded", n, digest(square), digest(cross), np.array_equal(square, square.T))
for rows in (1, 3, 100, 270, 517):
    for inner, cols in ((256, 64), (512, 256), (1024, 1024)):
        r = np.random.default_rng([rows, inner, cols])
        print("plain", rows, inner, cols,
              digest(_matmul(r.random((rows, inner)), r.random((inner, cols)))))
cube = gl.power(gl.builtin("minmax"), 3)
for n in (100, 270):
    xs = gl.sample_latents(gl.SamplerConfig(n, 1, cube)).xs
    print("cube", n, digest(np.clip(next(_row_blocks(cube, xs, 0, n)), 0.0, 1.0)))
"""


@pytest.mark.parametrize("core", ["default", "Haswell", "Prescott", "Sandybridge"])
def test_products_round_alike_at_1_and_2_threads_on_every_blas_kernel(core):
    one = _in_child(_THREAD_PROBE, core, "1")
    kinds = [line.split()[0] for line in one.splitlines()]
    assert kinds == ["padded"] * 6 + ["plain"] * 15 + ["cube"] * 2
    squares = [line.split()[-1] for line in one.splitlines() if line.startswith("padded")]
    assert squares == ["True"] * 6  # exact squares
    assert _in_child(_THREAD_PROBE, core, "2") == one


_FAMILY = """
import sys
sys.path.insert(0, sys.argv[1])
from conftest import blas_family
print(blas_family())
"""


@pytest.mark.parametrize("core, family", [("Haswell", "default"), ("Prescott", "Prescott"),
                                          ("Sandybridge", "Sandybridge")])
def test_blas_family_tells_the_kernels_with_their_own_digests_apart(core, family):
    # Sandybridge rounds the 3 x 3 probe as Prescott does, but not every golden product
    for threads in ("1", "2"):
        assert _in_child(_FAMILY, core, threads).strip() == family


# a sampled power is an exact integer count over n^(k-1), one IEEE division: its bytes
# do not depend on the summation order, so neither on the kernel nor on the thread count
_SAMPLED_POWERS = """
import hashlib
import graphonlab as gl
for n in (100, 270, 512):
    cfg = gl.SamplerConfig(n, 1, gl.constant(0.5))
    s = gl.canonical_graphon(gl.sample_graph(cfg, gl.sample_latents(cfg)))
    for k in (2, 3):
        print(n, k, hashlib.sha256(gl.power(s, k).values.tobytes()).hexdigest()[:16])
"""


def test_sampled_powers_have_the_same_bytes_on_every_blas_kernel_and_thread_count():
    runs = {_in_child(_SAMPLED_POWERS, core, threads)
            for core in ("default", "Haswell", "Prescott") for threads in ("1", "2")}
    assert len(runs) == 1 and len(runs.pop().splitlines()) == 6


# a lazy self-product on its own grid squares its factor grid F in place by row panels when
# F is bitwise symmetric: each panel's syrk and gemm must keep the bytes of _matmul(F, F)
# (BLAS syrk on the plain route, a padded gemm on the other) on every kernel and thread count
_IN_PLACE_SQUARES = """
import numpy as np
import graphonlab as gl
from graphonlab.algebra import _matmul, _square_in_place, midpoints
bad = []
for g in (300, 768, 1000, 1024, 2048):
    kinds = {"minmax": gl.builtin("minmax").eval_grid(midpoints(g), midpoints(g))}
    if g in (300, 1000):
        u = np.random.default_rng(g).random((g, g))
        kinds["random"] = 0.5 * (u + u.T)
    for kind, a in kinds.items():
        f = a.copy()
        _square_in_place(f)
        if f.tobytes() != _matmul(a, a).tobytes():
            bad.append(f"{kind} at g={g}")
print("; ".join(bad) or "ok")
"""


@pytest.mark.parametrize("core", ["default", "Haswell", "Prescott", "Sandybridge"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_in_place_square_keeps_the_bytes_of_the_product_on_every_blas_kernel(core, threads):
    assert _in_child(_IN_PLACE_SQUARES, core, threads).strip() == "ok"


def test_a_lazy_square_holds_its_factor_grid_and_one_panel(peak_bytes):
    w, xs = gl.power(gl.builtin("minmax"), 2), midpoints(1024)
    # the grid squared in place, plus its 512-row panel buffer (half a grid at g = 1024) and
    # a tile's temporaries; a separate product with whole-grid factor temporaries took 4 grids
    assert peak_bytes(lambda: w.eval_grid(xs, xs, 1024)) < 1.6 * 1024 * 1024 * 8


# sha256 of the square of exp(-abs(x-y))*x*y on its own g-grid, per BLAS family: its factor
# grid is not bitwise symmetric (x*y and y*x round differently), so it keeps the product
# F F, whose bytes differ from F F.T
_ASYMMETRIC_SQUARE_SHA = {
    "default": {
        256: "e033ed01e632abcc1f8493800298e1cbf6e468389add19b5bb881a53cbf94dd6",
        300: "599e44d351ddb5120109166c6b6cd8a912101e29f98fa27e3662b6f5cd7083de",
    },
    "Prescott": {
        256: "2c29d4b7fc820aab3f1d74bb3a86c05e1110e427a5515c741508d976d4e318dc",
        300: "3648ba30c008a7e61ebfe23dadc47e2f380e3f879fadb6f3c79761b963e2cf48",
    },
    "Sandybridge": {
        256: "9c2b1b236b1468be623c4378b5f1ae80da2b3ae8efea9dfffcbf089810a4ea65",
        300: "e3f6117b859ac23d5d41b4fb9f63257501e2f4f72d1ac41178ea33f7fdf74118",
    },
}


@pytest.mark.parametrize("g", [256, 300])
def test_a_lazy_square_of_a_factor_that_is_not_symmetric_keeps_its_bytes(g):
    e = gl.from_expression("exp(-abs(x-y))*x*y")
    xs = midpoints(g)
    assert not is_symmetric(e.eval_grid(xs, xs))
    got = gl.power(e, 2).eval_grid(xs, xs, g)
    assert hashlib.sha256(got.tobytes()).hexdigest() == _ASYMMETRIC_SQUARE_SHA[blas_family()][g]


def test_discretize_examples():
    assert np.all(gl.discretize(gl.constant(0.3), 5).values == 0.3)
    d = gl.discretize(gl.builtin("product"), 2)
    assert d.values[0, 0] == pytest.approx(0.0625, abs=1e-12)
    s = random_step(4, key=3, signed=False)
    assert np.array_equal(gl.discretize(s, 4).values, s.values)


def test_step_product_oracle_random_instances():
    for trial in range(8):
        n = 2 + trial % 5
        a = random_step(n, key=50 + trial, signed=False)
        b = a if trial % 2 == 0 else random_step(n, key=90 + trial, signed=False)
        r = gl.product(a, b)
        mids = midpoints(n)
        got = r.eval_grid(mids, mids, n * 64)
        for i in range(n):
            for j in range(n):
                want = brute_force_product_cell(a, b, i, j)
                assert abs(got[i, j] - want) <= 1e-9


def test_asymmetric_product_is_flagged_kernel():
    a = gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]])
    b = gl.StepGraphon(2, [[1.0, 0.0], [0.0, 0.0]])
    r = gl.product(a, b)
    with pytest.raises(ValidationError, match="not symmetric, so it has no step graphon"):
        validate_graphon(r, gl.QuadratureSpec())
    assert r.step is None
    want = (a.values @ b.values) / 2.0
    assert np.allclose(r.asym_values, want, atol=1e-15)


def test_contraction_inequality_sample():
    for trial in range(12):
        n = 2 + trial % 7
        a, b, c, d = (random_step(n, key=200 + 4 * trial + i, signed=False) for i in range(4))
        ab = gl.product(a, b)
        cd = gl.product(c, d)
        va = ab.step.values if ab.step is not None else ab.asym_values
        vc = cd.step.values if cd.step is not None else cd.asym_values
        lhs = float(np.abs(va - vc).mean())
        rhs = gl.l1_distance(a, c) + gl.l1_distance(b, d)
        assert lhs <= rhs + 1e-9


def test_range_preservation():
    w = gl.builtin("attachment")
    r = gl.power(w, 2)
    mids = midpoints(16)
    vals = r.eval_grid(mids, mids, 256)
    assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12


def test_associativity_of_step_powers():
    s = random_step(5, key=77, signed=False)
    left = gl.product(gl.product(s, s), s)
    right = gl.product(s, gl.product(s, s))
    lv = left.step.values if left.step is not None else left.asym_values
    rv = right.step.values if right.step is not None else right.asym_values
    assert np.max(np.abs(lv - rv)) <= 1e-8
    direct = gl.power(s, 3).step.values
    assert np.max(np.abs(lv - direct)) <= 1e-8


def test_discretize_rejects_asymmetric_product():
    a = gl.StepGraphon(3, [[0.1, 0.2, 0.9], [0.2, 0.4, 0.5], [0.9, 0.5, 0.7]])
    b = gl.StepGraphon(2, [[0.5, 0.25], [0.25, 1.0]])
    r = gl.product(a, b)
    assert r.asym_values is not None
    with pytest.raises(ValidationError, match="not symmetric"):
        gl.discretize(r, 6)


def test_every_refinement_site_names_itself_when_it_cannot_settle():
    from graphonlab.experiments import _LimitDistance

    q = gl.QuadratureSpec(base_grid=4, max_refinements=0, tol=1e-9)
    w = gl.builtin("minmax")
    with pytest.raises(QuadratureError, match="^integral did not settle"):
        gl.integrate2d(w, q)
    with pytest.raises(QuadratureError, match="^cell averages on the 3-grid did not settle"):
        cell_means(w, 3, q)
    with pytest.raises(QuadratureError, match=r"^z-integral of pow\[minmax,2\] did not settle"):
        gl.evaluate(gl.power(w, 2, q), 0.3, 0.6)
    with pytest.raises(QuadratureError, match="^limit distance at n=4 did not settle"):
        _LimitDistance(w, 2, [4], q).distance(gl.constant(0.1).step.refine(4))
    report = gl.run_theorem_sweep(w, 2, [3, 5], q, seed=1)
    assert report.incomplete and report.rows == []


class _CountingKernel:
    """An analytic kernel that counts its grid evaluations."""

    def __init__(self, label, fn):
        self.label, self.fn, self.calls = label, fn, 0

    step = None

    def eval_grid(self, xs, ys, gz=0):
        self.calls += 1
        return self.fn(np.asarray(xs)[:, None], np.asarray(ys)[None, :])


def test_self_product_evaluates_its_factor_once_per_grid():
    g = 96
    m = midpoints(g)
    w = _CountingKernel("w", lambda x, y: np.minimum(x, y) * (1.0 - np.maximum(x, y)))
    got = gl.power(w, 2).eval_grid(m, m, g)
    assert w.calls == 1
    # the same bytes as a product of two separately evaluated factors
    want = (w.fn(m[:, None], m[None, :]) @ w.fn(m[:, None], m[None, :])) / g
    assert got.tobytes() == want.tobytes()
    # off its own z-grid a self-product evaluates both factors
    gl.power(w, 2).eval_grid(midpoints(g // 2), m, g)
    assert w.calls == 3


def test_product_of_distinct_kernels_evaluates_each_factor_once():
    g = 64
    m = midpoints(g)
    a = _CountingKernel("a", lambda x, y: x * y)
    b = _CountingKernel("b", lambda x, y: np.minimum(x, y))
    got = gl.product(a, b).eval_grid(m, m, g)
    assert (a.calls, b.calls) == (1, 1)
    want = (a.fn(m[:, None], m[None, :]) @ b.fn(m[:, None], m[None, :])) / g
    assert got.tobytes() == want.tobytes()


def test_scalar_only_callable_matches_its_array_version_bit_for_bit():
    # min() cannot compare arrays, so this callable is evaluated point by point
    q = gl.QuadratureSpec(base_grid=16, tol=1e-2)
    scalar, vector = (lambda x, y: min(x, y)), (lambda x, y: np.minimum(x, y))
    assert gl.integrate2d(scalar, q) == gl.integrate2d(vector, q)
    assert cell_means(scalar, 4, q).tobytes() == cell_means(vector, 4, q).tobytes()


def test_equal_labels_do_not_make_equal_factors():
    a = gl.from_expression("2*x*y", clamp=True)
    b = gl.from_expression("2*x*y")
    assert a.label == b.label
    with pytest.raises(ValidationError, match="not symmetric.*0.22"):
        gl.discretize(gl.product(a, b), 4)
    gl.discretize(gl.product(a, a), 4)


def test_discretize_rejects_a_lazy_product_asymmetric_on_its_grid():
    r = gl.product(gl.builtin("minmax"), gl.builtin("product"))
    assert r.step is None and r.asym_values is None
    with pytest.raises(ValidationError, match="not symmetric.*0.06"):
        gl.discretize(r, 4)


def test_distinct_but_symmetric_lazy_product_discretizes():
    r = gl.product(gl.builtin("product"), gl.from_expression("x*y"))
    assert r.left is not r.right
    got = gl.discretize(r, 2).values
    want = gl.discretize(gl.power(gl.builtin("product"), 2), 2).values
    assert np.allclose(got, want, atol=1e-12)


def _full_grid_block_means(vals: np.ndarray, m: int) -> np.ndarray:
    s = vals.shape[0] // m
    cells = vals.reshape(m, s, m, s).mean(axis=(1, 3))
    return 0.5 * (cells + cells.T)


def _full_grid_cell_means(w, m, q, zero_diagonal=False):
    """cell_means as it was when it evaluated the whole g x g grid at once (the oracle)."""
    kernel = as_kernel(w)
    s = kernel.step
    if s is not None and m % s.n == 0 and not zero_diagonal:
        return s.refine(m // s.n).values.copy()
    grain = grain_of(kernel)
    align = math.lcm(m, grain) if grain else m
    if align > LCM_GRID_CAP:
        align = m

    def cells_at(g: int) -> np.ndarray:
        xs = midpoints(g)
        cells = _full_grid_block_means(kernel.eval_grid(xs, xs, g), m)
        if zero_diagonal:
            upper = np.triu(cells, 1)
            cells = upper + upper.T
        return cells

    g0 = ceil_to_multiple(q.base_grid, align)
    return settle(q, g0, cells_at, f"cell averages on the {m}-grid").value


_STEP3 = [[0.1, 0.2, 0.9], [0.2, 0.4, 0.5], [0.9, 0.5, 0.7]]
_CELL_KERNELS = {
    "expr": lambda: gl.from_expression("min(x,y)*(1-max(x,y))"),
    "minmax": lambda: gl.builtin("minmax"),
    "product": lambda: gl.builtin("product"),
    "attachment": lambda: gl.builtin("attachment"),
    "constant": lambda: gl.builtin("constant", p=0.3),
    "scalar_only": lambda: (lambda x, y: min(x, y) * (1.0 - max(x, y))),
    "step": lambda: gl.StepGraphon(3, _STEP3),
    "asym_step_product": lambda: gl.product(
        gl.StepGraphon(3, _STEP3), gl.StepGraphon(2, [[0.5, 0.25], [0.25, 1.0]])
    ),
}


# m = 1 and 2 make one cell row larger than a row block; m = 100 leaves a short last block
@pytest.mark.parametrize("zero_diagonal", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 100])
@pytest.mark.parametrize("name", sorted(_CELL_KERNELS))
def test_row_block_cell_means_match_the_full_grid_oracle(name, m, zero_diagonal):
    kernel = _CELL_KERNELS[name]()
    # a point-by-point callable is slow, so it gets coarser grids
    q = gl.QuadratureSpec(base_grid=16, tol=1e-2) if name == "scalar_only" else gl.QuadratureSpec()
    got = cell_means(kernel, m, q, zero_diagonal=zero_diagonal)
    want = _full_grid_cell_means(kernel, m, q, zero_diagonal=zero_diagonal)
    assert got.tobytes() == want.tobytes()


def _numpy_row_means(vals: np.ndarray, m: int) -> np.ndarray:
    s = vals.shape[1] // m
    return vals.reshape(vals.shape[0] // s, s, m, s).mean(axis=(1, 3))


def _row_means_cases(s: int, m: int):
    """Blocks of whole cell rows: signed values over 300 decades, and values that are
    mostly -0.0 (so that some cells hold nothing else) among 0.0, 1.0 and -1.0."""
    r = np.random.default_rng(1000 * s + m)
    shape = (s * (3 if s * m <= 4096 else 1), s * m)
    yield r.standard_normal(shape) * 10.0 ** r.uniform(-150, 150, shape)
    yield r.choice([-0.0, 0.0, 1.0, -1.0], size=shape, p=[0.85, 0.05, 0.05, 0.05])


# 2 <= s < 8 with m >= 2 takes the strided adds; m = 1 and s = 1 or >= 8 take NumPy's mean
@pytest.mark.parametrize("m", [1, 2, 3, 64, 1024])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32])
def test_row_means_are_numpys_block_means_to_the_bit(s, m):
    for vals in _row_means_cases(s, m):
        assert _row_means(vals, m).tobytes() == _numpy_row_means(vals, m).tobytes()


def _blocks_in_other_layouts(s: int):
    xs = midpoints(8 * s)
    yield gl.constant(0.3).eval_grid(xs[: 2 * s], xs, 8 * s)
    yield gl.from_expression("0.3").eval_grid(xs[: 2 * s], xs, 8 * s)  # zero strides
    # a transposed (Fortran-ordered) block, which NumPy reduces in another order
    yield np.asfortranarray(next(_row_means_cases(s, 8)))


@pytest.mark.parametrize("s", [2, 3, 7])
def test_row_means_of_blocks_in_other_layouts_are_numpys_block_means(s):
    for vals in _blocks_in_other_layouts(s):
        assert _row_means(vals, 8).tobytes() == _numpy_row_means(vals, 8).tobytes()


def test_settle_compares_matrix_estimates_without_an_estimate_sized_difference(peak_bytes):
    q = gl.QuadratureSpec(max_refinements=1, tol=1e-9)
    prev, cur = np.zeros((1024, 1024)), np.zeros((1024, 1024))
    cur[700, 3] = 2e-9
    estimates = {4: prev, 8: cur}
    with pytest.raises(QuadratureError) as err:
        settle(q, 4, estimates.get, "x")
    assert err.value.last_estimates[0] is prev and err.value.last_estimates[1] is cur
    cur[700, 3], cur[5, 1000] = 1e-9, np.nan  # a NaN never settles
    with pytest.raises(QuadratureError):
        settle(q, 4, estimates.get, "x")
    cur[5, 1000] = 0.0
    # cur - prev would take 8 MiB; 128 rows of it take 1 MiB, and at most two are alive
    res = []
    assert peak_bytes(lambda: res.append(settle(q, 4, estimates.get, "x"))) < 3 * 2**20
    assert res[0].value is cur and res[0].error == 1e-9 and not prev.any()


def test_cell_means_holds_no_full_grid(peak_bytes):
    w = gl.from_expression("min(x,y)*(1-max(x,y))")
    q = gl.QuadratureSpec()
    # the full-grid version peaks at 72 MiB here: W and one temporary on the 2048-grid
    assert peak_bytes(lambda: cell_means(w, 1024, q, zero_diagonal=True)) < 40 * 2**20


def test_block_means_holds_no_temporary_of_half_the_grid(peak_bytes):
    vals = np.random.default_rng(0).random((1024, 1024))
    # live at once: the 2 MiB of cells and their symmetrized copy; the row sums of the whole
    # grid at s = 2 would be 4 MiB more, those of a 128-row block are 0.5 MiB
    assert peak_bytes(lambda: block_means(vals, 512)) < 5 * 2**20


def test_zeroing_the_diagonal_of_cell_means_adds_no_matrix(peak_bytes):
    m = 512  # one m x m matrix is 2 MiB; a constant's row blocks take 0.5 of one more
    run = lambda: cell_means(gl.constant(0.3), m, gl.QuadratureSpec(), zero_diagonal=True)
    # live at once: the previous level, the current one, and either its symmetrized copy
    # or settle's difference; a zeroed copy of the diagonal would make that four
    assert peak_bytes(run) < 4 * m * m * 8


class _ShapeRecordingKernel(_CountingKernel):
    def __init__(self, label, fn):
        super().__init__(label, fn)
        self.shapes = []

    def eval_grid(self, xs, ys, gz=0):
        self.shapes.append((len(xs), len(ys), gz))
        return super().eval_grid(xs, ys, gz)


def _factor_tiles(g: int) -> list:
    """The shapes in which a self-product on its own g-grid reads its factor: the grid once,
    in blocks of 256 KiB (64 rows at g = 512, 32 at 1024, 16 at 2048)."""
    return [(2**15 // g, g, g)] * (g * g // 2**15)


def test_cell_means_of_a_lazy_power_evaluates_its_factor_once_per_grid_level():
    w = _ShapeRecordingKernel("w", lambda x, y: np.minimum(x, y) * (1.0 - np.maximum(x, y)))
    q = gl.QuadratureSpec(base_grid=512, max_refinements=1, tol=1e-3)
    cells = cell_means(gl.power(w, 2, q), 4, q)
    # two levels (512 and 1024); each evaluates the factor grid once, in row blocks
    assert w.shapes == _factor_tiles(512) + _factor_tiles(1024)
    assert cells.tobytes() == _full_grid_cell_means(gl.power(w, 2, q), 4, q).tobytes()


def test_integrals_and_l1_distances_of_a_lazy_power_evaluate_its_factor_once_per_grid_level():
    q = gl.QuadratureSpec(base_grid=1024, max_refinements=1, tol=1e-3)
    step = gl.StepGraphon(2, [[0.5, 0.25], [0.25, 1.0]])
    for measure in (lambda k: gl.integrate2d(k, q), lambda k: gl.l1_distance(k, step, q)):
        w = _ShapeRecordingKernel("w", lambda x, y: np.minimum(x, y) * (1.0 - np.maximum(x, y)))
        measure(gl.power(w, 2, q))
        # one factor grid per level, in row blocks, however many row blocks of the
        # product the measure reads
        assert w.shapes == _factor_tiles(1024) + _factor_tiles(2048)


# The whole-grid reductions as they were before one row-block evaluator served
# integrals, L1 distances and cell averages (the oracle): a lazy product was read
# in 512-row blocks past g = 1024, and |a - b| through a duck-typed kernel.
def _old_grid_mean(kernel, g: int) -> float:
    xs = midpoints(g)
    if g <= 1024:
        return float(np.mean(kernel.eval_grid(xs, xs, g)))
    # row blocks keep peak memory flat on fine grids
    total = 0.0
    block = 512
    for lo in range(0, g, block):
        total += float(np.sum(kernel.eval_grid(xs[lo : lo + block], xs, g)))
    return total / (g * g)


def _old_integrate2d(f, q, align: int = 1):
    kernel = as_kernel(f)
    grain = grain_of(kernel)
    if grain:
        aligned = math.lcm(align, grain)
        align = aligned if aligned <= LCM_GRID_CAP else align
    g0 = ceil_to_multiple(q.base_grid, align)
    return settle(q, g0, lambda g: _old_grid_mean(kernel, g), "integral")


class _OldAbsDiff:
    def __init__(self, ka, kb):
        self.ka = ka
        self.kb = kb

    step = None

    def eval_grid(self, xs, ys, gz):
        return np.abs(self.ka.eval_grid(xs, ys, gz) - self.kb.eval_grid(xs, ys, gz))


def _old_l1_distance(a, b, q):
    """The quadrature branch of l1_distance."""
    ka, kb = as_kernel(a), as_kernel(b)
    align = math.lcm(max(1, grain_of(ka)), max(1, grain_of(kb)))
    if align > LCM_GRID_CAP:
        align = 1
    return _old_integrate2d(_OldAbsDiff(ka, kb), q, align=align).value


def _outcome(fn) -> bytes:
    """The bytes of a settled value, or of the last two estimates and the message."""
    try:
        return np.float64(fn()).tobytes()
    except QuadratureError as exc:
        return np.array(exc.last_estimates).tobytes() + str(exc).encode()


_LAZY = {
    "power": lambda q: gl.power(gl.from_expression("min(x,y)*(1-max(x,y))"), 2, q),
    "distinct": lambda q: gl.product(gl.builtin("product"), gl.from_expression("x*y"), q),
}


# tol 1e-12 never settles, so the last estimates on the 1024- and 2048-grids are
# compared; the 3-block step aligns the L1 grids to 258 << r (2064 is not a power of 2)
@pytest.mark.parametrize("name", sorted(_LAZY))
def test_lazy_product_integrals_and_l1_distances_match_the_block_oracle(name):
    q = gl.QuadratureSpec(tol=1e-12, max_refinements=3)
    lazy = _LAZY[name](q)
    assert _outcome(lambda: gl.integrate2d(lazy, q).value) == _outcome(
        lambda: _old_integrate2d(lazy, q).value
    )
    for other in (gl.builtin("minmax"), gl.StepGraphon(3, _STEP3)):
        assert _outcome(lambda: gl.l1_distance(lazy, other, q)) == _outcome(
            lambda: _old_l1_distance(lazy, other, q)
        )


# The step product and step power as they were when a ProductGraphon wrapped
# their step (the oracle), returning the values and whether they were symmetric.
def _old_factors_equal(ka, kb) -> bool:
    if ka is kb:
        return True
    sa, sb = ka.step, kb.step
    if sa is None or sb is None:
        return False
    return sa.n == sb.n and np.array_equal(sa.values, sb.values)


def _panel_product(a, b):
    """a @ b in _matmul's documented order: rows padded with zeros to a multiple of 64; the
    plain product when the inner dimension is a multiple of 256 and the columns of 64, else
    the columns padded to a multiple of 64 too and 256-row inner panels added in order."""
    (rows, inner), cols = a.shape, b.shape[1]
    a = np.pad(a, ((0, -rows % 64), (0, 0)))
    if inner % 256 == 0 and cols % 64 == 0:
        return (a @ b)[:rows]
    b = np.pad(b, ((0, 0), (0, -cols % 64)))
    acc = a[:, :256] @ b[:256]
    for lo in range(256, inner, 256):
        acc = acc + a[:, lo : lo + 256] @ b[lo : lo + 256]
    return acc[:rows, :cols]


def _old_step_product(sa, sb, symmetric):
    m = math.lcm(sa.n, sb.n)
    a = sa.refine(m // sa.n).values
    b = sb.refine(m // sb.n).values
    vals = _panel_product(a, b) / m
    proper = sa.lo >= 0.0 and sb.lo >= 0.0
    lo, hi = (0.0, 1.0) if proper else (-1.0, 1.0)
    vals = _clip_to(vals, lo, hi)
    if not symmetric:
        symmetric = float(np.max(np.abs(vals - vals.T))) <= 1e-12
    if not symmetric:
        return vals, False
    vals = 0.5 * (vals + vals.T)
    return vals, True


def _old_step_power(s, k):
    vals = np.linalg.matrix_power(s.values, k) / float(s.n) ** (k - 1)
    vals = 0.5 * (vals + vals.T)
    lo, hi = (0.0, 1.0) if s.lo >= 0.0 else (-1.0, 1.0)
    vals = _clip_to(vals, lo, hi)
    return vals


def _step_pairs():
    for n in (3, 64, 512):
        for signed in (False, True):
            s = random_step(n, key=7, signed=signed)
            yield f"self{n}{'s' * signed}", s, s
            yield f"equal{n}{'s' * signed}", s, random_step(n, key=7, signed=signed)
    a = random_step(2, key=11, signed=False)
    yield "unequal_symmetric", a.refine(2), a.refine(3)
    yield "unequal_symmetric_signed", *(random_step(2, key=12).refine(f) for f in (3, 5))
    yield "unequal_asymmetric", a, random_step(3, key=13, signed=False)
    yield "unequal_asymmetric_signed", random_step(3, key=14), random_step(4, key=15)


_STEP_PAIRS = {name: (sa, sb) for name, sa, sb in _step_pairs()}


@pytest.mark.parametrize("name", sorted(_STEP_PAIRS))
def test_step_products_and_powers_match_the_wrapped_step_oracle(name):
    sa, sb = _STEP_PAIRS[name]
    want, symmetric = _old_step_product(sa, sb, _old_factors_equal(sa, sb))
    assert symmetric == ("asymmetric" not in name)
    r = gl.product(sa, sb)
    assert isinstance(r, gl.StepGraphon) == symmetric
    got = r.values if symmetric else r.asym_values
    assert got.tobytes() == want.tobytes()
    for k in (2, 3):
        p = gl.power(sa, k)
        assert isinstance(p, gl.StepGraphon)
        assert p.values.tobytes() == _old_step_power(sa, k).tobytes()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_quadrature_spec_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValidationError, match=f"positive finite number, got {tol}"):
        gl.QuadratureSpec(tol=tol)


@pytest.mark.parametrize("field, value", [("base_grid", 2.5), ("base_grid", "8"),
                                          ("max_refinements", 1.5), ("max_refinements", 2.0)])
def test_quadrature_spec_refuses_grid_counts_that_are_not_integers(field, value):
    # a float would fail later, as a bare TypeError from a grid shift or a range
    with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value!r}"):
        gl.QuadratureSpec(**{field: value})
    assert getattr(gl.QuadratureSpec(**{field: np.int64(8)}), field) == 8


def _asym_2x3():
    return gl.product(random_step(2, key=21, signed=False), random_step(3, key=22, signed=False))


class _MinMaxKernel:
    """minmax through the kernel protocol alone: ``eval_grid`` and ``step``."""

    step = None

    def eval_grid(self, xs, ys, gz=0):
        x, y = np.asarray(xs)[:, None], np.asarray(ys)[None, :]
        return np.minimum(x, y) * (1.0 - np.maximum(x, y))


_GRAINS = {
    "step": (lambda: gl.StepGraphon(3, _STEP3), 3),
    "constant": (lambda: gl.builtin("constant", p=0.3), 1),
    "expression": (lambda: gl.from_expression("x*y"), 0),
    "protocol_only": (_MinMaxKernel, 0),
    "lazy_power_of_minmax": (lambda: gl.power(gl.builtin("minmax"), 2), 0),
    "lazy_step_times_analytic": (lambda: gl.product(gl.StepGraphon(3, _STEP3),
                                                    gl.builtin("product")), 0),
    "exact_asymmetric_2x3_product": (_asym_2x3, 6),
    "lazy_power_of_the_2x3_product": (lambda: gl.power(_asym_2x3(), 2), 6),
}


@pytest.mark.parametrize("name", sorted(_GRAINS))
def test_grain_of(name):
    make, grain = _GRAINS[name]
    assert grain_of(make()) == grain


def test_a_kernel_is_eval_grid_plus_step():
    # every reader gives a protocol-only minmax the bytes it gives the builtin
    w, ref = _MinMaxKernel(), gl.builtin("minmax")
    assert as_kernel(w) is w
    q, m8 = gl.QuadratureSpec(), midpoints(8)

    def sample(k):
        cfg = gl.SamplerConfig(24, 5, k)
        return gl.sample_graph(cfg, gl.sample_latents(cfg)).pairs

    readers = {
        "integrate2d": lambda k: gl.integrate2d(k, q).value,
        "cell_means": lambda k: cell_means(k, 5, q),
        "discretize": lambda k: gl.discretize(k, 4, q).values,
        "l1_distance": lambda k: gl.l1_distance(k, gl.StepGraphon(3, _STEP3), q),
        "evaluate": lambda k: gl.evaluate(k, 0.3, 0.6),
        "lazy_power": lambda k: gl.evaluate(gl.power(k, 2, q), 0.3, 0.6),
        "lazy_product": lambda k: gl.evaluate(gl.product(gl.builtin("product"), k, q), 0.3, 0.6),
        "lazy_power_grid": lambda k: gl.power(k, 2, q).eval_grid(m8, m8, 8),
        "expected_graphon": lambda k: gl.expected_graphon(k, 6, q).values,
        "sample_graph": sample,
    }
    for name, read in readers.items():
        assert np.asarray(read(w)).tobytes() == np.asarray(read(ref)).tobytes(), name
    validate_graphon(w, q)
    got, want = (gl.run_theorem_sweep(k, 2, [4, 8], q, seed=3) for k in (w, ref))
    assert got.label == "graphon" and got.rows == want.rows


class _GridOnly:
    def eval_grid(self, xs, ys, gz=0):
        return np.zeros((len(xs), len(ys)))


def test_as_kernel_refuses_an_object_without_eval_grid_or_step():
    with pytest.raises(TypeError, match="^not a graphon-like object: _GridOnly$"):
        gl.evaluate(_GridOnly(), 0.5, 0.5)
    mc = gl.mc_expected_graphon(gl.SamplerConfig(3, 5, gl.constant(0.5)), 2)
    assert mc.step is not None
    with pytest.raises(TypeError, match="^not a graphon-like object: McEstimate$"):
        as_kernel(mc)


_S3 = [[0.1, 0.9, 0.2], [0.9, 0.3, 0.6], [0.2, 0.6, 0.8]]


@pytest.mark.parametrize("x, y", [(0.2, 0.7), (0.5, 0.1), (0.9, 0.95), (0.0, 1.0), (1.0, 0.3)])
def test_point_read_of_a_lazy_product_integrates_z_on_its_factors_grain(x, y):
    # (s3 (.) product)(x, y) = y sum_b s3[a, b] ((b+1)^2 - b^2) / 18: linear in z on each of
    # the 3 cells, so a z-grid aligned to 3 is exact where an unaligned one never settles
    s3 = gl.StepGraphon(3, _S3)
    a = min(int(3 * x), 2)
    want = y * sum(_S3[a][b] * ((b + 1) ** 2 - b ** 2) / 18 for b in range(3))
    assert abs(gl.evaluate(gl.product(s3, gl.builtin("product")), x, y) - want) <= 1e-15
    assert abs(gl.evaluate(gl.product(gl.builtin("product"), s3), y, x) - want) <= 1e-15


def test_lazy_power_of_an_exact_asymmetric_product_integrates_on_its_lcm_grain():
    ab = _asym_2x3()
    p = ab.asym_values
    w = gl.power(ab, 2)
    assert w.left is ab and w.right is ab and grain_of(w) == 6
    res = gl.integrate2d(w, gl.QuadratureSpec())
    assert res.grid % 6 == 0
    assert abs(res.value - float(np.mean(p @ p / 6))) <= 1e-15


def test_a_step_square_holds_its_result_and_one_panel(peak_bytes):
    e = gl.expected_graphon(gl.builtin("minmax"), 1024)  # its matrix is 8 MiB
    # a copy of the matrix squared in place beside a 512-row panel buffer (half a matrix),
    # kept as the result without a copy; a separate product and a checked copy held two
    assert peak_bytes(lambda: gl.power(e, 2)) < 1.6 * 1024 * 1024 * 8


def test_step_products_and_powers_hold_at_most_two_matrices_at_once(peak_bytes):
    s = random_step(512, key=3, signed=False)  # one 512 x 512 matrix is 2 MiB
    for make in (lambda: gl.product(s, s), lambda: gl.power(s, 2)):
        assert peak_bytes(make) < 5 * 2**20


# one, three and five cell rows a block on the first grid level (7 cell rows, so a short
# last block), and one a block on the level after it
@pytest.mark.parametrize("rows", [1, 3, 5])
@pytest.mark.parametrize("name", ["expr", "minmax", "step", "lazy_power"])
def test_cell_means_in_blocks_of_a_few_cell_rows_keep_their_bytes(name, rows, monkeypatch):
    from graphonlab import core
    from graphonlab.algebra import _first_grid
    kernel = (gl.power(gl.builtin("minmax"), 2) if name == "lazy_power"
              else _CELL_KERNELS[name]())
    m, q = 7, gl.QuadratureSpec(base_grid=256, max_refinements=2, tol=1e-3)
    default = cell_means(kernel, m, q, zero_diagonal=True)
    g0 = _first_grid(q, m, kernel)  # 259 points, or 273 for the 3-step
    monkeypatch.setattr(core, "_BLOCK_BYTES", rows * (g0 // m) * 8 * g0)
    got = cell_means(kernel, m, q, zero_diagonal=True)
    want = _full_grid_cell_means(kernel, m, q, zero_diagonal=True)
    assert got.tobytes() == default.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 3, 5])
@pytest.mark.parametrize("m", [8, 100, 300])
def test_block_means_in_blocks_of_a_few_cell_rows_keep_their_bytes(m, rows, monkeypatch):
    from graphonlab import core
    vals = np.random.default_rng(m).random((600, 600))  # not symmetric
    default = block_means(vals, m)
    monkeypatch.setattr(core, "_BLOCK_BYTES", rows * (600 // m) * 8 * 600)
    got = block_means(vals, m)
    assert got.tobytes() == default.tobytes() == _full_grid_block_means(vals, m).tobytes()


def test_block_means_symmetrizes_its_cells_in_place(peak_bytes):
    vals = np.random.default_rng(0).random((1024, 1024))  # cell means not bitwise symmetric
    # the 2 MiB of cells, a block's row sums (128 KiB) and a tile pair's sum (128 KiB); a
    # symmetrized copy of the cells would be 2 MiB more
    assert peak_bytes(lambda: block_means(vals, 512)) < 2.5 * 2**20


# the factor grid filled one, three and five rows at a time at g = 301 (a prime): a bitwise
# symmetric factor (minmax) is squared in place, any other (exp) by the gemm
@pytest.mark.parametrize("rows", [1, 3, 5])
@pytest.mark.parametrize("source", ["min(x,y)*(1-max(x,y))", "exp(-abs(x-y))*x*y"])
def test_a_lazy_square_filled_a_few_rows_at_a_time_keeps_its_bytes(source, rows, monkeypatch):
    from graphonlab import core
    g = 301
    w = _ShapeRecordingKernel("w", gl.from_expression(source).fn)
    zm = midpoints(g)
    default = gl.power(w, 2).eval_grid(zm, zm, g)
    w.shapes.clear()
    monkeypatch.setattr(core, "_BLOCK_BYTES", rows * 8 * g)
    got = gl.power(w, 2).eval_grid(zm, zm, g)
    assert w.shapes == [(rows, g, g)] * (g // rows) + [(g % rows, g, g)] * (g % rows > 0)
    assert got.tobytes() == default.tobytes()

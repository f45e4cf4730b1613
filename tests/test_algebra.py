import math

import numpy as np
import pytest

import graphonlab as gl
from graphonlab.algebra import (
    LCM_GRID_CAP, _clip_to, ceil_to_multiple, cell_means, grain_of, midpoints,
    require_symmetric, settle,
)
from graphonlab.core import as_kernel
from graphonlab.errors import QuadratureError, ValidationError
from conftest import brute_force_product_cell, peak_bytes, random_step


def test_quadrature_spec_validation():
    with pytest.raises(ValidationError):
        gl.QuadratureSpec(base_grid=1)
    with pytest.raises(ValidationError):
        gl.QuadratureSpec(tol=0.0)


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
    step = r.step_form()
    assert step is not None and step.n == 1
    assert step.values[0, 0] == pytest.approx(0.3, abs=1e-15)
    assert isinstance(r, gl.StepGraphon)


def test_product_of_product_kernel_pointwise():
    w = gl.builtin("product")
    r = gl.product(w, w)
    assert r.step_form() is None
    require_symmetric(r, gl.QuadratureSpec())  # a self-product of a graphon passes
    for x, y in [(0.5, 0.5), (0.2, 0.9), (1.0, 1.0)]:
        assert r.evaluate(x, y) == pytest.approx(x * y / 3.0, abs=1e-6)


def test_step_product_example():
    s = gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]])
    r = gl.product(s, s)
    assert r.step_form().values.tolist() == [[0.5, 0.0], [0.0, 0.5]]


def test_step_product_unequal_grids_uses_lcm():
    a = random_step(2, key=1, signed=False)
    b = random_step(3, key=2, signed=False)
    r = gl.product(a, b)
    grid = r.step_form() if r.step_form() is not None else None
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
    assert p3.step_form().values[0, 0] == pytest.approx(0.125, abs=1e-15)


def test_power_of_product_kernel():
    w = gl.builtin("product")
    for k in (2, 3):
        pk = gl.power(w, k)
        for x, y in [(0.3, 0.8), (0.9, 0.9)]:
            assert pk.evaluate(x, y) == pytest.approx(x * y / 3.0 ** (k - 1), abs=1e-5)


def test_power_of_step_is_exact_matrix_formula():
    s = random_step(4, key=9, signed=False)
    p = gl.power(gl.from_step(s), 3).step_form()
    want = np.linalg.matrix_power(s.values, 3) / 16.0
    assert np.allclose(p.values, want, atol=1e-12)


def test_discretize_examples():
    assert np.all(gl.discretize(gl.constant(0.3), 5).values == 0.3)
    d = gl.discretize(gl.builtin("product"), 2)
    assert d.values[0, 0] == pytest.approx(0.0625, abs=1e-12)
    s = random_step(4, key=3, signed=False)
    assert np.array_equal(gl.discretize(gl.from_step(s), 4).values, s.values)


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
        require_symmetric(r, gl.QuadratureSpec())
    assert r.step_form() is None
    want = (a.values @ b.values) / 2.0
    assert np.allclose(r.asym_values, want, atol=1e-15)


def test_contraction_inequality_sample():
    for trial in range(12):
        n = 2 + trial % 7
        a, b, c, d = (random_step(n, key=200 + 4 * trial + i, signed=False) for i in range(4))
        ab = gl.product(a, b)
        cd = gl.product(c, d)
        va = ab.step_form().values if ab.step_form() is not None else ab.asym_values
        vc = cd.step_form().values if cd.step_form() is not None else cd.asym_values
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
    s = gl.from_step(random_step(5, key=77, signed=False))
    left = gl.product(gl.product(s, s), s)
    right = gl.product(s, gl.product(s, s))
    lv = left.step_form().values if left.step_form() is not None else left.asym_values
    rv = right.step_form().values if right.step_form() is not None else right.asym_values
    assert np.max(np.abs(lv - rv)) <= 1e-8
    direct = gl.power(s, 3).step_form().values
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
        gl.power(w, 2, q).evaluate(0.3, 0.6)
    with pytest.raises(QuadratureError, match="^limit distance at n=4 did not settle"):
        _LimitDistance(w, 2, [4], q).distance(gl.constant(0.1).step.refine(4))
    report = gl.run_theorem_sweep(w, 2, [3, 5], q, seed=1)
    assert report.incomplete and report.rows == []


class _CountingKernel:
    """An analytic kernel that counts its grid evaluations."""

    def __init__(self, label, fn):
        self.label, self.fn, self.calls = label, fn, 0

    def step_form(self):
        return None

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
    assert r.step_form() is None and r.asym_values is None
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
    s = kernel.step_form()
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


def test_cell_means_holds_no_full_grid():
    w = gl.from_expression("min(x,y)*(1-max(x,y))")
    q = gl.QuadratureSpec()
    # the full-grid version peaks at 72 MiB here: W and one temporary on the 2048-grid
    assert peak_bytes(lambda: cell_means(w, 1024, q, zero_diagonal=True)) < 40 * 2**20


class _ShapeRecordingKernel(_CountingKernel):
    def __init__(self, label, fn):
        super().__init__(label, fn)
        self.shapes = []

    def eval_grid(self, xs, ys, gz=0):
        self.shapes.append((len(xs), len(ys), gz))
        return super().eval_grid(xs, ys, gz)


def test_cell_means_of_a_lazy_power_evaluates_its_factor_once_per_grid_level():
    w = _ShapeRecordingKernel("w", lambda x, y: np.minimum(x, y) * (1.0 - np.maximum(x, y)))
    q = gl.QuadratureSpec(base_grid=512, max_refinements=1, tol=1e-3)
    cells = cell_means(gl.power(w, 2, q), 4, q)
    # two levels (512 and 1024); each evaluates the whole factor grid once
    assert w.shapes == [(512, 512, 512), (1024, 1024, 1024)]
    assert cells.tobytes() == _full_grid_cell_means(gl.power(w, 2, q), 4, q).tobytes()


def test_integrals_and_l1_distances_of_a_lazy_power_evaluate_its_factor_once_per_grid_level():
    q = gl.QuadratureSpec(base_grid=1024, max_refinements=1, tol=1e-3)
    step = gl.StepGraphon(2, [[0.5, 0.25], [0.25, 1.0]])
    for measure in (lambda k: gl.integrate2d(k, q), lambda k: gl.l1_distance(k, step, q)):
        w = _ShapeRecordingKernel("w", lambda x, y: np.minimum(x, y) * (1.0 - np.maximum(x, y)))
        measure(gl.power(w, 2, q))
        # one factor grid per level; reading the product in 512-row blocks takes 8 at 2048
        assert w.shapes == [(1024, 1024, 1024), (2048, 2048, 2048)]


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

    def step_form(self):
        return None

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
    sa, sb = ka.step_form(), kb.step_form()
    if sa is None or sb is None:
        return False
    return sa.n == sb.n and np.array_equal(sa.values, sb.values)


def _old_step_product(sa, sb, symmetric):
    m = math.lcm(sa.n, sb.n)
    a = sa.refine(m // sa.n).values
    b = sb.refine(m // sb.n).values
    vals = (a @ b) / m
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


def test_lazy_power_of_an_exact_asymmetric_product_integrates_on_its_lcm_grain():
    a = random_step(2, key=21, signed=False)
    b = random_step(3, key=22, signed=False)
    ab = gl.product(a, b)
    p = ab.asym_values
    w = gl.power(ab, 2)
    assert w.left is ab and w.right is ab and grain_of(w) == 6
    res = gl.integrate2d(w, gl.QuadratureSpec())
    assert res.grid % 6 == 0
    assert abs(res.value - float(np.mean(p @ p / 6))) <= 1e-15


def test_step_products_and_powers_hold_at_most_two_matrices_at_once():
    s = random_step(512, key=3, signed=False)  # one 512 x 512 matrix is 2 MiB
    for make in (lambda: gl.product(s, s), lambda: gl.power(s, 2)):
        assert peak_bytes(make) < 5 * 2**20

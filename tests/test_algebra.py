import numpy as np
import pytest

import graphonlab as gl
from graphonlab.algebra import ceil_to_multiple, cell_means, midpoints
from graphonlab.errors import QuadratureError, ValidationError
from conftest import brute_force_product_cell, random_step


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
    assert r.symmetric


def test_product_of_product_kernel_pointwise():
    w = gl.builtin("product")
    r = gl.product(w, w)
    assert r.step_form() is None and r.symmetric
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
    assert not r.symmetric
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab import norms
from graphonlab.errors import EnumerationBudgetError, ValidationError
from conftest import brute_force_cut_norm, random_step


def test_l1_identical_is_zero():
    w = gl.builtin("minmax")
    assert gl.l1_distance(w, w) == pytest.approx(0.0, abs=1e-15)


def test_l1_unit_separation():
    assert gl.l1_distance(gl.constant(1.0), gl.constant(0.0)) == pytest.approx(1.0, abs=1e-15)


def test_l1_expected_vs_constant_closed_form():
    for n in (2, 3, 6, 10):
        e = gl.expected_graphon(gl.constant(0.5), n)
        assert gl.l1_distance(e, gl.constant(0.5)) == pytest.approx(0.5 / n, abs=1e-14)


def test_l1_mixed_step_analytic_aligned():
    s = gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]])
    assert gl.l1_distance(s, gl.constant(0.0)) == pytest.approx(0.5, abs=1e-13)


def test_cut_norm_constant_matrix():
    s = gl.StepGraphon(3, np.full((3, 3), 0.4))
    r = gl.cut_norm_exact(s)
    assert r.value == pytest.approx(0.4, abs=1e-15)
    assert r.witness_s == (0, 1, 2) and r.witness_t == (0, 1, 2)
    assert r.exact


def test_cut_norm_hand_instance_matches_brute_force():
    m = np.array([[-0.5, 0.5], [0.5, -0.5]])
    want, _ = brute_force_cut_norm(m)
    assert want == pytest.approx(0.125, abs=1e-15)
    r = gl.cut_norm_exact(gl.StepGraphon(2, m, -1.0, 1.0))
    assert r.value == pytest.approx(0.125, abs=1e-15)
    assert r.witness_s == (0,) and r.witness_t == (1,)


def test_cut_norm_zero_matrix():
    r = gl.cut_norm_exact(gl.StepGraphon(3, np.zeros((3, 3)), -1.0, 1.0))
    assert r.value == 0.0
    assert r.witness_value(np.zeros((3, 3))) == 0.0


def test_cut_norm_budget():
    s = gl.StepGraphon(25, np.zeros((25, 25)), -1.0, 1.0)
    with pytest.raises(EnumerationBudgetError):
        gl.cut_norm_exact(s)
    assert gl.cut_norm_lower_bound(s).value == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cut_norm_exact_matches_full_pair_enumeration(n):
    s = random_step(n, key=300 + n)
    want, _ = brute_force_cut_norm(s.values)
    got = gl.cut_norm_exact(s)
    assert got.value == pytest.approx(want, abs=1e-12)


def test_heuristic_constant_first_restart():
    s = gl.StepGraphon(4, np.full((4, 4), 0.7))
    r = gl.cut_norm_lower_bound(s, restarts=1, seed=0)
    assert r.value == pytest.approx(0.7, abs=1e-15)
    assert not r.exact


def test_heuristic_sound_and_usually_tight():
    hits = 0
    trials = 40
    for t in range(trials):
        n = 2 + t % 9
        s = random_step(n, key=400 + t)
        exact = gl.cut_norm_exact(s)
        lb = gl.cut_norm_lower_bound(s, restarts=50, seed=t)
        assert lb.value <= exact.value + 1e-12
        hits += abs(lb.value - exact.value) <= 1e-12
    assert hits >= 0.9 * trials


@given(n=st.integers(2, 8), key=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_witness_reproduces_value(n, key):
    s = random_step(n, key)
    r = gl.cut_norm_exact(s)
    assert abs(r.witness_value(s.values) - r.value) <= 1e-12
    lb = gl.cut_norm_lower_bound(s, restarts=10, seed=key)
    assert abs(lb.witness_value(s.values) - lb.value) <= 1e-12


@given(n=st.integers(2, 12), key=st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_cut_norm_dominated_by_l1(n, key):
    s = random_step(n, key)
    cut = gl.cut_norm_auto(s).value
    l1 = float(np.abs(s.values).mean())
    assert cut <= l1 + 1e-12


def test_nonnegative_cut_norm_is_full_integral():
    for n in (2, 5, 9):
        s = random_step(n, key=500 + n, signed=False)
        r = gl.cut_norm_exact(s)
        assert r.value == pytest.approx(float(s.values.mean()), abs=1e-12)
        assert r.witness_s == tuple(range(n)) and r.witness_t == tuple(range(n))


def test_norm_axioms_on_random_triples():
    n = 6
    for t in range(10):
        a = random_step(n, key=600 + 3 * t, signed=False)
        b = random_step(n, key=601 + 3 * t, signed=False)
        c = random_step(n, key=602 + 3 * t, signed=False)
        dab = gl.l1_distance(a, b)
        dba = gl.l1_distance(b, a)
        dac = gl.l1_distance(a, c)
        dcb = gl.l1_distance(c, b)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-15)
        assert dab <= dac + dcb + 1e-12

        def cut_diff(u, v):
            return gl.cut_norm_exact(
                gl.StepGraphon(n, u.values - v.values, -1.0, 1.0)
            ).value

        assert cut_diff(a, b) <= cut_diff(a, c) + cut_diff(c, b) + 1e-12


def test_discretization_interval_step_input_zero_width():
    s = random_step(8, key=700)
    exact = gl.cut_norm_exact(s).value
    # signed steps are valid kernels for the bracket; m = 2n and 3n refine the step
    for m in (8, 16, 24):
        iv = gl.cut_distance_upper_via_discretization(s, m)
        assert iv.l1_gap == 0.0, m
        assert iv.low == pytest.approx(exact, abs=1e-12), m
        assert iv.high == pytest.approx(exact, abs=1e-12), m


def test_discretization_interval_constant():
    iv = gl.cut_distance_upper_via_discretization(gl.constant(0.3), 4)
    assert iv.low == pytest.approx(0.3, abs=1e-12)
    assert iv.high == pytest.approx(0.3, abs=1e-12)


def test_discretization_interval_sampled_er():
    cfg = gl.SamplerConfig(12, 31, gl.constant(0.5))
    g = gl.sample_graph(cfg, gl.sample_latents(cfg))
    diff = gl.StepGraphon(12, gl.canonical_graphon(g).values - 0.5, -1.0, 1.0)
    iv = gl.cut_distance_upper_via_discretization(diff, 12)
    exact = gl.cut_norm_exact(diff).value
    assert iv.low <= exact <= iv.high
    assert iv.l1_gap == 0.0


def test_discretization_interval_analytic_brackets_heuristic():
    w = gl.builtin("minmax")
    iv = gl.cut_distance_upper_via_discretization(w, 8)
    # nonnegative kernel: true cut norm equals the full integral, which is
    # 2 * int_0^1 x (1-x)^2 / 2 dx = 1/2 - 2/3 + 1/4 = 1/12
    truth = 1.0 / 12.0
    assert iv.low - 1e-9 <= truth <= iv.high + 1e-9


def test_discretization_interval_refuses_restarts_below_1_before_any_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("discretized before restarts were checked")

    monkeypatch.setattr(norms, "discretize", no_grid)
    for restarts in (0, -5):
        with pytest.raises(ValidationError, match="^restarts must be >= 1$"):
            gl.cut_distance_upper_via_discretization(gl.builtin("minmax"), 1500,
                                                     restarts=restarts)


def _old_value_and_t(values, rows):
    """The witness pass every result was built with before `norms._result`."""
    n = values.shape[0]
    rows = sorted(int(i) for i in rows)
    if rows:
        r = values[rows].sum(axis=0)
    else:
        r = np.zeros(n)
    pos = float(r[r > 0.0].sum())
    neg = float(-r[r < 0.0].sum())
    if pos >= neg:
        t = tuple(int(j) for j in np.nonzero(r > 0.0)[0])
        val = pos
    else:
        t = tuple(int(j) for j in np.nonzero(r < 0.0)[0])
        val = neg
    return val / (n * n), tuple(rows), t


def _witness_cases():
    g = np.random.default_rng(19)
    mats = [("zero-1", np.zeros((1, 1))), ("zero-6", np.zeros((6, 6))),
            ("single-pos", np.array([[0.25]])), ("single-neg", np.array([[-0.25]])),
            # S = {0} has column sums (0.5, -0.5): pos == neg, and T is read off pos
            ("tie", np.array([[0.5, -0.5], [-0.5, 0.5]])),
            ("tie-3", np.array([[0.25, -0.5, 0.25], [0.0, 0.0, 0.0], [1.0, 1.0, -2.0]]))]
    for n in (7, 20, 40):
        # entries in {-1/2, 1/2}: column sums over S are often exactly 0
        adj = np.triu(g.uniform(size=(n, n)) < 0.5, 1).astype(float)
        er = adj + adj.T - 0.5
        np.fill_diagonal(er, 0.0)
        mats.append((f"er-half-{n}", er))
    for n in (3, 12):
        u = g.normal(size=(n, n))
        mats += [(f"symmetric-{n}", np.triu(u) + np.triu(u, 1).T), (f"nonsymmetric-{n}", u)]
    for name, values in mats:
        n = values.shape[0]
        sels = [("empty", np.zeros(n, dtype=bool)), ("full", np.ones(n, dtype=bool))]
        sels += [(f"random{i}", g.uniform(size=n) < 0.5) for i in range(6)]
        if name.startswith("tie"):
            sels.append(("first", np.arange(n) == 0))
        for sel_name, sel in sels:
            yield pytest.param(values, sel, id=f"{name}-{sel_name}")


@pytest.mark.parametrize("values,sel", list(_witness_cases()))
def test_result_matches_the_old_witness_pass(values, sel):
    value, ws, wt = _old_value_and_t(values, np.flatnonzero(sel))
    r = norms._result(values, sel, False)
    assert np.float64(r.value).tobytes() == np.float64(value).tobytes()
    assert (r.witness_s, r.witness_t, r.n, r.exact) == (ws, wt, values.shape[0], False)
    assert all(type(i) is int for i in r.witness_s + r.witness_t)


# (7, 7) compares two equal grids (s = 1); (300, 3) and (3, 300) spread the coarser step
# over 100 x 100 blocks of a 90,000-entry grid, past one 2^16-entry leaf of the sum
@pytest.mark.parametrize("na, nb, both", [
    pytest.param(na, nb, both, id=f"{na}-{nb}" + ("-both" if both else ""))
    for na, nb in [(6, 4), (1, 20), (20, 1), (128, 3), (5, 35), (7, 7), (300, 3), (3, 300)]
    for both in (False, True)])
def test_step_l1_distance_matches_the_refined_difference_bit_for_bit(na, nb, both):
    a, b = random_step(na, key=1), random_step(nb, key=2)
    values = np.array(a.values)
    values[0, 0] = -0.0
    a = gl.StepGraphon(na, values, -1.0, 1.0)
    if both:  # -0.0 against -0.0 on the first cell, and against a's values on the last
        values = np.array(b.values)
        values[0, 0] = values[-1, -1] = -0.0
        b = gl.StepGraphon(nb, values, -1.0, 1.0)
    m = np.lcm(na, nb)
    av = np.kron(a.values, np.ones((m // na, m // na)))
    bv = np.kron(b.values, np.ones((m // nb, m // nb)))
    want = float(np.abs(av - bv).mean())
    assert gl.l1_distance(a, b).hex() == want.hex()
    assert gl.l1_distance(b, a).hex() == float(np.abs(bv - av).mean()).hex()


def test_step_l1_distance_against_a_coarser_divisor_builds_no_grid(peak_bytes):
    fine, one = random_step(512, key=3), gl.constant(0.25).step
    # a 512 x 512 array is 2 MiB; the sum reads 2^16-entry leaves of |fine - 0.25|
    assert peak_bytes(lambda: gl.l1_distance(fine, one)) < 512 * 512 * 8
    assert peak_bytes(lambda: gl.l1_distance(one, fine)) < 512 * 512 * 8


def test_cut_norm_lower_bound_refuses_restarts_below_1():
    with pytest.raises(ValidationError) as info:
        gl.cut_norm_lower_bound(gl.constant(0.5).step, restarts=0)
    assert str(info.value) == "restarts must be >= 1"

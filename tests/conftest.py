import tracemalloc

import numpy as np
import pytest

from graphonlab import StepGraphon, rng
from graphonlab._kernels import warmup


_SKIPPED = []


def pytest_runtest_logreport(report):
    # called for the tests under this directory only
    if report.skipped and not hasattr(report, "wasxfail"):
        _SKIPPED.append(report.nodeid)


def pytest_terminal_summary(terminalreporter):
    if _SKIPPED:
        terminalreporter.write_line(
            f"error: {len(_SKIPPED)} test(s) skipped, and no test may be: " + ", ".join(_SKIPPED)
        )


def pytest_sessionfinish(session):
    if _SKIPPED and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # run each hot kernel once so timed tests measure the algorithms alone
    warmup()


def peak_bytes(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_step(n: int, key: int, signed: bool = True) -> StepGraphon:
    """Deterministic random symmetric step graphon (exactly symmetric)."""
    u = rng.uniform_block(rng.derive_key(key, n), n * n).reshape(n, n)
    m = 0.5 * (u + u.T)
    if signed:
        return StepGraphon(n, 2.0 * m - 1.0, -1.0, 1.0)
    return StepGraphon(n, m, 0.0, 1.0)


def brute_force_cut_norm(values: np.ndarray):
    """Enumerate every (S, T) subset pair; the oracle for small n."""
    n = values.shape[0]
    best = 0.0
    witness = ((), ())
    for smask in range(1 << n):
        srows = [i for i in range(n) if (smask >> i) & 1]
        for tmask in range(1 << n):
            tcols = [j for j in range(n) if (tmask >> j) & 1]
            if srows and tcols:
                total = abs(float(values[np.ix_(srows, tcols)].sum())) / (n * n)
            else:
                total = 0.0
            if total > best:
                best = total
                witness = (tuple(srows), tuple(tcols))
    return best, witness


def brute_force_product_cell(a: StepGraphon, b: StepGraphon, i: int, j: int,
                             z_per_block: int = 64) -> float:
    """Midpoint z-quadrature of the defining integral at an lcm-grid midpoint.

    (i, j) indexes the lcm(a.n, b.n) grid. The z-grid is aligned to both
    block structures, so the Riemann sum is the exact integral; it never
    touches the matrix-product formula.
    """
    import math

    m = math.lcm(a.n, b.n)
    g = m * z_per_block
    x = (i + 0.5) / m
    y = (j + 0.5) / m
    zs = (np.arange(g) + 0.5) / g
    vals = [a.evaluate(x, z) * b.evaluate(z, y) for z in zs]
    return float(np.sum(vals)) / g

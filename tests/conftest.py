import hashlib
import tracemalloc

import numpy as np
import pytest

from graphonlab import StepGraphon, evaluate, rng
from graphonlab._kernels import warmup
from graphonlab.algebra import _matmul


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


@pytest.fixture
def peak_bytes():
    """A measure of the peak bytes that tracemalloc sees allocated while fn() runs, its
    result included. NumPy reports its buffers to tracemalloc, so this counts the arrays
    of this process alone, whatever else the machine runs."""

    def measure(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


# sha256 of _matmul(a, a) for the 3 x 3 matrix in blas_family on OpenBLAS's Prescott kernel
# (SSE3, no FMA); the FMA kernels (SkylakeX, Haswell) round one of its sums differently
_PRESCOTT_PROBE = "101d1e6b1215857629175d06796308b690de4a2200554f9645b0b7f4ab651823"
# sha256 of the 1 x 1 product of a's first row, repeated to 256 entries, with itself on
# Prescott; the Sandybridge kernel (AVX, no FMA) sums that inner dimension differently
_PRESCOTT_ROW_PROBE = "031c5a3ddb0f1697d6c2ecdd70c8ca91dce7622cfee930c4da0b927d7b347a03"


def _digest(m) -> str:
    return hashlib.sha256(m.tobytes()).hexdigest()


def blas_family() -> str:
    """"Prescott" or "Sandybridge" when this process's BLAS rounds a small unaligned
    product as OpenBLAS's non-FMA kernels do, and then a 256-long sum as Prescott does or
    not; else "default". Golden digests of products on unaligned shapes are recorded per
    family, since no summation order makes FMA and non-FMA sums agree."""
    a = np.array([[0.1, 0.2, 0.9], [0.2, 0.4, 0.5], [0.9, 0.5, 0.7]])
    if _digest(_matmul(a, a)) != _PRESCOTT_PROBE:
        return "default"
    row = np.resize(a[0], (1, 256))
    prescott = _digest(_matmul(row, row.T.copy())) == _PRESCOTT_ROW_PROBE
    return "Prescott" if prescott else "Sandybridge"


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
    vals = [evaluate(a, x, z) * evaluate(b, z, y) for z in zs]
    return float(np.sum(vals)) / g

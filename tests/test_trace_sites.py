"""Every call site the benchmark's tracer wraps must still exist.

``perfbench/pb_trace.install`` skips a missing site instead of failing, so a
refactor that renames or removes one would silently drop a per-layer metric.
This checks the site list without installing the tracer.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import pb_trace  # noqa: E402

SITES = [(owner, attr) for owner, attr, *_ in pb_trace._targets()]


@pytest.mark.parametrize(
    "owner, attr", SITES, ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in SITES]
)
def test_trace_site_exists(owner, attr):
    assert attr in vars(owner)

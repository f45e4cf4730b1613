"""Every checked-in BENCH_*.json file is a record a speed claim can cite: each run names
the commit, the command, the machine, the BLAS and the backend it ran on; each run's
outputs were checked correct with no failed op; and each summary median is the median of
its runs."""

import json
import statistics
from pathlib import Path

import pytest

BENCH_FILES = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
STAMP_FIELDS = ("commit", "command", "cpu_model", "blas", "backend")


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_a_bench_file_is_stamped_checked_and_summarized(path):
    doc = json.loads(path.read_text())
    assert doc
    for key, entry in doc.items():
        runs = entry["runs"]
        assert runs, key
        for run in runs:
            where = f"{key} seed {run['seed']}"
            assert all(run["stamp"].get(f) for f in STAMP_FIELDS), where
            assert run["result"]["correct"] is True and run["result"]["failed"] == 0, where
        assert entry["summary"], key
        for metric, summary in entry["summary"].items():
            values = [run["result"]["metrics"][metric]["value"] for run in runs]
            assert summary["median"] == statistics.median(values), f"{key} {metric}"

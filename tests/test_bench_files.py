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



# Claims recorded as two files, the parent's runs and the change's, from one run that
# alternated the two sides seed by seed.
CLAIM_PAIRS = [
    ("BENCH_pr32_theorem-large.json", "BENCH_pr33_theorem-large.json"),
    ("BENCH_pr34_graph-large.json", "BENCH_pr35_graph-large.json"),
]
SAME_HOST_FIELDS = ("cpu_model", "blas", "backend", "nproc", "python", "numpy")


@pytest.mark.parametrize("parent, change", CLAIM_PAIRS, ids=lambda name: name[:-5])
def test_a_claim_pair_ran_the_same_seeds_on_one_host_at_one_commit_a_side(parent, change):
    root = Path(__file__).resolve().parents[1]
    before, after = (json.loads((root / name).read_text()) for name in (parent, change))
    assert before.keys() == after.keys()
    for key in before:
        runs = before[key]["runs"] + after[key]["runs"]
        half = len(before[key]["runs"])
        seeds = [run["seed"] for run in runs]
        assert seeds[:half] == seeds[half:], key
        commits = [{run["stamp"]["commit"] for run in side} for side in (runs[:half], runs[half:])]
        assert len(commits[0]) == len(commits[1]) == 1 and commits[0] != commits[1], key
        for field in SAME_HOST_FIELDS:
            assert len({run["stamp"][field] for run in runs}) == 1, f"{key} {field}"


# All three workloads at one commit a side, recorded as the parent's file and the change's
# from one run that alternated the two sides seed by seed; no gain is claimed from them.
ALL_WORKLOAD_PAIRS = [("BENCH_pr35_all.json", "BENCH_pr36_all.json")]


@pytest.mark.parametrize("parent, change", ALL_WORKLOAD_PAIRS, ids=lambda name: name[:-5])
def test_an_all_workload_pair_covers_every_workload_alike(parent, change):
    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want = {f"{w['name']}/trace0" for w in spec["workloads"]}
    for name in (parent, change):
        doc = json.loads((root / name).read_text())
        assert doc.keys() == want, name
        assert all([r["seed"] for r in doc[k]["runs"]] == list(range(1, 11)) for k in doc), name
    test_a_claim_pair_ran_the_same_seeds_on_one_host_at_one_commit_a_side(parent, change)

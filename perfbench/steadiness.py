#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the root of a graphonlab checkout:

    python3 perfbench/steadiness.py --workload ce-exact --seeds 1-10 [--out FILE]

For every end-to-end metric it prints the median, the quartiles and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json; a spread above the bound means the metric cannot tell a
regression of that size from noise. ``--out`` appends the runs' stamps,
per-seed values and summaries to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pb_stats  # noqa: E402


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        stamp, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        runs.append({"seed": seed, "stamp": stamp, "result": result})
        values = {m: round(v["value"], 6) for m, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values if not args.trace else ''}", flush=True)

    summary = {}
    for metric in metrics:
        values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
        q1, q2, q3 = pb_stats.quartiles(values)
        spread = pb_stats.relative_spread(values)
        summary[metric["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                   "unit": metric["unit"]}
        bound = metric.get("bound")
        if bound is not None:
            print(f"{metric['name']:14s} median {q2:.6g} {metric['unit']}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  spread {spread:.4f}  bound {bound}")
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = f"{args.workload}/trace{args.trace}"
        doc[key] = {"runs": runs, "summary": summary}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

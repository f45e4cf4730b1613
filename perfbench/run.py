#!/usr/bin/env python3
"""graphonlab benchmark entry point.

Run from the root of a graphonlab checkout:

    python3 perfbench/run.py --workload ce-exact --seed 0 --seconds 30 --trace 0

Each workload runs in fresh worker processes (``worker.py``) with OpenBLAS
and OpenMP pinned to one thread, so a run uses one core at a time. The ops
are a closed loop: the next op starts when the previous one has finished,
until ``--seconds`` have passed (at least one op).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median set-up time over ``SETUP_PROBES`` set-up-only processes
  and the measuring process (spawn to first op: interpreter, import,
  CLI parser, kernel warm-up);
* ``op_s``: median wall time of one op; the sample count is ``attempted``;
* ``peak_rss_mib``: peak resident set size of the measuring process.

``--trace 1`` runs the workload twice for half the time each, untraced and
then traced, and reports the per-layer metrics of the traced process (see
``pb_trace``) plus ``trace.overhead_frac`` (traced over untraced mean op
time, minus 1). Reports written by the two processes must be byte-identical,
op for op.

An op fails if it raises, the CLI exits non-zero, its report is marked
incomplete or its output check fails; at the default seed its outputs are
also compared with ``reference.json``. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it stamps
the machine, versions, thread pinning, backend and source revision.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pb_stats  # noqa: E402
import pb_trace  # noqa: E402
from pb_workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = 9
RUN_BUDGET_S = 170.0
WORK_DIR = ".perfbench_work"


class BenchError(Exception):
    pass


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's output digests in reference.json "
                         "(default seed, untraced)")
    return ap.parse_args(argv)


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def _spawn(work: Path, tag: str, args, seconds: float, deadline: float, *flags) -> dict:
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--out", str(out),
           "--workdir", str(work / tag), *flags, "--spawned-at"]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start {tag}")
    proc = subprocess.run(cmd + [repr(time.monotonic())], env=_worker_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text())


def _failed(ops) -> int:
    return sum(1 for op in ops if op["problems"])


def _op_median(ops) -> float:
    good = [op["seconds"] for op in ops if not op["problems"]]
    return pb_stats.median(good or [op["seconds"] for op in ops])


def _report_ops(label: str, ops) -> None:
    q1, q2, q3 = pb_stats.quartiles([op["seconds"] for op in ops])
    print(f"{label}: {len(ops)} op(s), op_s median {q2:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}), "
          f"{_failed(ops)} failed", file=sys.stderr)
    for i, op in enumerate(ops):
        for problem in op["problems"]:
            print(f"  op {i}: {problem}", file=sys.stderr)


def _untraced(work, args, deadline):
    setups = [_spawn(work, f"setup{i}", args, 0.0, deadline, "--setup-only")["setup_s"]
              for i in range(SETUP_PROBES)]
    flags = ("--no-reference",) if args.record_reference else ()
    res = _spawn(work, "untraced", args, args.seconds, deadline, *flags)
    setups.append(res["setup_s"])
    ops = res["ops"]
    _report_ops("untraced", ops)
    metrics = {
        "setup_s": {"value": pb_stats.median(setups), "unit": "s"},
        "op_s": {"value": _op_median(ops), "unit": "s"},
        "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
    }
    return res, len(ops), _failed(ops), metrics


def _traced(work, args, deadline):
    half = args.seconds / 2.0
    plain = _spawn(work, "untraced", args, half, deadline)
    traced = _spawn(work, "traced", args, half, deadline, "--traced")
    _report_ops("untraced", plain["ops"])
    _report_ops("traced", traced["ops"])
    if traced["missing_wrap_sites"]:
        print(f"trace: wrap sites not found: {traced['missing_wrap_sites']}", file=sys.stderr)
    ops = plain["ops"] + traced["ops"]
    failed = _failed(ops)
    for i, (a, b) in enumerate(zip(plain["ops"], traced["ops"])):
        if a["digest"] != b["digest"]:
            print(f"  op {i}: traced output differs from untraced output", file=sys.stderr)
            failed += 1
    metrics = dict(traced["layers"])
    mean = lambda run: sum(op["seconds"] for op in run["ops"]) / len(run["ops"])  # noqa: E731
    name, unit = pb_trace.OVERHEAD_METRIC
    metrics[name] = {"value": mean(traced) / mean(plain) - 1.0, "unit": unit}
    return traced, len(ops), failed, metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "graphonlab").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def _stamp(args, root: Path, environment: dict) -> dict:
    return {
        "stamp": "graphonlab perfbench",
        "command": [Path(sys.executable).name, *sys.argv],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads_pinned": BLAS_THREADS,
        **environment,
        **_revision(root),
    }


def _record_reference(args, res) -> None:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    reference["seed"] = DEFAULT_SEED
    reference[args.workload] = [op["digest"] for op in res["ops"]]
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"reference for {args.workload} written to {path}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "graphonlab" / "__init__.py").is_file():
        print("perfbench: no graphonlab source at ./src/graphonlab; "
              "run from the root of a graphonlab checkout", file=sys.stderr)
        return 2
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace):
        print("perfbench: --record-reference needs the default seed and --trace 0",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        measure = _traced if args.trace else _untraced
        res, attempted, failed, metrics = measure(work, args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if args.record_reference:
        _record_reference(args, res)
    print(json.dumps(_stamp(args, root, res["environment"])))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

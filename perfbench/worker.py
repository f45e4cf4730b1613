"""One workload process: set up graphonlab, run ops until the deadline, check each.

Started by ``run.py`` from the root of a graphonlab checkout; it imports the
package from ``./src`` only. Set-up time runs from the moment run.py
spawned this process (``--spawned-at``, a CLOCK_MONOTONIC reading, which is
shared by all processes of the machine) until the first op can begin: the
interpreter start, ``import graphonlab``, building the CLI parser and
``_kernels.warmup()``. With ``--setup-only`` the process stops there.

The result, a JSON object, goes to ``--out``. Ops that raise, make the CLI
exit non-zero or fail their output check are listed with their problems;
they do not stop the run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-reference", action="store_true",
                    help="skip the default-seed reference comparison (when recording it)")
    return ap.parse_args(argv)


def _setup(root: Path):
    sys.path.insert(0, str(root / "src"))
    import graphonlab
    import graphonlab.cli
    from graphonlab import _kernels

    if not Path(graphonlab.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"perfbench: imported graphonlab from {graphonlab.__file__}, "
                         f"not from {root / 'src'}")
    if getattr(_kernels, "USING_NUMBA", False):
        raise SystemExit("perfbench: refusing to run on the numba backend; the baseline is "
                         "NumPy-only (set GRAPHONLAB_NO_NUMBA=1)")
    graphonlab.cli._build_parser()
    _kernels.warmup()
    return graphonlab


def _blas_threads():
    """Thread count OpenBLAS reports at run time, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _environment(gl) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_runtime": _blas_threads(),
        "backend": "numba" if getattr(gl._kernels, "USING_NUMBA", False) else "numpy",
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    gl = _setup(root)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(_run_ops(gl, args))
    args.out.write_text(json.dumps(result))
    return 0


def _run_ops(gl, args) -> dict:
    import resource

    import pb_trace
    import pb_workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = pb_workloads.WORKLOADS[args.workload](gl, args.seed, args.workdir)
    reference = None
    if args.seed == pb_workloads.DEFAULT_SEED and not args.no_reference:
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    tracer = None
    if args.traced:
        tracer = pb_trace.Tracer()
        pb_trace.install(tracer)

    ops = []
    begin = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        try:
            output = workload.run(index)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"op raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(seconds)
        if error is None:
            problems, digest = workload.check(index, output)
            if reference is not None:
                problems += pb_workloads.check_reference(args.workload, index, digest, reference)
        else:
            problems, digest = [error], None
        ops.append({"seconds": seconds, "problems": problems, "digest": digest})
        output = None  # free this op's outputs outside the next op's timing
        index += 1
        if time.perf_counter() - begin >= args.seconds:
            break

    out = {
        "ops": ops,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(gl),
    }
    if tracer is not None:
        out["layers"] = pb_trace.layer_metrics(tracer)
        out["missing_wrap_sites"] = tracer.missing
    return out


if __name__ == "__main__":
    sys.exit(main())

"""Service benchmark: one workload per invocation, one JSON result line.

Usage (from the root of a checkout)::

    python3 servicebench/run.py --workload tenant-long --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs traced
repetitions and reports the per-layer metrics.  The load repeats in
fresh stores until ``--seconds`` are spent, and at least ``MIN_REPS``
times so that the quality figures are compared between repetitions.
The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is a report with sample
counts, tail percentiles, quality figures and provenance.  See
``README.md`` here.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# one BLAS thread: the server's worker thread and the client loop share
# the host's cores, and the quality figures do not depend on it
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

BENCH = Path(__file__).resolve().parent

#: the serving stack whose import time is part of setup_s
SERVING_MODULES = ("repro.service.transport.server",
                   "repro.service.transport.client",
                   "repro.harness.experiments")
#: fresh interpreters timed importing it; this process's own first
#: import also compiles the sources and is not counted
IMPORT_RUNS = 3
IMPORT_SCRIPT = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - t0)\n")
#: repetitions every run makes, however short ``--seconds`` is
MIN_REPS = 2


def _bootstrap() -> None:
    """Import the serving stack from this checkout's sources, or exit 2
    when the sources are not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servicebench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    for name in SERVING_MODULES:
        importlib.import_module(name)
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"servicebench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        sys.exit(2)


def _import_seconds() -> list:
    """Seconds each of ``IMPORT_RUNS`` fresh interpreters takes to import
    the serving stack."""
    out = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT, str(SRC),
                               *SERVING_MODULES],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _provenance(seed: int, size: str) -> dict:
    import numpy
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                env=env).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"seed": seed, "size": size, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": BLAS_THREADS, "commit": commit}


async def _measure(name: str, seed: int, seconds: float, trace: bool,
                   size: str, work_dir: Path):
    """Repeat the workload until ``seconds`` are spent, at least
    ``MIN_REPS`` times; with ``trace`` every repetition is traced.
    Returns ``(rep, tracer or None)`` pairs."""
    from generator import InputCache
    from spans import Tracer
    from workloads import SIZES, run_rep

    cache = InputCache()
    # warm-up: lazy imports and first-call set-up, never timed
    await run_rep(name, SIZES["tiny"][name], seed, cache, work_dir)
    reps = []
    t_start = time.perf_counter()
    while True:
        tracer = Tracer() if trace else None
        rep = await run_rep(name, SIZES[size][name], seed, cache, work_dir,
                            tracer)
        reps.append((rep, tracer))
        if rep.failed:
            break
        elapsed = time.perf_counter() - t_start
        if (len(reps) >= MIN_REPS
                and elapsed + elapsed / len(reps) > seconds):
            break
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's sizes")
    args = parser.parse_args(argv)
    _bootstrap()
    sys.path.insert(0, str(BENCH))
    from report import build_result
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    import_s = _import_seconds()
    work_dir = ROOT / ".servicebench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        reps = asyncio.run(_measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.size, work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass                # another run still uses it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    report, result = build_result(
        args.workload, reps, import_s=import_s,
        peak_rss_mb=peak_rss_mb, trace=bool(args.trace), wanted=wanted)
    report["provenance"] = _provenance(args.seed, args.size)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

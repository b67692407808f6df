"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 servicebench/selftest.py

For every workload it runs ``run.py --size tiny`` untraced and traced
and checks that the result line carries exactly the metrics
``BENCHMARK.json`` names, with their units, that the report gives each
one a sample count, that the traced run's spans nest (``run.py`` marks
the result incorrect otherwise) and that the quality figures match
between the two runs.  Last, it checks that the benchmark refuses to run
in a directory holding only ``BENCHMARK.json`` and the benchmark's own
files.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main() -> int:
    kinds = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        quality = []
        for trace, wanted in kinds.items():
            proc = _run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            _check(proc.returncode == 0 and len(lines) >= 2,
                   f"{workload} trace={trace} exits 0 with a report and a "
                   f"result (stderr: {proc.stderr.strip()[-300:]})")
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            _check(set(result) == {"correct", "attempted", "failed",
                                   "metrics"} and result["correct"],
                   f"{workload} trace={trace} result is correct: "
                   f"{report.get('problems')}")
            metrics = result["metrics"]
            _check(sorted(metrics) == sorted(m["name"] for m in wanted),
                   f"{workload} trace={trace} emits every named metric")
            _check(all(metrics[m["name"]]["unit"] == m["unit"]
                       for m in wanted),
                   f"{workload} trace={trace} units match BENCHMARK.json")
            detail = report["per_layer" if trace else "end_to_end"]
            _check(all(isinstance(detail[m["name"]].get("samples"), int)
                       for m in wanted),
                   f"{workload} trace={trace} reports sample counts")
            if trace:
                # round > service call > tuner > layer: spans really nest
                _check(report["spans"]["max_depth"] >= 4,
                       f"{workload} spans nest: {report['spans']}")
            quality.append(report["quality"])
        _check(quality[0] == quality[1],
               f"{workload} quality identical traced and untraced")
    bare = ROOT / ".servicebench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        _check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "refuses to run without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pin the serving stack's import graph.

A tuning frontend pays its import time on every deploy, restart and
takeover.  ``scipy.stats`` alone used to be most of it while the served
OnlineTune path never calls it, so no module of the wire server, the
client, the CLI or the experiment harness may pull it in — directly or
through any transitive import.  The check runs in a fresh interpreter
because this test process may already have ``scipy.stats`` loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SERVING_MODULES = (
    "repro.service.transport.server",
    "repro.service.transport.client",
    "repro.service.cli",
    "repro.harness.experiments",
)

_PROBE = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print("\\n".join(sorted(m for m in sys.modules
                        if m == "scipy.stats" or m.startswith("scipy.stats."))))
"""


def test_serving_stack_does_not_import_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *SERVING_MODULES],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert loaded == [], f"serving imports pulled in {loaded}"

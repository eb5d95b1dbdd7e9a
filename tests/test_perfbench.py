"""Smoke test of the benchmark's traced worker against the current package.

The tracer wraps mckay3 functions by name from outside the package, so a
rename there breaks only the traced benchmark run; this catches it here.
The test reads `perfbench/` and changes nothing in it.
"""

import json
import runpy
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_worker_reports_every_layer():
    cmd = [
        sys.executable,
        "-B",  # no bytecode cache written under perfbench/
        str(PERFBENCH / "worker.py"),
        "--command", "verify",
        "--group", "G8",
        "--launched", repr(time.monotonic()),
        "--trace", "1",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failure"] is None
    assert result["balanced"] is True
    layers = runpy.run_path(str(PERFBENCH / "tracer.py"))["LAYERS"]
    assert set(layers) <= set(result["self_s"])

"""The benchmark's traced run still works against the package.

``perfbench/tracing.py`` wraps package functions by module attribute and the
workloads divide by their call counts, so a package change that stops calling
one of them breaks every ``--trace 1`` run.  One traced ``window-sweep`` run
with ``--seconds 0`` covers all four workloads: its own loop, then one traced
round of each other workload.
"""
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_traced_run_exits_zero_and_is_correct():
    out = subprocess.run([sys.executable, str(RUN), "--workload", "window-sweep", "--trace", "1",
                          "--seconds", "0"], capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    last = json.loads(out.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), last

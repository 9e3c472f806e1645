"""The benchmark's fast check, run as part of the test suite.

``perfbench/check.py`` starts the real daemons and drives every workload at
toy sizes, untraced and traced.  Running it here means that a change under
``src/`` that renames a function the tracer patches, or breaks a daemon
flag a workload passes, fails the tests and not only the benchmark.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_fast_check_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "check.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]

"""Set-up probe: one fresh interpreter that imports the program and serves one
warm-up operation, then prints ``ready``.  ``run.py`` times it from process
start to that line.

Usage:  python3 perfbench/probe.py <workload> <workdir>
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import foxtorsion  # noqa: E402,F401
import foxtorsion.cli  # noqa: E402,F401
import workloads  # noqa: E402

op = workloads.WORKLOADS[sys.argv[1]].warmup(sys.argv[2])
report, text = op.run()
failure = op.check(report, text)
print("ready" if failure is None else f"failed: {failure}", flush=True)

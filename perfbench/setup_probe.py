"""Set-up of one workload in a fresh interpreter; run.py times this process.

    python3 perfbench/setup_probe.py <workload>
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports subquad)

w = workloads.WORKLOADS[sys.argv[1]]
workloads.warm_up(w, w.setup())

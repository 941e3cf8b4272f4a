"""Set-up probe: a fresh interpreter imports sdoflab and finishes one warm-up trial.

    python3 perfbench/probe.py <workload> <scratch dir>

``run.py`` starts it with ``PYTHONPATH`` set to the checkout's ``src``.  It
prints the ``CLOCK_MONOTONIC`` time at which the warm-up finished; the
time from its start to then is one ``setup_s`` sample.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS

if __name__ == "__main__":
    name, tmp = sys.argv[1:]
    WORKLOADS[name](0, Path(tmp)).warm_up()
    print(time.clock_gettime(time.CLOCK_MONOTONIC))

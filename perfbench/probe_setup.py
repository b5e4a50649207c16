"""Time one workload's set-up in a fresh interpreter, imports included.

    python3 perfbench/probe_setup.py WORKLOAD SEED WORK_DIR

Prints the elapsed seconds as the last line of standard output.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from run import use_checkout_sources  # noqa: E402

if __name__ == "__main__":
    use_checkout_sources()
    from workloads import WORKLOADS, setup_all

    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    setup_all(WORKLOADS[name], seed, work)
    print(f"{perf_counter() - START:.9f}")

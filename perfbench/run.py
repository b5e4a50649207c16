"""Run etrlab's benchmark from the root of a checkout.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. A result file per
workload, with an environment stamp, is written under ``.perfbench_out/``.
The program is imported from ``src/`` of the same checkout; without it the
benchmark exits non-zero before measuring anything.

BLAS runs on one thread (unless the environment says otherwise): on a
loaded host with few cores, idle BLAS worker threads spin against the
benchmark's own and a body can take several times longer.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit."""
    src = ROOT / "src"
    if not (src / "etrlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no etrlab package under {src}")
    sys.path.insert(0, str(src))
    # Before numpy is first imported; set-up probes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


if __name__ == "__main__":
    use_checkout_sources()
    import bench

    sys.exit(bench.main())

"""Same config, same bytes, whatever the BLAS thread count.

Each golden config of ``test_golden`` is trained in a fresh interpreter
under one and under two BLAS threads (the count is read when numpy loads,
so it cannot be switched within one process). Both runs must write the
same ``metrics.csv`` and ``final.ckpt``. A default-sized 15-step run
rides along (its final parameters once differed between thread counts),
and so does the update-heavy-shaped run, the widest hidden layer pinned,
and an eval-ckpt-sized ``evaluate`` on moved parameters.
Every run must also match its pinned digests, so a change that moved both
thread counts the same way fails too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN, GOLDEN_DEFAULT_SIZE, GOLDEN_EVAL, GOLDEN_UPDATE_HEAVY

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
from test_golden import (
    EVAL_CASES, GOLDEN, default_size_cfg, eval_results, golden_cfg, run_digests, update_heavy_cfg
)

configs = {f"{method} {suite}": golden_cfg(method, suite) for method, suite in sorted(GOLDEN)}
configs["default-size"] = default_size_cfg()
configs["update-heavy"] = update_heavy_cfg()
digests = {}
for name, cfg in configs.items():
    with tempfile.TemporaryDirectory() as tmp:
        csv, params = run_digests(cfg, Path(tmp))
        ckpt = hashlib.sha256((Path(tmp) / "final.ckpt").read_bytes()).hexdigest()
        digests[name] = [csv, params, ckpt]
digests["eval"] = eval_results(*EVAL_CASES["default"])
json.dump(digests, sys.stdout)
"""


def golden_digests(threads: int) -> dict[str, list[str]]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_golden_runs_are_byte_identical_under_one_and_two_blas_threads():
    one, two = golden_digests(1), golden_digests(2)
    assert len(one) == len(GOLDEN) + 3
    assert one == two
    for (method, suite), pinned in GOLDEN.items():
        assert tuple(one[f"{method} {suite}"][:2]) == pinned
    assert tuple(one["default-size"][:2]) == GOLDEN_DEFAULT_SIZE
    assert tuple(one["update-heavy"][:2]) == GOLDEN_UPDATE_HEAVY
    assert {label: tuple(pair) for label, pair in one["eval"].items()} == GOLDEN_EVAL["default"]

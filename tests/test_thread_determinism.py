"""Same config, same bytes, whatever the BLAS thread count.

Each golden config of ``test_golden`` is trained in a fresh interpreter
under one and under two BLAS threads (the count is read when numpy loads,
so it cannot be switched within one process). Both runs must write the
same ``metrics.csv`` and ``final.ckpt``. A default-sized 15-step run
rides along: its final parameters once differed between thread counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

CHILD = """
import dataclasses, hashlib, json, sys, tempfile
from pathlib import Path
from test_golden import GOLDEN, golden_cfg
from etrlab.config import TrainConfig, parse_suite
from etrlab.trainer import run_training, write_run_artifacts

configs = {f"{method} {suite}": golden_cfg(method, suite) for method, suite in sorted(GOLDEN)}
configs["default-size"] = dataclasses.replace(
    TrainConfig(),
    method="etr-micro",
    suite=parse_suite("copy:4,parity:3"),
    max_response_len=5,
    steps=15,
    eval_every=15,
)
digests = {}
for name, cfg in configs.items():
    with tempfile.TemporaryDirectory() as tmp:
        write_run_artifacts(run_training(cfg), tmp)
        digests[name] = [
            hashlib.sha256((Path(tmp) / artifact).read_bytes()).hexdigest()
            for artifact in ("metrics.csv", "final.ckpt")
        ]
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
    assert len(one) == len(GOLDEN) + 1
    assert one == two
    for (method, suite), (csv_digest, _) in GOLDEN.items():
        assert one[f"{method} {suite}"][0] == csv_digest

"""Golden digests: pinned bytes of short training runs.

A refactor that should leave every output byte alone must leave these
sha256 digests unchanged. A change that moves them on purpose (a new
summation order, a different gradient path) re-records them and says why
in CHANGES.md.

The mixed suite puts groups with different answer lengths into one
rollout batch, so batched sampling across groups is covered too.
"""

import hashlib

import pytest

from etrlab.config import TrainConfig, parse_suite
from etrlab.trainer import run_training, write_run_artifacts


def golden_cfg(method, suite):
    return TrainConfig(
        method=method,
        seed=5,
        steps=4,
        learning_rate=0.05,
        inner_epochs=4,
        groups_per_step=3,
        group_size=4,
        suite=parse_suite(suite),
        eval_every=2,
        eval_n=4,
        eval_prompts=5,
        embed_dim=4,
        hidden_dim=8,
        context_window=3,
        max_response_len=4,
    )


def run_digests(cfg, out_dir):
    result = run_training(cfg)
    write_run_artifacts(result, out_dir)
    csv = hashlib.sha256((out_dir / "metrics.csv").read_bytes()).hexdigest()
    params = hashlib.sha256(result.params.to_vector().astype("<f8").tobytes()).hexdigest()
    return csv, params


GOLDEN = {
    ("grpo", "parity:2,digitsum:1"): (
        "25a4c90ee9be1689680167c5cd1dffcc51ee01796be82a5879c8d6c05d9353a1",
        "9b3c90d9f7d589a4218c0d2e99626e2330b2e60755ea3a0e4a71ceaf4e791c5d",
    ),
    ("cliphigh", "parity:2,digitsum:1"): (
        "7d509f314d1f7b9584bf1a5364c4e7133e29239e0b10c5a2f168e341cba91444",
        "c4637e4c946e8ddd0362209b4ee310e34807ef74314f8ec6b32bd7584ed25a9d",
    ),
    ("etr", "parity:2,digitsum:1"): (
        "6039e8f64365cb0cee4c26447d3d15bfd45f11c6cad69ae9152eaf37eaf1fa88",
        "4972a05165743a085f5e455b9e04deae4faeaedaa08ea42698e1855f8ba560f2",
    ),
    ("etr-micro", "parity:2,digitsum:1"): (
        "f0ee3d120d607d235e55c8e693eacb5f9dd2aa64d473992aa74a476d02f8465e",
        "a6a062dd4bf639f4edbf446edc49db2cc01858d542c66518fd12173493455e77",
    ),
    ("etr-macro", "parity:2,digitsum:1"): (
        "5c439a098e24270ce6fd46e89d368977cc2db71c7457e0b45bdc4f889a12ee2a",
        "d0e88378981aa68282c749a1c5e6eb077c7ab6899272ddec49f791cf6744cf07",
    ),
    ("etr-inverse", "parity:2,digitsum:1"): (
        "012a8a1f169ce146fa28f79b9855c0ddf090297fb1338f4473cf13d591c6839e",
        "a60f3a9bac9789224598fb3771702daf0736a90a1b60f7aeebad911a48f24c02",
    ),
    ("etr", "parity:1,digitsum:2,copy:1"): (
        "d2154835f98367f3ad263a395971fd8f76a9eec9e1c6d61fff5154c4d1f1563c",
        "5c3ebd664a72e45e3fc5e3cff78f0d3250d10d4414218dee626311ed5d03df53",
    ),
}


@pytest.mark.parametrize("method,suite", sorted(GOLDEN), ids=lambda v: str(v))
def test_golden_digests(method, suite, tmp_path):
    assert run_digests(golden_cfg(method, suite), tmp_path) == GOLDEN[(method, suite)]

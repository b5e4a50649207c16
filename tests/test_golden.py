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
        "b727a7f1cafc11ec5a81d1f2a18c8aa2b6eaceb460ddd68de326f2f313f43983",
    ),
    ("cliphigh", "parity:2,digitsum:1"): (
        "7d509f314d1f7b9584bf1a5364c4e7133e29239e0b10c5a2f168e341cba91444",
        "defaf34614d6b0159c11399aebdfa2c51c207893ac48f84e4c1a00793289cc50",
    ),
    ("etr", "parity:2,digitsum:1"): (
        "6039e8f64365cb0cee4c26447d3d15bfd45f11c6cad69ae9152eaf37eaf1fa88",
        "9d54fc1503ef97a6887c20a1d6b12609c65cb48c491ca51f3ceae0e48d983c56",
    ),
    ("etr-micro", "parity:2,digitsum:1"): (
        "f0ee3d120d607d235e55c8e693eacb5f9dd2aa64d473992aa74a476d02f8465e",
        "a3789787e0a6bdc22e7933fff1f5f68f9ed5bf861484cf39556adbd6916389a6",
    ),
    ("etr-macro", "parity:2,digitsum:1"): (
        "5c439a098e24270ce6fd46e89d368977cc2db71c7457e0b45bdc4f889a12ee2a",
        "ebd0fdb271c491e8865fd0e611dec0fa52dec9ac2031e1e8184f31eedb37496f",
    ),
    ("etr-inverse", "parity:2,digitsum:1"): (
        "012a8a1f169ce146fa28f79b9855c0ddf090297fb1338f4473cf13d591c6839e",
        "cd5dd25e6396986d74b376ed24f1093a119d030d67ffae300d93b4ff464f5caf",
    ),
    ("etr", "parity:1,digitsum:2,copy:1"): (
        "d2154835f98367f3ad263a395971fd8f76a9eec9e1c6d61fff5154c4d1f1563c",
        "ccedec66385f51a1ed9be03ecd3579ee0a6144ea2f39b11878a20150f2ebe564",
    ),
}


@pytest.mark.parametrize("method,suite", sorted(GOLDEN), ids=lambda v: str(v))
def test_golden_digests(method, suite, tmp_path):
    assert run_digests(golden_cfg(method, suite), tmp_path) == GOLDEN[(method, suite)]

"""Golden digests: pinned bytes of short training runs.

A refactor that should leave every output byte alone must leave these
sha256 digests unchanged. A change that moves them on purpose (a new
summation order, a different gradient path) re-records them and says why
in CHANGES.md.

The mixed suite puts groups with different answer lengths into one
rollout batch, so batched sampling across groups is covered too. The
golden configs are small (12-row batches, n = 4), so a default-sized run
is pinned as well: 16 x 8 rollouts and one eval round at n = 32, the
shapes the sampler runs at by default. An update-heavy-shaped run (grpo,
8 inner epochs, a 32 x 256 MLP) pins the objective and its gradient on a
hidden layer wider than the golden configs' 8 and the default 64. A
full-length default run (``TrainConfig()``, 300 steps) is pinned too:
late in training a step has few distinct contexts, the block sizes at
which BLAS rounds the rows of a backward product differently, which the
short runs never reach.

Evaluation is pinned on its own too, as ``float.hex`` per task: the
default suite at eval-ckpt's size on moved parameters, a prompt count
that no chunk size of 64 divides, and the one-sample path of
``etrlab eval --n 1``.

The line plots are pinned as SVG bytes, with the runs short enough that
a plot is left out.

One ``sample_groups`` call is pinned whole: groups of five different
budgets, 0 included, so the padding past each group's masks and every
generator's state after the call are pinned with the sampled rows.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from etrlab.cli import main
from etrlab.config import TrainConfig, parse_suite, render_config
from etrlab.policy import Vocab, init_params, sample_groups
from etrlab.tasks import TaskSpec, response_grammar
from etrlab.trainer import evaluate, gradient_check_suite, run_training, write_run_artifacts


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


def default_size_cfg():
    return dataclasses.replace(
        TrainConfig(),
        method="etr-micro",
        suite=parse_suite("copy:4,parity:3"),
        max_response_len=5,
        steps=15,
        eval_every=15,
    )


def update_heavy_cfg():
    return dataclasses.replace(
        TrainConfig(),
        method="grpo",
        seed=5,
        inner_epochs=8,
        embed_dim=32,
        hidden_dim=256,
        steps=4,
        eval_every=4,
        eval_prompts=8,
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


# metrics.csv and final-parameter digests of default_size_cfg().
GOLDEN_DEFAULT_SIZE = (
    "61f927d9de88d146c04a8d9184107fe89f095ad8bacce970598de70b1c473d4e",
    "d7e6e6decb6c2d3bf56d1c5e5a135c62afeeed334eeb9def5cbe3b70057785f8",
)


# metrics.csv and final-parameter digests of update_heavy_cfg().
GOLDEN_UPDATE_HEAVY = (
    "bef056735eb8b5d39afe5f4fc7d8b8e6040b51bb6a51c57c93b72a27008aa787",
    "346fd657868a88e0dc90cbe65553e2a14eeefa4e2e25898a3f4ce1942ef1d831",
)


# metrics.csv and final-parameter digests of TrainConfig().
GOLDEN_FULL_DEFAULT = (
    "7d91a182e106b4e1877aa21e7937e11eda43a14416f7d8950eab81cac0fd88b2",
    "f81d44c335c65bcd332778038cc9e2fa99b96997864d1b8b247ab309d29edf02",
)


@pytest.mark.parametrize("method,suite", sorted(GOLDEN), ids=lambda v: str(v))
def test_golden_digests(method, suite, tmp_path):
    assert run_digests(golden_cfg(method, suite), tmp_path) == GOLDEN[(method, suite)]


def test_default_size_digests(tmp_path):
    assert run_digests(default_size_cfg(), tmp_path) == GOLDEN_DEFAULT_SIZE


def test_update_heavy_digests(tmp_path):
    assert run_digests(update_heavy_cfg(), tmp_path) == GOLDEN_UPDATE_HEAVY


def test_full_length_default_digests(tmp_path):
    assert run_digests(TrainConfig(), tmp_path) == GOLDEN_FULL_DEFAULT


# Artifact bytes of one golden run. config.txt's digest is the one a
# checkpoint carries, so a checkpoint written before a change to
# render_config or PolicyParams still loads without a digest warning.
GOLDEN_FILES = {
    "config.txt": "0a6bd1946187cc2e1f8199aeb422579746daae9446d71732848c446f6a8cafc7",
    "final.ckpt": "0c6e62937335db1c26938db3c6f23bde51b46bbdf5f27e59c2b287011fc8f0a2",
}


def test_golden_artifact_bytes(tmp_path):
    write_run_artifacts(run_training(golden_cfg("etr", "parity:1,digitsum:2,copy:1")), tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_FILES}
    assert got == GOLDEN_FILES


# Line plots: sha256 of every SVG a run writes. "etr" is the run
# GOLDEN_FILES pins; grpo's clipping.svg has no mean_eps series; a plot
# needs two points, so a one-step run writes none and a run with one eval
# round writes no eval_mean.svg.
PLOT_CASES = {
    "etr": golden_cfg("etr", "parity:1,digitsum:2,copy:1"),
    "grpo": golden_cfg("grpo", "parity:2,digitsum:1"),
    "one-step": dataclasses.replace(golden_cfg("etr", "parity:2,digitsum:1"), steps=1),
    "one-eval-round": dataclasses.replace(
        golden_cfg("etr", "parity:2,digitsum:1"), steps=3, eval_every=3
    ),
}
GOLDEN_PLOTS = {
    "etr": {
        "clipping.svg": "ce9e5588405763c1cf9eae82136dc096616d55fc32d2ca736da075c7e7231ca7",
        "entropy.svg": "f42f654fbfcb7d58e978152e9af02601c4e5081b4e12ee1a7c7639a092d56254",
        "eval_mean.svg": "775a080e83302ddd935d7dd4982abcc9e7d30f82e3df1b2d62950b1f70db9506",
        "pass_rate.svg": "e5b9a2ca9819ce3003aa759d4da9fbf7005663782cd8a2a8cdaccfbefd9db48c",
    },
    "grpo": {
        "clipping.svg": "df5b6d91ff2d541167886c71710665cebaa1468f158f94791bd5294cd08dd965",
        "entropy.svg": "1f49a0968447070ee21988e7b2aa79c3f9e061462d5980daf7381d4d675a034b",
        "eval_mean.svg": "627f31fd059c2d85fc7b0dff6ca029adea8b72d6d9515f2611fa899f60854f8c",
        "pass_rate.svg": "e80a75c9b87fbd9db06f6a82b14b02e88a02dd98772d2cb472539a2c8c9fc78b",
    },
    "one-eval-round": {
        "clipping.svg": "6f8ed59695f4fca8f4ed4f1bb450ee89aa396cd08e7ba5ee1fcdd75d02c7df64",
        "entropy.svg": "f6371508f6b827d9e339a0a8970439789015ddd27afe759850fd63c40f463781",
        "pass_rate.svg": "2da3d41e30d42b84b2b0ca781e9737df0a3ab080435e7a1d0c2d4c00fc9fa4b7",
    },
    "one-step": {},
}


@pytest.mark.parametrize("case", sorted(PLOT_CASES))
def test_golden_plot_bytes(case, tmp_path):
    write_run_artifacts(run_training(PLOT_CASES[case]), tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.glob("*.svg"))}
    assert got == GOLDEN_PLOTS[case]


# summary.csv of a two-method, two-seed compare sweep of one golden config.
# Every median differs between the two rows and within each row, so cells
# written under the wrong column change the digest.
GOLDEN_SUMMARY = "e22611df3961adb1877a2d6d4595dcb264de1743e93510384c0e842fb56ec317"


def test_golden_summary_bytes(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(render_config(golden_cfg("etr", "parity:2,digitsum:1")))
    out = tmp_path / "sweep"
    args = ["compare", "--config", str(cfg_path), "--out", str(out)]
    assert main([*args, "--methods", "grpo,etr-inverse", "--seeds", "1,2"]) == 0
    assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == GOLDEN_SUMMARY


# gradient_check_suite(seed=0): each method's worst relative error, as
# float.hex. The kink-safe trial choice and the objective both score the
# prepared batch, so a change to either scoring path shows here.
GOLDEN_GRADCHECK = [
    ("grpo", "0x1.3bd0b60000000p-35"),
    ("cliphigh", "0x1.a91cad3c00000p-38"),
    ("etr", "0x1.7d6a300000000p-35"),
    ("etr-micro", "0x1.06bd97c000000p-35"),
    ("etr-macro", "0x1.c486e20000000p-36"),
    ("etr-inverse", "0x1.ac864f6c00000p-39"),
]


def test_gradient_check_suite_errors():
    assert [(m, err.hex()) for m, err in gradient_check_suite(seed=0)] == GOLDEN_GRADCHECK


def eval_results(n, n_prompts, round_index=0):
    """``evaluate`` of the default suite on moved default-shaped parameters.

    Returns (mean@N, best@N) per task label as ``float.hex`` strings.
    """
    cfg = TrainConfig()
    vocab = Vocab(cfg.content_tokens)
    params = init_params(
        vocab, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, seed=7, scale=0.5
    )
    results = evaluate(
        params,
        cfg.suite,
        vocab,
        n,
        n_prompts,
        cfg.seed,
        round_index=round_index,
        temperature=cfg.temperature,
    )
    return {label: (mean.hex(), best.hex()) for label, (mean, best) in results.items()}


# eval_results of the three cases below: eval-ckpt's size (512 prompts at
# n = 32), a prompt count with a remainder (130) and the one-sample path.
EVAL_CASES = {"default": (32, 512, 0), "130-prompts": (8, 130, 50), "one-sample": (1, 512, 0)}
GOLDEN_EVAL = {
    "default": {
        "copy2": ("0x1.1800000000000p-7", "0x1.7000000000000p-3"),
        "digitsum1": ("0x1.dcc0000000000p-4", "0x1.ad00000000000p-1"),
        "digitsum2": ("0x1.d480000000000p-4", "0x1.f000000000000p-1"),
        "parity2": ("0x1.f6a0000000000p-2", "0x1.c000000000000p-1"),
    },
    "130-prompts": {
        "copy2": ("0x1.1b91b91b91b92p-7", "0x1.f81f81f81f820p-5"),
        "digitsum1": ("0x1.e46e46e46e46ep-4", "0x1.1f81f81f81f82p-1"),
        "digitsum2": ("0x1.81f81f81f81f8p-4", "0x1.0000000000000p-1"),
        "parity2": ("0x1.fe07e07e07e08p-2", "0x1.56a56a56a56a5p-1"),
    },
    "one-sample": {
        "copy2": ("0x1.8000000000000p-8", "0x1.8000000000000p-8"),
        "digitsum1": ("0x1.1800000000000p-3", "0x1.1800000000000p-3"),
        "digitsum2": ("0x1.a000000000000p-4", "0x1.a000000000000p-4"),
        "parity2": ("0x1.f600000000000p-2", "0x1.f600000000000p-2"),
    },
}


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_golden_eval_results(case):
    assert eval_results(*EVAL_CASES[case]) == GOLDEN_EVAL[case]


def sampler_buffer_digest():
    """sha256 of one mixed-budget ``sample_groups`` call's whole output.

    Covers the token, log-prob and entropy buffers, padding included, and
    the state each generator is left in.
    """
    vocab = Vocab()
    params = init_params(vocab, 4, 16, 64, seed=7, scale=0.5)
    specs = (("copy", 4), ("parity", 2), ("digitsum", 3), ("copy", 1))
    grammars = [response_grammar(TaskSpec(f, d), vocab) for f, d in specs] + [()]
    prompts = [[1, 2, vocab.sep], [0, 1, vocab.sep, vocab.sep], [vocab.sep, 7, vocab.sep], [3], [5]]
    rngs = [np.random.default_rng([11, k]) for k in range(len(prompts))]
    tokens, logprobs, entropies = sample_groups(
        params, prompts, 8, 0.8, rngs, grammars, collect_entropy=True
    )
    digest = hashlib.sha256()
    for buf in (tokens, logprobs, np.asarray(entropies)):
        digest.update(buf.tobytes())
    digest.update(repr([rng.bit_generator.state for rng in rngs]).encode())
    return digest.hexdigest()


GOLDEN_SAMPLER = "53198db7a2e2f71374b2a61a99905aa58f79a07cb73499dbe47a1cbb3c367683"


def test_golden_sampler_buffers():
    assert sampler_buffer_digest() == GOLDEN_SAMPLER

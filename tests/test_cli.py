"""End-to-end tests for the command-line interface."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etrlab
import etrlab.autodiff as autodiff
from etrlab.cli import main, parse_seed_list
from etrlab.config import ConfigError, TrainConfig, apply_overrides
from etrlab.metrics import config_digest, save_checkpoint

TINY = [
    "--override", "steps=4",
    "--override", "groups_per_step=2",
    "--override", "group_size=4",
    "--override", "suite=copy:1",
    "--override", "eval_every=2",
    "--override", "eval_n=2",
    "--override", "eval_prompts=4",
    "--override", "embed_dim=4",
    "--override", "hidden_dim=8",
    "--override", "context_window=3",
    "--override", "max_response_len=4",
]


def _param_count(cfg: TrainConfig) -> int:
    v = cfg.content_tokens + 3
    d, h, w = cfg.embed_dim, cfg.hidden_dim, cfg.context_window
    return v * d + w * d * h + h + h * v + v


def test_no_arguments_is_a_usage_error():
    assert main([]) == 2


def test_unknown_command_is_a_usage_error():
    assert main(["frobnicate"]) == 2


def test_train_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), *TINY]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "clipping.svg",
        "config.txt",
        "entropy.svg",
        "eval_mean.svg",
        "final.ckpt",
        "metrics.csv",
        "pass_rate.svg",
    ]
    text = capsys.readouterr().out
    assert "final pass rate" in text and str(out) in text


def test_train_is_deterministic_for_a_fixed_argument_list(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--out", str(out_a), *TINY]) == 0
    assert main(["train", "--out", str(out_b), *TINY]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "final.ckpt").read_bytes() == (out_b / "final.ckpt").read_bytes()


def test_train_override_steps_one_runs_exactly_one_step(tmp_path, capsys):
    out = tmp_path / "one"
    args = ["train", "--out", str(out), *TINY, "--override", "steps=1"]
    assert main(args) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("1,")
    assert "1 steps" in capsys.readouterr().out


def test_train_bad_config_path_is_a_usage_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data,line",
    [(b"\xff\xfe steps = 3\n", 1), (b"steps = 3\r\nseed = 2\n# caf\xe9\n", 3)],
)
def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, data, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(data)
    assert main(["eval", str(tmp_path / "x.ckpt"), "--config", str(cfg_path)]) == 2
    assert f"error: line {line}: byte 0x" in capsys.readouterr().err


def test_train_bad_override_is_a_usage_error(capsys):
    assert main(["train", "--override", "steps=banana"]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_reads_a_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "steps = 2\ngroups_per_step = 2\ngroup_size = 4\nsuite = copy:1\n"
        "eval_every = 2\neval_n = 2\neval_prompts = 4\nembed_dim = 4\n"
        "hidden_dim = 8\ncontext_window = 3\nmax_response_len = 4\nseed = 7\n"
    )
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "seed 7: 2 steps" in capsys.readouterr().out
    assert "seed = 7" in (out / "config.txt").read_text()


def test_compare_emits_one_directory_per_pair_and_a_summary(tmp_path, capsys):
    out = tmp_path / "sweep"
    args = ["compare", "--out", str(out), "--methods", "grpo,etr", "--seeds", "1..3", *TINY]
    assert main(args) == 0
    run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert run_dirs == [
        "etr-seed1", "etr-seed2", "etr-seed3",
        "grpo-seed1", "grpo-seed2", "grpo-seed3",
    ]
    for d in run_dirs:
        assert (out / d / "metrics.csv").exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == (
        "method,median_final_mean,median_final_best,"
        "median_final_entropy,median_mean_clip_frac"
    )
    assert len(lines) == 3
    assert lines[1].startswith("grpo,") and lines[2].startswith("etr,")
    text = capsys.readouterr().out
    assert text.count("seed") >= 6 and "medians across seeds:" in text


def test_compare_records_a_diverged_run_and_exits_1(tmp_path, capsys):
    out = tmp_path / "sweep"
    args = [
        "compare", "--out", str(out), "--methods", "grpo,etr", "--seeds", "2,3", *TINY,
        "--override", "steps=1",
        "--override", "eval_every=1",
        "--override", "learning_rate=1e300",
        "--override", "groups_per_step=1",
        "--override", "group_size=2",
        "--override", "suite=parity:1",
    ]
    assert main(args) == 1
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[1].startswith("grpo,") and lines[2].startswith("etr,")
    assert lines[3:] == [
        "grpo-seed2,diverged,diverged,diverged,diverged",
        "etr-seed2,diverged,diverged,diverged,diverged",
    ]
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["etr-seed3", "grpo-seed3"]
    captured = capsys.readouterr()
    assert "grpo seed 2: diverged" in captured.out
    assert "training diverged: etr seed 2: non-finite" in captured.err


def test_compare_unknown_method_is_a_usage_error(capsys):
    assert main(["compare", "--methods", "grpo,ppo", "--seeds", "1"]) == 2
    assert "unknown method" in capsys.readouterr().err


def test_compare_checks_every_config_before_the_first_run(tmp_path, capsys):
    # seed 1 is valid, seed -1 is not: no run may start, so no directory.
    out = tmp_path / "sweep"
    args = ["compare", "--out", str(out), "--methods", "grpo", "--seeds", "1,-1", *TINY]
    assert main(args) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()
    assert main(["compare", "--out", str(out), "--methods", "grpo,ppo", *TINY]) == 2
    assert "unknown method 'ppo'; must be one of grpo, cliphigh" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "methods,seeds,repeated",
    [
        ("grpo", "1,1,2", "grpo-seed1"),
        ("grpo", "1..3,2", "grpo-seed2"),
        ("etr,grpo,etr", "4", "etr-seed4"),
    ],
)
def test_compare_repeated_pair_is_a_usage_error(tmp_path, capsys, methods, seeds, repeated):
    # A repeated pair would run twice into one directory and be counted
    # twice in summary.csv, so none of the sweep may start.
    out = tmp_path / "sweep"
    args = ["compare", "--out", str(out), "--methods", methods, "--seeds", seeds, *TINY]
    assert main(args) == 2
    assert f"each (method, seed) pair runs once; repeated: {repeated}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_naming_a_file_is_a_usage_error_before_any_training(
    tmp_path, monkeypatch, capsys, command, below
):
    def unreachable(cfg):
        raise AssertionError("training started")

    monkeypatch.setattr("etrlab.cli.run_training", unreachable)
    monkeypatch.setattr("etrlab.trainer.run_training", unreachable)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / below if below else taken
    extra = ["--methods", "grpo", "--seeds", "1"] if command == "compare" else []
    assert main([command, "--out", str(out), *extra, *TINY]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert taken.read_text() == "not a directory\n"


def test_compare_reversed_seed_range_is_a_usage_error(capsys):
    assert main(["compare", "--methods", "grpo", "--seeds", "5..3"]) == 2
    assert "reversed" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_compare_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    out = tmp_path / "sweep"
    args = ["compare", "--out", str(out), "--methods", "grpo", "--seeds", "1", *TINY]
    assert main([*args, "--jobs", jobs]) == 2
    assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_loads_no_process_pool_or_network_stack():
    # Only compare with --jobs > 1 needs a process pool, and SVG escaping
    # needs no XML package; each stack would add to every run's start-up.
    # urllib.parse is left out: pathlib loads it when the interpreter starts.
    src = str(Path(etrlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    banned = (
        "multiprocessing", "concurrent.futures", "ssl", "http", "urllib.request", "email", "xml"
    )
    code = "import sys, etrlab.cli; print('\\n'.join(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = done.stdout.split()
    assert "etrlab.cli" in loaded
    assert [m for m in loaded if m in banned or m.startswith(tuple(b + "." for b in banned))] == []


def test_parse_seed_list_accepts_commas_and_ranges():
    assert parse_seed_list("1,3..5,9") == [1, 3, 4, 5, 9]
    assert parse_seed_list("4") == [4]
    assert parse_seed_list("2..2") == [2]
    with pytest.raises(ConfigError):
        parse_seed_list("5..3")
    with pytest.raises(ConfigError):
        parse_seed_list("a")
    with pytest.raises(ConfigError):
        parse_seed_list("")


def test_gradcheck_passes_and_lists_every_variant(capsys):
    assert main(["gradcheck"]) == 0
    text = capsys.readouterr().out
    for name in ("grpo", "cliphigh", "etr", "etr-micro", "etr-macro", "etr-inverse"):
        assert f"  {name}: max relative error" in text
    assert "gradcheck passed" in text


def test_gradcheck_detects_a_corrupted_tanh_derivative(monkeypatch, capsys):
    def wrong(out, g):
        return g * (1.0 - 0.9 * out * out)

    monkeypatch.setattr(autodiff, "_tanh_backward", wrong)
    assert main(["gradcheck"]) == 1
    assert "gradcheck FAILED" in capsys.readouterr().err


def test_theory_passes_and_prints_both_sweeps(capsys):
    assert main(["theory"]) == 0
    text = capsys.readouterr().out
    for rho, ratio in ((1, 1.0), (2, np.sqrt(2.0)), (4, 2.0), (9, 3.0)):
        assert f"rho {rho}: ratio {ratio:.12f}" in text
    for r in (0.5, 0.8, 0.9, 1.1, 1.2, 1.5):
        assert f"r {r:g}: residual" in text
    assert text.count("VIOLATION") == 0
    assert "theory checks passed" in text


def _uniform_checkpoint(tmp_path, overrides):
    cfg = apply_overrides(TrainConfig(), list(overrides))
    path = tmp_path / "uniform.ckpt"
    zeros = np.zeros(_param_count(cfg))
    h = np.zeros(_param_count(cfg))
    save_checkpoint(path, zeros, h, h, 0, config_digest(cfg))
    return path


def test_eval_uniform_policy_sits_at_chance(tmp_path, capsys):
    overrides = ["suite=digitsum:1"]
    path = _uniform_checkpoint(tmp_path, overrides)
    args = ["eval", str(path)]
    for o in overrides:
        args += ["--override", o]
    assert main(args) == 0
    text = capsys.readouterr().out
    line = next(l for l in text.splitlines() if "digitsum1" in l)
    mean_n = float(line.split("mean@32")[1].split()[0])
    best_n = float(line.split("best@32")[1].split()[0])
    # one digit in ten, over 64 prompts x 32 samples; 3 standard errors
    se_mean = np.sqrt(0.1 * 0.9 / (64 * 32))
    assert abs(mean_n - 0.1) <= 3 * se_mean
    q = 1.0 - 0.9**32
    se_best = np.sqrt(q * (1 - q) / 64)
    assert abs(best_n - q) <= 3 * se_best


def test_eval_with_one_sample_has_mean_equal_best(tmp_path, capsys):
    overrides = ["suite=digitsum:1"]
    path = _uniform_checkpoint(tmp_path, overrides)
    args = ["eval", str(path), "--n", "1"]
    for o in overrides:
        args += ["--override", o]
    assert main(args) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if "digitsum1" in l)
    mean_n = float(line.split("mean@1")[1].split()[0])
    best_n = float(line.split("best@1")[1].split()[0])
    assert mean_n == best_n


def test_eval_missing_checkpoint_is_a_usage_error(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "nope.ckpt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_garbage_checkpoint_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    assert main(["eval", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "array, value", [(0, float("nan")), (1, float("inf")), (2, float("nan")), (2, -1e-12)]
)
def test_eval_rejects_nonfinite_or_negative_checkpoint_values(tmp_path, capsys, array, value):
    # One value of the parameters (0), first (1) or second (2) moments is
    # overwritten in place; the config digest still matches.
    path = _uniform_checkpoint(tmp_path, [])
    blob = bytearray(path.read_bytes())
    count = _param_count(TrainConfig())
    at = len(blob) - 8 - 32 - (3 - array) * count * 8 + 8 * (count // 2)
    blob[at : at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(blob))
    assert main(["eval", str(path), "--strict-digest"]) == 2
    out = capsys.readouterr()
    assert "error:" in out.err and "mean@" not in out.out


def test_eval_strict_digest_mismatch_is_a_usage_error(tmp_path, capsys):
    path = _uniform_checkpoint(tmp_path, [])
    args = ["eval", str(path), "--override", "kl_coef=0.5", "--strict-digest"]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err

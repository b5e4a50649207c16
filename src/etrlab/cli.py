"""Command-line entry point.

Exit codes: 0 on success, 1 when a verification bound fails or training
diverges, 2 for usage, configuration and file-system errors.
"""

from __future__ import annotations

import os

# BLAS on one thread unless the environment names a count: on a host with
# few cores, idle BLAS worker threads spin against the run's own work, and
# the bytes are the same at any count. Set before numpy is first imported,
# since it reads them once. A count set for any one of them leaves all three
# alone: OpenBLAS would read a default OPENBLAS_NUM_THREADS before a user's
# OMP_NUM_THREADS.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import ContractViolation
from .config import ConfigError, TrainConfig, apply_overrides, load_config
from .metrics import (
    CheckpointDigestError,
    CheckpointFormatError,
    _fmt,
    config_digest,
    load_checkpoint,
)
from .objectives import kl_cubic_bound, kl_quadratic_residual, theoretical_epsilon
from .policy import PolicyParams, Vocab
from .trainer import (
    DivergedRun,
    TrainingDiverged,
    compare_runs,
    evaluate,
    gradient_check_suite,
    run_training,
    write_run_artifacts,
    write_summary,
)

GRADCHECK_THRESHOLD = 1e-4


def parse_seed_list(text: str) -> list[int]:
    """Comma-separated seeds; ``a..b`` expands to the inclusive range."""
    seeds: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ConfigError("empty seed entry")
        if ".." in chunk:
            lo_text, hi_text = chunk.split("..", 1)
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ConfigError(f"bad seed range {chunk!r}") from None
            if hi < lo:
                raise ConfigError(f"seed range {chunk!r} is reversed")
            seeds.extend(range(lo, hi + 1))
        else:
            try:
                seeds.append(int(chunk))
            except ValueError:
                raise ConfigError(f"bad seed {chunk!r}") from None
    if not seeds:
        raise ConfigError("at least one seed is required")
    return seeds


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")


def _load_cfg(args) -> TrainConfig:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = TrainConfig()
    return apply_overrides(cfg, list(args.override or []))


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", default=None, help="path to a key = value config file")
    sub.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="K=V",
        help="override one config key (repeatable)",
    )


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = run_training(cfg)
    write_run_artifacts(result, args.out)
    last = result.metrics[-1]
    print(
        f"{cfg.method} seed {cfg.seed}: {cfg.steps} steps, "
        f"final pass rate {_fmt(last.pass_rate)}, entropy {_fmt(last.entropy)}"
    )
    print(f"artifacts written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("at least one method is required")
    seeds = parse_seed_list(args.seeds)
    summaries = compare_runs(cfg, methods, seeds, out_dir=args.out, jobs=args.jobs)
    diverged = [s for s in summaries if isinstance(s, DivergedRun)]
    for s in summaries:
        if isinstance(s, DivergedRun):
            print(f"{s.method} seed {s.seed}: diverged")
            continue
        print(
            f"{s.method} seed {s.seed}: mean@{cfg.eval_n} {_fmt(s.final_mean)}, "
            f"best@{cfg.eval_n} {_fmt(s.final_best)}, entropy {_fmt(s.final_entropy)}, "
            f"clip {_fmt(s.mean_clip_frac)}"
        )
    lines = write_summary(summaries, args.out)
    print("medians across seeds:")
    for line in lines:
        print("  " + line)
    for s in diverged:
        print(f"training diverged: {s.method} seed {s.seed}: {s.message}", file=sys.stderr)
    return 1 if diverged else 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    checkpoint = load_checkpoint(
        args.checkpoint, expected_digest=config_digest(cfg), strict=args.strict_digest
    )
    vocab = Vocab(cfg.content_tokens)
    params = PolicyParams.from_vector(
        vocab, cfg.context_window, cfg.embed_dim, cfg.hidden_dim, checkpoint.params
    )
    n = args.n if args.n is not None else cfg.eval_n
    results = evaluate(
        params,
        cfg.suite,
        vocab,
        n,
        cfg.eval_prompts,
        cfg.seed,
        round_index=0,
        temperature=cfg.temperature,
    )
    print(
        f"checkpoint after {checkpoint.step} optimizer updates, "
        f"{cfg.eval_prompts} prompts per task"
    )
    for label in sorted(results):
        mean_n, best_n = results[label]
        print(f"  {label}: mean@{n} {_fmt(mean_n)}  best@{n} {_fmt(best_n)}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_cfg(args)
    results = gradient_check_suite(seed=cfg.seed)
    worst_name, worst = max(results, key=lambda item: item[1])
    for name, err in results:
        print(f"  {name}: max relative error {err:.3e}")
    if worst < GRADCHECK_THRESHOLD:
        print(f"gradcheck passed: worst {worst:.3e} < {GRADCHECK_THRESHOLD:g}")
        return 0
    print(
        f"gradcheck FAILED: {worst_name} reached {worst:.3e} "
        f">= {GRADCHECK_THRESHOLD:g}",
        file=sys.stderr,
    )
    return 1


def cmd_theory(args) -> int:
    ok = True
    print("half-width scaling (budget ratio rho, base 0.2):")
    for rho in (1.0, 2.0, 4.0, 9.0):
        got = theoretical_epsilon(rho, 0.2) / 0.2
        want = float(np.sqrt(rho))
        line_ok = abs(got - want) <= 1e-12
        ok &= line_ok
        print(f"  rho {rho:g}: ratio {got:.12f} expected {want:.12f} {'ok' if line_ok else 'VIOLATION'}")
    print("KL quadratic residual vs cubic remainder bound:")
    for r in (0.5, 0.8, 0.9, 1.1, 1.2, 1.5):
        residual = kl_quadratic_residual(r)
        bound = kl_cubic_bound(r)
        line_ok = residual <= bound
        ok &= line_ok
        print(
            f"  r {r:g}: residual {residual:.6e} bound {bound:.6e} "
            f"{'ok' if line_ok else 'VIOLATION'}"
        )
    print("residual / |r-1|^3 near 1 (limit 1/3):")
    for delta in (1e-2, 1e-3, 1e-4):
        for r in (1.0 - delta, 1.0 + delta):
            ratio = kl_quadratic_residual(r) / abs(r - 1.0) ** 3
            line_ok = abs(3.0 * ratio - 1.0) <= 0.05
            ok &= line_ok
            print(f"  r {r:g}: ratio {ratio:.6f} {'ok' if line_ok else 'VIOLATION'}")
    if ok:
        print("theory checks passed")
        return 0
    print("theory checks FAILED", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etrlab",
        description="Train and compare clipped policy-gradient methods on tiny verifiable tasks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="run one training configuration")
    _add_config_flags(train)
    train.add_argument("--out", default="runs/train", help="output directory")
    train.set_defaults(func=cmd_train)

    compare = subs.add_parser("compare", help="sweep methods x seeds and summarize")
    _add_config_flags(compare)
    compare.add_argument("--out", default="runs/compare", help="output directory")
    compare.add_argument("--methods", default="grpo,etr", help="comma-separated method names")
    compare.add_argument("--seeds", default="1", help="comma list and a..b ranges")
    compare.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    compare.set_defaults(func=cmd_compare)

    ev = subs.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("checkpoint", help="path to a .ckpt file")
    _add_config_flags(ev)
    ev.add_argument("--n", type=_positive_int, default=None, help="samples per prompt")
    ev.add_argument(
        "--strict-digest",
        action="store_true",
        help="fail instead of warning when the config digest differs",
    )
    ev.set_defaults(func=cmd_eval)

    grad = subs.add_parser("gradcheck", help="finite-difference check of the objective")
    _add_config_flags(grad)
    grad.set_defaults(func=cmd_gradcheck)

    theory = subs.add_parser("theory", help="verify the scaling and remainder bounds")
    theory.set_defaults(func=cmd_theory)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except (
        ConfigError,
        ContractViolation,
        CheckpointFormatError,
        CheckpointDigestError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Layer probes on etrlab and the per-layer metrics computed from their spans.

Each name is wrapped in the module that looks it up at call time:
``trainer`` imports ``sample_group``, ``verify``, ``prepare_batch`` and the
like by name, so ``trainer.sample_group`` is patched, not
``policy.sample_group``. ``objectives`` reaches ``score_tokens`` and
``response_grammar`` through the module objects, so those are patched on
``policy`` and ``tasks``.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np

from etrlab import autodiff, metrics, objectives, policy, tasks, trainer
from spans import Probe, Tracer, self_times


def _sampled(counts: Counter, args: tuple, result) -> None:
    responses, _ = result
    counts["policy.sampled_tokens"] += sum(len(r) for r in responses)


def _scored(counts: Counter, args: tuple, result) -> None:
    counts["policy.scored_tokens"] += int(np.size(result))


def _group(counts: Counter, args: tuple, result) -> None:
    counts["groups.degenerate"] += int(not np.any(result.advantages))


def _prepared(counts: Counter, args: tuple, result) -> None:
    counts["objectives.prepared_tokens"] += int(result.targets.size)


def _clipped(counts: Counter, args: tuple, result) -> None:
    counts["objectives.clipped_tokens"] += result.clipped_tokens
    counts["objectives.evaluated_tokens"] += result.total_tokens


def _written(path_index: int):
    def count(counts: Counter, args: tuple, result) -> None:
        counts["metrics.bytes_written"] += os.path.getsize(args[path_index])

    return count


def probes() -> list[Probe]:
    """Every layer boundary the traced run records."""
    return [
        Probe(trainer, "rollout_batch", "trainer.rollout"),
        Probe(trainer, "train_step", "trainer.update"),
        Probe(trainer, "adamw_update", "trainer.adamw"),
        Probe(trainer, "clip_grad_norm", "trainer.clip_grad"),
        Probe(trainer, "evaluate", "trainer.eval"),
        Probe(trainer, "sample_group", "policy.sample", _sampled),
        Probe(policy, "score_tokens", "policy.score", _scored),
        Probe(policy, "mask_matrix", "policy.mask"),
        Probe(objectives, "mask_matrix", "policy.mask"),
        Probe(trainer, "sample_task", "tasks.sample_task"),
        Probe(trainer, "generate_prompt", "tasks.generate_prompt"),
        Probe(trainer, "response_grammar", "tasks.response_grammar"),
        Probe(tasks, "response_grammar", "tasks.response_grammar"),
        Probe(trainer, "verify", "tasks.verify"),
        Probe(trainer, "reward", "tasks.reward"),
        Probe(trainer, "group_stats", "groups.stats", _group),
        Probe(objectives, "group_stats", "groups.stats", _group),
        Probe(trainer, "prepare_batch", "objectives.prepare", _prepared),
        Probe(trainer, "evaluate_prepared", "objectives.forward", _clipped),
        Probe(autodiff.Record, "backward", "autodiff.backward"),
        Probe(trainer, "write_metrics_csv", "metrics.write", _written(1)),
        Probe(trainer, "render_lineplot", "metrics.write", _written(1)),
        Probe(trainer, "save_checkpoint", "metrics.write", _written(0)),
        Probe(metrics, "load_checkpoint", "metrics.load"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, slowdown: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced body, all but ``trace.overhead_s``.

    Self times are divided by ``slowdown``, like every other time.
    """
    self_s = {k: v / slowdown for k, v in self_times(tracer.spans).items()}
    calls = tracer.calls()
    counts = tracer.counts

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    return {
        "trainer.rollout_s": s("trainer.rollout"),
        "trainer.update_s": s("trainer.update"),
        "trainer.adamw_s": s("trainer.adamw"),
        "trainer.adamw_calls": calls["trainer.adamw"],
        "trainer.clip_grad_s": s("trainer.clip_grad"),
        "trainer.eval_s": s("trainer.eval"),
        "trainer.eval_rounds": calls["trainer.eval"],
        "policy.sample_s": s("policy.sample"),
        "policy.sample_calls": calls["policy.sample"],
        "policy.sampled_tokens": counts["policy.sampled_tokens"],
        "policy.score_s": s("policy.score"),
        "policy.scored_tokens": counts["policy.scored_tokens"],
        "policy.mask_s": s("policy.mask"),
        "policy.mask_calls": calls["policy.mask"],
        "tasks.s": sum(v for k, v in self_s.items() if k.startswith("tasks.")),
        "tasks.grammar_calls": calls["tasks.response_grammar"],
        "tasks.verify_calls": calls["tasks.verify"],
        "groups.stats_s": s("groups.stats"),
        "groups.stats_calls": calls["groups.stats"],
        "groups.degenerate_frac": _ratio(counts["groups.degenerate"], calls["groups.stats"]),
        "objectives.prepare_s": s("objectives.prepare"),
        "objectives.prepared_tokens": counts["objectives.prepared_tokens"],
        "objectives.forward_s": s("objectives.forward"),
        "objectives.evals": calls["objectives.forward"],
        "objectives.clip_frac": _ratio(
            counts["objectives.clipped_tokens"], counts["objectives.evaluated_tokens"]
        ),
        "autodiff.backward_s": s("autodiff.backward"),
        "autodiff.backward_calls": calls["autodiff.backward"],
        "metrics.write_s": s("metrics.write"),
        "metrics.bytes_written": counts["metrics.bytes_written"],
        "metrics.load_s": s("metrics.load"),
    }

"""Tests of the benchmark itself: span arithmetic, patching, failure counting.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import types

import pytest

import bench
import calibrate
import layers
import workloads
from etrlab import autodiff, trainer
from spans import Probe, Span, Tracer, installed, self_times, stamping, tracing
from workloads import Check, Outcome, Workload, training

TINY = (
    "steps = 3\ngroups_per_step = 2\ngroup_size = 4\ninner_epochs = 2\n"
    "eval_every = 2\neval_prompts = 3\neval_n = 4\n"
)


def test_self_times_of_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("a", 9.0, 9.5, 0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 10 - 3 - 4 - 0.5, "a": 2.0 + 0.5, "leaf": 1.0, "b": 4.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        Span("p", 0.0, 10.0, -1),
        Span("c", 1.0, 4.0, 0),
        Span("c", 3.0, 6.0, 0),
        Span("c", 8.0, 12.0, 0),
    ]
    assert self_times(spans)["p"] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_nests_spans_and_counts():
    tracer = Tracer()
    ns = types.SimpleNamespace(inner=lambda x: x + 1)
    ns.outer = lambda x: ns.inner(x) * 2

    def count(counts, args, result):
        counts["seen"] += args[0]

    probes = [Probe(ns, "outer", "outer"), Probe(ns, "inner", "inner", count)]
    with installed(probes, tracing(tracer)):
        assert ns.outer(3) == 8
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.counts["seen"] == 3
    assert tracer.calls() == {"outer": 1, "inner": 1}


def test_installed_restores_attributes_after_an_error():
    originals = [getattr(p.owner, p.attr) for p in layers.probes()]
    sample, backward = trainer.sample_group, autodiff.Record.backward
    with pytest.raises(RuntimeError):
        with installed(layers.probes(), tracing(Tracer())) as live:
            assert len(live) == len(originals)
            assert trainer.sample_group is not sample
            assert autodiff.Record.backward is not backward
            raise RuntimeError("boom")
    assert [getattr(p.owner, p.attr) for p in layers.probes()] == originals
    assert trainer.sample_group is sample and autodiff.Record.backward is backward


def test_installed_skips_missing_attributes():
    ns = types.SimpleNamespace(present=lambda: 1)
    marks = []
    with installed([Probe(ns, "absent", "x"), Probe(ns, "present", "y")], stamping(marks)) as live:
        assert [p.attr for p in live] == ["present"]
        ns.present()
    assert len(marks) == 1 and not hasattr(ns, "absent")


def test_traced_bodies_match_untraced_fingerprints_and_count_layers(tmp_path):
    wl = training("tiny", TINY)
    state = wl.setup(1, tmp_path)
    out = bench.run_bodies(wl, [state], seconds=0.0, trace=True)
    assert [c for c in out.checks if not c.ok] == []
    assert len(out.untraced_s) == 1 and len(out.traced_s) == 1
    m = out.layer[0]
    assert m["trainer.adamw_calls"] == 3 * 2
    assert m["objectives.evals"] == 3 * 2 == m["autodiff.backward_calls"]
    assert m["trainer.eval_rounds"] == 2
    n_tasks = len(state.cfg.suite)
    assert m["policy.sample_calls"] == 3 * 2 + 2 * 3 * n_tasks
    assert m["groups.stats_calls"] == 2 * 3 * 2
    assert m["metrics.bytes_written"] > 0
    assert all(v >= 0 for v in m.values())


def test_a_failed_body_is_counted_not_raised():
    def body(state):
        raise trainer.TrainingDiverged("non-finite loss")

    wl = Workload("broken", "rollout_batch", None, body, None)
    out = bench.run_bodies(wl, [None], seconds=0.0, trace=False)
    assert [(c.ok, c.detail) for c in out.checks] == [
        (False, "TrainingDiverged: non-finite loss")
    ]
    assert out.untraced_s == [] and bench._metrics(out, [0.1], out.checks, False, 1) == {}


def test_a_fingerprint_mismatch_is_a_failed_check():
    digests = itertools.chain(["1"], itertools.repeat("2"))

    def inspect(state, raw):
        return Outcome({"x": next(digests)}, 10, 0.5, [])

    wl = Workload("flaky", "rollout_batch", None, lambda state: None, inspect)
    out = bench.run_bodies(wl, [None], seconds=0.5, trace=False)
    assert out.checks[0] == Check("body 2: fingerprints equal body 1", False)
    assert not any(c.ok for c in out.checks)
    out.step_s = [0.1, 0.2]
    assert bench.end_to_end(out, [0.1], out.checks)["pass_frac"] == 0.0


def test_bodies_cycle_config_seeds_and_repeats_match_their_own_seed():
    seen = []

    def inspect(state, raw):
        seen.append(state)
        return Outcome({"x": str(state)}, 10 * state, 0.1 * state, [])

    wl = Workload("cycle", "rollout_batch", None, lambda state: None, inspect, subseeds=3)
    states = [1, 2, 3]
    out = bench.run_bodies(wl, states, seconds=0.0, trace=False)
    assert seen == states and out.checks == []
    out.step_s = [0.1, 0.2]
    got = bench.end_to_end(out, [0.1], [Check("ok", True)], 3)
    assert got["mean_at_n"] == pytest.approx(0.2) and got["tokens_per_s"] > 0

    seen.clear()
    traced = bench.run_bodies(wl, states, seconds=1.0, trace=True)
    assert seen[:4] == [1, 1, 2, 2]
    assert [c.name for c in traced.checks if "fingerprints" in c.name][:2] == [
        "body 2 (traced): fingerprints equal body 1",
        "body 4 (traced): fingerprints equal body 3",
    ]
    assert all(c.ok for c in traced.checks)


def test_config_seeds_start_at_the_workload_seed():
    wl = training("tiny", TINY, subseeds=3)
    assert workloads.config_seeds(wl, 7) == [7, 7 + workloads.SEED_STRIDE, 7 + 2 * workloads.SEED_STRIDE]


def test_reported_metrics_are_the_declared_ones(tmp_path):
    wl = training("tiny", TINY)
    out = bench.run_bodies(wl, [wl.setup(1, tmp_path)], seconds=0.0, trace=True)
    assert set(bench.per_layer(out)) == set(bench.metric_units(trace=True))
    assert set(bench.end_to_end(out, [0.1], out.checks)) == set(bench.metric_units(trace=False))


def test_clock_leaves_kernel_samples_off_the_clock():
    clock = calibrate.Clock(every_s=0.0)
    first, second = clock.tick(), clock.tick()
    assert len(clock.samples) == 2
    unit = clock.samples[0][1] * calibrate.REFERENCE_S
    assert 0.0 <= second - first < 0.5 * unit
    assert clock.slowdown_at(first) == pytest.approx(
        (clock.samples[0][1] + clock.samples[1][1]) / 2
    )

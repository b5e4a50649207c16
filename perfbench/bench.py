"""Benchmark runner: repeats a workload's body, checks it, and reports metrics.

With tracing off the runner times whole bodies and, through a clock stamp
at the start of each step, every step. Bodies cycle through the workload's
config seeds. With tracing on it alternates untraced and traced bodies,
each traced body on the config seed of the untraced one before it: the
traced ones give the per-layer metrics and the difference between the two
is the tracing overhead. Every body's fingerprints must equal those of the
first body on the same config seed, traced or not. All times are in
reference seconds (see ``calibrate``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import layers
from etrlab import trainer
from spans import Probe, Tracer, installed, stamping, tracing
from workloads import WORKLOADS, Check, Outcome, Workload, config_seeds, setup_all

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Set-up is measured this many times, each in a fresh interpreter.
SETUP_REPEATS = 7
GRADCHECK_THRESHOLD = 1e-4  # the bound of ``etrlab gradcheck``


@dataclass
class Bodies:
    """Everything one workload's repeated bodies produced."""

    untraced_s: list[float] = field(default_factory=list)
    untraced_outcomes: list[Outcome] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    layer: list[dict[str, float]] = field(default_factory=list)
    slowdowns: list[float] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    tracer: Tracer | None = None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(trace: bool) -> dict[str, str]:
    """Reported metrics and their units, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}


def gradcheck() -> Check:
    name = f"gradcheck below {GRADCHECK_THRESHOLD:g}"
    try:
        worst_name, worst = max(trainer.gradient_check_suite(), key=lambda item: item[1])
    except Exception as exc:  # boundary: counted as a failed check
        return Check(name, False, f"{type(exc).__name__}: {exc}")
    return Check(name, bool(worst < GRADCHECK_THRESHOLD), f"worst {worst:.3e} ({worst_name})")


def _timed_body(wl: Workload, state, tracer: Tracer | None):
    """Run one body, traced when ``tracer`` is given.

    Returns the body's result, its time and its step times in reference
    seconds, its mean slowdown, and whether every wrapped attribute was
    restored. Each interval between step marks is divided by the slowdown
    sampled around it; kernel samples are off the clock and, when
    tracing, inside spans of their own, so no layer is charged for them.
    """
    around = nullcontext if tracer is None else functools.partial(tracer.span, "calibrate")
    clock = calibrate.Clock(around=around)
    probes = [] if tracer is None else layers.probes()
    originals = [getattr(p.owner, p.attr, None) for p in probes]
    marks: list[float] = []
    with installed(probes, tracing(tracer)):
        # Installed second, so the step stamp (and its kernel sample) sits
        # outside the step function's own span.
        with installed([Probe(trainer, wl.step_attr, "step")], stamping(marks, clock.tick)):
            with nullcontext() if tracer is None else tracer.span("body"):
                start = clock.tick()
                raw = wl.body(state)
                end = clock.tick()
    restored = all(getattr(p.owner, p.attr, None) is o for p, o in zip(probes, originals))
    edges = [start] + marks + [end]
    spans = [(b - a) / clock.slowdown_at((a + b) / 2) for a, b in zip(edges, edges[1:])]
    took = sum(spans)
    return raw, took, wl.steps(state, spans[1:]), (end - start) / took, restored


def run_bodies(wl: Workload, states: list, seconds: float, trace: bool) -> Bodies:
    """Repeat the body, cycling through ``states``, until ``seconds`` would be exceeded.

    Without ``trace`` every state runs at least once, however long that
    takes. With it untraced bodies alternate with traced ones, and each
    traced body runs the state of the untraced one before it. All times
    are in reference seconds (see ``calibrate``). A body that raises is
    recorded as a failed check and ends the loop.
    """
    out = Bodies()
    deadline = perf_counter() + seconds
    first: dict[int, tuple[int, dict[str, str]]] = {}
    index = 0
    while True:
        traced = trace and index % 2 == 1
        which = (index // 2 if trace else index) % len(states)
        state = states[which]
        label = f"body {index + 1}{' (traced)' if traced else ''}"
        tracer = Tracer() if traced else None
        started = perf_counter()
        try:
            raw, took, steps, slow, restored = _timed_body(wl, state, tracer)
        except Exception as exc:  # boundary: a failed body is counted, not raised
            out.checks.append(Check(f"{label} completed", False, f"{type(exc).__name__}: {exc}"))
            return out
        wall = perf_counter() - started
        out.slowdowns.append(slow)
        if traced:
            out.checks.append(Check(f"{label}: wrapped attributes restored", restored))
            out.traced_s.append(took)
            out.layer.append(layers.layer_metrics(tracer, slow))
            out.tracer = tracer
        outcome = wl.inspect(state, raw)
        if not traced:
            out.untraced_s.append(took)
            out.untraced_outcomes.append(outcome)
            out.step_s.extend(steps)
        out.outcomes.append(outcome)
        out.checks.extend(Check(f"{label}: {c.name}", c.ok, c.detail) for c in outcome.checks)
        if which not in first:
            first[which] = (index, outcome.fingerprints)
        else:
            body, fingerprints = first[which]
            out.checks.append(
                Check(
                    f"{label}: fingerprints equal body {body + 1}",
                    outcome.fingerprints == fingerprints,
                )
            )
        index += 1
        done_untraced = len(out.untraced_s) >= (1 if trace else len(states))
        done_traced = len(out.traced_s) >= 1 or not trace
        if done_untraced and done_traced and perf_counter() + wall > deadline:
            return out


def measure_setup(name: str, seed: int, work: Path) -> list[float]:
    """Set-up times of ``SETUP_REPEATS`` fresh interpreters, imports included.

    Each is divided by the mean slowdown sampled just before and after it.
    """
    slows = [calibrate.slowdown()]
    times = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "probe_setup.py"),
                name,
                str(seed),
                str(work / f"setup-{i}"),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        slows.append(calibrate.slowdown())
        times.append(float(proc.stdout.split()[-1]) * 2.0 / (slows[-2] + slows[-1]))
    return times


def end_to_end(
    bodies: Bodies, setup_s: list[float], checks: list[Check], n_states: int = 1
) -> dict[str, float]:
    """End-to-end metrics; ``mean_at_n`` is the mean over the first ``n_states`` bodies.

    Those are the first body of every config seed.
    """
    untraced = list(zip(bodies.untraced_s, bodies.untraced_outcomes))
    steps_ms = [1000.0 * s for s in bodies.step_s]
    failed = sum(not c.ok for c in checks)
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(bodies.untraced_s),
        "tokens_per_s": statistics.median(o.tokens / t for t, o in untraced),
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_p90": statistics.quantiles(steps_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_at_n": statistics.fmean(o.mean_at_n for _, o in untraced[:n_states]),
        "pass_frac": 1.0 - failed / len(checks),
    }


def per_layer(bodies: Bodies) -> dict[str, float]:
    out = {
        name: statistics.median(m[name] for m in bodies.layer)
        for name in bodies.layer[0]
    }
    out["trace.overhead_s"] = statistics.median(bodies.traced_s) - statistics.median(
        bodies.untraced_s
    )
    return out


def environment_stamp() -> dict[str, object]:
    """Commit, versions, cores, CPU model and load average (read-only)."""
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain"))
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
        with open("/proc/loadavg", encoding="utf-8") as fh:
            load = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        load = None
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": load,
    }


def _git(*args: str) -> str:
    proc = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return proc.stdout.strip()


def _spans_csv(tracer: Tracer, path: Path) -> None:
    t0 = tracer.spans[0].start
    rows = ["name,start_s,end_s,parent"]
    rows += [f"{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{s.parent}" for s in tracer.spans]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Bodies, list[float]]:
    """Set up and run one workload; set-up is timed only with tracing off."""
    wl = WORKLOADS[name]
    work = OUT / "work" / name
    setup_s = [] if trace else measure_setup(name, seed, work)
    return run_bodies(wl, setup_all(wl, seed, work), seconds, trace), setup_s


def _metrics(
    bodies: Bodies, setup_s: list[float], checks: list[Check], trace: bool, n_states: int
) -> dict:
    if trace:
        return per_layer(bodies) if bodies.layer and bodies.untraced_s else {}
    if len(bodies.untraced_s) < n_states or not setup_s:
        return {}
    return end_to_end(bodies, setup_s, checks, n_states)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default=None,
        help="run one workload (default: every workload in turn)",
    )
    parser.add_argument("--seed", type=int, default=1, help="becomes the config seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=load_spec()["run_seconds"],
        help="measuring time per workload",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics"
    )
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    stamp = environment_stamp()
    OUT.mkdir(exist_ok=True)
    units = metric_units(trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    grad = gradcheck()
    all_checks = [grad]
    all_metrics: dict[str, dict[str, object]] = {}
    for name in names:
        checks = [grad]
        bodies, setup_s = Bodies(), []
        try:
            bodies, setup_s = run_workload(name, args.seed, args.seconds, trace)
        except Exception as exc:  # boundary: a failed workload does not stop the others
            checks.append(Check("set-up", False, f"{type(exc).__name__}: {exc}"))
        checks += bodies.checks
        values = _metrics(bodies, setup_s, checks, trace, WORKLOADS[name].subseeds)
        metrics = {m: {"value": values.get(m), "unit": u} for m, u in units.items()}
        fingerprints = bodies.outcomes[0].fingerprints if bodies.outcomes else {}
        result = {
            "workload": name,
            "seed": args.seed,
            "config_seeds": config_seeds(WORKLOADS[name], args.seed),
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": stamp,
            "metrics": metrics,
            "fingerprints": fingerprints,
            "untraced_s": bodies.untraced_s,
            "traced_s": bodies.traced_s,
            "step_s": bodies.step_s,
            "slowdowns": bodies.slowdowns,
            "setup_s": setup_s,
            "checks": [asdict(c) for c in checks],
        }
        if bodies.tracer is not None:
            spans = OUT / f"{name}-seed{args.seed}-spans.csv"
            _spans_csv(bodies.tracer, spans)
            result["spans"] = spans.name
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        _print_block(name, metrics, fingerprints, checks)
        all_checks += checks[1:]
        for m, entry in metrics.items():
            all_metrics[m if args.workload else f"{name}.{m}"] = entry
    failed = sum(not c.ok for c in all_checks)
    summary = {
        "correct": failed == 0,
        "attempted": len(all_checks),
        "failed": failed,
        "metrics": all_metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def _print_block(name: str, metrics: dict, fingerprints: dict, checks: list[Check]) -> None:
    print(f"== {name}")
    for m, entry in metrics.items():
        value = entry["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {m:28s} {shown:>14s} {entry['unit']}")
    for key, digest in fingerprints.items():
        print(f"  sha256 {key:14s} {digest}")
    bad = [c for c in checks if not c.ok]
    print(f"  checks: {len(checks) - len(bad)} of {len(checks)} passed")
    for c in bad:
        print(f"  FAILED {c.name}: {c.detail}")

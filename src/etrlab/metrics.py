"""Run artifacts: metrics CSV, SVG line plots, and binary checkpoints.

All writers are deterministic: the same log produces byte-identical
files. Numbers in the CSV are rendered with nine significant digits.
Every file is written atomically, so an interrupted write leaves the
previous version in place.
"""

from __future__ import annotations

import hashlib
import os
import struct
import warnings
from dataclasses import dataclass, field, fields
from html import escape
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import ContractViolation
from .config import TrainConfig, render_config

CHECKPOINT_MAGIC = b"ETRCKPT1"
CHECKPOINT_VERSION = 1


@dataclass
class StepMetrics:
    """Per-update record of loss parts and batch statistics."""

    step: int
    total: float
    surrogate: float
    kl: float
    entropy: float
    clip_frac: float
    mean_eps: float | None
    resp_len: float
    pass_rate: float
    evals: dict[str, tuple[float, float]] | None = field(default=None)


# metrics.csv's leading columns: every StepMetrics field but the evals,
# which add a mean and a best column per task.
CSV_BASE_COLUMNS = tuple(f.name for f in fields(StepMetrics) if f.name != "evals")


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` via a temp file in the same directory.

    ``os.replace`` swaps the file in one step, so readers see either the
    old bytes or the new ones. On failure the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def suite_labels(suite) -> list[str]:
    return sorted(spec.label for spec in suite)


def metrics_header(labels: Sequence[str]) -> list[str]:
    header = list(CSV_BASE_COLUMNS)
    for label in labels:
        header.extend((f"mean_{label}", f"best_{label}"))
    return header


def write_metrics_csv(log: Sequence[StepMetrics], path, labels: Sequence[str]) -> None:
    """Write the run log with a fixed column order and empty non-eval cells."""
    rows = [",".join(metrics_header(labels))]
    for m in log:
        cells = [str(m.step)]  # the first column, and the one integer
        for name in CSV_BASE_COLUMNS[1:]:
            value = getattr(m, name)
            cells.append("" if value is None else _fmt(value))
        for label in labels:
            if m.evals is None or label not in m.evals:
                cells.extend(("", ""))
            else:
                mean_n, best_n = m.evals[label]
                cells.extend((_fmt(mean_n), _fmt(best_n)))
        rows.append(",".join(cells))
    write_atomic(path, ("\n".join(rows) + "\n").encode("utf-8"))


_PALETTE = ("#1f6fb4", "#d45500", "#2b8a3e", "#a01a7d", "#6a4c93", "#b3861a")


def _axis_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_lineplot(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    path,
    title: str = "",
    x_label: str = "step",
    y_label: str = "",
) -> None:
    """Write a multi-series line plot as a standalone SVG file.

    Every series needs at least two points; scales are linear and shared.
    """
    if len(series) == 0:
        raise ContractViolation("at least one series is required")
    for name, xs, ys in series:
        if len(xs) != len(ys):
            raise ContractViolation(f"series {name!r} has mismatched lengths")
        if len(xs) < 2:
            raise ContractViolation(f"series {name!r} needs at least two points")
    all_x = [float(x) for _, xs, _ in series for x in xs]
    all_y = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    width, height = 640.0, 400.0
    left, right, top, bottom = 62.0, 150.0, 34.0, 46.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<rect x="{left:g}" y="{top:g}" width="{plot_w:g}" height="{plot_h:g}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:g}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>'
        )
    for tick in _axis_ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" '
            f'y2="{top + plot_h + 5:.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt_tick(tick)}</text>'
        )
    for tick in _axis_ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" '
            'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt_tick(tick)}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:g}" y="{height - 8:g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(x_label, quote=False)}</text>'
    )
    if y_label:
        parts.append(
            f'<text x="16" y="{top + plot_h / 2:g}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {top + plot_h / 2:g})">{escape(y_label, quote=False)}</text>'
        )
    for i, (name, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = top + 14 + 16 * i
        parts.append(
            f'<line x1="{left + plot_w + 10:.2f}" y1="{ly:.2f}" '
            f'x2="{left + plot_w + 30:.2f}" y2="{ly:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w + 35:.2f}" y="{ly + 3:.2f}" '
            f'font-family="sans-serif" font-size="11">{escape(str(name), quote=False)}</text>'
        )
    parts.append("</svg>")
    write_atomic(path, ("\n".join(parts) + "\n").encode("utf-8"))


def _fmt_tick(x: float) -> str:
    return f"{x:.4g}"


class CheckpointFormatError(ValueError):
    """The checkpoint bytes do not follow the expected layout."""


class CheckpointDigestError(ValueError):
    """The stored config digest does not match the expected one."""


@dataclass(frozen=True)
class Checkpoint:
    version: int
    params: np.ndarray
    moment1: np.ndarray
    moment2: np.ndarray
    step: int
    digest: bytes


def config_digest(cfg: TrainConfig) -> bytes:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).digest()


def _bad_values(params: np.ndarray, moment1: np.ndarray, moment2: np.ndarray) -> str | None:
    """What no checkpoint may hold, or None: AdamW keeps all three finite
    and the second moments non-negative."""
    if not all(np.isfinite(a).all() for a in (params, moment1, moment2)):
        return "non-finite parameters or moments"
    if (moment2 < 0.0).any():
        return "negative second moments"
    return None


def save_checkpoint(
    path,
    params: np.ndarray,
    moment1: np.ndarray,
    moment2: np.ndarray,
    step: int,
    digest: bytes,
) -> None:
    """Binary layout: magic, u32 version, u64 count, params, m1, m2, u64 step, digest."""
    params = np.ascontiguousarray(params, dtype="<f8")
    moment1 = np.ascontiguousarray(moment1, dtype="<f8")
    moment2 = np.ascontiguousarray(moment2, dtype="<f8")
    if moment1.shape != params.shape or moment2.shape != params.shape:
        raise ContractViolation("optimizer moments must match the parameter count")
    bad = _bad_values(params, moment1, moment2)
    if bad:
        raise ContractViolation(f"refusing to checkpoint {bad}")
    if len(digest) != 32:
        raise ContractViolation("config digest must be 32 bytes")
    if step < 0:
        raise ContractViolation("step counter must be non-negative")
    blob = b"".join(
        (
            CHECKPOINT_MAGIC,
            struct.pack("<I", CHECKPOINT_VERSION),
            struct.pack("<Q", params.size),
            params.tobytes(),
            moment1.tobytes(),
            moment2.tobytes(),
            struct.pack("<Q", step),
            bytes(digest),
        )
    )
    write_atomic(path, blob)


def load_checkpoint(path, expected_digest: bytes | None = None, strict: bool = False) -> Checkpoint:
    """Read a checkpoint back; bit-exact inverse of :func:`save_checkpoint`.

    Values :func:`save_checkpoint` refuses to write raise
    :class:`CheckpointFormatError`; among them, non-finite parameters
    would break the sampler's exact masks. A digest mismatch raises when
    ``strict`` and warns otherwise.
    """
    blob = Path(path).read_bytes()
    head = len(CHECKPOINT_MAGIC) + 4 + 8
    if len(blob) < head:
        raise CheckpointFormatError("file too short for a checkpoint header")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError("bad magic bytes")
    (version,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    (count,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC) + 4)
    body = 3 * count * 8
    expected_len = head + body + 8 + 32
    if len(blob) != expected_len:
        raise CheckpointFormatError(
            f"checkpoint length {len(blob)} does not match expected {expected_len}"
        )
    arrays = []
    at = head
    for _ in range(3):
        arrays.append(np.frombuffer(blob, dtype="<f8", count=count, offset=at).copy())
        at += count * 8
    bad = _bad_values(*arrays)
    if bad:
        raise CheckpointFormatError(f"checkpoint holds {bad}")
    (step,) = struct.unpack_from("<Q", blob, at)
    digest = blob[at + 8 :]
    if expected_digest is not None and digest != expected_digest:
        if strict:
            raise CheckpointDigestError("checkpoint config digest mismatch")
        warnings.warn("checkpoint config digest mismatch", stacklevel=2)
    return Checkpoint(version, arrays[0], arrays[1], arrays[2], step, digest)

import os
import warnings
from xml.dom import minidom

import numpy as np
import pytest

from etrlab.autodiff import ContractViolation
from etrlab.config import TrainConfig, parse_suite
from etrlab.metrics import (
    CHECKPOINT_MAGIC,
    CheckpointDigestError,
    CheckpointFormatError,
    StepMetrics,
    config_digest,
    load_checkpoint,
    metrics_header,
    render_lineplot,
    save_checkpoint,
    suite_labels,
    write_atomic,
    write_metrics_csv,
)


def sample_log():
    return [
        StepMetrics(1, -0.5, -0.4, 100.0, 2.30258509, 0.0, 0.21, 3.0, 0.125, None),
        StepMetrics(
            2,
            0.125,
            0.126,
            1.0,
            2.2,
            0.0625,
            None,
            3.0,
            0.25,
            {"copy2": (0.05, 0.4), "parity2": (0.5, 1.0)},
        ),
    ]


def test_suite_labels_sorted():
    labels = suite_labels(parse_suite("parity:2,copy:2,digitsum:1"))
    assert labels == ["copy2", "digitsum1", "parity2"]


def test_metrics_header_layout():
    header = metrics_header(["copy2", "parity2"])
    assert header[:9] == [
        "step",
        "total",
        "surrogate",
        "kl",
        "entropy",
        "clip_frac",
        "mean_eps",
        "resp_len",
        "pass_rate",
    ]
    assert header[9:] == ["mean_copy2", "best_copy2", "mean_parity2", "best_parity2"]


def test_write_metrics_csv_schema(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(sample_log(), path, ["copy2", "parity2"])
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == (
        "step,total,surrogate,kl,entropy,clip_frac,mean_eps,resp_len,pass_rate,"
        "mean_copy2,best_copy2,mean_parity2,best_parity2"
    )
    assert all(len(line.split(",")) == 13 for line in lines)
    # no-eval rows leave the eval cells empty; None mean_eps leaves a gap
    assert lines[1] == "1,-0.5,-0.4,100,2.30258509,0,0.21,3,0.125,,,,"
    assert lines[2] == "2,0.125,0.126,1,2.2,0.0625,,3,0.25,0.05,0.4,0.5,1"


def test_write_metrics_csv_nine_significant_digits(tmp_path):
    path = tmp_path / "metrics.csv"
    log = [StepMetrics(1, 1.0 / 3.0, 0.0, 0.0, 0.0, 0.0, None, 0.0, 0.0, None)]
    write_metrics_csv(log, path, [])
    assert path.read_text().splitlines()[1].split(",")[1] == "0.333333333"


def test_single_step_log_two_lines(tmp_path):
    path = tmp_path / "one.csv"
    write_metrics_csv(sample_log()[:1], path, [])
    assert len(path.read_bytes().splitlines()) == 2


def test_csv_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_metrics_csv(sample_log(), a, ["copy2", "parity2"])
    write_metrics_csv(sample_log(), b, ["copy2", "parity2"])
    assert a.read_bytes() == b.read_bytes()


def test_lineplot_renders_well_formed_xml(tmp_path):
    path = tmp_path / "plot.svg"
    render_lineplot(
        [
            ("etr", [0, 1, 2, 3], [0.1, 0.4, 0.35, 0.8]),
            ("grpo", [0, 1, 2, 3], [0.1, 0.2, 0.3, 0.3]),
        ],
        path,
        title="pass rate",
        y_label="rate",
    )
    doc = minidom.parse(str(path))
    assert doc.documentElement.tagName == "svg"
    polylines = doc.getElementsByTagName("polyline")
    assert len(polylines) == 2


def test_lineplot_escapes_markup_in_text_and_keeps_quotes(tmp_path):
    path = tmp_path / "plot.svg"
    render_lineplot(
        [("a<b> & \"c\" 'd'", [0, 1], [0.0, 1.0])],
        path,
        title="T&<x>\"'",
        x_label="X<&>\"'",
        y_label="Y>&<\"'",
    )
    text = path.read_text()
    for escaped in (
        "a&lt;b&gt; &amp; \"c\" 'd'",
        "T&amp;&lt;x&gt;\"'",
        "X&lt;&amp;&gt;\"'",
        "Y&gt;&amp;&lt;\"'",
    ):
        assert f">{escaped}</text>" in text
    assert "&quot;" not in text and "&#x27;" not in text and "&#39;" not in text
    labels = [t.firstChild.data for t in minidom.parse(str(path)).getElementsByTagName("text")]
    assert {"a<b> & \"c\" 'd'", "T&<x>\"'", "X<&>\"'", "Y>&<\"'"} <= set(labels)


def test_lineplot_two_point_and_constant_series(tmp_path):
    path = tmp_path / "seg.svg"
    render_lineplot([("seg", [0, 1], [1.0, 2.0])], path)
    text = path.read_text()
    assert "polyline" in text
    flat = tmp_path / "flat.svg"
    render_lineplot([("flat", [0, 1, 2], [0.7, 0.7, 0.7])], flat)
    doc = minidom.parse(str(flat))
    pts = doc.getElementsByTagName("polyline")[0].getAttribute("points")
    ys = {chunk.split(",")[1] for chunk in pts.split()}
    assert len(ys) == 1  # horizontal line


def test_lineplot_contracts(tmp_path):
    with pytest.raises(ContractViolation):
        render_lineplot([], tmp_path / "x.svg")
    with pytest.raises(ContractViolation):
        render_lineplot([("a", [0], [1.0])], tmp_path / "x.svg")
    with pytest.raises(ContractViolation):
        render_lineplot([("a", [0, 1], [1.0])], tmp_path / "x.svg")


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = rng.normal(size=257)
    m1 = rng.normal(size=257)
    m2 = rng.random(257)
    digest = config_digest(TrainConfig())
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, params, m1, m2, 42, digest)
    ck = load_checkpoint(path)
    assert ck.version == 1
    assert ck.step == 42
    assert ck.digest == digest
    assert np.array_equal(ck.params, params)
    assert np.array_equal(ck.moment1, m1)
    assert np.array_equal(ck.moment2, m2)
    # saving again produces identical bytes
    other = tmp_path / "again.ckpt"
    save_checkpoint(other, params, m1, m2, 42, digest)
    assert other.read_bytes() == path.read_bytes()


def test_checkpoint_layout_prefix(tmp_path):
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, np.zeros(3), np.zeros(3), np.zeros(3), 0, bytes(32))
    blob = path.read_bytes()
    assert blob.startswith(CHECKPOINT_MAGIC)
    assert len(blob) == 8 + 4 + 8 + 3 * 3 * 8 + 8 + 32


def test_checkpoint_save_contracts(tmp_path):
    path = tmp_path / "bad.ckpt"
    good = np.zeros(4)
    with pytest.raises(ContractViolation):
        save_checkpoint(path, good, np.zeros(3), np.zeros(4), 0, bytes(32))
    with pytest.raises(ContractViolation):
        save_checkpoint(path, np.asarray([1.0, np.nan]), np.zeros(2), np.zeros(2), 0, bytes(32))
    with pytest.raises(ContractViolation):
        save_checkpoint(path, good, np.asarray([0, 0, np.inf, 0]), good, 0, bytes(32))
    with pytest.raises(ContractViolation):
        save_checkpoint(path, good, good, np.asarray([0, 0, -1e-12, 0]), 0, bytes(32))
    assert not path.exists()
    with pytest.raises(ContractViolation):
        save_checkpoint(path, good, good, good, 0, bytes(31))
    with pytest.raises(ContractViolation):
        save_checkpoint(path, good, good, good, -1, bytes(32))


def test_checkpoint_format_errors(tmp_path):
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, np.ones(5), np.zeros(5), np.zeros(5), 7, bytes(32))
    blob = path.read_bytes()

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[:-10])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(truncated)

    stub = tmp_path / "stub.ckpt"
    stub.write_bytes(blob[:6])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(stub)

    magic = tmp_path / "magic.ckpt"
    magic.write_bytes(b"NOTCKPT!" + blob[8:])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(magic)

    version = tmp_path / "version.ckpt"
    version.write_bytes(blob[:8] + (99).to_bytes(4, "little") + blob[12:])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(version)

    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(padded)


def test_checkpoint_digest_strict_and_warn(tmp_path):
    path = tmp_path / "run.ckpt"
    digest = config_digest(TrainConfig())
    save_checkpoint(path, np.ones(2), np.zeros(2), np.zeros(2), 1, digest)
    wrong = config_digest(TrainConfig(seed=99))
    assert wrong != digest
    with pytest.raises(CheckpointDigestError):
        load_checkpoint(path, expected_digest=wrong, strict=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ck = load_checkpoint(path, expected_digest=wrong, strict=False)
    assert len(caught) == 1
    assert "digest" in str(caught[0].message)
    assert ck.step == 1
    # matching digest stays silent
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_checkpoint(path, expected_digest=digest, strict=True)
    assert caught == []


def test_config_digest_tracks_content():
    assert config_digest(TrainConfig()) == config_digest(TrainConfig())
    assert config_digest(TrainConfig()) != config_digest(TrainConfig(steps=299))
    assert len(config_digest(TrainConfig())) == 32


ATOMIC_WRITERS = {
    "bytes": lambda path: write_atomic(path, b"new bytes\n"),
    "csv": lambda path: write_metrics_csv(sample_log(), path, ["parity2"]),
    "svg": lambda path: render_lineplot([("a", [1, 2], [0.5, 0.25])], path),
    "checkpoint": lambda path: save_checkpoint(
        path, np.ones(3), np.zeros(3), np.zeros(3), 1, bytes(32)
    ),
}


@pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
def test_failed_replace_keeps_previous_file_and_no_temp(writer, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous contents")

    def boom(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError, match="replace failed"):
        ATOMIC_WRITERS[writer](path)
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


@pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
def test_atomic_writers_replace_previous_file(writer, tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous contents")
    ATOMIC_WRITERS[writer](path)
    assert path.read_bytes() != b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

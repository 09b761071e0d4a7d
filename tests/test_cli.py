"""CLI surface: determinism, composition, error exit codes."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chanimg import io
from chanimg.cli import (
    EXIT_BAD_DATA,
    EXIT_BAD_FILE,
    EXIT_USAGE,
    EXIT_VERSION,
    run,
)
from chanimg.rng import substream


def test_gen_data_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["--seed", "7", "gen-data", "--links", "100", "--out", str(a)]) == 0
    assert run(["--seed", "7", "gen-data", "--links", "100", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(io.read_dataset(a)) == 100


def test_gen_data_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(["--seed", "1", "gen-data", "--links", "50", "--out", str(a)])
    run(["--seed", "2", "gen-data", "--links", "50", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Tiny end-to-end pipeline shared by the composition tests."""
    d = tmp_path_factory.mktemp("pipe")
    assert run(["--seed", "3", "gen-data", "--links", "300",
                "--heights", "1.6,30", "--out", str(d / "data.jsonl")]) == 0
    assert run(["--seed", "3", "fit-codec", "--data", str(d / "data.jsonl"),
                "--out", str(d / "codec.json")]) == 0
    assert run(["--seed", "3", "encode", "--data", str(d / "data.jsonl"),
                "--codec", str(d / "codec.json"), "--out", str(d / "images.chim")]) == 0
    assert run(["--seed", "3", "train", "--images", str(d / "images.chim"),
                "--backend", "wgan-gp", "--epochs", "1", "--batch-size", "64",
                "--hidden", "16,16", "--noise-dim", "8",
                "--log", str(d / "train_log.csv"),
                "--out", str(d / "model.ckpt")]) == 0
    assert run(["--seed", "3", "train", "--images", str(d / "images.chim"),
                "--backend", "resampler", "--k", "10",
                "--out", str(d / "resampler.ckpt")]) == 0
    assert run(["--seed", "4", "sample", "--model", str(d / "model.ckpt"),
                "--conditions-from", str(d / "data.jsonl"),
                "--out", str(d / "samples.chim")]) == 0
    assert run(["--seed", "4", "decode", "--images", str(d / "samples.chim"),
                "--codec", str(d / "codec.json"),
                "--geometry-from", str(d / "data.jsonl"),
                "--out", str(d / "decoded.jsonl")]) == 0
    assert run(["--seed", "4", "eval", "--model", str(d / "decoded.jsonl"),
                "--data", str(d / "data.jsonl"), "--outdir", str(d / "reports")]) == 0
    assert run(["--seed", "4", "report", "--data", str(d / "data.jsonl"),
                "--codec", str(d / "codec.json"),
                "--out", str(d / "roundtrip.csv")]) == 0
    return d


def test_pipeline_composes(pipeline_dir):
    d = pipeline_dir
    for f in ("data.jsonl", "codec.json", "images.chim", "model.ckpt",
              "resampler.ckpt", "samples.chim", "decoded.jsonl", "roundtrip.csv",
              "train_log.csv", "reports/ks.csv", "reports/los_prob.csv",
              "reports/zenith_pdf_zod.csv", "reports/zenith_pdf_zoa.csv"):
        assert (d / f).exists(), f


def test_encode_decode_artifacts_consistent(pipeline_dir):
    d = pipeline_dir
    images, conds = io.read_images(d / "images.chim")
    links = io.read_dataset(d / "data.jsonl")
    assert len(images) == len(links)
    decoded = io.read_dataset(d / "decoded.jsonl")
    assert len(decoded) == len(links)
    assert all(lk.tx == dk.tx and lk.rx == dk.rx for lk, dk in zip(links, decoded))


def test_roundtrip_report_errors_small(pipeline_dir):
    rows = (pipeline_dir / "roundtrip.csv").read_text().splitlines()[2:]
    errs = np.array([[float(v) for v in row.split(",")[4:]] for row in rows])
    assert np.nanmax(errs[:, 0]) <= 1e-3   # pathloss dB (through float32 images)
    assert np.nanmax(errs[:, 1]) <= 1e-12  # delay s
    assert np.nanmax(errs[:, 2:]) <= 1e-3  # angles/phase deg
    state_ok = np.array([int(row.split(",")[1]) for row in rows])
    paths_ok = np.array([int(row.split(",")[2]) for row in rows])
    assert state_ok.all() and paths_ok.all()


def test_eval_report_format(pipeline_dir):
    lines = (pipeline_dir / "reports" / "ks.csv").read_text().splitlines()
    assert lines[0].startswith("# chanimg-report v1 name=ks seed=")
    assert lines[1] == "height,metric,value"
    metrics = {row.split(",")[1] for row in lines[2:]}
    assert {"ks_pathloss", "ks_delay", "ks_uniform_aoa", "ks_uniform_aod",
            "ks_uniform_phase", "max_los_prob_gap"} <= metrics


def test_training_log_format(pipeline_dir):
    lines = (pipeline_dir / "train_log.csv").read_text().splitlines()
    assert "generator_params=" in lines[0] and "critic_params=" in lines[0]
    assert lines[1] == "step,critic_loss,gen_loss,gp_term"
    assert len(lines) > 2


def test_exit_codes(tmp_path):
    # unknown flag -> usage
    assert run(["gen-data", "--nope"]) == EXIT_USAGE
    # missing file -> bad file
    assert run(["fit-codec", "--data", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "c.json")]) == EXIT_BAD_FILE
    # malformed file -> bad file
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a dataset\n")
    assert run(["fit-codec", "--data", str(bad),
                "--out", str(tmp_path / "c.json")]) == EXIT_BAD_FILE
    # version mismatch -> dedicated code
    future = tmp_path / "future.jsonl"
    future.write_text("# chanimg-dataset v99\n")
    assert run(["fit-codec", "--data", str(future),
                "--out", str(tmp_path / "c.json")]) == EXIT_VERSION
    # invalid request -> bad data
    assert run(["gen-data", "--links", "0", "--out", str(tmp_path / "d.jsonl")]) \
        == EXIT_BAD_DATA


def test_eval_runs_warning_free(pipeline_dir, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    os.environ.get("PYTHONPATH")) if p))
    d = pipeline_dir
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "chanimg.cli", "--seed", "4", "eval",
         "--model", str(d / "decoded.jsonl"), "--data", str(d / "data.jsonl"),
         "--outdir", str(tmp_path / "reports")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for name in ("ks.csv", "los_prob.csv", "zenith_pdf_zod.csv", "zenith_pdf_zoa.csv"):
        assert (tmp_path / "reports" / name).read_bytes() == \
            (d / "reports" / name).read_bytes()


@pytest.mark.parametrize("header", [{"entries": []}, {"meta": {"backend": "resampler"}},
                                    [], {"meta": {}, "entries": [{"name": "x"}]}])
def test_checkpoint_header_gaps_are_format_errors(tmp_path, capsys, header):
    run(["--seed", "1", "gen-data", "--links", "20", "--out", str(tmp_path / "d.jsonl")])
    capsys.readouterr()
    raw = json.dumps(header).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"WGPC" + struct.pack("<2I", 1, len(raw)) + raw)
    assert run(["sample", "--model", str(bad), "--conditions-from", str(tmp_path / "d.jsonl"),
                "--out", str(tmp_path / "s.chim")]) == EXIT_BAD_FILE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("chanimg: error kind=format exit=3")


def test_decode_rejects_mismatched_counts(tmp_path):
    run(["--seed", "1", "gen-data", "--links", "40", "--out", str(tmp_path / "a.jsonl")])
    run(["--seed", "1", "gen-data", "--links", "30", "--out", str(tmp_path / "b.jsonl")])
    run(["--seed", "1", "fit-codec", "--data", str(tmp_path / "a.jsonl"),
         "--out", str(tmp_path / "codec.json")])
    run(["--seed", "1", "encode", "--data", str(tmp_path / "a.jsonl"),
         "--codec", str(tmp_path / "codec.json"), "--out", str(tmp_path / "a.chim")])
    assert run(["decode", "--images", str(tmp_path / "a.chim"),
                "--codec", str(tmp_path / "codec.json"),
                "--geometry-from", str(tmp_path / "b.jsonl"),
                "--out", str(tmp_path / "dec.jsonl")]) == EXIT_BAD_DATA


def test_encode_realizations_are_consecutive_encode_calls(tmp_path):
    data, codec_path, out = tmp_path / "d.jsonl", tmp_path / "c.json", tmp_path / "i.chim"
    run(["--seed", "5", "gen-data", "--links", "40", "--out", str(data)])
    run(["--seed", "5", "fit-codec", "--data", str(data), "--out", str(codec_path)])
    assert run(["--seed", "5", "encode", "--data", str(data), "--codec", str(codec_path),
                "--realizations", "2", "--out", str(out)]) == 0
    links, codec = io.read_dataset(data), io.read_codec(codec_path)
    rng = substream(5, "padding")
    (a, conds), (b, _) = codec.encode(links, rng), codec.encode(links, rng)
    images, got_conds = io.read_images(out)
    np.testing.assert_array_equal(images, np.concatenate([a, b]).astype(np.float32))
    np.testing.assert_array_equal(got_conds, np.concatenate([conds, conds]))


def fails_cleanly(capsys, argv, code, *fragments):
    """run(argv) exits with code and one error line on stderr holding fragments."""
    capsys.readouterr()
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("chanimg: error kind=")
    assert f"exit={code}" in err and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err, err


def edit_first_link(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("edit", [
    lambda r: r["paths"][0].update(pathloss=float("inf")),
    lambda r: r["paths"][0].update(delay=float("inf")),
    lambda r: r["paths"][0].update(aod=float("nan")),
    lambda r: r["paths"][0].update(aoa=float("-inf")),
    lambda r: r["tx"].__setitem__(0, float("nan")),
    lambda r: r["rx"].__setitem__(2, float("inf")),
    lambda r: r.update(carrier_freq=float("nan")),
], ids=["pathloss", "delay", "aod", "aoa", "tx", "rx", "carrier_freq"])
def test_dataset_rejects_nonfinite_numbers(tmp_path, capsys, edit):
    data = tmp_path / "d.jsonl"
    run(["--seed", "1", "gen-data", "--links", "20", "--out", str(data)])
    edit_first_link(data, edit)
    fails_cleanly(capsys, ["fit-codec", "--data", str(data), "--out", str(tmp_path / "c.json")],
                  EXIT_BAD_FILE, f"{data}:2:")


def test_encode_rejects_receiver_at_ground(tmp_path, capsys):
    data, codec = tmp_path / "d.jsonl", tmp_path / "c.json"
    run(["--seed", "1", "gen-data", "--links", "20", "--out", str(data)])
    run(["--seed", "1", "fit-codec", "--data", str(data), "--out", str(codec)])
    edit_first_link(data, lambda r: r["rx"].__setitem__(2, 0.0))
    fails_cleanly(capsys, ["encode", "--data", str(data), "--codec", str(codec),
                           "--out", str(tmp_path / "i.chim")], EXIT_BAD_DATA, "link 0")


def test_train_rejects_nonfinite_pixels(tmp_path, capsys):
    images = np.zeros((8, 64, 50), dtype=np.float32)
    images[3, 10, 10] = np.nan
    io.write_images(tmp_path / "i.chim", images, np.ones((8, 2)))
    fails_cleanly(capsys, ["train", "--images", str(tmp_path / "i.chim"), "--batch-size", "4",
                           "--out", str(tmp_path / "m.ckpt")], EXIT_BAD_DATA, "non-finite")


def test_gen_data_unparsable_heights_is_usage_error(tmp_path, capsys):
    fails_cleanly(capsys, ["gen-data", "--heights", "a,b", "--out", str(tmp_path / "d.jsonl")],
                  EXIT_USAGE, "--heights")


@pytest.mark.parametrize("flags", [["--num-tx", "0"], ["--num-tx", "-3"], ["--links", "-1"]])
def test_gen_data_nonpositive_counts_are_data_errors(tmp_path, capsys, flags):
    fails_cleanly(capsys, ["gen-data", *flags, "--out", str(tmp_path / "d.jsonl")],
                  EXIT_BAD_DATA)

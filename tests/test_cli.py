"""CLI surface: determinism, composition, error exit codes."""

import contextlib
import io as stdio
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanimg import io
from chanimg.cli import (
    EXIT_BAD_DATA,
    EXIT_BAD_FILE,
    EXIT_USAGE,
    EXIT_VERSION,
    run,
)
from chanimg.genmodel import sample as wgan_sample
from chanimg.rng import substream


def test_gen_data_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["--seed", "7", "gen-data", "--links", "100", "--out", str(a)]) == 0
    assert run(["--seed", "7", "gen-data", "--links", "100", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(io.read_table(a)) == 100


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
    data = io.read_table(d / "data.jsonl")
    assert len(images) == len(data)
    decoded = io.read_table(d / "decoded.jsonl")
    assert len(decoded) == len(data)
    for name in ("tx", "rx", "carrier_freq", "dist2d", "dist3d", "fspl", "los"):
        np.testing.assert_array_equal(getattr(decoded, name), getattr(data, name))


def test_jsonl_artifacts_rewrite_byte_identical(pipeline_dir, tmp_path):
    d = pipeline_dir
    assert run(["--seed", "4", "sample", "--model", str(d / "resampler.ckpt"),
                "--conditions-from", str(d / "data.jsonl"),
                "--out", str(tmp_path / "samples_res.chim")]) == 0
    assert run(["--seed", "4", "decode", "--images", str(tmp_path / "samples_res.chim"),
                "--codec", str(d / "codec.json"), "--geometry-from", str(d / "data.jsonl"),
                "--out", str(tmp_path / "decoded_res.jsonl")]) == 0
    for src in (d / "data.jsonl", d / "decoded.jsonl", tmp_path / "decoded_res.jsonl"):
        lines = src.read_text().splitlines()
        seed = int(re.search(r" seed=(\d+) ", lines[0]).group(1))
        io.write_table(tmp_path / "again.jsonl", io.read_table(src), seed=seed)
        assert (tmp_path / "again.jsonl").read_bytes() == src.read_bytes(), src.name
        # each line is the text json.dumps gives the link's record
        assert all(json.dumps(json.loads(line)) == line for line in lines[1:]), src.name


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
    assert lines[1] == "step,critic_loss,gen_loss,gp_term,wasserstein,gp_norm"
    assert len(lines) > 2
    for row in lines[2:]:
        _, total, _, gp, wasserstein, gp_norm = (float(v) for v in row.split(","))
        assert total == pytest.approx(wasserstein + gp, rel=1e-12, abs=1e-15)
        assert gp_norm > 0


def test_wgan_models_and_samples_the_matrix(pipeline_dir):
    d = pipeline_dir
    backend, netp = io.read_model_checkpoint(d / "model.ckpt")
    assert backend == "wgan-gp" and netp.image_shape == (8, 25)
    assert netp.generator.sizes[-1] == 200 and netp.critic.sizes[0] == 200 + 32
    samples, conds = io.read_images(d / "samples.chim")
    assert samples.shape == (300, 8, 25)
    # sample stores the generator's matrices as they come, in float32
    np.testing.assert_array_equal(samples, wgan_sample(netp, conds, 300, 4).astype(np.float32))


def with_version(path, version, out):
    """A copy of path whose u32 version word (bytes 4-8) reads version."""
    raw = bytearray(Path(path).read_bytes())
    raw[4:8] = struct.pack("<I", version)
    out.write_bytes(bytes(raw))
    return str(out)


def test_v1_checkpoint_is_version_error(pipeline_dir, tmp_path, capsys):
    for version in (1, 2):
        old = with_version(pipeline_dir / "model.ckpt", version, tmp_path / f"v{version}.ckpt")
        fails_cleanly(capsys, ["sample", "--model", old,
                               "--conditions-from", str(pipeline_dir / "data.jsonl"),
                               "--out", str(tmp_path / "s.chim")], EXIT_VERSION, f"v{version}")
        assert not (tmp_path / "s.chim").exists()


def test_v1_images_are_version_errors(pipeline_dir, tmp_path, capsys):
    d = pipeline_dir
    old = with_version(d / "images.chim", 1, tmp_path / "v1.chim")
    fails_cleanly(capsys, ["train", "--images", old, "--out", str(tmp_path / "m.ckpt")],
                  EXIT_VERSION, "v1")
    fails_cleanly(capsys, ["decode", "--images", old, "--codec", str(d / "codec.json"),
                           "--geometry-from", str(d / "data.jsonl"),
                           "--out", str(tmp_path / "dec.jsonl")], EXIT_VERSION, "v1")
    assert not any(tmp_path.glob("m.ckpt")) and not any(tmp_path.glob("dec.jsonl"))


def test_resampler_with_k1_returns_stored_matrices(pipeline_dir, tmp_path):
    d = pipeline_dir
    res, out = tmp_path / "res.ckpt", tmp_path / "s.chim"
    assert run(["--seed", "3", "train", "--images", str(d / "images.chim"),
                "--backend", "resampler", "--k", "1", "--out", str(res)]) == 0
    assert run(["--seed", "5", "sample", "--model", str(res),
                "--conditions-from", str(d / "data.jsonl"), "--out", str(out)]) == 0
    matrices, conds = io.read_images(d / "images.chim")
    samples, sample_conds = io.read_images(out)
    np.testing.assert_array_equal(sample_conds, conds)
    # the one nearest stored condition is the training row itself (the first
    # of any links sharing a condition)
    first = [np.flatnonzero((conds == c).all(axis=1))[0] for c in conds]
    assert samples.tobytes() == matrices[first].tobytes()


@pytest.mark.parametrize("per_cond", ["0", "-1"])
def test_sample_rejects_nonpositive_per_cond(pipeline_dir, tmp_path, capsys, per_cond):
    fails_cleanly(capsys, ["sample", "--model", str(pipeline_dir / "resampler.ckpt"),
                           "--conditions-from", str(pipeline_dir / "data.jsonl"),
                           f"--per-cond={per_cond}", "--out", str(tmp_path / "s.chim")],
                  EXIT_BAD_DATA, "--per-cond")
    assert not (tmp_path / "s.chim").exists()


@pytest.mark.parametrize("flag, value", [
    ("--dist-bin-width", "0"), ("--dist-bin-width", "nan"), ("--dist-bin-width", "-25"),
    ("--dist-bin-width", "inf"), ("--angle-bin-width", "-2"), ("--angle-bin-width", "0"),
    ("--angle-bin-width", "nan"),
    # positive and finite, but a zenith PDF grid no machine's memory holds
    ("--dist-bin-width", "1e-300"), ("--dist-bin-width", "5e-324"),
    ("--angle-bin-width", "1e-12"),
])
def test_eval_rejects_bad_bin_widths(pipeline_dir, tmp_path, capsys, flag, value):
    d = pipeline_dir
    fails_cleanly(capsys, ["eval", "--model", str(d / "decoded.jsonl"),
                           "--data", str(d / "data.jsonl"), f"{flag}={value}",
                           "--outdir", str(tmp_path / "reports")],
                  EXIT_BAD_DATA, flag[2:].replace("-", "_"))
    assert not (tmp_path / "reports").exists()


def test_eval_writes_reports_for_fine_feasible_bin_widths(pipeline_dir, tmp_path):
    # 1 m by 0.1 deg: over a million bins per zenith PDF, about 10 MB each
    out = tmp_path / "reports"
    assert run(["--seed", "4", "eval", "--model", str(pipeline_dir / "decoded.jsonl"),
                "--data", str(pipeline_dir / "data.jsonl"), "--dist-bin-width=1",
                "--angle-bin-width=0.1", "--outdir", str(out)]) == 0
    for ang in ("zod", "zoa"):
        rows = (out / f"zenith_pdf_{ang}.csv").read_text().splitlines()[2:]
        assert rows and all(float(r.split(",")[2]).is_integer() for r in rows)
    assert (out / "ks.csv").exists() and (out / "los_prob.csv").exists()


def test_eval_reports_nan_at_a_height_without_model_paths(pipeline_dir, tmp_path):
    # a collapsed generator decodes to Outage links: no path at 1.6 m
    lines = (pipeline_dir / "decoded.jsonl").read_text().splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        rec = json.loads(line)
        if rec["rx"][2] == 1.6:
            rec.update(link_state="Outage", paths=[])
            lines[i] = json.dumps(rec) + "\n"
    (tmp_path / "outage.jsonl").write_text("".join(lines))
    out = tmp_path / "reports"
    assert run(["--seed", "4", "eval", "--model", str(tmp_path / "outage.jsonl"),
                "--data", str(pipeline_dir / "data.jsonl"), "--outdir", str(out)]) == 0
    for name in ("ks.csv", "los_prob.csv", "zenith_pdf_zod.csv", "zenith_pdf_zoa.csv"):
        assert (out / name).exists(), name
    ks = {(h, m): float(v) for h, m, v in
          (row.split(",") for row in (out / "ks.csv").read_text().splitlines()[2:])}
    for metric in ("ks_pathloss", "ks_delay", "ks_uniform_aoa", "ks_uniform_aod",
                   "ks_uniform_phase"):
        assert np.isnan(ks["1.6", metric]), metric
        assert 0.0 <= ks["30.0", metric] <= 1.0, metric


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


@pytest.mark.parametrize("header", [
    {"entries": []}, {"meta": {"backend": "resampler"}}, [],
    {"meta": {}, "entries": [{"name": "x"}]},
    # whole files: shorter than the 12-byte preamble, and a header not UTF-8
    pytest.param(b"WGPC\x03\x00", id="short-file"),
    pytest.param(b"WGPC" + struct.pack("<2I", io.CHECKPOINT_VERSION, 4) + b"\xff{}\xfe",
                 id="header-not-utf8"),
    pytest.param({"meta": {}, "entries": [{"name": "x", "shape": "ab"}]}, id="shape-str"),
    pytest.param({"meta": {}, "entries": 5}, id="entries-not-list"),
    pytest.param({"meta": {}, "entries": [5]}, id="entry-not-object"),
    pytest.param({"meta": [], "entries": []}, id="meta-list"),
    pytest.param({"meta": "resampler", "entries": []}, id="meta-str"),
    pytest.param({"meta": {"backend": "wgan-gp", "nets": 5}, "entries": []},
                 id="meta-field-type"),
])
def test_checkpoint_header_gaps_are_format_errors(tmp_path, capsys, header):
    run(["--seed", "1", "gen-data", "--links", "20", "--out", str(tmp_path / "d.jsonl")])
    capsys.readouterr()
    bad = tmp_path / "bad.ckpt"
    if isinstance(header, bytes):
        bad.write_bytes(header)
    else:
        raw = json.dumps(header).encode()
        bad.write_bytes(b"WGPC" + struct.pack("<2I", io.CHECKPOINT_VERSION, len(raw)) + raw)
    assert run(["sample", "--model", str(bad), "--conditions-from", str(tmp_path / "d.jsonl"),
                "--out", str(tmp_path / "s.chim")]) == EXIT_BAD_FILE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("chanimg: error kind=format exit=3")


DEEP_JSON = b"[" * 100000  # nested deeper than json.loads can recurse


def test_over_deep_codec_is_format_error(pipeline_dir, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_bytes(DEEP_JSON)
    fails_cleanly(capsys, ["encode", "--data", str(pipeline_dir / "data.jsonl"),
                           "--codec", str(deep), "--out", str(tmp_path / "i.chim")],
                  EXIT_BAD_FILE, "deep.json: not valid JSON")
    assert not (tmp_path / "i.chim").exists()


def test_over_deep_checkpoint_header_is_format_error(pipeline_dir, tmp_path, capsys):
    deep = tmp_path / "deep.ckpt"
    deep.write_bytes(b"WGPC" + struct.pack("<2I", io.CHECKPOINT_VERSION, len(DEEP_JSON))
                     + DEEP_JSON)
    fails_cleanly(capsys, ["sample", "--model", str(deep),
                           "--conditions-from", str(pipeline_dir / "data.jsonl"),
                           "--out", str(tmp_path / "s.chim")],
                  EXIT_BAD_FILE, "deep.ckpt: corrupt checkpoint header")
    assert not (tmp_path / "s.chim").exists()


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
    table, codec = io.read_table(data), io.read_codec(codec_path)
    rng = substream(5, "padding")
    (a, conds), (b, _) = codec.encode(table, rng), codec.encode(table, rng)
    matrices, got_conds = io.read_images(out)
    assert matrices.shape == (80, 8, 25)
    np.testing.assert_array_equal(matrices, np.concatenate([a, b]).astype(np.float32))
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
    matrices = np.zeros((8, 8, 25), dtype=np.float32)
    matrices[3, 5, 10] = np.nan
    io.write_images(tmp_path / "i.chim", matrices, np.ones((8, 2)))
    for backend in ("wgan-gp", "resampler"):
        fails_cleanly(capsys, ["train", "--images", str(tmp_path / "i.chim"), "--batch-size", "4",
                               "--backend", backend, "--out", str(tmp_path / "m.ckpt")],
                      EXIT_BAD_DATA, "non-finite")
        assert not (tmp_path / "m.ckpt").exists()


def test_train_rejects_images_that_are_not_64x50(tmp_path, capsys):
    images = np.random.default_rng(0).uniform(-1, 1, (300, 2, 2)).astype(np.float32)
    io.write_images(tmp_path / "i.chim", images, np.ones((300, 2)))
    fails_cleanly(capsys, ["train", "--images", str(tmp_path / "i.chim"),
                           "--out", str(tmp_path / "m.ckpt")], EXIT_BAD_DATA, "8x25")
    assert not (tmp_path / "m.ckpt").exists()


def test_gen_data_unparsable_heights_is_usage_error(tmp_path, capsys):
    fails_cleanly(capsys, ["gen-data", "--heights", "a,b", "--out", str(tmp_path / "d.jsonl")],
                  EXIT_USAGE, "--heights")


@pytest.mark.parametrize("flags", [["--num-tx", "0"], ["--num-tx", "-3"], ["--links", "-1"]])
def test_gen_data_nonpositive_counts_are_data_errors(tmp_path, capsys, flags):
    fails_cleanly(capsys, ["gen-data", *flags, "--out", str(tmp_path / "d.jsonl")],
                  EXIT_BAD_DATA)


@pytest.mark.parametrize("flag, value", [
    ("--freq", "nan"), ("--freq", "0"), ("--freq", "-1"), ("--freq", "inf"),
    ("--los-probability", "nan"), ("--los-probability", "2"),
    ("--los-probability", "-0.1"), ("--area", "nan,500"), ("--area", "500,inf"),
    ("--heights", "1.6,nan"), ("--heights", "inf"),
])
def test_gen_data_out_of_range_physics_are_data_errors(tmp_path, capsys, flag, value):
    fails_cleanly(capsys, ["gen-data", "--links", "20", f"{flag}={value}",
                           "--out", str(tmp_path / "d.jsonl")], EXIT_BAD_DATA)
    assert not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--gp-lambda", "nan"), ("--beta1", "nan"), ("--beta1", "1.5"),
    ("--beta2", "1"), ("--output-gain", "nan"), ("--output-gain", "inf"),
    ("--hidden", "0"), ("--hidden", "-3"), ("--hidden", "16,0"),
])
def test_train_rejects_bad_hyperparameters(tmp_path, capsys, flag, value):
    matrices = np.random.default_rng(0).uniform(-1, 1, (8, 8, 25)).astype(np.float32)
    io.write_images(tmp_path / "i.chim", matrices, np.ones((8, 2)))
    fails_cleanly(capsys, ["train", "--images", str(tmp_path / "i.chim"), "--batch-size", "4",
                           f"{flag}={value}", "--log", str(tmp_path / "log.csv"),
                           "--out", str(tmp_path / "m.ckpt")], EXIT_BAD_DATA)
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "log.csv").exists()


@pytest.fixture(scope="module")
def degenerate_dir(tmp_path_factory):
    """A dataset with its codec, images and resampler; bad.jsonl is a copy
    whose link 0 has rx == tx, and empty.jsonl holds no links."""
    d = tmp_path_factory.mktemp("degenerate")
    run(["--seed", "1", "gen-data", "--links", "20", "--out", str(d / "good.jsonl")])
    run(["--seed", "1", "fit-codec", "--data", str(d / "good.jsonl"),
         "--out", str(d / "codec.json")])
    run(["--seed", "1", "encode", "--data", str(d / "good.jsonl"),
         "--codec", str(d / "codec.json"), "--out", str(d / "i.chim")])
    run(["--seed", "1", "train", "--images", str(d / "i.chim"), "--backend", "resampler",
         "--k", "5", "--out", str(d / "res.ckpt")])
    bad = d / "bad.jsonl"
    bad.write_bytes((d / "good.jsonl").read_bytes())
    edit_first_link(bad, lambda r: r.update(rx=r["tx"]))
    (d / "empty.jsonl").write_text(bad.read_text().splitlines(keepends=True)[0])
    return d


@pytest.mark.parametrize("argv", [
    ["encode", "--data", "{bad}", "--codec", "{d}/codec.json", "--out", "{d}/o.chim"],
    ["decode", "--images", "{d}/i.chim", "--codec", "{d}/codec.json",
     "--geometry-from", "{bad}", "--out", "{d}/o.jsonl"],
    ["sample", "--model", "{d}/res.ckpt", "--conditions-from", "{bad}", "--out", "{d}/o.chim"],
    ["eval", "--model", "{bad}", "--data", "{d}/good.jsonl", "--outdir", "{d}/reports"],
    ["eval", "--model", "{d}/good.jsonl", "--data", "{bad}", "--outdir", "{d}/reports"],
    ["fit-codec", "--data", "{bad}", "--out", "{d}/o.json"],
    ["report", "--data", "{bad}", "--codec", "{d}/codec.json", "--out", "{d}/o.csv"],
], ids=["encode", "decode", "sample", "eval-model", "eval-data", "fit-codec", "report"])
@pytest.mark.parametrize("bad, fragment", [("bad.jsonl", "link 0: tx and rx coincide"),
                                            ("empty.jsonl", "empty link dataset")])
def test_degenerate_datasets_are_data_errors(degenerate_dir, capsys, argv, bad, fragment):
    d = degenerate_dir
    argv = [a.format(d=d, bad=d / bad) for a in argv]
    fails_cleanly(capsys, argv, EXIT_BAD_DATA, fragment)
    assert not any(d.glob("o.*")) and not (d / "reports").exists()


@pytest.mark.parametrize("freq", ["1e3", "1"])
def test_gen_data_low_carrier_is_data_error(tmp_path, capsys, freq):
    # free-space loss is below 0 dB there, so no link has a LOS path
    fails_cleanly(capsys, ["gen-data", "--links", "20", "--freq", freq,
                           "--out", str(tmp_path / "d.jsonl")],
                  EXIT_BAD_DATA, "link 0: LOS pathloss", "is not positive")
    assert not (tmp_path / "d.jsonl").exists()


def test_decode_of_zero_matrices_is_data_error(degenerate_dir, tmp_path, capsys):
    d = degenerate_dir
    io.write_images(tmp_path / "none.chim", np.zeros((0, 8, 25)), np.zeros((0, 2)))
    fails_cleanly(capsys, ["decode", "--images", str(tmp_path / "none.chim"),
                           "--codec", str(d / "codec.json"),
                           "--geometry-from", str(d / "good.jsonl"),
                           "--out", str(tmp_path / "o.jsonl")],
                  EXIT_BAD_DATA, "empty link dataset")
    assert not (tmp_path / "o.jsonl").exists()


def rec_edit(edit):
    """A line editor applying edit to the line's parsed record."""
    def on_line(line):
        rec = json.loads(line)
        edit(rec)
        return json.dumps(rec)
    return on_line


def set_path(field, value):
    return rec_edit(lambda r: r["paths"][0].update({field: value}))


TWO_PATHS = [{"pathloss": 110.0, "delay": 2e-6, "aod": 0.0, "zod": 90.0, "aoa": 180.0,
              "zoa": 90.0, "phase": -5.0},
             {"pathloss": 120.0, "delay": 1e-6, "aod": 0.0, "zod": 90.0, "aoa": 180.0,
              "zoa": 90.0, "phase": -5.0}]


@pytest.mark.parametrize("edit", [
    lambda line: line[:len(line) // 2],
    rec_edit(lambda r: r.update(carrier_freq="12e9")),
    rec_edit(lambda r: r.update(carrier_freq=10 ** 400)),
    rec_edit(lambda r: r.update(carrier_freq=0.0)),
    rec_edit(lambda r: r["tx"].append(1.0)),
    rec_edit(lambda r: r.update(rx=r["rx"][:2])),
    rec_edit(lambda r: r.update(tx="abc")),
    rec_edit(lambda r: r["rx"].__setitem__(0, "1.0")),
    rec_edit(lambda r: r.pop("paths")),
    rec_edit(lambda r: r.update(paths=5)),
    rec_edit(lambda r: r.update(paths=[[1.0] * 7])),
    rec_edit(lambda r: r["paths"][0].pop("phase")),
    rec_edit(lambda r: r.update(link_state="Sideways")),
    rec_edit(lambda r: r.update(link_state="NLOS", paths=[])),
    rec_edit(lambda r: r.update(paths=TWO_PATHS)),
    rec_edit(lambda r: r.update(paths=TWO_PATHS[1:] * 26)),
    set_path("pathloss", -1.0), set_path("pathloss", None), set_path("delay", 0.0),
    set_path("zod", 181.0), set_path("zoa", -0.5), set_path("phase", 0.5),
    set_path("phase", -360.0),
    lambda line: "[" + line + "]",
    lambda line: "[" * 100_000,
], ids=["truncated", "freq-str", "freq-huge-int", "freq-zero", "tx-4d", "rx-2d", "tx-str",
        "rx-str-number", "no-paths", "paths-number", "path-list", "no-phase", "bad-state",
        "nlos-without-paths", "unsorted", "26-paths", "pathloss-neg", "pathloss-null",
        "delay-zero", "zod-181", "zoa-neg", "phase-pos", "phase-360", "record-list",
        "nested-too-deep"])
def test_dataset_rejects_malformed_records(tmp_path, capsys, edit):
    data = tmp_path / "d.jsonl"
    run(["--seed", "1", "gen-data", "--links", "20", "--out", str(data)])
    lines = data.read_text().splitlines(keepends=True)
    lines[2] = edit(lines[2].rstrip("\n")) + "\n"  # the second link, on line 3
    data.write_text("".join(lines))
    fails_cleanly(capsys, ["fit-codec", "--data", str(data), "--out", str(tmp_path / "c.json")],
                  EXIT_BAD_FILE, f"{data}:3: bad link record")
    assert not (tmp_path / "c.json").exists()


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    run(["--seed", "2", "gen-data", "--links", "12", "--out", str(d / "good.jsonl")])
    return d / "good.jsonl"


# values no numeric or structured field takes, and none empty (an empty
# path list is valid for an Outage link)
JUNK = st.sampled_from(["12e9", "abc", None, "LOS?", [[1.0]], {"x": 1}, [1.0, 2.0, 3.0, 4.0]])
PATH_KEYS = ("pathloss", "delay", "aod", "zod", "aoa", "zoa", "phase")


@st.composite
def mutated_line(draw, line):
    """One dataset line made invalid: truncated, a value replaced or a key dropped."""
    kind = draw(st.sampled_from(["truncate", "junk", "drop", "out-of-range"]))
    if kind == "truncate":
        return line[:draw(st.integers(1, len(line) - 1))]
    rec = json.loads(line)
    path = draw(st.integers(0, len(rec["paths"]) - 1)) if rec["paths"] else None
    if kind == "out-of-range":
        if path is None:
            rec["carrier_freq"] = -rec["carrier_freq"]
        else:
            field, value = draw(st.sampled_from([
                ("pathloss", -1.0), ("delay", -1e-9), ("zod", 180.5), ("zoa", -1.0),
                ("phase", 1.0), ("aod", float("inf")), ("aoa", float("nan"))]))
            rec["paths"][path][field] = value
    else:
        keys = ["tx", "rx", "carrier_freq", "link_state", "paths"]
        if path is not None:
            keys += [f"paths.{k}" for k in PATH_KEYS]
        key = draw(st.sampled_from(keys))
        owner = rec["paths"][path] if key.startswith("paths.") else rec
        key = key.removeprefix("paths.")
        if kind == "drop":
            del owner[key]
        else:
            owner[key] = draw(JUNK)
    return json.dumps(rec)


# a fixed example set, so the suite's outcome does not vary between runs
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_datasets_fail_cleanly(fuzz_base, data):
    """Cut the file after k links; with k > 0, make one to three of them invalid."""
    header, *lines = fuzz_base.read_text().splitlines()
    lines = lines[:data.draw(st.integers(0, len(lines)), label="links kept")]
    if lines:
        for i in data.draw(st.sets(st.integers(0, len(lines) - 1), min_size=1, max_size=3),
                           label="mutated"):
            lines[i] = data.draw(mutated_line(lines[i]), label=f"line {i + 2}")
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.jsonl"
        bad.write_text("\n".join([header, *lines]) + "\n")
        for argv in (["fit-codec", "--data", str(bad), "--out", f"{tmp}/c.json"],
                     ["eval", "--model", str(bad), "--data", str(fuzz_base),
                      "--outdir", f"{tmp}/reports"]):
            err = stdio.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
                code = run(argv)
            assert code in (EXIT_BAD_FILE, EXIT_BAD_DATA), (argv[0], code, err.getvalue())
            assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
        assert sorted(os.listdir(tmp)) == ["bad.jsonl"]  # no stage wrote anything


# -- codec and checkpoint files ------------------------------------------------------


@pytest.fixture(scope="module")
def model_base(fuzz_base):
    """fuzz_base's codec, matrices, a tiny WGAN-GP checkpoint and a resampler checkpoint."""
    d, data = fuzz_base.parent, str(fuzz_base)
    for argv in (["fit-codec", "--data", data, "--out", d / "codec.json"],
                 ["encode", "--data", data, "--codec", d / "codec.json",
                  "--out", d / "images.chim"],
                 ["train", "--images", d / "images.chim", "--epochs", "1", "--batch-size", "8",
                  "--hidden", "8", "--noise-dim", "4", "--out", d / "model.ckpt"],
                 ["train", "--images", d / "images.chim", "--backend", "resampler", "--k", "3",
                  "--out", d / "res.ckpt"]):
        assert run(["--seed", "2", *map(str, argv)]) == 0
    return d


def fails_without_output(argv, bad):
    """Each stage exits 3, 4 or 5 with one stderr line, and writes nothing beside bad."""
    for args in argv:
        err = stdio.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
            code = run(args)
        assert code in (EXIT_BAD_FILE, EXIT_VERSION, EXIT_BAD_DATA), (args[0], code,
                                                                       err.getvalue())
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
    assert os.listdir(bad.parent) == [bad.name]


def codec_stages(base, bad, out):
    return [["encode", "--data", str(base / "good.jsonl"), "--codec", str(bad),
             "--out", f"{out}/i.chim"],
            ["decode", "--images", str(base / "images.chim"), "--codec", str(bad),
             "--geometry-from", str(base / "good.jsonl"), "--out", f"{out}/d.jsonl"]]


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(virtual_min=doc["virtual_min"][:5]),
    lambda doc: doc.update(feature_min="x"),
    lambda doc: doc.update(epsilon="a"),
    lambda doc: doc["virtual_min"].__setitem__(2, float("nan")),
    lambda doc: doc.update(epsilon=5),
    lambda doc: [doc],
    lambda doc: doc.update(version=True),
], ids=["virtual_min-5", "feature_min-str", "epsilon-str", "virtual_min-nan", "epsilon-5",
        "top-level-array", "version-true"])
def test_malformed_codec_is_format_error(model_base, tmp_path, capsys, edit):
    doc = json.loads((model_base / "codec.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(doc) or doc))
    for argv in codec_stages(model_base, bad, tmp_path):
        fails_cleanly(capsys, argv, EXIT_BAD_FILE, f"{bad}: ")
    assert os.listdir(tmp_path) == ["bad.json"]


CODEC_RANGES = ("virtual_min", "virtual_max", "feature_min", "feature_max")
CODEC_KEYS = ("format", "version", "epsilon", "delay_scale", "outage_threshold_db",
              *CODEC_RANGES)
# no value here is valid in any codec field
CODEC_JUNK = st.sampled_from(["12e9", "x", None, True, [], [1.0], {"x": 1}, float("nan"),
                              float("inf"), -float("inf")])


@st.composite
def mutated_codec(draw, text):
    """A codec file made invalid: truncated, a field or range entry replaced, a key dropped."""
    kind = draw(st.sampled_from(["truncate", "field", "entry", "length", "drop"]))
    if kind == "truncate":  # the closing brace goes too
        return text[:draw(st.integers(0, len(text) - 2))]
    doc = json.loads(text)
    key = draw(st.sampled_from(CODEC_RANGES if kind in ("entry", "length") else CODEC_KEYS))
    if kind == "field":
        doc[key] = draw(st.one_of(CODEC_JUNK, st.sampled_from([0, 1, 5, -0.01]))
                        if key == "epsilon" else CODEC_JUNK)
    elif kind == "entry":
        doc[key][draw(st.integers(0, 7))] = draw(CODEC_JUNK)
    elif kind == "length":
        doc[key] = doc[key][:draw(st.integers(0, 7))] or doc[key] + [1.0]
    else:
        del doc[key]
    return json.dumps(doc, indent=2)


# a fixed example set, so the suite's outcome does not vary between runs
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_codecs_fail_cleanly(model_base, data):
    text = (model_base / "codec.json").read_text()
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.json"
        bad.write_text(data.draw(mutated_codec(text), label="codec"))
        fails_without_output(codec_stages(model_base, bad, tmp), bad)


def checkpoint_parts(raw):
    """(header, payload) of a WGPC file's bytes."""
    (n,) = struct.unpack_from("<I", raw, 8)
    return json.loads(raw[12:12 + n]), raw[12 + n:]


def checkpoint_bytes(header, payload):
    raw = json.dumps(header).encode()
    return b"WGPC" + struct.pack("<2I", io.CHECKPOINT_VERSION, len(raw)) + raw + payload


def sample_stage(base, bad, out):
    return [["sample", "--model", str(bad), "--conditions-from", str(base / "good.jsonl"),
             "--out", f"{out}/s.chim"]]


def resampler_shape(header):
    header["entries"][0]["shape"] = [12, 25, 8]  # the 8x25 matrices read transposed


@pytest.mark.parametrize("name, edit", [
    ("model", lambda h: h["meta"].update(noise_dim=5)),
    ("model", lambda h: h["meta"].update(image_shape=[8, 24])),
    ("model", lambda h: h["meta"]["nets"]["generator"].update(sizes=[36, 9, 200])),
    ("model", lambda h: h["meta"]["nets"]["critic"].update(sizes=[232, 8, 2])),
    ("model", lambda h: h["meta"]["nets"]["generator"].update(out_act="relu")),
    ("res", resampler_shape),
], ids=["noise_dim", "image_shape", "hidden-size", "output-size", "out_act",
        "resampler-25x8"])
def test_checkpoint_header_contradicting_arrays_is_format_error(model_base, tmp_path, capsys,
                                                               name, edit):
    header, payload = checkpoint_parts((model_base / f"{name}.ckpt").read_bytes())
    edit(header)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(checkpoint_bytes(header, payload))
    fails_cleanly(capsys, *sample_stage(model_base, bad, tmp_path), EXIT_BAD_FILE, f"{bad}: ")
    assert os.listdir(tmp_path) == ["bad.ckpt"]


CKPT_JUNK = st.sampled_from(["x", None, [], {"x": 1}, 2.5, -1, 0, True])
NET_KEYS = ("gen_embed", "generator", "critic_embed", "critic")


@st.composite
def mutated_checkpoint(draw, raw):
    """A checkpoint made invalid: cut or extended, a header field replaced or dropped, an
    array's entry renamed or reshaped, or one of its numbers made non-finite."""
    kind = draw(st.sampled_from(["truncate", "extend", "version", "field", "drop", "entry",
                                 "nonfinite"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "extend":
        return raw + bytes(draw(st.integers(1, 16)))
    if kind == "version":
        return raw[:4] + struct.pack("<I", draw(st.sampled_from([0, 1, 2, 4, 2**31]))) + raw[8:]
    header, payload = checkpoint_parts(raw)
    meta = header["meta"]
    if kind == "nonfinite":
        cells = np.frombuffer(payload, dtype="<f8").copy()
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(
            [np.nan, np.inf, -np.inf]))
        return checkpoint_bytes(header, cells.tobytes())
    if kind == "entry":
        entry = draw(st.sampled_from(header["entries"]))
        shape = entry["shape"]
        change = draw(st.sampled_from(["rename", "grow", "shrink"]
                                      + (["transpose"] if shape[::-1] != shape else [])))
        if change == "rename":
            entry["name"] += "x"
        elif change == "transpose":
            entry["shape"] = shape[::-1]
        else:
            shape[0] += 1 if change == "grow" else -1
        return checkpoint_bytes(header, payload)
    if meta["backend"] == "resampler":
        owner, key = meta, draw(st.sampled_from(["backend", "k"]))
    else:
        net = draw(st.sampled_from(NET_KEYS))
        owner, key = draw(st.sampled_from(
            [(meta, "backend"), (meta, "noise_dim"), (meta, "image_shape"), (meta, "nets"),
             (meta["nets"], net), *((meta["nets"][net], k) for k in ("sizes", "out_act",
                                                                    "hidden_act"))]))
    if kind == "drop" and key != "hidden_act":  # a missing hidden_act reads as silu
        del owner[key]
    elif key == "sizes" and draw(st.booleans()):
        sizes = owner[key]
        sizes[draw(st.integers(0, len(sizes) - 1))] += draw(st.sampled_from([-1, 1]))
    elif key == "image_shape":
        owner[key] = draw(st.one_of(CKPT_JUNK, st.sampled_from([[25, 8], [8, 24], [200],
                                                                 [8, 25, 1]])))
    elif key == "noise_dim":
        owner[key] = draw(st.one_of(CKPT_JUNK, st.sampled_from([3, 5])))
    else:
        owner[key] = draw(st.one_of(CKPT_JUNK, st.sampled_from(["relu", "gan"])))
    return checkpoint_bytes(header, payload)


# a fixed example set, so the suite's outcome does not vary between runs
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_checkpoints_fail_cleanly(model_base, data):
    name = data.draw(st.sampled_from(["model", "res"]), label="checkpoint")
    raw = (model_base / f"{name}.ckpt").read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.ckpt"
        bad.write_bytes(data.draw(mutated_checkpoint(raw), label="mutated"))
        fails_without_output(sample_stage(model_base, bad, tmp), bad)

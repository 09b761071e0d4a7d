"""CLI surface: determinism, composition, error exit codes."""

import contextlib
import errno
import inspect
import io as stdio
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanimg import io
from chanimg.cli import (
    EXIT_BAD_DATA,
    EXIT_BAD_FILE,
    EXIT_DIVERGED,
    EXIT_USAGE,
    EXIT_VERSION,
    run,
)
from chanimg.errors import DataError
from chanimg.genmodel import EmpiricalResampler
from chanimg.genmodel import sample as wgan_sample
from chanimg.rng import substream
from chanimg.stats import METRICS
from containers import arrays, seal, split
from tables import table_links
from test_codec import float32_bounds, path_errors, reference_encode


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


def test_encode_decode_artifacts_consistent(pipeline_dir, tmp_path):
    d = pipeline_dir
    images, conds = io.read_images(d / "images.chim")
    data = io.read_table(d / "data.jsonl")
    assert len(images) == len(data)
    decoded = io.read_table(d / "decoded.jsonl")
    assert len(decoded) == len(data)
    for name in ("ends", "dist2d", "dist3d", "fspl", "los"):
        np.testing.assert_array_equal(getattr(decoded, name), getattr(data, name))
    # the data's own float32 matrices decode to its links, each feature
    # within the float32 rounding of its scaled cells
    assert run(["--seed", "4", "decode", "--images", str(d / "images.chim"),
                "--codec", str(d / "codec.json"), "--geometry-from", str(d / "data.jsonl"),
                "--out", str(tmp_path / "decoded.jsonl")]) == 0
    back = io.read_table(tmp_path / "decoded.jsonl")
    np.testing.assert_array_equal(back.state, data.state)
    np.testing.assert_array_equal(back.counts, data.counts)
    worst = path_errors(back.paths, data.paths).max(axis=0)
    assert np.all(worst <= float32_bounds(io.read_codec(d / "codec.json"))), worst


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
    # report encodes and decodes in float64, in memory: perfbench's bounds
    assert np.nanmax(errs[:, 0]) <= 1e-6   # pathloss dB
    assert np.nanmax(errs[:, 1]) <= 1e-12  # delay s
    assert np.nanmax(errs[:, 2:]) <= 1e-6  # angles/phase deg
    state_ok = np.array([int(row.split(",")[1]) for row in rows])
    paths_ok = np.array([int(row.split(",")[2]) for row in rows])
    assert state_ok.all() and paths_ok.all()


ROUNDTRIP_HEADER = ["link", "state_ok", "n_paths_ok", "virtual_survivors", "err_pathloss",
                    "err_delay", "err_aod", "err_zod", "err_aoa", "err_zoa", "err_phase"]


def reference_report(path, data, codec_path, seed):
    """The round-trip report of the whole table at once, compared link by link.

    reference_encode pads the whole table, one decode inverts every matrix,
    and each link's row holds the per-feature max error over its paths, NaN
    where the decoded path count differs.
    """
    table, codec = io.read_table(data), io.read_codec(codec_path)
    links = table_links(table)
    matrices, _, _ = reference_encode(codec, links, substream(seed, "padding"))
    decoded = codec.decode(matrices, table)
    rows = []
    for i, lk in enumerate(links):
        got, k = decoded.paths[decoded.offsets[i]:decoded.offsets[i + 1]], len(lk.paths)
        errs = np.abs(got - lk.paths).max(axis=0) if len(got) == k else np.full(7, np.nan)
        rows.append([i, int(decoded.state[i] == lk.link_state), int(len(got) == k),
                     max(len(got) - k, 0), *errs])
    io.write_report_csv(path, "roundtrip", seed, ROUNDTRIP_HEADER, rows)


# one short block, one full block, one link over, three blocks and a ragged 3;
# the clipping codec decodes virtual paths of some links, whose rows read NaN
@pytest.mark.parametrize("clip", [False, True], ids=["fitted", "clipping"])
@pytest.mark.parametrize("n", [5, 7, 8, 24])
def test_report_blocks_match_the_whole_table_reference(tmp_path, monkeypatch, n, clip):
    monkeypatch.setattr("chanimg.codec.BLOCK", 7)
    data, codec_path = tmp_path / "d.jsonl", tmp_path / "c.json"
    assert run(["--seed", "5", "gen-data", "--links", str(n), "--out", str(data)]) == 0
    assert run(["--seed", "5", "fit-codec", "--data", str(data), "--out", str(codec_path)]) == 0
    if clip:  # virtual pathloss decodes to at most 180 dB where the free-space loss is low
        codec = io.read_codec(codec_path)
        codec.scaler.feature_max[0] = 180.0 - np.median(io.read_table(data).fspl)
        io.write_codec(codec_path, codec)
    assert run(["--seed", "8", "report", "--data", str(data), "--codec", str(codec_path),
                "--out", str(tmp_path / "got.csv")]) == 0
    reference_report(tmp_path / "want.csv", data, codec_path, 8)
    got = (tmp_path / "got.csv").read_text()
    assert got == (tmp_path / "want.csv").read_text()
    assert len(got.splitlines()) == n + 2 and ("nan" in got) == clip


def test_eval_report_format(pipeline_dir):
    lines = (pipeline_dir / "reports" / "ks.csv").read_text().splitlines()
    assert lines[0].startswith("# chanimg-report v1 name=ks seed=")
    assert lines[1] == "height,metric,value"
    assert {"ks_pathloss", "ks_delay", "ks_uniform_aoa", "ks_uniform_aod",
            "ks_uniform_phase", "max_los_prob_gap"} <= set(METRICS)
    # exactly the metrics stats defines, in its order, at each height
    heights = sorted(set(io.read_table(pipeline_dir / "data.jsonl").height.tolist()))
    assert ([(float(h), m) for h, m, _ in (row.split(",") for row in lines[2:])]
            == [(h, m) for h in heights for m in METRICS])


def test_training_log_format(pipeline_dir):
    lines = (pipeline_dir / "train_log.csv").read_text().splitlines()
    _, netp = io.read_model_checkpoint(pipeline_dir / "model.ckpt")
    counts = netp.param_counts()
    assert lines[0].endswith(f" generator_params={counts['generator']}"
                             f" critic_params={counts['critic']}")
    assert lines[1] == ("step,critic_loss,gen_loss,gp_term,wasserstein,gp_norm,"
                        "critic_grad_norm,gen_grad_norm")
    assert len(lines) > 2
    for row in lines[2:]:
        _, total, gen_loss, gp, wasserstein, gp_norm, critic_gn, gen_gn = (
            float(v) for v in row.split(","))
        assert total == pytest.approx(wasserstein + gp, rel=1e-12, abs=1e-15)
        assert gp_norm > 0 and critic_gn > 0
        # a generator step logs both its loss and its gradient norm, others neither
        assert math.isnan(gen_gn) == math.isnan(gen_loss)


def test_wgan_models_and_samples_the_matrix(pipeline_dir):
    d = pipeline_dir
    backend, netp = io.read_model_checkpoint(d / "model.ckpt")
    assert backend == "wgan-gp"
    assert netp.generator.sizes == [8 + 32, 16, 16, 200]
    assert netp.critic.sizes == [200 + 32, 16, 16, 1]
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
    # v4 stated every network's sizes and activations in its header
    for version in (1, 2, 4):
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


def test_previous_binary_formats_are_version_errors(pipeline_dir, tmp_path, capsys):
    d = pipeline_dir
    matrices, conds = io.read_images(d / "images.chim")
    v2 = tmp_path / "v2.chim"  # magic, u32 version, count, rows and cols, then the arrays
    v2.write_bytes(b"CHIM" + struct.pack("<4I", 2, *matrices.shape) + matrices.tobytes()
                   + conds.tobytes())
    header = json.dumps({"meta": {"backend": "resampler", "seed": 3, "k": 10}, "entries": [
        {"name": "matrices", "shape": list(matrices.shape)},
        {"name": "conditions", "shape": list(conds.shape)}]}).encode()
    v3 = tmp_path / "v3.ckpt"  # magic, u32 version, u32 header length, header, float64 arrays
    v3.write_bytes(b"WGPC" + struct.pack("<2I", 3, len(header)) + header
                   + matrices.astype("<f8").tobytes() + conds.tobytes())
    fails_cleanly(capsys, ["train", "--images", str(v2), "--backend", "resampler",
                           "--out", str(tmp_path / "m.ckpt")], EXIT_VERSION,
                  f"{v2}: CHIM format v2 not supported (expected v{io.IMAGES_VERSION})")
    fails_cleanly(capsys, ["decode", "--images", str(v2), "--codec", str(d / "codec.json"),
                           "--geometry-from", str(d / "data.jsonl"),
                           "--out", str(tmp_path / "dec.jsonl")], EXIT_VERSION, "CHIM format v2")
    fails_cleanly(capsys, ["sample", "--model", str(v3), "--conditions-from",
                           str(d / "data.jsonl"), "--out", str(tmp_path / "s.chim")],
                  EXIT_VERSION,
                  f"{v3}: WGPC format v3 not supported (expected v{io.CHECKPOINT_VERSION})")
    assert sorted(os.listdir(tmp_path)) == ["v2.chim", "v3.ckpt"]


def test_resampler_stores_the_float32_matrices(pipeline_dir, tmp_path):
    d = pipeline_dir
    entries = split((d / "resampler.ckpt").read_bytes())[2]["entries"]
    assert {e["name"]: e["dtype"] for e in entries} == {"matrices": "<f4", "conditions": "<f8"}
    matrices, conds = io.read_images(d / "images.chim")
    _, model = io.read_model_checkpoint(d / "resampler.ckpt")
    assert model.matrices.dtype == np.float32
    assert model.matrices.tobytes() == matrices.tobytes()
    # a float64 resampler of the same matrices samples the same file
    io.write_resampler_checkpoint(tmp_path / "f8.ckpt", EmpiricalResampler(
        matrices.astype(np.float64), conds, k=10), seed=3)
    for name in ("resampler", "f8"):
        model = d / "resampler.ckpt" if name == "resampler" else tmp_path / "f8.ckpt"
        assert run(["--seed", "5", "sample", "--model", str(model),
                    "--conditions-from", str(d / "data.jsonl"),
                    "--out", str(tmp_path / f"{name}.chim")]) == 0
    assert (tmp_path / "resampler.chim").read_bytes() == (tmp_path / "f8.chim").read_bytes()


def test_resampler_train_with_a_log_is_usage_error(pipeline_dir, tmp_path, capsys):
    # the resampler keeps no training log, so --log would name a file never written
    fails_cleanly(capsys, ["train", "--images", str(pipeline_dir / "images.chim"),
                           "--backend", "resampler", "--log", str(tmp_path / "log.csv"),
                           "--out", str(tmp_path / "res.ckpt")], EXIT_USAGE, "--log")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("backend, flags, named", [
    ("resampler", ["--epochs", "0", "--dtype", "float32"], "--epochs, --dtype"),
    ("wgan-gp", ["--k", "0"], "--k"),
    ("resampler", ["--log", ""], "--log"),
], ids=["resampler-epochs-dtype", "wgan-k", "resampler-empty-log"])
def test_train_option_of_the_other_backend_is_usage_error(tmp_path, capsys, backend, flags,
                                                          named):
    # raised before the images are read: there are none here
    fails_cleanly(capsys, ["train", "--images", str(tmp_path / "missing.chim"),
                           "--backend", backend, *flags, "--out", str(tmp_path / "m.ckpt")],
                  EXIT_USAGE, f"--backend {backend} takes no {named}")
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("side, end, axis", [
    ("data", "rx", 0), ("data", "tx", 1), ("model", "rx", 0),
], ids=["data-rx", "data-tx", "model-rx"])
def test_eval_rejects_links_too_far_apart_to_bin(pipeline_dir, tmp_path, capsys,
                                                 side, end, axis):
    # one link 1e12 m long on either side: its zenith PDFs of 25 m by 2 deg
    # bins would be a 2.9e13-byte grid, more than any machine's memory
    tables = {"model": pipeline_dir / "decoded.jsonl", "data": pipeline_dir / "data.jsonl"}
    far = tmp_path / "far.jsonl"
    far.write_bytes(tables[side].read_bytes())
    edit_first_link(far, lambda r: r[end].__setitem__(axis, 1e12))
    tables[side] = far
    fails_cleanly(capsys, ["eval", "--model", str(tables["model"]), "--data", str(tables["data"]),
                           "--outdir", str(tmp_path / "reports")],
                  EXIT_BAD_DATA, "links up to 1e+12 m apart", "zenith PDF bins")
    assert not (tmp_path / "reports").exists()


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


def cli_env():
    """The environment of a `python -m chanimg.cli` child that imports this tree."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    os.environ.get("PYTHONPATH")) if p))


# runs `python -m chanimg.cli ARGS` and prints the chanimg modules it loaded
# as the stage ends: its main() ends the process with os._exit
STAGE_MODULES = """
import os, runpy, sys
def exit_now(code, _exit=os._exit):
    print(" ".join(m for m in sys.modules if m.startswith(("chanimg", "numpy.ma"))), flush=True)
    _exit(code)
os._exit = exit_now
runpy.run_module("chanimg.cli", run_name="__main__", alter_sys=True)
"""
NETWORKS = ("chanimg.genmodel.nn", "chanimg.genmodel.wgan")
NOT_MODELS = ("chanimg.genmodel", "chanimg.stats", "chanimg.surrogate")
TEXT = "chanimg.floattext"  # the dataset writer's number formatter


@pytest.mark.parametrize("argv, absent", [
    (["gen-data", "--links", "30", "--out", "{out}/d.jsonl"],
     ("chanimg.codec", "chanimg.genmodel", "chanimg.stats")),
    (["fit-codec", "--data", "{d}/data.jsonl", "--out", "{out}/c.json"], (*NOT_MODELS, TEXT)),
    (["encode", "--data", "{d}/data.jsonl", "--codec", "{d}/codec.json",
      "--out", "{out}/i.chim"], (*NOT_MODELS, TEXT)),
    (["train", "--images", "{d}/images.chim", "--backend", "resampler", "--out", "{out}/r.ckpt"],
     ("chanimg.codec", "chanimg.stats", "chanimg.surrogate", *NETWORKS, TEXT)),
    (["train", "--images", "{d}/images.chim", "--epochs", "1", "--batch-size", "64",
      "--hidden", "8", "--noise-dim", "4", "--out", "{out}/m.ckpt"],
     ("chanimg.codec", "chanimg.stats", "chanimg.surrogate", "chanimg.genmodel.resampler",
      TEXT)),
    (["sample", "--model", "{d}/resampler.ckpt", "--conditions-from", "{d}/data.jsonl",
      "--out", "{out}/s.chim"], ("chanimg.codec", "chanimg.stats", "chanimg.surrogate",
                                 *NETWORKS, TEXT)),
    (["sample", "--model", "{d}/model.ckpt", "--conditions-from", "{d}/data.jsonl",
      "--out", "{out}/s.chim"], ("chanimg.codec", "chanimg.stats", "chanimg.surrogate",
                                 "chanimg.genmodel.resampler", TEXT)),
    (["decode", "--images", "{d}/samples.chim", "--codec", "{d}/codec.json",
      "--geometry-from", "{d}/data.jsonl", "--out", "{out}/d.jsonl"],
     (*NOT_MODELS, "chanimg.rng")),
    (["eval", "--model", "{d}/decoded.jsonl", "--data", "{d}/data.jsonl",
      "--outdir", "{out}/reports"],
     ("chanimg.codec", "chanimg.genmodel", "chanimg.surrogate", "chanimg.rng", TEXT)),
    (["report", "--data", "{d}/data.jsonl", "--codec", "{d}/codec.json",
      "--out", "{out}/r.csv"], (*NOT_MODELS, TEXT)),
], ids=["gen-data", "fit-codec", "encode", "train-resampler", "train-wgan", "sample-resampler",
        "sample-wgan", "decode", "eval", "report"])
def test_stage_loads_only_its_modules(pipeline_dir, tmp_path, argv, absent):
    argv = [a.format(d=pipeline_dir, out=tmp_path) for a in argv]
    out = subprocess.run([sys.executable, "-W", "error", "-c", STAGE_MODULES, "--seed", "4",
                          *argv], env=cli_env(), check=True, timeout=300,
                         capture_output=True, text=True).stdout
    loaded = set(out.splitlines()[-1].split())
    assert "chanimg.io" in loaded
    # numpy.ma costs 9-17 ms of imports, and np.unique would load it
    assert not loaded & {*absent, "numpy.ma"}, sorted(loaded & {*absent, "numpy.ma"})


def test_failing_text_writer_is_a_file_error(tmp_path, capsys, monkeypatch):
    out, path_open = tmp_path / "d.jsonl", Path.open

    def full(self, mode="r", *args, **kwargs):  # the text's writes find the disk full
        fh = path_open(self, mode, *args, **kwargs)
        if self.name == "d.jsonl.tmp":
            def write(data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fh.write = write
        return fh

    assert run(["gen-data", "--links", "20", "--out", str(out)]) == 0  # an earlier dataset
    before = [(tmp_path / name).read_bytes() for name in ("d.jsonl", "d.jsonl.ltab")]
    monkeypatch.setattr(Path, "open", full)
    fails_cleanly(capsys, ["gen-data", "--links", "600", "--out", str(out)], EXIT_BAD_FILE,
                  f"kind=io exit=3 msg=[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
                  f"{str(out)!r}")
    # kept whole, beside no temporary file
    assert [(tmp_path / name).read_bytes() for name in ("d.jsonl", "d.jsonl.ltab")] == before
    assert sorted(os.listdir(tmp_path)) == ["d.jsonl", "d.jsonl.ltab"]


def test_eval_runs_warning_free(pipeline_dir, tmp_path):
    d = pipeline_dir
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "chanimg.cli", "--seed", "4", "eval",
         "--model", str(d / "decoded.jsonl"), "--data", str(d / "data.jsonl"),
         "--outdir", str(tmp_path / "reports")],
        env=cli_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for name in ("ks.csv", "los_prob.csv", "zenith_pdf_zod.csv", "zenith_pdf_zoa.csv"):
        assert (tmp_path / "reports" / name).read_bytes() == \
            (d / "reports" / name).read_bytes()


def buffered_env(unbuffered=False):
    """cli_env(), with stdout buffered unless unbuffered."""
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# the `chanimg` script's path, `chanimg.cli.main()`, with a stage that raises
RAISES = """
import chanimg.cli as cli
def boom(args):
    raise RuntimeError("boom")
cli._COMMANDS["gen-data"] = boom
cli.main()
"""


@pytest.mark.parametrize("child, argv, code, fragment", [
    (["-m", "chanimg.cli"], ["gen-data", "--links", "20", "--out", "{out}/d.jsonl"], 0,
     "wrote 20 links to {out}/d.jsonl\n"),
    (["-m", "chanimg.cli"], ["--seed", "-1", "gen-data", "--links", "20",
                             "--out", "{out}/d.jsonl"], EXIT_USAGE, "--seed"),
    (["-m", "chanimg.cli"], ["fit-codec", "--data", "{out}/bad.jsonl", "--out", "{out}/c.json"],
     EXIT_BAD_FILE, "bad.jsonl"),
    (["-m", "chanimg.cli"], ["train", "--images", "{out}/v2.chim", "--backend", "resampler",
                             "--out", "{out}/m.ckpt"], EXIT_VERSION, "CHIM format v2"),
    (["-m", "chanimg.cli"], ["gen-data", "--links", "0", "--out", "{out}/d.jsonl"],
     EXIT_BAD_DATA, "--links"),
    (["-c", RAISES], ["gen-data", "--links", "20", "--out", "{out}/d.jsonl"], 1,
     "RuntimeError: boom"),
], ids=["ok", "usage", "bad-file", "version", "bad-data", "escaped-exception"])
def test_cli_process_exit_status(pipeline_dir, tmp_path, child, argv, code, fragment):
    # stdout is a buffered pipe, so a stage's line arrives only through the
    # flush before main() ends the process
    (tmp_path / "bad.jsonl").write_text("not a dataset\n")
    with_version(pipeline_dir / "images.chim", 2, tmp_path / "v2.chim")
    argv = [a.format(d=pipeline_dir, out=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, *child, *argv], env=buffered_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert (proc.stdout, proc.stderr) == (fragment.format(out=tmp_path), "")
    elif code == 1:  # a bug keeps its traceback
        assert "Traceback" in proc.stderr and fragment in proc.stderr, proc.stderr
    else:
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("chanimg: error kind=")
        assert f"exit={code}" in proc.stderr and fragment in proc.stderr, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_without_reader_keeps_its_exit_status(tmp_path, unbuffered):
    out = tmp_path / "d.jsonl"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the stage writes its line
    try:
        proc = subprocess.run([sys.executable, "-m", "chanimg.cli", "--seed", "3", "gen-data",
                               "--links", "20", "--out", str(out)],
                              env=buffered_env(unbuffered), stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(write_end)
    epipe = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    if unbuffered:  # print fails inside the stage: a file error
        assert proc.returncode == EXIT_BAD_FILE
        assert proc.stderr == f"chanimg: error kind=io exit=3 msg={epipe}\n"
    else:  # the final flush fails, and CPython reports it as it exits
        assert proc.returncode == 120, proc.stderr
        assert proc.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert f"BrokenPipeError: {epipe}" in proc.stderr
        assert "Traceback" not in proc.stderr
    # the dataset was whole before the line was written
    assert run(["--seed", "3", "gen-data", "--links", "20", "--out", str(tmp_path / "r.jsonl")]) \
        == 0
    assert out.read_bytes() == (tmp_path / "r.jsonl").read_bytes()


BOOL_SHAPE = {"meta": {}, "entries": [{"name": "x", "dtype": "<f8", "shape": [True]}]}


@pytest.mark.parametrize("header", [
    {"entries": []}, {"meta": {"backend": "resampler"}}, [],
    {"meta": {}, "entries": [{"name": "x"}]},
    # whole files: shorter than the magic and version, and a header not UTF-8
    pytest.param(b"WGPC\x03\x00", id="short-file"),
    pytest.param(seal(b"WGPC", io.CHECKPOINT_VERSION, b"\xff{}\xfe"), id="header-not-utf8"),
    pytest.param({"meta": {}, "entries": [{"name": "x", "shape": "ab"}]}, id="shape-str"),
    # a shape of [true], with the one number it would size
    pytest.param(seal(b"WGPC", io.CHECKPOINT_VERSION, BOOL_SHAPE, bytes(8)), id="shape-bool"),
    pytest.param({"meta": {}, "entries": 5}, id="entries-not-list"),
    pytest.param({"meta": {}, "entries": [5]}, id="entry-not-object"),
    pytest.param({"meta": [], "entries": []}, id="meta-list"),
    pytest.param({"meta": "resampler", "entries": []}, id="meta-str"),
    pytest.param({"meta": {"backend": "wgan-gp", "noise_dim": 4, "hidden": 5}, "entries": []},
                 id="meta-field-type"),
])
def test_checkpoint_header_gaps_are_format_errors(tmp_path, capsys, header):
    run(["--seed", "1", "gen-data", "--links", "20", "--out", str(tmp_path / "d.jsonl")])
    capsys.readouterr()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(header if isinstance(header, bytes)
                    else seal(b"WGPC", io.CHECKPOINT_VERSION, header))
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
    deep.write_bytes(seal(b"WGPC", io.CHECKPOINT_VERSION, DEEP_JSON))
    fails_cleanly(capsys, ["sample", "--model", str(deep),
                           "--conditions-from", str(pipeline_dir / "data.jsonl"),
                           "--out", str(tmp_path / "s.chim")],
                  EXIT_BAD_FILE, "deep.ckpt: corrupt WGPC header")
    assert not (tmp_path / "s.chim").exists()


@pytest.mark.parametrize("raw", [
    # json.loads converts an integer through int(), which refuses more than 4,300 digits
    b'{"format": "chanimg-codec", "version": ' + b"1" * 5000 + b"}",
    b"\xff\xfe{}",  # not UTF-8
], ids=["5000-digit-integer", "not-utf8"])
def test_unreadable_codec_is_format_error(pipeline_dir, tmp_path, capsys, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    fails_cleanly(capsys, ["encode", "--data", str(pipeline_dir / "data.jsonl"),
                           "--codec", str(bad), "--out", str(tmp_path / "i.chim")],
                  EXIT_BAD_FILE, "bad.json: not valid JSON")
    assert not (tmp_path / "i.chim").exists()


def test_dataset_version_of_5000_digits_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bigv.jsonl"
    bad.write_text("# chanimg-dataset v" + "9" * 5000 + "\n")
    fails_cleanly(capsys, ["fit-codec", "--data", str(bad), "--out", str(tmp_path / "c.json")],
                  EXIT_BAD_FILE, "bigv.jsonl:1: bad dataset header")
    assert not (tmp_path / "c.json").exists()


def test_decode_rejects_mismatched_counts(tmp_path, capsys):
    run(["--seed", "1", "gen-data", "--links", "40", "--out", str(tmp_path / "a.jsonl")])
    run(["--seed", "1", "gen-data", "--links", "30", "--out", str(tmp_path / "b.jsonl")])
    run(["--seed", "1", "fit-codec", "--data", str(tmp_path / "a.jsonl"),
         "--out", str(tmp_path / "codec.json")])
    run(["--seed", "1", "encode", "--data", str(tmp_path / "a.jsonl"),
         "--codec", str(tmp_path / "codec.json"), "--out", str(tmp_path / "a.chim")])
    argv = ["decode", "--codec", str(tmp_path / "codec.json"),
            "--out", str(tmp_path / "dec.jsonl")]
    fails_cleanly(capsys, [*argv, "--images", str(tmp_path / "a.chim"),
                           "--geometry-from", str(tmp_path / "b.jsonl")], EXIT_BAD_DATA,
                  "40 matrices for 30 geometry links")
    # two matrices per link, each at its link's condition, are a count error too
    matrices, conds = io.read_images(tmp_path / "a.chim")
    io.write_images(tmp_path / "twice.chim", np.tile(matrices, (2, 1, 1)), np.tile(conds, (2, 1)))
    fails_cleanly(capsys, [*argv, "--images", str(tmp_path / "twice.chim"),
                           "--geometry-from", str(tmp_path / "a.jsonl")], EXIT_BAD_DATA,
                  "80 matrices for 40 geometry links")
    assert not (tmp_path / "dec.jsonl").exists()


def test_decode_rejects_conditions_of_other_links(pipeline_dir, tmp_path, capsys):
    # samples.chim was drawn at data.jsonl's conditions; other.jsonl has as many links
    d, other = pipeline_dir, tmp_path / "other.jsonl"
    assert run(["--seed", "5", "gen-data", "--links", "300", "--heights", "1.6,30",
                "--out", str(other)]) == 0
    matrices, conds = io.read_images(d / "samples.chim")
    table, data = io.read_table(other), io.read_table(d / "data.jsonl")
    argv = ["decode", "--codec", str(d / "codec.json"), "--out", str(tmp_path / "o.jsonl")]
    fails_cleanly(capsys, [*argv, "--images", str(d / "samples.chim"), "--geometry-from",
                           str(other)], EXIT_BAD_DATA,
                  f"matrix 0 holds condition (dist2d, height) = {tuple(conds[0].tolist())}, "
                  f"but geometry link 0 has {(float(table.dist2d[0]), float(table.height[0]))}")
    # a moved condition names its matrix and link
    moved = conds.copy()
    moved[5, 1] += 1.0
    io.write_images(tmp_path / "s5.chim", matrices, moved)
    fails_cleanly(capsys, [*argv, "--images", str(tmp_path / "s5.chim"), "--geometry-from",
                           str(d / "data.jsonl")], EXIT_BAD_DATA,
                  f"matrix 5 holds condition (dist2d, height) = {tuple(moved[5].tolist())}",
                  f"geometry link 5 has {(float(data.dist2d[5]), float(data.height[5]))}")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["other.jsonl", "other.jsonl.ltab",
                                                         "s5.chim"]


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
    for flags in (["--backend", "wgan-gp", "--batch-size", "4"], ["--backend", "resampler"]):
        fails_cleanly(capsys, ["train", "--images", str(tmp_path / "i.chim"), *flags,
                               "--out", str(tmp_path / "m.ckpt")], EXIT_BAD_DATA, "non-finite")
        assert not (tmp_path / "m.ckpt").exists()


def test_train_rejects_images_that_are_not_8x25(tmp_path, capsys):
    # both backends: a resampler of other matrices is a checkpoint that sample rejects
    images = np.random.default_rng(0).uniform(-1, 1, (300, 8, 24)).astype(np.float32)
    io.write_images(tmp_path / "i.chim", images, np.ones((300, 2)))
    for backend in ("wgan-gp", "resampler"):
        fails_cleanly(capsys, ["train", "--images", str(tmp_path / "i.chim"), "--backend",
                               backend, "--out", str(tmp_path / "m.ckpt")], EXIT_BAD_DATA,
                      "training samples have shape 8x24, the model expects 8x25")
        assert not (tmp_path / "m.ckpt").exists()


def test_diverging_train_fails_cleanly_naming_its_step(pipeline_dir, tmp_path, capsys):
    # no floating-point warning comes before the error line, though warnings
    # are errors here
    fails_cleanly(capsys, ["train", "--images", str(pipeline_dir / "images.chim"), "--lr",
                           "1e300", "--hidden", "16", "--epochs", "3",
                           "--out", str(tmp_path / "m.ckpt")], EXIT_DIVERGED,
                  "msg=step 2: non-finite critic loss")
    assert not (tmp_path / "m.ckpt").exists()


def test_gen_data_unparsable_heights_is_usage_error(tmp_path, capsys):
    fails_cleanly(capsys, ["gen-data", "--heights", "a,b", "--out", str(tmp_path / "d.jsonl")],
                  EXIT_USAGE, "--heights")


@pytest.mark.parametrize("argv, fragment", [
    (["gen-data", "--nope", "--out", "d.jsonl"], "unrecognized arguments: --nope"),
    (["gen-data"], "required: --out"),
    (["train", "--images", "i.chim", "--out", "m.ckpt", "--dtype", "float16"],
     "argument --dtype: invalid choice"),
    (["gen-data", "--links", "x", "--out", "d.jsonl"], "argument --links: invalid int value"),
], ids=["unknown-flag", "missing-option", "bad-choice", "not-a-number"])
def test_argparse_errors_are_one_usage_line(tmp_path, capsys, monkeypatch, argv, fragment):
    monkeypatch.chdir(tmp_path)
    fails_cleanly(capsys, argv, EXIT_USAGE, fragment)
    assert not list(tmp_path.iterdir())


def test_help_exits_zero(capsys):
    assert run(["gen-data", "-h"]) == 0
    assert "usage: chanimg gen-data" in capsys.readouterr().out


def test_empty_output_path_is_file_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fails_cleanly(capsys, ["gen-data", "--links", "20", "--out", ""], EXIT_BAD_FILE,
                  "kind=io", "Is a directory: '.'")
    io.write_images("i.chim", np.zeros((8, 8, 25), np.float32), np.ones((8, 2)))
    fails_cleanly(capsys, ["train", "--images", "i.chim", "--batch-size", "4", "--epochs", "1",
                           "--hidden", "8", "--log", "", "--out", "m.ckpt"], EXIT_BAD_FILE,
                  "kind=io", "Is a directory: '.'")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["i.chim"]


def test_eval_outdir_empty_is_the_working_directory(pipeline_dir, monkeypatch):
    written = []
    monkeypatch.setattr(io, "write_report_csv", lambda path, *args, **kwargs:
                        written.append(Path(path)))
    d = pipeline_dir
    assert run(["eval", "--model", str(d / "decoded.jsonl"), "--data", str(d / "data.jsonl"),
                "--outdir", ""]) == 0
    assert [p.name for p in written] == ["ks.csv", "los_prob.csv", "zenith_pdf_zod.csv",
                                         "zenith_pdf_zoa.csv"]
    assert not any(p.is_absolute() for p in written), written


def test_negative_seed_is_usage_error(tmp_path, capsys):
    fails_cleanly(capsys, ["--seed", "-1", "gen-data", "--links", "20",
                           "--out", str(tmp_path / "d.jsonl")], EXIT_USAGE, "--seed")
    assert not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("seed", [2**32, 2**64 + 3])
def test_seeds_beyond_32_bits_run(pipeline_dir, tmp_path, seed):
    """gen-data seeds one stream per link, sample one per sample."""
    for s in (seed, seed + 1):
        assert run(["--seed", str(s), "gen-data", "--links", "40",
                    "--out", str(tmp_path / f"{s}.jsonl")]) == 0
        assert run(["--seed", str(s), "sample", "--model", str(pipeline_dir / "model.ckpt"),
                    "--conditions-from", str(tmp_path / f"{s}.jsonl"),
                    "--out", str(tmp_path / f"{s}.chim")]) == 0
    for suffix in (".jsonl", ".chim"):
        assert ((tmp_path / f"{seed}{suffix}").read_bytes()
                != (tmp_path / f"{seed + 1}{suffix}").read_bytes())


# The count asks for an array of more than the 128 TiB a 64-bit Linux process
# can address, so the allocation fails at once whatever the host's memory
# and overcommit policy, and no test touches real memory.
@pytest.mark.parametrize("argv, out", [
    (["gen-data", "--links", str(10**15)], "d.jsonl"),
], ids=["gen-data-links"])
def test_counts_too_large_to_allocate_are_data_errors(tmp_path, capsys, argv, out):
    fails_cleanly(capsys, [*argv, "--out", str(tmp_path / out)], EXIT_BAD_DATA,
                  "Unable to allocate")
    assert not list(tmp_path.iterdir())


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
    ("--beta1", "-0.1"), ("--beta1", "1"), ("--beta2", "1"), ("--beta2", "0"),
    ("--hidden", "0"), ("--hidden", "-3"), ("--hidden", "16,0"),
])
def test_train_rejects_bad_hyperparameters(tmp_path, capsys, flag, value):
    matrices = np.random.default_rng(0).uniform(-1, 1, (8, 8, 25)).astype(np.float32)
    io.write_images(tmp_path / "i.chim", matrices, np.ones((8, 2)))
    fails_cleanly(capsys, ["train", "--images", str(tmp_path / "i.chim"), "--batch-size", "4",
                           f"{flag}={value}", "--log", str(tmp_path / "log.csv"),
                           "--out", str(tmp_path / "m.ckpt")], EXIT_BAD_DATA)
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "log.csv").exists()


def test_train_accepts_beta1_zero(tmp_path):
    """beta1 = 0 is the Adam setting of the WGAN-GP paper (Gulrajani et al. 2017)."""
    matrices = np.random.default_rng(0).uniform(-1, 1, (8, 8, 25)).astype(np.float32)
    io.write_images(tmp_path / "i.chim", matrices, np.ones((8, 2)))
    assert run(["train", "--images", str(tmp_path / "i.chim"), "--batch-size", "4",
                "--epochs", "1", "--hidden", "8", "--beta1", "0",
                "--out", str(tmp_path / "m.ckpt")]) == 0
    assert io.read_model_checkpoint(tmp_path / "m.ckpt")[0] == "wgan-gp"


class Trained(Exception):
    """Stops a train stage once it has built its hyperparameters."""


def test_train_defaults_are_the_librarys(tmp_path, monkeypatch):
    from chanimg import cli
    from chanimg.genmodel.wgan import WganGpHyperparams

    def train_wgan_gp(matrices, conditions, hyper, seed):
        raise Trained(hyper)

    monkeypatch.setattr(cli, "train_wgan_gp", train_wgan_gp, raising=False)
    # more matrices than the resampler's default k, which it would cut to their count
    matrices = np.random.default_rng(0).uniform(-1, 1, (60, 8, 25)).astype(np.float32)
    io.write_images(tmp_path / "i.chim", matrices, np.ones((60, 2)))
    argv = ["train", "--images", str(tmp_path / "i.chim"), "--out", str(tmp_path / "m.ckpt")]
    with pytest.raises(Trained) as trained:
        run(argv)
    assert trained.value.args[0] == WganGpHyperparams()
    train = next(a for a in cli.build_parser()._actions if a.dest == "command").choices["train"]
    # no option is set unless given, so EmpiricalResampler's k and every
    # WganGpHyperparams field keep their library defaults
    assert vars(train.parse_args(argv[1:])) == {"images": argv[2], "out": argv[4],
                                                "backend": "wgan-gp"}
    dests = {a.dest for a in train._actions} - {"help", "images", "backend", "out", "log"}
    assert dests == {f.name for f in fields(WganGpHyperparams)} | {"k"}
    assert run([*argv, "--backend", "resampler"]) == 0
    assert io.read_model_checkpoint(tmp_path / "m.ckpt")[1].k == \
        inspect.signature(EmpiricalResampler).parameters["k"].default
    # the choices are exactly the values validate accepts
    choices = {a.dest: a.choices for a in train._actions if a.choices}
    assert set(choices) == {"backend", "output_init", "dtype"}
    for field in ("output_init", "dtype"):
        for value in choices[field]:
            replace(WganGpHyperparams(), **{field: value}).validate()
        for value in {"", "fan-in", "FAN_IN", "float16", "float", *choices["output_init"],
                      *choices["dtype"]} - set(choices[field]):
            with pytest.raises(DataError, match=field):
                replace(WganGpHyperparams(), **{field: value}).validate()


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
                  EXIT_BAD_DATA, "link 0: no LOS path: pathloss must be positive")
    assert not (tmp_path / "d.jsonl").exists()


def test_decode_of_zero_matrices_is_data_error(degenerate_dir, tmp_path, capsys):
    d = degenerate_dir
    io.write_images(tmp_path / "none.chim", np.zeros((0, 8, 25)), np.zeros((0, 2)))
    fails_cleanly(capsys, ["decode", "--images", str(tmp_path / "none.chim"),
                           "--codec", str(d / "codec.json"),
                           "--geometry-from", str(d / "good.jsonl"),
                           "--out", str(tmp_path / "o.jsonl")],
                  EXIT_BAD_DATA, "0 matrices for 20 geometry links")
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
    set_path("aod", 190.0), set_path("aoa", -180.0),
    set_path("zod", 181.0), set_path("zoa", -0.5), set_path("phase", 0.5),
    set_path("phase", -360.0),
    lambda line: "[" + line + "]",
    lambda line: "[" * 100_000,
    lambda line: "[" * 50_000,  # within the line limit: json.loads's RecursionError
], ids=["truncated", "freq-str", "freq-huge-int", "freq-zero", "tx-4d", "rx-2d", "tx-str",
        "rx-str-number", "no-paths", "paths-number", "path-list", "no-phase", "bad-state",
        "nlos-without-paths", "unsorted", "26-paths", "pathloss-neg", "pathloss-null",
        "delay-zero", "aod-190", "aoa-neg180", "zod-181", "zoa-neg", "phase-pos", "phase-360",
        "record-list", "nested-too-deep", "nested-too-deep-short"])
def test_dataset_rejects_malformed_records(tmp_path, capsys, edit):
    data = tmp_path / "d.jsonl"
    run(["--seed", "1", "gen-data", "--links", "20", "--out", str(data)])
    lines = data.read_text().splitlines(keepends=True)
    lines[2] = edit(lines[2].rstrip("\n")) + "\n"  # the second link, on line 3
    data.write_text("".join(lines))
    fails_cleanly(capsys, ["fit-codec", "--data", str(data), "--out", str(tmp_path / "c.json")],
                  EXIT_BAD_FILE, f"{data}:3: bad link record")
    assert not (tmp_path / "c.json").exists()


def test_unknown_link_state_names_its_line_and_value(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    run(["--seed", "1", "gen-data", "--links", "20", "--out", str(data)])
    lines = data.read_text().splitlines(keepends=True)
    lines[4] = rec_edit(lambda r: r.update(link_state="Sideways"))(lines[4].rstrip("\n")) + "\n"
    data.write_text("".join(lines))
    fails_cleanly(capsys, ["fit-codec", "--data", str(data), "--out", str(tmp_path / "c.json")],
                  EXIT_BAD_FILE, f"{data}:5: bad link record: unknown link_state 'Sideways'")


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


def v2_codec(doc):
    """The v2 codec document of a v3 one: eight fitted rows and eight virtual ranges."""
    rows = [doc["pathloss"], doc["delay"], [-180.0, 180.0], [0.0, 180.0], [-180.0, 180.0],
            [0.0, 180.0], [-360.0, 0.0], [-1.0, 1.0]]
    virtual = [[100.0, 120.0], doc["virtual_delay"], *rows[2:]]
    return {"format": doc["format"], "version": 2, "seed": doc["seed"],
            "virtual_min": [lo for lo, _ in virtual], "virtual_max": [hi for _, hi in virtual],
            "feature_min": [lo for lo, _ in rows], "feature_max": [hi for _, hi in rows]}


def v1_codec(doc):
    """A v1 codec document: v2's ranges and the three constants codec.py fixes."""
    return {**v2_codec(doc), "version": 1, "epsilon": 0.01, "delay_scale": 1e7,
            "outage_threshold_db": 180.0}


def old_codec_fails_cleanly(model_base, tmp_path, capsys, old_codec):
    """Every stage that reads a codec exits 4 on old_codec(the v3 codec) and writes nothing."""
    doc = json.loads((model_base / "codec.json").read_text())
    assert list(doc) == ["format", "version", "seed", *CODEC_RANGES]
    doc = old_codec(doc)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc, indent=2))
    report = ["report", "--data", str(model_base / "good.jsonl"), "--codec", str(old),
              "--out", f"{tmp_path}/r.csv"]
    for argv in [*codec_stages(model_base, old, tmp_path), report]:
        fails_cleanly(capsys, argv, EXIT_VERSION,
                      f"{old}: codec format v{doc['version']} not supported (expected v3)")
    assert os.listdir(tmp_path) == ["old.json"]


def test_v1_codec_is_version_error(model_base, tmp_path, capsys):
    old_codec_fails_cleanly(model_base, tmp_path, capsys, v1_codec)


def test_v2_codec_is_version_error(model_base, tmp_path, capsys):
    # v2 held all eight scaler rows and eight virtual ranges
    old_codec_fails_cleanly(model_base, tmp_path, capsys, v2_codec)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(delay=[*doc["delay"], 1.0]),
    lambda doc: doc.update(pathloss="x"),
    lambda doc: doc["virtual_delay"].__setitem__(1, float("nan")),
    lambda doc: doc.update(delay=[-1e308, 1e308]),
    lambda doc: doc.__delitem__("virtual_delay"),
    lambda doc: [doc],
    lambda doc: doc.update(version=True),
], ids=["delay-3", "pathloss-str", "virtual_delay-nan", "delay-span-overflow",
        "no-virtual_delay", "top-level-array", "version-true"])
def test_malformed_codec_is_format_error(model_base, tmp_path, capsys, edit):
    doc = json.loads((model_base / "codec.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(doc) or doc))
    for argv in codec_stages(model_base, bad, tmp_path):
        fails_cleanly(capsys, argv, EXIT_BAD_FILE, f"{bad}: ")
    assert os.listdir(tmp_path) == ["bad.json"]


CODEC_RANGES = ("pathloss", "delay", "virtual_delay")
CODEC_KEYS = ("format", "version", *CODEC_RANGES)
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
        doc[key] = draw(CODEC_JUNK)
    elif kind == "entry":
        doc[key][draw(st.integers(0, 1))] = draw(CODEC_JUNK)
    elif kind == "length":
        doc[key] = doc[key][:draw(st.integers(0, 1))] or doc[key] + [1.0]
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


def reseal(raw, edit):
    """raw, a container's bytes, sealed again after edit(header) changed its header."""
    magic, version, header, payload = split(raw)
    edit(header)
    return seal(magic, version, header, payload)


def sample_stage(base, bad, out):
    return [["sample", "--model", str(bad), "--conditions-from", str(base / "good.jsonl"),
             "--out", f"{out}/s.chim"]]


def resampler_shape(header):
    header["entries"][0]["shape"] = [12, 25, 8]  # the 8x25 matrices read transposed


def wgan_meta(**fields):
    """An edit setting fields of a wgan-gp header, whose networks take 4 noise values
    and one hidden layer of 8."""
    return lambda h: h["meta"].update(fields)


@pytest.mark.parametrize("name, edit", [
    ("model", wgan_meta(noise_dim=5)),
    ("model", wgan_meta(hidden=[256])),
    # a layer where the file has its output layer, and a layer more
    ("model", wgan_meta(hidden=[8, 9])),
    ("model", wgan_meta(hidden=[256, 9])),
    ("model", wgan_meta(hidden=[])),
    ("model", wgan_meta(hidden=[0])),
    ("model", wgan_meta(hidden=[True])),
    ("model", wgan_meta(hidden="256")),
    ("res", resampler_shape),
    # the same bytes read as integers
    ("model", lambda h: h["entries"][0].update(dtype="<i8")),
    ("res", lambda h: h["entries"][1].update(dtype="<i8")),
], ids=["noise_dim", "hidden-size", "output-size", "hidden-layers", "hidden-empty",
        "hidden-zero", "hidden-bool", "hidden-str", "resampler-25x8", "wgan-int64",
        "resampler-int64-conditions"])
def test_checkpoint_header_contradicting_arrays_is_format_error(model_base, tmp_path, capsys,
                                                               name, edit):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(reseal((model_base / f"{name}.ckpt").read_bytes(), edit))
    fails_cleanly(capsys, *sample_stage(model_base, bad, tmp_path), EXIT_BAD_FILE, f"{bad}: ")
    assert os.listdir(tmp_path) == ["bad.ckpt"]


def grow_first_entry(raw):
    def grow(header):
        header["entries"][0]["shape"][0] += 1
    return reseal(raw, grow)


def header_past_the_end(raw):
    return raw[:8] + struct.pack("<I", len(raw)) + raw[12:]


@pytest.mark.parametrize("name, damage, fragment", [
    ("res", lambda raw: raw[:-8], "truncated WGPC payload"),
    ("model", lambda raw: raw[:-1], "truncated WGPC payload"),
    ("res", grow_first_entry, "truncated WGPC payload"),
    ("res", lambda raw: raw + bytes(8), "8 bytes follow the WGPC payload"),
    ("model", lambda raw: raw + b"\xff", "1 bytes follow the WGPC payload"),
    ("res", header_past_the_end, "corrupt WGPC header"),
], ids=["cut-one-number", "cut-one-byte", "header-says-more", "eight-trailing-bytes",
        "one-trailing-byte", "header-past-the-end"])
def test_checkpoint_payload_must_fill_the_file(model_base, tmp_path, capsys, name, damage,
                                               fragment):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(damage((model_base / f"{name}.ckpt").read_bytes()))
    fails_cleanly(capsys, *sample_stage(model_base, bad, tmp_path), EXIT_BAD_FILE,
                  f"{bad}: {fragment}")
    assert os.listdir(tmp_path) == ["bad.ckpt"]


CKPT_JUNK = st.sampled_from(["x", None, [], {"x": 1}, 2.5, -1, 0, True])


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
        return raw[:4] + struct.pack("<I", draw(st.sampled_from([0, 1, 2, 3, 4, 2**31]))) \
            + raw[8:]
    magic, version, header, payload = split(raw)
    meta = header["meta"]
    if kind == "nonfinite":
        payload, named = arrays(header, payload)
        cells = named[draw(st.sampled_from(sorted(named)))].reshape(-1)
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(
            [np.nan, np.inf, -np.inf]))
        return seal(magic, version, header, bytes(payload))
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
        return seal(magic, version, header, payload)
    key = draw(st.sampled_from(["backend", "k"] if meta["backend"] == "resampler"
                               else ["backend", "noise_dim", "hidden"]))
    if kind == "drop":
        del meta[key]
    elif key == "hidden":  # the file's networks have one hidden layer of 8
        meta[key] = draw(st.one_of(CKPT_JUNK, st.sampled_from([[0], [True], ["8"], [7], [9],
                                                                 [8, 8], [8, 200]])))
    elif key == "noise_dim":
        meta[key] = draw(st.one_of(CKPT_JUNK, st.sampled_from([3, 5])))
    else:
        meta[key] = draw(st.one_of(CKPT_JUNK, st.sampled_from(["relu", "gan"])))
    return seal(magic, version, header, payload)


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


# -- channel matrix files ------------------------------------------------------------


@st.composite
def damaged_images(draw, raw):
    """CHIM bytes cut, extended, with a prefix or header byte changed, or resealed with a
    shape rewritten or a matrix cell made non-finite: each is a file no stage may read."""
    kind = draw(st.sampled_from(["truncate", "extend", "flip", "count", "nonfinite"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "extend":
        return raw + draw(st.binary(min_size=1, max_size=16))
    magic, version, header, payload = split(raw)
    if kind == "flip":  # magic, version, header length, digest or header
        raw = bytearray(raw)
        raw[draw(st.integers(0, len(raw) - len(payload) - 1))] ^= draw(st.integers(1, 255))
        return bytes(raw)
    if kind == "count":
        shape = header["entries"][draw(st.integers(0, 1))]["shape"]
        at = draw(st.integers(0, len(shape) - 1))
        old = shape[at]
        shape[at] = draw(st.one_of(st.sampled_from([0, 1, old - 1, old + 1, 2**32 - 1]),
                                   st.integers(0, 2**32 - 1)).filter(lambda v: v != old))
        return seal(magic, version, header, payload)
    payload, named = arrays(header, payload)
    cells = named["matrices"].reshape(-1)
    cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from([np.nan, np.inf,
                                                                         -np.inf]))
    return seal(magic, version, header, bytes(payload))


# a fixed example set, so the suite's outcome does not vary between runs
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_images_fail_cleanly(model_base, data):
    raw = (model_base / "images.chim").read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.chim"
        bad.write_bytes(data.draw(damaged_images(raw), label="damaged"))
        fails_without_output(
            [["decode", "--images", str(bad), "--codec", str(model_base / "codec.json"),
              "--geometry-from", str(model_base / "good.jsonl"), "--out", f"{tmp}/d.jsonl"],
             ["train", "--images", str(bad), "--backend", "resampler", "--out",
              f"{tmp}/r.ckpt"]], bad)


# -- stage memory --------------------------------------------------------------------


@pytest.fixture(scope="module")
def large_pipeline(tmp_path_factory):
    """5,000 links with their codec, matrices, a resampler and a default-size WGAN-GP."""
    from chanimg.genmodel import WganGpHyperparams
    from chanimg.genmodel.wgan import build_networks

    d = tmp_path_factory.mktemp("large")
    for argv in (["gen-data", "--links", "5000", "--out", d / "data.jsonl"],
                 ["fit-codec", "--data", d / "data.jsonl", "--out", d / "codec.json"],
                 ["encode", "--data", d / "data.jsonl", "--codec", d / "codec.json",
                  "--out", d / "images.chim"],
                 ["train", "--images", d / "images.chim", "--backend", "resampler",
                  "--out", d / "res.ckpt"]):
        assert run(["--seed", "7", *map(str, argv)]) == 0
    _, conds = io.read_images(d / "images.chim")
    netp = build_networks(WganGpHyperparams(), conds.min(axis=0), conds.max(axis=0),
                          substream(7, "init"))
    io.write_wgan_checkpoint(d / "wgan.ckpt", netp)
    return d


# A child's ru_maxrss starts at the RSS of the process it was forked from,
# so each stage is started by a small Python process that reports it.
PEAK_RSS = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(argv):
    """ru_maxrss in MB of a `python argv` process that succeeds."""
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], capture_output=True,
                          text=True, timeout=300, env=dict(cli_env(), OPENBLAS_NUM_THREADS="1"))
    code, kb = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0, proc.stderr
    return kb / 1024


@pytest.mark.skipif(not hasattr(os, "posix_spawn"), reason="needs os.posix_spawn")
def test_read_side_stages_hold_no_full_size_copy(large_pipeline, tmp_path):
    # peak RSS above a bare `import numpy` process, in MB, measured (5 runs,
    # the largest) on a 2-core Linux host with numpy 2.4: gen-data 16.5,
    # fit-codec 12.9, encode 16.8, sample 22.4 (resampler) and 24.1
    # (WGAN-GP), decode 24.4 and report 15.1; each bound adds 3 MB.  While
    # fit-codec, encode and report padded one feature row of every link at a
    # time, and report held encode's whole float64 stack, those three read
    # 15.0, 18.7 and 29.7.  While every table padded its links to 25 path
    # rows the stages read 31.9, 29.2, 31.1, 27.2, 28.9, 29.4 and 35.9;
    # before that, the read side held float64 samples, (256, N) distance
    # blocks, 1,024-row forwards, a list of decode blocks and a copy of every
    # sidecar path row
    d, out = large_pipeline, tmp_path
    bounds = {"gen-data": 19.5, "fit-codec": 15.9, "encode": 19.8, "sample-resampler": 25.4,
              "sample-wgan": 27.1, "decode": 27.4, "report": 18.1}
    stages = {
        "gen-data": ["gen-data", "--links", "5000", "--out", out / "data.jsonl"],
        "fit-codec": ["fit-codec", "--data", d / "data.jsonl", "--out", out / "codec.json"],
        "encode": ["encode", "--data", d / "data.jsonl", "--codec", d / "codec.json",
                   "--out", out / "images.chim"],
        "sample-resampler": ["sample", "--model", d / "res.ckpt", "--conditions-from",
                             d / "data.jsonl", "--out", out / "s_res.chim"],
        "sample-wgan": ["sample", "--model", d / "wgan.ckpt", "--conditions-from",
                        d / "data.jsonl", "--out", out / "s_wgan.chim"],
        "decode": ["decode", "--images", out / "s_wgan.chim", "--codec", d / "codec.json",
                   "--geometry-from", d / "data.jsonl", "--out", out / "decoded.jsonl"],
        "report": ["report", "--data", d / "data.jsonl", "--codec", d / "codec.json",
                   "--out", out / "roundtrip.csv"],
    }
    base = peak_rss_mb(["-c", "import numpy"])
    above = {stage: peak_rss_mb(["-m", "chanimg.cli", "--seed", "8", *map(str, argv)]) - base
             for stage, argv in stages.items()}
    assert all(above[stage] < bound for stage, bound in bounds.items()), above

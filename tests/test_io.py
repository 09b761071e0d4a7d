"""On-disk formats: round trips, version gating, corruption handling."""

import json
import struct
from dataclasses import fields

import numpy as np
import pytest

from chanimg import SurrogateConfig, fit_codec, generate_dataset
from chanimg import io
from chanimg.core import PATH_FIELDS
from chanimg.errors import FormatError, VersionError
from chanimg.genmodel import EmpiricalResampler, WganGpHyperparams
from chanimg.genmodel.wgan import build_networks
from chanimg.rng import substream


@pytest.fixture(scope="module")
def table():
    return generate_dataset(SurrogateConfig(num_tx=2, num_rx_per_height=5, seed=7))


def test_dataset_roundtrip(tmp_path, table):
    p = tmp_path / "data.jsonl"
    io.write_table(p, table, seed=7)
    back = io.read_table(p)
    for f in fields(table):  # every column, the closed forms included
        a, b = getattr(table, f.name), getattr(back, f.name)
        assert a.dtype == b.dtype, f.name
        np.testing.assert_array_equal(b, a, err_msg=f.name)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("# chanimg-dataset v1 seed=7")
    assert len(lines) == 1 + len(table)
    # each line is what json.dumps writes for the link's record
    for i, line in enumerate(lines[1:]):
        rec = {"tx": table.tx[i].tolist(), "rx": table.rx[i].tolist(),
               "carrier_freq": float(table.carrier_freq[i]),
               "link_state": table.state[i].value,
               "paths": [dict(zip(PATH_FIELDS, row))
                         for row in table.paths[i, :table.counts[i]].tolist()]}
        assert line == json.dumps(rec)


def test_dataset_rejects_missing_header(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tx": [0,0,0]}\n')
    with pytest.raises(FormatError):
        io.read_table(p)


def test_dataset_rejects_future_version(tmp_path):
    p = tmp_path / "future.jsonl"
    p.write_text("# chanimg-dataset v99\n")
    with pytest.raises(VersionError):
        io.read_table(p)


def test_dataset_rejects_bad_record(tmp_path):
    p = tmp_path / "bad2.jsonl"
    p.write_text('# chanimg-dataset v1\n{"tx": [0,0,0]}\n')
    with pytest.raises(FormatError, match="bad link record"):
        io.read_table(p)


def test_codec_roundtrip(tmp_path, table):
    codec = fit_codec(table, substream(7, "padding"))
    p = tmp_path / "codec.json"
    io.write_codec(p, codec, seed=7)
    back = io.read_codec(p)
    np.testing.assert_array_equal(back.scaler.feature_min, codec.scaler.feature_min)
    np.testing.assert_array_equal(back.scaler.feature_max, codec.scaler.feature_max)
    np.testing.assert_array_equal(back.virtual_ranges, codec.virtual_ranges)


def test_codec_rejects_garbage(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        io.read_codec(p)
    p.write_text('{"format": "something-else"}')
    with pytest.raises(FormatError):
        io.read_codec(p)


def test_images_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    matrices = rng.uniform(-1, 1, (6, 8, 25)).astype(np.float32)
    conds = rng.uniform(1, 500, (6, 2))
    p = tmp_path / "imgs.chim"
    io.write_images(p, matrices, conds, seed=1)
    bi, bc = io.read_images(p)
    np.testing.assert_array_equal(bi, matrices)
    np.testing.assert_array_equal(bc, conds)
    assert p.read_bytes()[:4] == b"CHIM"
    assert struct.unpack_from("<4I", p.read_bytes(), 4) == (io.IMAGES_VERSION, 6, 8, 25)
    assert p.stat().st_size == 20 + 6 * (8 * 25 * 4 + 2 * 8)


def test_images_roundtrip_of_zero_matrices(tmp_path):
    p = tmp_path / "empty.chim"
    io.write_images(p, np.zeros((0, 8, 25)), np.zeros((0, 2)))
    assert p.stat().st_size == 20
    matrices, conds = io.read_images(p)
    assert matrices.shape == (0, 8, 25) and matrices.dtype == np.float32
    assert conds.shape == (0, 2)


def test_images_rejects_bad_magic(tmp_path):
    p = tmp_path / "x.chim"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        io.read_images(p)


def test_images_rejects_future_version(tmp_path):
    p = tmp_path / "v9.chim"
    p.write_bytes(b"CHIM" + struct.pack("<4I", 9, 0, 64, 50))
    with pytest.raises(VersionError):
        io.read_images(p)


def test_images_rejects_truncation(tmp_path):
    rng = np.random.default_rng(1)
    p = tmp_path / "t.chim"
    io.write_images(p, rng.uniform(size=(3, 8, 25)), rng.uniform(size=(3, 2)))
    data = p.read_bytes()
    # short payload, extra bytes, a header cut short, and a header whose
    # count claims far more than the file holds (rejected before allocating)
    for bad in (data[:-10], data + b"\x00", data[:12],
                data[:4] + struct.pack("<4I", io.IMAGES_VERSION, 2**32 - 1, 2**16, 2**16)
                + data[20:]):
        p.write_bytes(bad)
        with pytest.raises(FormatError, match="truncated"):
            io.read_images(p)


def test_wgan_checkpoint_roundtrip(tmp_path):
    hyper = WganGpHyperparams(image_shape=(2, 2), hidden=(6, 5), embed_hidden=4,
                              embed_dim=3, noise_dim=4)
    netp = build_networks(hyper, [5.0, 1.6], [400.0, 120.0], substream(3, "init"))
    p = tmp_path / "model.ckpt"
    io.write_wgan_checkpoint(p, netp, seed=3)
    backend, back = io.read_model_checkpoint(p)
    assert backend == "wgan-gp"
    assert back.noise_dim == netp.noise_dim
    assert back.image_shape == netp.image_shape
    assert back.critic.hidden_act == netp.critic.hidden_act
    np.testing.assert_array_equal(back.cond_min, netp.cond_min)
    for a, b in zip(netp.generator_params() + netp.critic_params(),
                    back.generator_params() + back.critic_params()):
        np.testing.assert_array_equal(a, b)
    assert p.read_bytes()[:4] == b"WGPC"


def test_resampler_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    model = EmpiricalResampler(rng.uniform(-1, 1, (10, 8, 25)),
                               rng.uniform(1, 400, (10, 2)), k=4)
    p = tmp_path / "res.ckpt"
    io.write_resampler_checkpoint(p, model, seed=4)
    backend, back = io.read_model_checkpoint(p)
    assert backend == "resampler" and back.k == 4
    np.testing.assert_array_equal(back.matrices, model.matrices)
    out_a = model.sample([100.0, 30.0], 5, seed=9)
    out_b = back.sample([100.0, 30.0], 5, seed=9)
    np.testing.assert_array_equal(out_a, out_b)


def test_checkpoint_rejects_future_version(tmp_path):
    p = tmp_path / "v9.ckpt"
    p.write_bytes(b"WGPC" + struct.pack("<2I", 9, 2) + b"{}")
    with pytest.raises(VersionError):
        io.read_model_checkpoint(p)


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        io.read_model_checkpoint(p)


def test_report_csv(tmp_path):
    p = tmp_path / "r.csv"
    io.write_report_csv(p, "demo", 5, ["a", "b"], [[1, 2], [3, 4]])
    lines = p.read_text().splitlines()
    assert lines[0] == "# chanimg-report v1 name=demo seed=5"
    assert lines[1] == "a,b"
    assert lines[2:] == ["1,2", "3,4"]

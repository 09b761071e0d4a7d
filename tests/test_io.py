"""On-disk formats: round trips, version gating, corruption handling."""

import json
import os
import re
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanimg import SurrogateConfig, fit_codec, generate_dataset
from chanimg import io
from chanimg.core import MAX_PATHS, PATH_FIELDS, LinkState, LinkTable, padded_paths
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


# -- the binary sidecar ------------------------------------------------------------


def columns(table):
    """{column: (dtype, shape, bytes)} of a table; states by value."""
    out = {}
    for f in fields(table):
        a = getattr(table, f.name)
        out[f.name] = (a.dtype, a.shape,
                       [s.value for s in a] if a.dtype == object else a.tobytes())
    return out


def outcome(path):
    """The columns read_table gives path, or the message of its FormatError."""
    try:
        return columns(io.read_table(path))
    except FormatError as exc:
        return str(exc)


def parsed(path):
    """outcome(path) with the sidecar moved aside, so the text is parsed."""
    side = Path(f"{path}{io.LTAB_SUFFIX}")
    aside = side.with_name("aside")
    side.rename(aside)
    try:
        return outcome(path)
    finally:
        aside.rename(side)


@pytest.fixture
def written(tmp_path, table):
    p = tmp_path / "data.jsonl"
    io.write_table(p, table, seed=7)
    return p


def test_write_table_writes_a_current_sidecar(written, table, monkeypatch):
    side = Path(f"{written}{io.LTAB_SUFFIX}").read_bytes()
    n, p = len(table), int(table.counts.sum())
    assert side[:8] == b"LTAB" + struct.pack("<I", io.LTAB_VERSION)
    assert struct.unpack_from("<2Q", side, 72) == (n, p)
    assert len(side) == 88 + 65 * n + 56 * p
    assert not any(written.parent.glob("*.tmp"))

    def no_parse(_):
        raise AssertionError("the dataset was parsed")

    monkeypatch.setattr(json, "loads", no_parse)
    assert columns(io.read_table(written)) == columns(table)


def flip_bit(offset):
    def damage(raw, other):
        raw = bytearray(raw)
        raw[offset] ^= 1
        return bytes(raw)
    return damage


def future_version(raw, other):
    return raw[:4] + struct.pack("<I", io.LTAB_VERSION + 1) + raw[8:]


@pytest.mark.parametrize("damage", [
    lambda raw, other: raw[:-1], lambda raw, other: raw[:len(raw) // 2],
    lambda raw, other: raw[:87], lambda raw, other: b"",
    lambda raw, other: raw + b"\0",
    # magic, version, text digest, payload digest, N, P, a count, the last cell's
    # lowest mantissa byte and its sign
    *(flip_bit(i) for i in (0, 4, 8, 40, 72, 80, 88, -8, -1)),
    lambda raw, other: other, future_version,
    # a count far past the file's size, rejected before anything is allocated
    lambda raw, other: raw[:72] + struct.pack("<Q", 2**40) + raw[80:],
], ids=["cut-1", "cut-half", "cut-header", "empty", "extra-byte",
        *(f"bit-{i}" for i in (0, 4, 8, 40, 72, 80, 88, -8, -1)), "foreign", "future-version",
        "huge-count"])
def test_damaged_sidecar_reads_as_the_parse(written, table, tmp_path, damage):
    other = tmp_path / "other.jsonl"
    io.write_table(other, generate_dataset(SurrogateConfig(num_tx=2, num_rx_per_height=4,
                                                           seed=8)))
    side = Path(f"{written}{io.LTAB_SUFFIX}")
    side.write_bytes(damage(side.read_bytes(), Path(f"{other}{io.LTAB_SUFFIX}").read_bytes()))
    before = sorted(os.listdir(tmp_path)), side.read_bytes()
    assert outcome(written) == parsed(written) == columns(table)
    assert (sorted(os.listdir(tmp_path)), side.read_bytes()) == before  # read_table never writes


def edit_digit(text):
    """The carrier of the first link, 12 GHz, read as 22 GHz."""
    return text.replace('"carrier_freq": 12', '"carrier_freq": 22', 1)


def edit_delay(text):
    """A second path's delay exponent raised to e-09: the paths fall out of order."""
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.count('"delay"') >= 2)
    first, rest = lines[i].split("}, {", 1)
    lines[i] = first + "}, {" + re.sub(r'("delay": [^,]*e-0)\d', r"\g<1>9", rest, count=1)
    return "".join(lines)


def drop_line(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:2] + lines[3:])


@pytest.mark.parametrize("edit", [edit_digit, edit_delay, drop_line])
def test_edited_dataset_reads_as_the_parse(written, table, edit):
    text = written.read_text()
    written.write_text(edit(text))
    got = outcome(written)
    assert got == parsed(written) and got != columns(table)
    if edit is edit_delay:
        assert re.match(rf"{re.escape(str(written))}:\d+: bad link record: paths must be sorted",
                        got)


def test_table_breaking_a_rule_reads_as_the_parse(tmp_path, table):
    bad = replace(table, paths=table.paths.copy())
    bad.paths[3, 0, 3] = 180.5  # a zenith of departure past the nadir
    p = tmp_path / "bad.jsonl"
    io.write_table(p, bad)
    assert outcome(p) == parsed(p) == f"{p}:5: bad link record: zod out of [0, 180]"


@st.composite
def link_tables(draw):
    """Small valid tables with Outage links without paths, 25-path links and -0.0 cells."""
    def number(lo, hi):
        return st.one_of(st.just(-0.0), st.just(0.0), st.floats(lo, hi)) if lo <= 0 <= hi \
            else st.floats(lo, hi)

    n = draw(st.integers(1, 5))
    counts = draw(st.lists(st.sampled_from([0, 1, 2, 7, MAX_PATHS]), min_size=n, max_size=n))
    rows = []
    for count in counts:
        delays = sorted(draw(st.lists(st.floats(1e-9, 1e-5), min_size=count, max_size=count)))
        for delay in delays:
            rows.append([draw(st.floats(1.0, 200.0)), delay, draw(number(-180.0, 180.0)),
                         draw(number(0.0, 180.0)), draw(number(-180.0, 180.0)),
                         draw(number(0.0, 180.0)), draw(number(-359.0, 0.0))])
    state = np.array([LinkState.OUTAGE if not c else draw(st.sampled_from(list(LinkState)))
                      for c in counts], dtype=object)
    tx = np.array([[draw(number(-500.0, 500.0)) for _ in range(2)] + [draw(number(0.0, 30.0))]
                   for _ in counts])
    rx = tx + [[draw(number(-500.0, 500.0)), draw(number(-500.0, 500.0)), 1.5] for _ in counts]
    counts = np.array(counts, dtype=int)
    return LinkTable.from_columns(padded_paths(np.array(rows).reshape(-1, 7), counts), counts,
                                  state, tx, rx, np.full(n, 12e9))


def edge_table():
    """An Outage link without paths, a 25-path link and a 1-path LOS link, with -0.0 cells."""
    counts = np.array([0, MAX_PATHS, 1])
    rows = np.tile([100.0, 1e-6, -0.0, -0.0, 90.0, 0.0, -0.0], (MAX_PATHS + 1, 1))
    rows[:, 1] += np.arange(MAX_PATHS + 1) * 1e-9
    tx = np.array([[-0.0, 0.0, 10.0], [5.0, -0.0, 10.0], [0.0, 0.0, -0.0]])
    return LinkTable.from_columns(
        padded_paths(rows, counts), counts,
        np.array([LinkState.OUTAGE, LinkState.NLOS, LinkState.LOS], dtype=object),
        tx, tx + [[30.0, -0.0, 1.5]], np.full(3, 12e9))


# a fixed example set, so the suite's outcome does not vary between runs
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(table=link_tables())
@example(table=edge_table())
def test_sidecar_and_parse_give_the_written_columns(tmp_path_factory, table):
    p = tmp_path_factory.mktemp("ltab") / "t.jsonl"
    io.write_table(p, table)
    assert outcome(p) == parsed(p) == columns(table)


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
    hyper = WganGpHyperparams(hidden=(6, 5), embed_hidden=4, embed_dim=3, noise_dim=4)
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

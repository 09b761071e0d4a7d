"""On-disk formats: round trips, version gating, corruption handling."""

import contextlib
import hashlib
import json
import os
import re
import struct
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanimg import SurrogateConfig, fit_codec, generate_dataset
from chanimg import io
from chanimg.core import MAX_PATHS, PATH_FIELDS, LinkState, LinkTable
from chanimg.errors import FormatError, VersionError
from chanimg.genmodel import EmpiricalResampler, WganGpHyperparams
from chanimg.genmodel.wgan import TrainingLog, build_networks
from chanimg.rng import substream
from containers import PREFIX, arrays, seal, split


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
    assert lines[1:] == json_lines(table)


STATE_NAMES = ("LOS", "NLOS", "Outage")  # the text's link_state of each code


def json_lines(table):
    """What json.dumps writes for each link's record."""
    offsets = table.offsets
    return [json.dumps({"tx": table.ends[i, :3].tolist(), "rx": table.ends[i, 3:6].tolist(),
                        "carrier_freq": float(table.ends[i, 6]),
                        "link_state": STATE_NAMES[table.state[i]],
                        "paths": [dict(zip(PATH_FIELDS, row)) for row in
                                  table.paths[offsets[i]:offsets[i + 1]].tolist()]})
            for i in range(len(table))]


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


def test_overlong_line_is_rejected_before_padding(tmp_path, table):
    good = tmp_path / "good.jsonl"
    io.write_table(good, table)
    Path(f"{good}{io.LTAB_SUFFIX}").unlink()
    lines = good.read_text().splitlines(keepends=True)
    rec = json.loads(lines[1])

    def with_first_line_paths(n):
        bad = tmp_path / f"bad{n}.jsonl"
        bad.write_text(lines[0] + json.dumps({**rec, "paths": rec["paths"][:1] * n}) + "\n"
                       + "".join(lines[2:]))
        return bad

    few, many = with_first_line_paths(26), with_first_line_paths(40_000)
    assert few.stat().st_size - good.stat().st_size < io.MAX_LINE_BYTES
    assert many.stat().st_size > 50 * io.MAX_LINE_BYTES
    tracemalloc.start()
    try:
        io.read_table(good)
        good_peak = tracemalloc.get_traced_memory()[1]
        peaks = []
        for bad in (few, many):
            tracemalloc.reset_peak()
            with pytest.raises(FormatError) as err:
                io.read_table(bad)
            peaks.append(tracemalloc.get_traced_memory()[1])
            if bad is few:
                assert str(err.value) == (f"{bad}:2: bad link record: "
                                          "at most 25 paths per link, got 26")
    finally:
        tracemalloc.stop()
    # a line within the byte limit is parsed, then rejected by its path count
    # before padding every link to it would cost 50 x 26 x 56 B more
    assert peaks[0] < good_peak + 6 * (few.stat().st_size - good.stat().st_size)
    # a longer line (here about 6 MB) is rejected after reading one byte past
    # the limit, so memory does not grow with the line
    assert str(err.value) == (f"{many}:2: bad link record: "
                              f"line longer than {io.MAX_LINE_BYTES} bytes")
    assert peaks[1] < good_peak + 4 * io.MAX_LINE_BYTES


def test_overlong_header_is_rejected(tmp_path):
    p = tmp_path / "long_header.jsonl"
    p.write_text("# chanimg-dataset v1 " + "x" * io.MAX_LINE_BYTES + "\n")
    with pytest.raises(FormatError, match=f"{p}:1: bad dataset header: line longer than"):
        io.read_table(p)


# -- the binary sidecar ------------------------------------------------------------


def columns(table):
    """{column: (dtype, shape, bytes)} of a table, whose columns are all numeric."""
    out = {}
    for f in fields(table):
        a = getattr(table, f.name)
        assert a.dtype.kind in "uif", f.name
        out[f.name] = (a.dtype, a.shape, a.tobytes())
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
    magic, version, header, payload = split(Path(f"{written}{io.LTAB_SUFFIX}").read_bytes())
    n, p = len(table), int(table.counts.sum())
    assert (magic, version) == (b"LTAB", io.LTAB_VERSION)
    assert header["meta"] == {"seed": 7,
                              "text_sha256": hashlib.sha256(written.read_bytes()).hexdigest()}
    assert [(e["name"], e["dtype"], e["shape"]) for e in header["entries"]] == [
        ("counts", "<i8", [n]), ("codes", "|u1", [n]), ("ends", "<f8", [n, 7]),
        ("paths", "<f8", [p, 7])]
    assert len(payload) == 65 * n + 56 * p
    assert not any(written.parent.glob("*.tmp"))

    loads, texts = json.loads, []

    def recording(text):
        texts.append(text)
        return loads(text)

    monkeypatch.setattr(json, "loads", recording)
    assert columns(io.read_table(written)) == columns(table)
    assert len(texts) == 1  # the sidecar's header, and no dataset line


def test_every_column_is_numeric_and_state_is_uint8(written, table):
    codec = fit_codec(table)
    matrices, _ = codec.encode(table, substream(1, "padding"))
    tables = {"generated": table, "sidecar": io.read_table(written),
              "decoded": codec.decode(matrices, table)}
    Path(f"{written}{io.LTAB_SUFFIX}").unlink()
    tables["parsed"] = io.read_table(written)
    for name, t in tables.items():
        assert all(getattr(t, f.name).dtype.kind in "uif" for f in fields(t)), name
        assert t.state.dtype == np.uint8, name


def test_sidecar_with_an_unknown_state_code_reads_as_the_parse(written, table):
    side = Path(f"{written}{io.LTAB_SUFFIX}")
    magic, version, header, payload = split(side.read_bytes())
    buf, cols = arrays(header, payload)
    cols["codes"][1] = 3  # one past Outage
    side.write_bytes(seal(magic, version, header, bytes(buf)))
    assert outcome(written) == parsed(written) == columns(table)


def flip_bit(offset):
    def damage(raw, other):
        raw = bytearray(raw)
        raw[offset] ^= 1
        return bytes(raw)
    return damage


def future_version(raw, other):
    return raw[:4] + struct.pack("<I", io.LTAB_VERSION + 1) + raw[8:]


def huge_count(raw, other):
    """Resealed with P far past the file's size, rejected before anything is allocated."""
    magic, version, header, payload = split(raw)
    header["entries"][3]["shape"][0] = 2**40
    return seal(magic, version, header, payload)


def v1_sidecar(raw, other):
    """The same columns in the v1 layout: magic, u32 version, the text and payload
    SHA-256, u64 N and P, then the payload."""
    _, _, header, payload = split(raw)
    n, p = header["entries"][0]["shape"][0], header["entries"][3]["shape"][0]
    return struct.pack("<4sI32s32s2Q", b"LTAB", 1, bytes.fromhex(header["meta"]["text_sha256"]),
                       hashlib.sha256(payload).digest(), n, p) + payload


@pytest.mark.parametrize("damage", [
    lambda raw, other: raw[:-1], lambda raw, other: raw[:len(raw) // 2],
    lambda raw, other: raw[:87], lambda raw, other: b"",
    lambda raw, other: raw + b"\0",
    # magic, version, header length, digest, three header bytes, the last
    # cell's lowest mantissa byte and its sign
    *(flip_bit(i) for i in (0, 4, 8, 40, 72, 80, 88, -8, -1)),
    lambda raw, other: other, future_version, huge_count, v1_sidecar,
], ids=["cut-1", "cut-half", "cut-header", "empty", "extra-byte",
        *(f"bit-{i}" for i in (0, 4, 8, 40, 72, 80, 88, -8, -1)), "foreign", "future-version",
        "huge-count", "v1"])
def test_damaged_sidecar_reads_as_the_parse(written, table, tmp_path, damage):
    other = tmp_path / "other.jsonl"
    io.write_table(other, generate_dataset(SurrogateConfig(num_tx=2, num_rx_per_height=4,
                                                           seed=8)))
    side = Path(f"{written}{io.LTAB_SUFFIX}")
    side.write_bytes(damage(side.read_bytes(), Path(f"{other}{io.LTAB_SUFFIX}").read_bytes()))
    before = sorted(os.listdir(tmp_path)), side.read_bytes()
    assert outcome(written) == parsed(written) == columns(table)
    assert (sorted(os.listdir(tmp_path)), side.read_bytes()) == before  # read_table never writes


@st.composite
def damaged_sidecar(draw, raw):
    """Sidecar bytes cut, extended, with one byte changed, or resealed with N and P rewritten."""
    kind = draw(st.sampled_from(["truncate", "extend", "flip", "counts"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "extend":
        return raw + draw(st.binary(min_size=1, max_size=16))
    if kind == "flip":
        raw = bytearray(raw)
        raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
        return bytes(raw)
    magic, version, header, payload = split(raw)
    shapes = {e["name"]: e["shape"] for e in header["entries"]}
    n, p = shapes["counts"][0], shapes["paths"][0]
    shift = draw(st.integers(-3, 3).filter(bool))
    counts = draw(st.sampled_from([
        (n + 56 * shift, p - 65 * shift),  # the same payload size, split otherwise
        (n + shift, p), (n, p + shift), (draw(st.integers(0, 2**64 - 1)), p),
        (n, draw(st.integers(0, 2**64 - 1)))]))
    if counts == (n, p) or min(counts) < 0:
        counts = (n + 1, p)
    for name in ("counts", "codes", "ends"):
        shapes[name][0] = counts[0]
    shapes["paths"][0] = counts[1]
    return seal(magic, version, header, payload)


@pytest.fixture(scope="module")
def sidecar_base(tmp_path_factory, table):
    p = tmp_path_factory.mktemp("ltab-fuzz") / "data.jsonl"
    io.write_table(p, table, seed=7)
    return p


# a fixed example set, so the suite's outcome does not vary between runs
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_sidecars_read_as_the_parse(sidecar_base, table, data):
    side = Path(f"{sidecar_base}{io.LTAB_SUFFIX}")
    good = side.read_bytes()
    try:
        side.write_bytes(data.draw(damaged_sidecar(good), label="sidecar"))
        assert outcome(sidecar_base) == parsed(sidecar_base) == columns(table)
    finally:
        side.write_bytes(good)


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
    bad.paths[table.offsets[3], 3] = 180.5  # link 3's first zenith of departure, past the nadir
    p = tmp_path / "bad.jsonl"
    io.write_table(p, bad)
    assert outcome(p) == parsed(p) == f"{p}:5: bad link record: zod out of [0, 180]"


@st.composite
def link_tables(draw):
    """Small valid tables with Outage links without paths, 25-path links and -0.0 cells."""
    def number(lo, hi, exclude_min=False):
        floats = st.floats(lo, hi, exclude_min=exclude_min)
        return st.one_of(st.just(-0.0), st.just(0.0), floats) if lo <= 0 <= hi else floats

    n = draw(st.integers(1, 5))
    counts = draw(st.lists(st.sampled_from([0, 1, 2, 7, MAX_PATHS]), min_size=n, max_size=n))
    rows = []
    for count in counts:
        delays = sorted(draw(st.lists(st.floats(1e-9, 1e-5), min_size=count, max_size=count)))
        for delay in delays:
            rows.append([draw(st.floats(1.0, 200.0)), delay, draw(number(-180.0, 180.0, True)),
                         draw(number(0.0, 180.0)), draw(number(-180.0, 180.0, True)),
                         draw(number(0.0, 180.0)), draw(number(-359.0, 0.0))])
    state = [LinkState.OUTAGE if not c else draw(st.sampled_from(list(LinkState)))
             for c in counts]
    tx = np.array([[draw(number(-500.0, 500.0)) for _ in range(2)] + [draw(number(0.0, 30.0))]
                   for _ in counts])
    rx = tx + [[draw(number(-500.0, 500.0)), draw(number(-500.0, 500.0)), 1.5] for _ in counts]
    return LinkTable.from_columns(np.array(rows).reshape(-1, 7), np.array(counts, dtype=int),
                                  state, np.column_stack([tx, rx, np.full(n, 12e9)]))


def edge_table():
    """An Outage link without paths, a 25-path link and a 1-path LOS link.

    Its cells hold the edges of the number text: -0.0 and 0.0, a subnormal
    delay, and values on both sides of 1e-4 and of 1e16, where repr turns
    from positional text to an exponent.
    """
    counts = np.array([0, MAX_PATHS, 1])
    rows = np.tile([100.0, 1e-6, -0.0, -0.0, 90.0, 0.0, -0.0], (MAX_PATHS + 1, 1))
    rows[:, 1] += np.arange(MAX_PATHS + 1) * 1e-9
    rows[0, 1] = 5e-324
    under_4, under_16 = 9.999999999999999e-05, 9999999999999998.0  # just below 1e-4, 1e16
    rows[1:3, 0] = 1e-4, under_4  # pathloss
    rows[3:5, 0] = 1e16, under_16
    rows[7:9, [3, 5]] = 1e-4, under_4  # zod, zoa
    rows[9:11, 6] = -1e-4, -under_4  # phase
    # the negative side of 1e16 in the coordinates, which alone may reach it
    tx = np.array([[-1e16, 0.0, 10.0], [-under_16, -0.0, 10.0], [0.0, 0.0, -0.0]])
    return LinkTable.from_columns(
        rows, counts, [LinkState.OUTAGE, LinkState.NLOS, LinkState.LOS],
        np.column_stack([tx, tx + [[30.0, -0.0, 1.5]], np.full(3, 12e9)]))


# a fixed example set, so the suite's outcome does not vary between runs
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(table=link_tables())
@example(table=edge_table())
def test_sidecar_and_parse_give_the_written_columns(tmp_path_factory, table):
    p = tmp_path_factory.mktemp("ltab") / "t.jsonl"
    io.write_table(p, table)
    assert p.read_text().splitlines()[1:] == json_lines(table)
    assert outcome(p) == parsed(p) == columns(table)


def traced_peak(fn):
    """Bytes fn allocates above what was held when it started, at the most (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sidecar_of_5000_links_is_written_in_blocks(tmp_path):
    # measured: 0.28 MB, the (N, 7) link rows; the path rows are written as
    # the table holds them.  Gathering every padded path row and copying it
    # into the payload took 4.8 MB, and gathering 512 links at a time 0.71 MB
    table = generate_dataset(SurrogateConfig(num_tx=10, num_rx_per_height=100, seed=7))
    assert len(table) == 5000
    peak = traced_peak(lambda: io._write_ltab(tmp_path / "t.jsonl", bytes(32), table))
    assert peak < 56 * len(table) + 2**20


# -- the text writer ---------------------------------------------------------------


def split_table(name):
    """edge_table() (smaller than one text block), or 2,100 links (many blocks) repeating it."""
    edge = edge_table()
    return edge if name == "small" else edge.take(np.tile(np.arange(3), 700))


@pytest.mark.parametrize("name", ["small", "blocks"])
def test_split_text_is_the_same_bytes(tmp_path, monkeypatch, name):
    table, header = split_table(name), "# chanimg-dataset v1\n"
    block_text, sizes = io._block_text, []

    def sized(part):
        sizes.append(len(part))
        return block_text(part)

    monkeypatch.setattr(io, "_block_text", sized)
    cuts, block_rows = [], (1, 7, 100, io._BLOCK_ROWS, 10**6)
    for rows in block_rows:
        monkeypatch.setattr(io, "_BLOCK_ROWS", rows)
        p = tmp_path / f"{rows}.jsonl"
        digest = io._write_text(p, header, table)
        text = p.read_bytes()
        assert text.decode().splitlines() == [header[:-1], *json_lines(table)]
        assert hashlib.sha256(text).digest() == digest
        cuts += np.cumsum(sizes)[:-1].tolist()
        assert sum(sizes) == len(table)
        sizes.clear()
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(f"{n}.jsonl" for n in block_rows)
    # some block starts or ends at an Outage link without paths
    assert any(table.counts[b] == 0 or table.counts[b - 1] == 0 for b in cuts)


@pytest.mark.parametrize("name", ["small", "blocks"])
def test_sidecar_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, name):
    # the text is hashed block by block as it is written, into the sidecar's meta
    table = split_table(name)
    sides = []
    for rows in (1, 7, 100, io._BLOCK_ROWS, 10**6):
        monkeypatch.setattr(io, "_BLOCK_ROWS", rows)
        p = tmp_path / f"{rows}.jsonl"
        io.write_table(p, table)
        sides.append(Path(f"{p}{io.LTAB_SUFFIX}").read_bytes())
    assert sides[1:] == sides[:-1]
    n, p = len(table), int(table.counts.sum())
    assert list(LinkState) == [0, 1, 2]  # the sidecar's codes: LOS, NLOS, Outage
    want = (table.counts.astype("<i8").tobytes() + table.state.tobytes()
            + table.ends.tobytes() + table.paths.tobytes())
    _, _, header, payload = split(sides[0])
    assert payload == want
    assert sides[0][12:44] == hashlib.sha256(sides[0][44:]).digest()
    assert [e["shape"][0] for e in header["entries"]] == [n, n, n, p]


def dataset_bytes(p):
    return p.read_bytes(), Path(f"{p}{io.LTAB_SUFFIX}").read_bytes()


def test_failing_text_writer_leaves_nothing(tmp_path, monkeypatch):
    block_text, seen = io._block_text, []  # the files there as each block was formatted

    def fails(part):  # formatting the second block fails, with the text open
        seen.append(sorted(f.name for f in tmp_path.iterdir()))
        if len(seen) > 1:
            raise RuntimeError("formatting failed")
        return block_text(part)

    p = tmp_path / "data.jsonl"
    io.write_table(p, edge_table())  # an earlier dataset, kept whole below
    before = dataset_bytes(p)
    monkeypatch.setattr(io, "_block_text", fails)
    with pytest.raises(RuntimeError, match="formatting failed"):
        io.write_table(p, split_table("blocks"))
    assert seen == [["data.jsonl", "data.jsonl.ltab", "data.jsonl.tmp"]] * 2
    # the earlier dataset and its sidecar as they were, and no temporary file
    assert dataset_bytes(p) == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["data.jsonl", "data.jsonl.ltab"]


def test_text_writer_starts_no_process_or_thread(tmp_path, monkeypatch):
    block_text, threads = io._block_text, []

    def no_fork():
        raise AssertionError("write_table forked")

    def counted(part):
        threads.append(threading.active_count())
        return block_text(part)

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(io, "_block_text", counted)
    before = threading.active_count()
    io.write_table(tmp_path / "data.jsonl", split_table("blocks"))
    assert len(threads) > 1 and set(threads) == {before}
    assert threading.active_count() == before


def test_dataset_that_cannot_be_opened_is_left_as_it_is(tmp_path, monkeypatch):
    p = tmp_path / "data.jsonl"
    io.write_table(p, edge_table())
    before, path_open = dataset_bytes(p), Path.open

    def refuses(self, mode="r", *args, **kwargs):
        if self.name == f"{p.name}.tmp" and "w" in mode:
            raise PermissionError(13, "Permission denied", str(self))
        return path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refuses)
    with pytest.raises(PermissionError):
        io.write_table(p, split_table("blocks"))
    monkeypatch.undo()
    assert dataset_bytes(p) == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["data.jsonl", "data.jsonl.ltab"]


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root may write a read-only file")
def test_read_only_dataset_survives_write_table(tmp_path):
    # like every artifact, a dataset is replaced whole by a rename in its
    # directory: a read-only directory keeps it, a read-only file does not
    d = tmp_path / "d"
    p, other = d / "data.jsonl", tmp_path / "other.jsonl"
    io.write_table(p, edge_table())
    io.write_table(other, split_table("blocks"))
    before = dataset_bytes(p)
    p.chmod(0o444)
    d.chmod(0o555)
    try:
        with pytest.raises(PermissionError):
            io.write_table(p, split_table("blocks"))
        assert dataset_bytes(p) == before
        assert sorted(f.name for f in d.iterdir()) == ["data.jsonl", "data.jsonl.ltab"]
    finally:
        d.chmod(0o755)
    io.write_table(p, split_table("blocks"))
    assert dataset_bytes(p) == dataset_bytes(other)


def test_codec_roundtrip(tmp_path, table):
    codec = fit_codec(table)
    p = tmp_path / "codec.json"
    io.write_codec(p, codec, seed=7)
    back = io.read_codec(p)
    np.testing.assert_array_equal(back.scaler.feature_min, codec.scaler.feature_min)
    np.testing.assert_array_equal(back.scaler.feature_max, codec.scaler.feature_max)
    assert back.virtual_delay == codec.virtual_delay


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
    magic, version, header, payload = split(p.read_bytes())
    assert (magic, version) == (b"CHIM", io.IMAGES_VERSION)
    assert header == {"meta": {"seed": 1}, "entries": [
        {"name": "matrices", "dtype": "<f4", "shape": [6, 8, 25]},
        {"name": "conditions", "dtype": "<f8", "shape": [6, 2]}]}
    assert payload == matrices.tobytes() + conds.tobytes()


def test_images_roundtrip_of_zero_matrices(tmp_path):
    p = tmp_path / "empty.chim"
    io.write_images(p, np.zeros((0, 8, 25)), np.zeros((0, 2)))
    assert split(p.read_bytes())[3] == b""
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
    p.write_bytes(seal(b"CHIM", 9, {"meta": {}, "entries": []}))
    with pytest.raises(VersionError, match=f"{p}: CHIM format v9 not supported"):
        io.read_images(p)


def test_images_rejects_truncation(tmp_path):
    rng = np.random.default_rng(1)
    p = tmp_path / "t.chim"
    io.write_images(p, rng.uniform(size=(3, 8, 25)), rng.uniform(size=(3, 2)))
    data = p.read_bytes()
    magic, version, header, payload = split(data)
    header["entries"][0]["shape"] = [2**32 - 1, 2**16, 2**16]
    # short payload, extra bytes, a prefix cut short, and a header whose
    # shape claims far more than the file holds (rejected before allocating)
    for bad, message in ((data[:-10], "truncated CHIM payload"),
                         (data + b"\x00", "1 bytes follow the CHIM payload"),
                         (data[:12], "truncated CHIM prefix"),
                         (seal(magic, version, header, payload), "truncated CHIM payload")):
        p.write_bytes(bad)
        with pytest.raises(FormatError, match=f"{p}: {message}"):
            io.read_images(p)


def test_wgan_checkpoint_roundtrip(tmp_path):
    hyper = WganGpHyperparams(hidden=(6, 5), noise_dim=4)
    netp = build_networks(hyper, [5.0, 1.6], [400.0, 120.0], substream(3, "init"))
    p = tmp_path / "model.ckpt"
    io.write_wgan_checkpoint(p, netp, seed=3)
    # the header states the two settings; the reader derives every size from them
    assert split(p.read_bytes())[2]["meta"] == {"backend": "wgan-gp", "seed": 3,
                                                "noise_dim": 4, "hidden": [6, 5]}
    backend, back = io.read_model_checkpoint(p)
    assert backend == "wgan-gp"
    assert back.noise_dim == netp.noise_dim
    for name in ("gen_embed", "generator", "critic_embed", "critic"):
        want, got = getattr(netp, name), getattr(back, name)
        assert (got.sizes, got.out_act) == (want.sizes, want.out_act), name
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
    assert [e["dtype"] for e in split(p.read_bytes())[2]["entries"]] == ["<f8", "<f8"]
    assert back.matrices.dtype == np.float64
    assert back.matrices.tobytes() == model.matrices.tobytes()
    out_a = model.sample([100.0, 30.0], 5, seed=9)
    out_b = back.sample([100.0, 30.0], 5, seed=9)
    np.testing.assert_array_equal(out_a, out_b)


def test_checkpoint_arrays_are_read_in_place(tmp_path):
    # an 8 MB resampler: the arrays and the header, not the file's bytes as
    # well (reading the bytes and copying the arrays out took 15.4 MB)
    rng = np.random.default_rng(5)
    model = EmpiricalResampler(rng.uniform(-1, 1, (5000, 8, 25)),
                               rng.uniform(1, 400, (5000, 2)))
    p = tmp_path / "res.ckpt"
    io.write_resampler_checkpoint(p, model)
    assert p.stat().st_size > 8e6
    assert traced_peak(lambda: io._read_container(p, io.CHECKPOINT_MAGIC, io.CHECKPOINT_VERSION)) \
        < p.stat().st_size + 2**20
    _, back = io.read_model_checkpoint(p)
    assert back.matrices.tobytes() == model.matrices.tobytes()
    assert back.conditions.tobytes() == model.conditions.tobytes()


def test_checkpoint_rejects_future_version(tmp_path):
    p = tmp_path / "v9.ckpt"
    p.write_bytes(seal(b"WGPC", 9, {"meta": {}, "entries": []}))
    with pytest.raises(VersionError, match=f"{p}: WGPC format v9 not supported"):
        io.read_model_checkpoint(p)


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        io.read_model_checkpoint(p)


# -- the one container -------------------------------------------------------------


KINDS = [(b"CHIM", io.IMAGES_VERSION), (b"WGPC", io.CHECKPOINT_VERSION),
         (b"LTAB", io.LTAB_VERSION)]


def one_entry(dtype="<f8", shape=(2,)):
    return {"meta": {}, "entries": [{"name": "x", "dtype": dtype, "shape": list(shape)}]}


def empty_then_two(shape):
    """An entry of shape, which holds no values, then one of the file's 2 numbers."""
    return {"meta": {}, "entries": [{"name": "x", "dtype": "<f8", "shape": shape},
                                    {"name": "y", "dtype": "<f8", "shape": [2]}]}


@pytest.mark.parametrize("magic, version", KINDS, ids=[k.decode() for k, _ in KINDS])
@pytest.mark.parametrize("header, message", [
    (one_entry("|O"), "bad {kind} entry"), (one_entry(">f8"), "bad {kind} entry"),
    (one_entry("<f2"), "bad {kind} entry"), (one_entry(shape=[True, 2]), "bad {kind} entry"),
    (one_entry(shape=[-1, 2]), "bad {kind} entry"),
    (one_entry(shape=[2**20, 2**20]), "truncated {kind} payload"),
    (empty_then_two([0, 2**70]), "bad {kind} entry"),
    (empty_then_two([0] * 70), "bad {kind} entry"),
    (None, "corrupt {kind} header: 2147483648 bytes, past the end of the file"),
    ({"meta": {}, "entries": [one_entry()["entries"][0]] * 2}, "{kind} entries repeat a name"),
    (b'{"meta": {"seed": ' + b"1" * 5000 + b'}, "entries": []}', "corrupt {kind} header"),
], ids=["object", "big-endian", "half", "bool-dim", "negative-dim", "2**40-elements",
        "empty-2**70", "70-dims", "header-past-the-end", "repeated-name", "5000-digits"])
def test_bad_header_is_a_format_error_before_allocating(tmp_path, magic, version, header,
                                                         message):
    p = tmp_path / "bad.bin"
    if header is None:  # a header length past the end of a 60-byte file
        p.write_bytes(PREFIX.pack(magic, version, 2**31, bytes(32)) + bytes(16))
    else:
        p.write_bytes(seal(magic, version, header, bytes(16)))

    def read():
        with pytest.raises(FormatError, match=re.escape(f"{p}: " + message.format(
                kind=magic.decode()))):
            io._read_container(p, magic, version)

    assert traced_peak(read) < 2**20


def test_digest_covers_the_header_and_every_array(tmp_path):
    p = tmp_path / "m.chim"
    io.write_images(p, np.ones((2, 8, 25)), np.ones((2, 2)), seed=5)
    raw = p.read_bytes()
    # the seed, read as 4, the last matrix cell and the last condition
    for at in (raw.index(b'"seed": 5') + 8, len(raw) - 33, len(raw) - 1):
        bad = bytearray(raw)
        bad[at] ^= 1
        p.write_bytes(bytes(bad))
        with pytest.raises(FormatError, match=f"{p}: CHIM bytes do not match their SHA-256"):
            io.read_images(p)


def kind_writers(tmp_path, seed):
    """{kind: (path, write(path))} of one small file of each container kind."""
    rng = np.random.default_rng(3)
    matrices = rng.uniform(-1, 1, (4, 8, 25)).astype(np.float32)
    conds = rng.uniform(1, 400, (4, 2))
    return {
        "CHIM": (tmp_path / "m.chim", lambda p: io.write_images(p, matrices, conds, seed=seed)),
        "WGPC": (tmp_path / "r.ckpt", lambda p: io.write_resampler_checkpoint(
            p, EmpiricalResampler(matrices, conds, k=2), seed=seed)),
        "LTAB": (tmp_path / "d.jsonl.ltab", lambda p: io._write_ltab(
            p.with_suffix(""), bytes(32), edge_table(), seed=seed)),
    }


def test_same_arrays_give_the_same_bytes_with_their_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for kind, (path, write) in kind_writers(tmp_path, seed=11).items():
        first, second = tmp_path / "a" / path.name, tmp_path / "b" / f"other{path.suffix}"
        write(first)
        write(second)
        assert first.read_bytes() == second.read_bytes(), kind  # no path, time or pid
        assert split(first.read_bytes())[2]["meta"]["seed"] == 11, kind
    data = tmp_path / "data.jsonl"
    io.write_table(data, edge_table(), seed=12)
    assert split(Path(f"{data}{io.LTAB_SUFFIX}").read_bytes())[2]["meta"]["seed"] == 12


@pytest.mark.parametrize("kind", ["CHIM", "WGPC", "LTAB"])
def test_failed_write_leaves_the_old_file_and_no_tmp(tmp_path, monkeypatch, kind):
    path, write = kind_writers(tmp_path, seed=5)[kind]
    write(path)
    before, replacing, failed_at = sorted(os.listdir(tmp_path)), io._replacing, []

    class FailsAfterTheHeader:
        """The temporary file, whose first write after the prefix and header fails."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                failed_at.append(self.fh.tell())
                raise RuntimeError("no more room")
            return self.fh.write(data)

    @contextlib.contextmanager
    def failing(path, mode):
        with replacing(path, mode) as fh:
            yield FailsAfterTheHeader(fh)

    old = path.read_bytes()
    monkeypatch.setattr(io, "_replacing", failing)
    with pytest.raises(RuntimeError, match="no more room"):
        write(path)
    header_len = PREFIX.unpack(old[:PREFIX.size])[2]
    assert failed_at == [PREFIX.size + header_len]
    assert path.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == before


def test_report_csv(tmp_path):
    p = tmp_path / "r.csv"
    io.write_report_csv(p, "demo", 5, ["a", "b"], [[1, 2], [3, 4]])
    lines = p.read_text().splitlines()
    assert lines[0] == "# chanimg-report v1 name=demo seed=5"
    assert lines[1] == "a,b"
    assert lines[2:] == ["1,2", "3,4"]


def test_failed_training_log_leaves_the_old_log_and_no_tmp(tmp_path):
    def rows():  # a training log's rows that stop part way
        yield (5, *[5.0] * 7)
        raise RuntimeError("no more rows")

    p = tmp_path / "train_log.csv"
    log = TrainingLog(rows=[(1, *[1.0] * 7), (2, *[2.0] * 7)])
    io.write_report_csv(p, "training-log", 3, log.COLUMNS, log.rows)
    before, old = sorted(os.listdir(tmp_path)), p.read_bytes()
    assert len(old.splitlines()) == 4
    with pytest.raises(RuntimeError, match="no more rows"):
        io.write_report_csv(p, "training-log", 4, log.COLUMNS, rows())
    assert p.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == before

"""On-disk artifact formats.

Every format carries a major version; readers reject unknown majors.

Every file is written to path + ".tmp" and renamed onto path (_replacing),
so a failed write leaves the file already at path as it was.

  - container:  the layout of the binary formats: the 4-byte magic, a u32
                version, a u32 JSON header length and the SHA-256 of every
                later byte; the JSON header {"meta": {...}, "entries":
                [{"name", "dtype", "shape"}, ...]}; then the arrays in entry
                order, C-ordered and little-endian, each <f4, <f8, <i8 or
                |u1.
  - dataset:    JSON Lines, one link per line, '#'-comment header with
                version, units and the generating seed.  A line is the text
                json.dumps writes for the link's record, each number its
                float's repr.  The numbers of a block of about 1,024 rows (a
                link's endpoints or one of its paths) are formatted in array
                passes (floattext: shortest digits by Schubfach, then repr's
                layout; repr itself only for subnormals) and set in the fixed
                text of their rows; the writing process formats, hashes and
                writes the blocks in order.  write_table also writes the
                sidecar X.jsonl.ltab, an "LTAB" v2 container: meta seed and
                text_sha256 (of the JSONL bytes as written); entries counts
                (N,) <i8, codes (N,) |u1, ends (N, 7) <f8 and paths (P, 7)
                <f8: the table's counts, state, ends and paths columns as
                they are.  read_table takes the columns from it only when it
                reads whole, matches the JSONL's current bytes and keeps every
                rule; otherwise it parses the text.  The JSONL is the record:
                a sidecar is safe to delete, and read_table never writes one.
  - codec:      JSON document of the fitted ranges: format, version, seed
                and the [min, max] lists pathloss and delay (the scaler's
                rows) and virtual_delay (the real delays' range), each of 2
                finite numbers (codec.py fixes every other constant and row)
  - images:     "CHIM" v3 container: meta seed; entries matrices (N, rows,
                cols) <f4 and conditions (N, 2) <f8 (dist2d, height).
                A file derived from a dataset holds one matrix per link:
                matrix i pairs with link i.
  - checkpoint: "WGPC" v5 container: meta backend, seed and the backend's
                settings: noise_dim and hidden for wgan-gp, whose
                genmodel.wgan.network_sizes give every array's shape, and k
                for the resampler; entries <f8, but for the resampler's
                (N, 8, 25) matrices, which keep their dtype (<f4 from the CLI)
  - reports:    CSV with a '#'-comment identifying the metric, version and
                seed, then a regular header row
"""

from __future__ import annotations

import contextlib
import csv
import errno
import functools
import hashlib
import json
import math
import os
import re
import struct
from itertools import chain, count
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    MATRIX_SHAPE,
    MAX_PATHS,
    PATH_FIELDS,
    LinkTable,
    link_rules,
)
from .errors import DataError, FormatError, VersionError

if TYPE_CHECKING:  # the codec and the networks are imported by the functions that build them
    from .codec import ChannelImageCodec
    from .genmodel.resampler import EmpiricalResampler
    from .genmodel.wgan import NetworkParams

DATASET_VERSION = 1
CODEC_VERSION = 3  # v3: only the pathloss and delay rows and the virtual delay band
IMAGES_VERSION = 3  # v3: the container
CHECKPOINT_VERSION = 5  # v5: the wgan-gp meta holds only noise_dim and hidden
REPORT_VERSION = 1
LTAB_VERSION = 2  # the dataset sidecar; v2: the container

IMAGES_MAGIC = b"CHIM"
CHECKPOINT_MAGIC = b"WGPC"
LTAB_MAGIC = b"LTAB"
LTAB_SUFFIX = ".ltab"


def _require_version(path, kind: str, got: int, expected: int):
    if got != expected:
        raise VersionError(f"{path}: {kind} format v{got} not supported (expected v{expected})")


# -- binary container --------------------------------------------------------------

# magic, version, JSON header length, SHA-256 of every byte after the prefix
_PREFIX = struct.Struct("<4sII32s")
_DTYPES = ("<f4", "<f8", "<i8", "|u1")  # the dtypes a container array may have


@contextlib.contextmanager
def _replacing(path, mode, **kwargs):
    """Open path + ".tmp" for writing; leaving the block moves it onto path.

    On any failure the temporary file is removed, so a file already at path
    keeps its bytes until the new one replaces it whole.  An OSError that
    names no file, such as a full disk's on a write, is given path.  A path
    with no file name, such as "" or "/", is an IsADirectoryError.
    """
    path = Path(path)
    if not path.name:
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None and exc.filename is None:
            exc.filename = str(path)
        raise


def _write_container(path, magic, version, meta, entries):
    """Write meta and the arrays of entries to path as a container, hashed as written.

    entries are (name, array, dtype): each array is written in C order in
    dtype (a copy only where that differs).  The file replaces path whole
    (see _replacing).
    """
    header = json.dumps({"meta": meta, "entries": [
        {"name": name, "dtype": dtype, "shape": list(array.shape)}
        for name, array, dtype in entries]}).encode()
    digest = hashlib.sha256(header)
    with _replacing(path, "wb") as fh:
        fh.write(bytes(_PREFIX.size))
        fh.write(header)
        for _, array, dtype in entries:
            array = np.ascontiguousarray(array, dtype=dtype)
            digest.update(array)
            fh.write(array)
        fh.seek(0)
        fh.write(_PREFIX.pack(magic, version, len(header), digest.digest()))


def _read_container(path, magic, version):
    """(meta, {name: array}) of the container at path, checked whole.

    Every entry is sized against the file before anything is allocated;
    each array is then read straight into place and hashed there.
    """
    path, kind = Path(path), magic.decode()
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < 8 or prefix[:4] != magic:
            raise FormatError(f"{path}: not a {kind} file")
        _require_version(path, kind, int.from_bytes(prefix[4:8], "little"), version)
        if len(prefix) < _PREFIX.size:
            raise FormatError(f"{path}: truncated {kind} prefix")
        _, _, header_len, want = _PREFIX.unpack(prefix)
        if header_len > size - _PREFIX.size:
            raise FormatError(f"{path}: corrupt {kind} header: {header_len} bytes, "
                              f"past the end of the file")
        raw = fh.read(header_len)
        try:
            doc = json.loads(raw.decode())
        # ValueError: not UTF-8, not JSON, or an integer of more digits than int() reads
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: corrupt {kind} header: {exc}") from exc
        if not (isinstance(doc, dict) and isinstance(doc.get("meta"), dict)
                and isinstance(doc.get("entries"), list)):
            raise FormatError(f"{path}: {kind} header lacks a 'meta' object or 'entries' list")
        entries = doc["entries"]
        for e in entries:
            if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                    and e.get("dtype") in _DTYPES and isinstance(e.get("shape"), list)
                    and all(type(d) is int and d >= 0 for d in e["shape"])):  # no bool
                raise FormatError(f"{path}: bad {kind} entry {e!r}")
        if len({e["name"] for e in entries}) != len(entries):
            raise FormatError(f"{path}: {kind} entries repeat a name")
        left = size - _PREFIX.size - header_len
        left -= sum(math.prod(e["shape"]) * np.dtype(e["dtype"]).itemsize for e in entries)
        if left:
            raise FormatError(f"{path}: truncated {kind} payload" if left < 0 else
                              f"{path}: {left} bytes follow the {kind} payload")
        digest, arrays = hashlib.sha256(raw), {}
        for e in entries:
            try:
                array = arrays[e["name"]] = np.empty(e["shape"], dtype=e["dtype"])
            except ValueError as exc:  # an empty shape with more dimensions than numpy's
                raise FormatError(f"{path}: bad {kind} entry {e!r}: {exc}") from exc
            if fh.readinto(array) != array.nbytes:  # the file shrank since it was sized
                raise FormatError(f"{path}: truncated {kind} payload")
            digest.update(array)
    if digest.digest() != want:
        raise FormatError(f"{path}: {kind} bytes do not match their SHA-256")
    return doc["meta"], arrays


def _layout(arrays) -> dict:
    """{name: (dtype, shape)} of a container's arrays."""
    return {name: (a.dtype.str, a.shape) for name, a in arrays.items()}


# -- dataset JSONL ---------------------------------------------------------------

_PATH_CELLS = itemgetter(*PATH_FIELDS)
_ENDS = struct.Struct("7d")  # tx, rx, carrier_freq
# longest dataset line read_table parses: write_table's longest, 25 paths with
# every number a 24-character repr, is 6,300 bytes with its newline
MAX_LINE_BYTES = 1 << 16
_BLOCK_ROWS = 1024  # rows per formatted text block, to the next link: bounds its arrays' memory
_STATE_NAMES = ("LOS", "NLOS", "Outage")  # the text's link_state of each LinkState code


def _ltab_path(path) -> Path:
    return Path(f"{path}{LTAB_SUFFIX}")


def write_table(path, table: LinkTable, seed=None):
    """Write a link table as a JSON Lines dataset, one link per line, and its sidecar.

    The lines are the text json.dumps writes for the links' records, so
    every number is the repr of its Python float (made in array passes,
    see _text_blocks), and a file that read_table read writes back byte
    for byte.  The text is formatted, hashed and written in order by this
    process (see _write_text).  The sidecar, path + ".ltab", holds the
    same columns in binary, keyed by the SHA-256 of the text as written
    (see _write_ltab).  Each file replaces its path whole (see
    _replacing), the text first, and the sidecar already there is removed
    once the new text is written, before it replaces the dataset.  So a
    failure leaves the dataset and sidecar already there as they were, or
    the dataset already there or the new text with no sidecar, whose text
    read_table then parses.
    """
    path = Path(path)
    seed_part = f" seed={seed}" if seed is not None else ""
    header = (f"# chanimg-dataset v{DATASET_VERSION}{seed_part}"
              " units: coords=m freq=Hz pathloss=dB delay=s angles=deg phase=deg\n")
    _write_ltab(path, _write_text(path, header, table), table, seed)


def _text_blocks(table: LinkTable):
    """The text of the table's links, the lines json.dumps writes for their records, in blocks.

    An iterator of bytes, a block at a time: each ends with the first link
    to end at or past a multiple of _BLOCK_ROWS rows (its own and its paths').
    """
    bounds = table.offsets + np.arange(len(table) + 1)  # the row each link starts at
    cuts = np.searchsorted(bounds, np.arange(_BLOCK_ROWS, bounds[-1], _BLOCK_ROWS)).tolist()
    return (_block_text(table.take(slice(a, b)))
            for a, b in zip([0, *cuts], [*cuts, len(table)]) if a < b)


def _block_text(part: LinkTable) -> bytes:
    """The lines of part's links: each number's repr set in the fixed text of its row.

    The rows of 7 numbers, each link's followed by its paths', are laid
    out on copies of their kind's template (see _templates) with each
    number's chars in its slot, a last row closes the last line, and the
    zeros that pad the fragments and slots are dropped.
    """
    from .floattext import SLOT, shortest

    templates, slots = _templates()
    starts = part.offsets[:-1]
    numbers = np.insert(part.paths, starts, part.ends, axis=0)
    heads = np.arange(len(part)) + starts  # each link's row
    n = len(_STATE_NAMES)
    kind = np.full(len(numbers) + 1, 2 * n + 1)  # a path after a path
    kind[heads[part.counts > 0] + 1] = 2 * n  # a link's first path
    kind[heads] = part.state + n  # a link after a line
    kind[0] -= n  # the block's first line
    kind[-1] = 2 * n + 2  # the close of the last line
    canvas = templates[kind]
    chars = shortest(numbers.ravel()).reshape(len(numbers), 7, SLOT)
    for k, at in enumerate(slots):
        canvas[:-1, at:at + SLOT] = chars[:, k]
    return canvas.tobytes().translate(None, b"\0")


@functools.cache
def _templates():
    """(templates, slots): each kind of row's fixed text, padded with zeros, and its number slots.

    A template holds the row's 8 fragments, each padded to the widest
    fragment at its place, with a slot of floattext.SLOT zeros between
    two fragments for each number; slots lists their first columns.  The
    kinds: a link's row, by state code, as a block's first line and as a
    later line (closing the line before); a link's first path and a later
    path; and the close of a block's last line.
    """
    from .floattext import SLOT

    link = ['{"tx": [', ", ", ", ", '], "rx": [', ", ", ", ", '], "carrier_freq": ']
    path = ['{"pathloss": ', *(f', "{f}": ' for f in PATH_FIELDS[1:]), "}"]
    ends = [f', "link_state": "{s}", "paths": [' for s in _STATE_NAMES]
    kinds = ([[*link, e] for e in ends] + [["]}\n" + link[0], *link[1:], e] for e in ends]
             + [path, [", " + path[0], *path[1:]], ["]}\n"] + [""] * 7])
    widths = [max(len(kind[i]) for kind in kinds) for i in range(8)]
    templates = np.zeros((len(kinds), sum(widths) + 7 * SLOT), dtype=np.uint8)
    at, slots = 0, []
    for i, width in enumerate(widths):
        for row, kind in zip(templates, kinds):
            row[at:at + len(kind[i])] = list(kind[i].encode())
        at += width
        slots.append(at)
        at += SLOT
    return templates, slots[:7]


def _write_text(path, header, table: LinkTable) -> bytes:
    """Write the header and the table's lines to path, in order; the SHA-256 of the bytes.

    The text replaces path whole (see _replacing), so on any failure a
    dataset already there keeps its bytes.  The dataset's sidecar, stale
    once the new text lands, is removed just before.
    """
    digest = hashlib.sha256()
    with _replacing(path, "wb") as fh:
        for block in chain([header.encode()], _text_blocks(table)):
            digest.update(block)
            fh.write(block)
        # the new sidecar's rename then replaces no file: on ext4 a rename
        # onto a file waits for the new file's data to reach the disk
        _ltab_path(path).unlink(missing_ok=True)
    return digest.digest()


def read_table(path) -> LinkTable:
    """The LinkTable of a JSON Lines dataset.

    A current sidecar (see _read_ltab) supplies the columns without
    parsing.  Otherwise each line is parsed on its own and appended to flat
    rows: 7 numbers per link (tx, rx, carrier_freq) and 7 per path.  Either
    way, the array masks of core.link_rules then check the rows.  A
    malformed line, a line longer than MAX_LINE_BYTES, a value that is not
    a JSON number and a broken rule are FormatErrors naming the file and
    line.
    """
    path = Path(path)
    ends, cells, codes, counts, line_nos = bytearray(), bytearray(), bytearray(), [], []
    with path.open("rb") as fh:
        header = _bounded_line(fh, path, 1, "dataset header")
        m = re.match(rb"# chanimg-dataset v(\d+)\b", header)
        if not m:
            raise FormatError(f"{path}: missing dataset header")
        try:
            version = int(m.group(1))
        except ValueError as exc:  # more digits than int() converts
            raise FormatError(f"{path}:1: bad dataset header: {exc}") from exc
        _require_version(path, "dataset", version, DATASET_VERSION)
        table = _read_ltab(path, fh)
        if table is not None:
            return table
        fh.seek(len(header))
        for line_no in count(2):
            line = _bounded_line(fh, path, line_no, "link record")
            if not line:
                break
            line = line.strip()
            if not line or line.startswith(b"#"):
                continue
            try:
                rec = json.loads(line)
                if len(rec["tx"]) != 3 or len(rec["rx"]) != 3:
                    raise ValueError("tx and rx must be 3D coordinates")
                # packing as doubles rejects a value that is not a number, e.g. "12e9"
                ends += _ENDS.pack(*rec["tx"], *rec["rx"], rec["carrier_freq"])
                if rec["link_state"] not in _STATE_NAMES:
                    raise ValueError(f"unknown link_state {rec['link_state']!r}")
                codes.append(_STATE_NAMES.index(rec["link_state"]))
                n = len(rec["paths"])
                if n > MAX_PATHS:  # named with its count, before its rows are packed
                    raise ValueError(f"at most {MAX_PATHS} paths per link, got {n}")
                cells += struct.pack(f"{7 * n}d", *chain.from_iterable(map(_PATH_CELLS,
                                                                           rec["paths"])))
                counts.append(n)
            except (KeyError, ValueError, TypeError, OverflowError, RecursionError,
                    struct.error) as exc:
                raise FormatError(f"{path}:{line_no}: bad link record: {exc}") from exc
            line_nos.append(line_no)
    counts, state = np.array(counts, dtype=int), np.frombuffer(codes, np.uint8)
    ends, paths = np.frombuffer(ends).reshape(-1, 7), np.frombuffer(cells).reshape(-1, 7)
    broken = _broken_rule(paths, counts, state, ends)
    if broken:
        raise FormatError(f"{path}:{line_nos[broken[0]]}: bad link record: {broken[1]}")
    return LinkTable.from_columns(paths, counts, state, ends)


def _bounded_line(fh, path, line_no, kind) -> bytes:
    """fh's next line, b"" at the end; a longer line than MAX_LINE_BYTES is a FormatError.

    The read stops one byte past the limit, so such a line is never held whole.
    """
    line = fh.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise FormatError(f"{path}:{line_no}: bad {kind}: line longer than "
                          f"{MAX_LINE_BYTES} bytes")
    return line


def _broken_rule(paths, counts, state, ends):
    """(link, message) of the first link that breaks a rule and its first broken rule.

    None when every link keeps every rule of core.link_rules.
    """
    rules = link_rules(paths, counts, state, ends)
    bad = np.array([mask for _, mask in rules])  # (rules, links)
    if not bad.any():
        return None
    i = int(np.argmax(bad.any(axis=0)))
    return i, rules[int(np.argmax(bad[:, i]))][0]


def _write_ltab(path, text_digest: bytes, table: LinkTable, seed=None):
    """Write the sidecar of the dataset at path, whose bytes hash to text_digest."""
    _write_container(_ltab_path(path), LTAB_MAGIC, LTAB_VERSION,
                     {"seed": seed, "text_sha256": text_digest.hex()}, [
        ("counts", table.counts, "<i8"),
        ("codes", table.state, "|u1"),
        ("ends", table.ends, "<f8"),
        ("paths", table.paths, "<f8"),
    ])


def _hash_copy(src, digest):
    """Feed the rest of a binary file to digest through one 64 KiB buffer.

    (hashlib.file_digest reads through 256 KiB; with it, encode's peak RSS
    on a 5,000-link dataset sat 0.2 MB higher.)
    """
    buf = bytearray(1 << 16)
    while n := src.readinto(buf):
        digest.update(memoryview(buf)[:n])


def _read_ltab(path, fh):
    """The table of path's sidecar, or None when the dataset must be parsed.

    The sidecar is used only when it reads whole as an LTAB container of
    the current version with the sidecar's entries, the JSONL's bytes (fh,
    read from the start) hash to its text_sha256, and its columns keep
    every rule.
    """
    try:
        meta, arrays = _read_container(_ltab_path(path), LTAB_MAGIC, LTAB_VERSION)
    except (OSError, FormatError):  # none, unreadable, damaged or of another version
        return None
    n, p = (len(arrays[k]) if k in arrays and arrays[k].ndim else -1 for k in ("counts", "paths"))
    if _layout(arrays) != {"counts": ("<i8", (n,)), "codes": ("|u1", (n,)),
                           "ends": ("<f8", (n, 7)), "paths": ("<f8", (p, 7))}:
        return None
    text = hashlib.sha256()
    fh.seek(0)
    _hash_copy(fh, text)
    if meta.get("text_sha256") != text.hexdigest():
        return None
    counts, codes, ends, paths = (arrays[k] for k in ("counts", "codes", "ends", "paths"))
    if counts.min(initial=0) < 0 or counts.sum() != p or _broken_rule(paths, counts, codes, ends):
        return None
    return LinkTable.from_columns(paths, counts, codes, ends)


# -- codec JSON ------------------------------------------------------------------


def write_codec(path, codec: ChannelImageCodec, seed=None):
    """codec's JSON document, replacing path whole (see _replacing)."""
    doc = {"format": "chanimg-codec", "version": CODEC_VERSION, "seed": seed}
    doc.update(codec.to_dict())
    with _replacing(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def read_codec(path) -> ChannelImageCodec:
    from .codec import ChannelImageCodec

    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    # ValueError: not UTF-8, not JSON, or an integer of more digits than int() reads;
    # RecursionError: nested too deep
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "chanimg-codec":
        raise FormatError(f"{path}: not a codec file")
    version = doc.get("version", -1)
    if type(version) is not int:  # true would pass for 1
        raise FormatError(f"{path}: codec version {version!r} is not an integer")
    _require_version(path, "codec", version, CODEC_VERSION)
    try:
        return ChannelImageCodec.from_dict(doc)
    except KeyError as exc:
        raise FormatError(f"{path}: missing codec field {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# -- channel matrix tensors --------------------------------------------------------


def write_images(path, matrices, conditions, seed=None):
    matrices = np.asarray(matrices)
    conditions = np.asarray(conditions, dtype=np.float64)
    if matrices.ndim != 3 or conditions.shape != (len(matrices), 2):
        raise DataError("need (N, rows, cols) matrices and matching (N, 2) conditions")
    _write_container(path, IMAGES_MAGIC, IMAGES_VERSION, {"seed": seed}, [
        ("matrices", matrices, "<f4"), ("conditions", conditions, "<f8")])


def read_images(path):
    """(matrices (N, rows, cols) float32, conditions (N, 2) float64) of a CHIM file."""
    _, arrays = _read_container(path, IMAGES_MAGIC, IMAGES_VERSION)
    matrices = arrays.get("matrices")
    n, rows, cols = matrices.shape if matrices is not None and matrices.ndim == 3 else (-1,) * 3
    if _layout(arrays) != {"matrices": ("<f4", (n, rows, cols)), "conditions": ("<f8", (n, 2))}:
        raise FormatError(f"{path}: CHIM entries are not (N, rows, cols) <f4 matrices "
                          "and (N, 2) <f8 conditions")
    return matrices, arrays["conditions"]


# -- model checkpoints -------------------------------------------------------------


def write_wgan_checkpoint(path, netp: NetworkParams, seed=None):
    from .genmodel.wgan import OUT_ACT  # the networks' names, in their init order

    meta = {"backend": "wgan-gp", "seed": seed, "noise_dim": netp.noise_dim,
            "hidden": netp.critic.sizes[1:-1]}
    arrays = {"cond_min": netp.cond_min, "cond_max": netp.cond_max}
    for name in OUT_ACT:
        for k, param in enumerate(getattr(netp, name).params):  # W, b of each layer
            arrays[f"{name}.{k // 2}.{'Wb'[k % 2]}"] = param
    # float32 training is also stored as float64
    _write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta,
                     [(k, v, "<f8") for k, v in arrays.items()])


def write_resampler_checkpoint(path, model: EmpiricalResampler, seed=None):
    matrices = model.matrices
    _write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                     {"backend": "resampler", "seed": seed, "k": model.k}, [
        ("matrices", matrices, "<f4" if matrices.dtype == np.float32 else "<f8"),
        ("conditions", model.conditions, "<f8")])


def _count(v) -> bool:
    """Whether a header value is a positive integer (and not a bool)."""
    return type(v) is int and v > 0


def _read_wgan(path, meta, arrays) -> NetworkParams:
    """The networks of a WGAN-GP checkpoint; each array must have the shape its settings give."""
    from .genmodel.nn import Mlp
    from .genmodel.wgan import OUT_ACT, NetworkParams, network_sizes

    if any(a.dtype != "<f8" for a in arrays.values()):
        raise FormatError(f"{path}: wgan-gp arrays are not all <f8")
    noise_dim, hidden = meta["noise_dim"], meta["hidden"]
    if not (_count(noise_dim) and isinstance(hidden, list) and hidden
            and all(map(_count, hidden))):
        raise FormatError(f"{path}: noise_dim {noise_dim!r} is not a positive integer "
                          f"or hidden {hidden!r} not a list of them")
    nets = {}
    for name, sizes in network_sizes(noise_dim, hidden).items():
        params = []
        for l, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            for wb, shape in (("W", (fan_out, fan_in)), ("b", (fan_out,))):
                params.append(arrays[f"{name}.{l}.{wb}"])
                if params[-1].shape != shape:
                    raise FormatError(f"{path}: {name}.{l}.{wb} has shape {params[-1].shape}, "
                                      f"noise_dim and hidden give {shape}")
        nets[name] = Mlp(sizes, OUT_ACT[name], params)
    for key in ("cond_min", "cond_max"):
        if arrays[key].shape != (2,) or not np.isfinite(arrays[key]).all():
            raise FormatError(f"{path}: {key} is not 2 finite numbers")
    netp = NetworkParams(cond_min=arrays["cond_min"], cond_max=arrays["cond_max"],
                         noise_dim=noise_dim, **nets)
    netp.check_finite()
    return netp


def _read_resampler(path, meta, arrays) -> EmpiricalResampler:
    from .genmodel.resampler import EmpiricalResampler

    matrices, conditions, k = arrays["matrices"], arrays["conditions"], meta["k"]
    if (matrices.shape[1:] != MATRIX_SHAPE or conditions.shape != (len(matrices), 2)
            or matrices.dtype.kind != "f" or conditions.dtype != "<f8"):
        raise FormatError(f"{path}: resampler holds {matrices.shape} matrices and "
                          f"{conditions.shape} conditions, not (N, 8, 25) and (N, 2) floats")
    if not _count(k):
        raise FormatError(f"{path}: resampler k {k!r} is not a positive integer")
    return EmpiricalResampler(matrices, conditions, k=k)


def read_model_checkpoint(path):
    """Returns ("wgan-gp", NetworkParams) or ("resampler", EmpiricalResampler).

    A header whose settings do not give the shape of each array the model
    reads is a FormatError.
    """
    meta, arrays = _read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    backend = meta.get("backend")
    if backend not in ("wgan-gp", "resampler"):
        raise FormatError(f"{path}: unknown backend {backend!r}")
    reader = _read_wgan if backend == "wgan-gp" else _read_resampler
    try:
        return backend, reader(path, meta, arrays)
    except (KeyError, TypeError) as exc:  # a field missing or of the wrong JSON type
        raise FormatError(f"{path}: incomplete checkpoint: {exc}") from exc


# -- CSV reports -------------------------------------------------------------------


def write_report_csv(path, name: str, seed, header, rows, **meta):
    """rows: iterable of sequences aligned with header, written as they come.

    The '#' line names the report, its version and seed, then each of
    meta's pairs as key=value.  The file replaces path whole (see
    _replacing), so rows may raise part way and leave no partial report.
    """
    pairs = "".join(f" {k}={v}" for k, v in meta.items())
    with _replacing(path, "w", newline="") as fh:
        fh.write(f"# chanimg-report v{REPORT_VERSION} name={name} seed={seed}{pairs}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

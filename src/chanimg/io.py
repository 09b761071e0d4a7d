"""On-disk artifact formats.

Every format carries a major version; readers reject unknown majors.

  - dataset:    JSON Lines, one link per line, '#'-comment header with
                version, units and the generating seed.  The text is
                formatted by up to one process per usable CPU, and the
                bytes are the same for any count.  write_table also
                writes the binary sidecar X.jsonl.ltab beside X.jsonl:
                "LTAB", u32 version, the SHA-256 of the JSONL bytes as
                written, the SHA-256 of the payload, u64 links N and paths
                P, then the payload: N int64 path counts, N uint8 state
                codes (LOS, NLOS, Outage), (N, 7) float64 tx/rx/carrier rows
                and (P, 7) float64 path rows, little-endian.  read_table
                takes the columns from it only when it is whole (magic,
                version, size, payload digest) and the JSONL's current
                bytes hash to its text digest, and the columns then keep
                every rule; otherwise it parses the text.  The JSONL is
                the record: a sidecar is safe to delete, and read_table
                never writes one.
  - codec:      JSON bundle of virtual-path ranges and scaler parameters;
                each range list holds 8 finite numbers and epsilon lies in
                (0, 1)
  - images:     binary "CHIM" v2: magic, u32 version/count/rows/cols, float32
                8x25 channel matrices, then one float64 (dist2d, height) pair
                per matrix.  Matrix i of a file derived from a dataset pairs
                with link i % n_links (realizations/samples are stored as
                repeated blocks of the full dataset).
  - checkpoint: binary "WGPC" v3: magic, u32 version, u32 header length, JSON
                header (metadata + named array table), float64 payload.  The
                header's network sizes, noise_dim and image_shape must agree
                with the arrays and map to one 8x25 matrix
  - reports:    CSV with a '#'-comment identifying the metric, version and
                seed, then a regular header row
"""

import csv
import hashlib
import json
import math
import os
import re
import struct
import tempfile
import threading
import warnings
from itertools import chain, count, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import MAX_PATHS, PATH_FIELDS, LinkState, LinkTable, link_rules, padded_paths
from .codec import MATRIX_SHAPE, ChannelImageCodec
from .errors import DataError, FormatError, VersionError
from .genmodel.nn import Mlp
from .genmodel.resampler import EmpiricalResampler
from .genmodel.wgan import NetworkParams

DATASET_VERSION = 1
CODEC_VERSION = 1
IMAGES_VERSION = 2  # v2: 8x25 matrices, not their 64x50 tiled images
CHECKPOINT_VERSION = 3  # v3: the resampler stores 8x25 matrices, not 64x50 images
REPORT_VERSION = 1
LTAB_VERSION = 1  # the dataset sidecar

IMAGES_MAGIC = b"CHIM"
CHECKPOINT_MAGIC = b"WGPC"
LTAB_MAGIC = b"LTAB"
LTAB_SUFFIX = ".ltab"


def _require_version(kind: str, got: int, expected: int):
    if got != expected:
        raise VersionError(f"{kind} format v{got} not supported (expected v{expected})")


def _write_array(fh, array, dtype):
    """Write an array's bytes in C order without a bytes copy of the payload."""
    fh.write(np.ascontiguousarray(array, dtype=dtype))


# -- dataset JSONL ---------------------------------------------------------------

_PATH_CELLS = itemgetter(*PATH_FIELDS)
_ENDS = struct.Struct("7d")  # tx, rx, carrier_freq
# a link's line as json.dumps writes its record: JSON's text of a finite float is its repr
_PATH_TEXT = "{" + ", ".join(f'"{f}": %r' for f in PATH_FIELDS) + "}"
_LINK_TEXT = ('{"tx": [%r, %r, %r], "rx": [%r, %r, %r], "carrier_freq": %r, '
              '"link_state": "%s", "paths": [%s]}\n')
# longest dataset line read_table parses: write_table's longest, 25 paths with
# every number a 24-character repr, is 6,300 bytes with its newline
MAX_LINE_BYTES = 1 << 16
_TEXT_BLOCK = 128  # lines per formatted, hashed and written block of dataset text
_TEXT_PART = 512  # links per text process at least

# the binary sidecar: magic, u32 version, SHA-256 of the JSONL bytes, SHA-256
# of the payload, u64 link count N and path count P
_LTAB = struct.Struct("<4sI32s32s2Q")
_STATES = np.array(list(LinkState), dtype=object)  # the sidecar's state codes
_STATE_CODES = {state: code for code, state in enumerate(_STATES)}


def _ltab_path(path) -> Path:
    return Path(f"{path}{LTAB_SUFFIX}")


def _ltab_payload(n, p):
    """Empty (counts, state codes, (N, 7) link rows, (P, 7) path rows) of a sidecar."""
    return (np.empty(n, dtype="<i8"), np.empty(n, dtype="u1"),
            np.empty((n, 7), dtype="<f8"), np.empty((p, 7), dtype="<f8"))


def write_table(path, table: LinkTable, seed=None):
    """Write a link table as a JSON Lines dataset, one link per line, and its sidecar.

    Numbers are the repr of Python floats, so a file that read_table read
    writes back byte for byte.  The text is formatted by up to one process
    per usable CPU (see _write_text), with the same bytes for any count.
    The sidecar, path + ".ltab", holds the same columns in binary, keyed by
    the SHA-256 of the text as written; it is written to a temporary name
    and renamed into place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    seed_part = f" seed={seed}" if seed is not None else ""
    header = (f"# chanimg-dataset v{DATASET_VERSION}{seed_part}"
              " units: coords=m freq=Hz pathloss=dB delay=s angles=deg phase=deg\n")
    workers = max(1, min(_text_processes(), -(-len(table) // _TEXT_PART)))
    _write_ltab(path, _write_text(path, header, table, workers), table)


def _text_processes() -> int:
    """How many processes may format dataset text: one per usable CPU.

    One where there is no os.fork, or where other Python threads run: a
    forked child would inherit any lock such a thread held.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _link_lines(table: LinkTable, lo, hi):
    """The lines of links lo..hi-1: the text json.dumps writes for their records."""
    part = table.take(slice(lo, hi))
    ends = np.column_stack([part.tx, part.rx, part.carrier_freq])
    return (_LINK_TEXT % (*e, state.value,
                          ", ".join([_PATH_TEXT % tuple(c) for c in rows[:n].tolist()]))
            for e, state, n, rows in zip(ends.tolist(), part.state, part.counts.tolist(),
                                         part.paths))


def _write_lines(out, lines, digest=None):
    """Write lines to out in blocks of _TEXT_BLOCK, feeding each block to digest if given."""
    while block := "".join(islice(lines, _TEXT_BLOCK)).encode():
        if digest is not None:
            digest.update(block)
        out.write(block)


def _part_bounds(counts, workers):
    """workers + 1 link bounds of contiguous parts holding near-equal lines plus paths."""
    weight = np.concatenate([[0], np.cumsum(counts + 1)])
    return np.searchsorted(weight, weight[-1] * np.arange(workers + 1) // workers,
                           side="right") - 1


def _start_part(out, table, lo, hi):
    """Fork a child that writes the lines of links lo..hi-1 to out, and return its pid.

    None when the fork failed and the lines were written here instead.  The
    child leaves through os._exit, so it flushes no buffer it inherited.
    """
    try:
        # Python 3.12+ warns of fork in a process with threads.  The only ones
        # here are native (BLAS's idle workers; see _text_processes), and the
        # child only formats text and writes its own file
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare
        pid = None
    if not pid:  # the child, or no child: write the part here
        code = 1
        try:
            _write_lines(out, _link_lines(table, lo, hi))
            out.flush()
            code = 0
        finally:
            if pid == 0:
                os._exit(code)
    return pid


def _write_text(path, header, table: LinkTable, workers) -> bytes:
    """Write the header and the table's lines to path; the SHA-256 of the bytes.

    The links are cut into `workers` contiguous parts (_part_bounds).  A
    forked child writes each part after the first to an unlinked temporary
    file beside path while this process writes the header and the first
    part; the parts are then appended in order, every byte through the one
    digest, so the file does not depend on `workers`.  A child that fails
    is an OSError naming path.  On any failure path is removed, and so is
    the sidecar of the dataset it replaced; a path that cannot be opened is
    left as it is.
    """
    bounds = _part_bounds(table.counts, workers).tolist()
    digest, parts = hashlib.sha256(), []  # (temporary file, pid or None) of parts 1, 2, ...
    fh = path.open("wb")
    try:
        with fh:
            try:
                for lo, hi in zip(bounds[1:-1], bounds[2:]):
                    out = tempfile.TemporaryFile(dir=path.parent)
                    parts.append((out, _start_part(out, table, lo, hi)))
                _write_lines(fh, chain([header], _link_lines(table, 0, bounds[1])), digest)
            finally:  # every child is waited for, whatever failed here
                codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                         for _, pid in parts if pid is not None]
            if any(codes):
                raise OSError(f"{path}: a dataset text writer exited with "
                              f"{next(c for c in codes if c)}")
            for out, _ in parts:
                out.seek(0)
                _hash_copy(out, digest, fh)
    except BaseException:
        # the first parts alone would read as a whole dataset, and an old
        # sidecar would describe a dataset that is gone
        path.unlink(missing_ok=True)
        _ltab_path(path).unlink(missing_ok=True)
        raise
    finally:
        for out, _ in parts:
            out.close()
    return digest.digest()


def read_table(path) -> LinkTable:
    """The LinkTable of a JSON Lines dataset.

    A current sidecar (see _read_ltab) supplies the columns without
    parsing.  Otherwise each line is parsed on its own and appended to flat
    rows: 7 numbers per link (tx, rx, carrier_freq) and 7 per path.  Either
    way, array masks then apply the rules of PathParams and LinkRecord to
    the rows.  A malformed line, a line longer than MAX_LINE_BYTES, a value
    that is not a JSON number and a broken rule are FormatErrors naming the
    file and line.
    """
    path = Path(path)
    ends, cells, counts, states, line_nos = bytearray(), bytearray(), [], [], []
    with path.open("rb") as fh:
        header = _bounded_line(fh, path, 1, "dataset header")
        m = re.match(rb"# chanimg-dataset v(\d+)\b", header)
        if not m:
            raise FormatError(f"{path}: missing dataset header")
        _require_version("dataset", int(m.group(1)), DATASET_VERSION)
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
                states.append(LinkState(rec["link_state"]))
                n = len(rec["paths"])
                if n > MAX_PATHS:  # before padded_paths sizes every link by this line
                    raise ValueError(f"at most {MAX_PATHS} paths per link, got {n}")
                cells += struct.pack(f"{7 * n}d", *chain.from_iterable(map(_PATH_CELLS,
                                                                           rec["paths"])))
                counts.append(n)
            except (KeyError, ValueError, TypeError, OverflowError, RecursionError,
                    struct.error) as exc:
                raise FormatError(f"{path}:{line_no}: bad link record: {exc}") from exc
            line_nos.append(line_no)
    counts, state = np.array(counts, dtype=int), np.array(states, dtype=object)
    ends = np.frombuffer(ends).reshape(-1, 7)
    paths = padded_paths(np.frombuffer(cells).reshape(-1, 7), counts)
    broken = _broken_rule(paths, counts, state, ends)
    if broken:
        raise FormatError(f"{path}:{line_nos[broken[0]]}: bad link record: {broken[1]}")
    return LinkTable.from_columns(paths, counts, state, ends[:, :3], ends[:, 3:6], ends[:, 6])


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
    rules = link_rules(paths, counts, state, ends[:, :3], ends[:, 3:6], ends[:, 6])
    bad = np.array([mask for _, mask in rules])  # (rules, links)
    if not bad.any():
        return None
    i = int(np.argmax(bad.any(axis=0)))
    return i, rules[int(np.argmax(bad[:, i]))][0]


def _write_ltab(path, text_digest: bytes, table: LinkTable):
    """Write the sidecar of the dataset at path, whose bytes hash to text_digest."""
    n, p = len(table), int(table.counts.sum())
    payload = _ltab_payload(n, p)
    ends = np.column_stack([table.tx, table.rx, table.carrier_freq])
    for column, values in zip(payload, (table.counts, [_STATE_CODES[s] for s in table.state],
                                        ends, table.paths[table.valid])):
        column[...] = values
    digest = hashlib.sha256()
    for column in payload:
        digest.update(column)
    side = _ltab_path(path)
    tmp = side.with_name(side.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(_LTAB.pack(LTAB_MAGIC, LTAB_VERSION, text_digest, digest.digest(), n, p))
        for column in payload:
            fh.write(column)
    os.replace(tmp, side)


def _hash_copy(src, digest, dst=None):
    """Feed the rest of a binary file to digest through one 64 KiB buffer, copying it to dst.

    (hashlib.file_digest reads through 256 KiB; with it, encode's peak RSS
    on a 5,000-link dataset sat 0.2 MB higher.)
    """
    buf = bytearray(1 << 16)
    while n := src.readinto(buf):
        digest.update(memoryview(buf)[:n])
        if dst is not None:
            dst.write(memoryview(buf)[:n])


def _sha256_of(fh) -> bytes:
    """SHA-256 of the rest of a binary file."""
    digest = hashlib.sha256()
    _hash_copy(fh, digest)
    return digest.digest()


def _read_ltab(path, fh):
    """The table of path's sidecar, or None when the dataset must be parsed.

    The sidecar is used only when its magic, version and size are right,
    its payload hashes to its payload digest, the JSONL's bytes (fh, read
    from the start) hash to its text digest, and its columns keep every
    rule.  The arrays are read straight into place, as read_images does.
    """
    try:
        with _ltab_path(path).open("rb") as side:
            head = side.read(_LTAB.size)
            if len(head) != _LTAB.size:
                return None
            magic, version, text_digest, payload_digest, n, p = _LTAB.unpack(head)
            # sized from the header before anything is allocated
            if (magic != LTAB_MAGIC or version != LTAB_VERSION
                    or os.fstat(side.fileno()).st_size != _LTAB.size + 65 * n + 56 * p):
                return None
            payload, digest = _ltab_payload(n, p), hashlib.sha256()
            for column in payload:
                if side.readinto(column) != column.nbytes:
                    return None
                digest.update(column)
    except OSError:  # no sidecar, or one that cannot be read
        return None
    fh.seek(0)
    if digest.digest() != payload_digest or _sha256_of(fh) != text_digest:
        return None
    counts, codes, ends, cells = payload
    if (codes.max(initial=0) >= len(_STATES) or counts.min(initial=0) < 0
            or counts.max(initial=0) > MAX_PATHS or counts.sum() != p):
        return None
    state, paths = _STATES[codes], padded_paths(cells, counts)
    if _broken_rule(paths, counts, state, ends):
        return None
    return LinkTable.from_columns(paths, counts, state, ends[:, :3], ends[:, 3:6], ends[:, 6])


# -- codec JSON ------------------------------------------------------------------


def write_codec(path, codec: ChannelImageCodec, seed=None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"format": "chanimg-codec", "version": CODEC_VERSION, "seed": seed}
    doc.update(codec.to_dict())
    path.write_text(json.dumps(doc, indent=2) + "\n")


def read_codec(path) -> ChannelImageCodec:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "chanimg-codec":
        raise FormatError(f"{path}: not a codec file")
    version = doc.get("version", -1)
    if type(version) is not int:  # true would pass for 1
        raise FormatError(f"{path}: codec version {version!r} is not an integer")
    _require_version("codec", version, CODEC_VERSION)
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
    if matrices.ndim != 3 or len(matrices) != len(conditions):
        raise DataError("need (N, rows, cols) matrices and matching (N, 2) conditions")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(IMAGES_MAGIC)
        fh.write(struct.pack("<4I", IMAGES_VERSION, *matrices.shape))
        _write_array(fh, matrices, "<f4")
        _write_array(fh, conditions, "<f8")


def read_images(path):
    """(matrices (N, rows, cols) float32, conditions (N, 2) float64) of a CHIM file.

    The payloads are read straight into their arrays, so the values are
    held once.
    """
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(4 + 16)
        if head[:4] != IMAGES_MAGIC:
            raise FormatError(f"{path}: not a channel matrix file")
        if len(head) < 4 + 16:
            raise FormatError(f"{path}: truncated matrix file")
        version, count, rows, cols = struct.unpack_from("<4I", head, 4)
        _require_version("images", version, IMAGES_VERSION)
        # sized from the header before anything is allocated
        if os.fstat(fh.fileno()).st_size != len(head) + count * (rows * cols * 4 + 2 * 8):
            raise FormatError(f"{path}: truncated matrix file")
        matrices = np.empty((count, rows, cols), dtype="<f4")
        conditions = np.empty((count, 2), dtype="<f8")
        for array in (matrices, conditions):
            if fh.readinto(array) != array.nbytes:
                raise FormatError(f"{path}: truncated matrix file")
    return matrices, conditions


# -- model checkpoints -------------------------------------------------------------


def _write_checkpoint(path, meta: dict, arrays: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()]
    header = json.dumps({"meta": meta, "entries": entries}).encode()
    with path.open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<2I", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        for v in arrays.values():
            _write_array(fh, v, "<f8")


def _read_checkpoint(path):
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    if len(raw) < 4 + 8:
        raise FormatError(f"{path}: truncated checkpoint header")
    version, header_len = struct.unpack_from("<2I", raw, 4)
    _require_version("checkpoint", version, CHECKPOINT_VERSION)
    offset = 4 + 8
    try:
        doc = json.loads(raw[offset:offset + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: corrupt checkpoint header: {exc}") from exc
    offset += header_len
    if not (isinstance(doc, dict) and isinstance(doc.get("meta"), dict)
            and isinstance(doc.get("entries"), list)):
        raise FormatError(f"{path}: checkpoint header lacks a 'meta' object or 'entries' list")
    arrays = {}
    for entry in doc["entries"]:
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and isinstance(entry.get("name"), str)
                and all(isinstance(d, int) and d >= 0 for d in shape)):
            raise FormatError(f"{path}: bad checkpoint entry {entry!r}")
        name, shape = entry["name"], tuple(shape)
        n = math.prod(shape)
        if offset + 8 * n > len(raw):
            raise FormatError(f"{path}: truncated checkpoint payload")
        arrays[name] = np.frombuffer(
            raw, dtype="<f8", count=n, offset=offset).reshape(shape).copy()
        offset += 8 * n
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} bytes follow the checkpoint payload")
    return doc["meta"], arrays


_NET_NAMES = ("gen_embed", "generator", "critic_embed", "critic")


def write_wgan_checkpoint(path, netp: NetworkParams, seed=None):
    meta = {
        "backend": "wgan-gp",
        "seed": seed,
        "noise_dim": netp.noise_dim,
        "image_shape": list(netp.image_shape),
        "nets": {name: {"sizes": getattr(netp, name).sizes,
                        "out_act": getattr(netp, name).out_act,
                        "hidden_act": getattr(netp, name).hidden_act}
                 for name in _NET_NAMES},
    }
    arrays = {"cond_min": netp.cond_min, "cond_max": netp.cond_max}
    for name in _NET_NAMES:
        for k, param in enumerate(getattr(netp, name).params):  # W, b of each layer
            arrays[f"{name}.{k // 2}.{'Wb'[k % 2]}"] = param
    _write_checkpoint(path, meta, arrays)


def write_resampler_checkpoint(path, model: EmpiricalResampler, seed=None):
    meta = {"backend": "resampler", "seed": seed, "k": model.k}
    _write_checkpoint(path, meta, {
        "matrices": np.asarray(model.matrices, dtype=np.float64),
        "conditions": model.conditions,
    })


def _count(v) -> bool:
    """Whether a header value is a positive integer (and not a bool)."""
    return type(v) is int and v > 0


def _read_mlp(path, name, spec, arrays) -> Mlp:
    """The network stored as name; FormatError unless its arrays have its sizes' shapes."""
    sizes = spec["sizes"]
    if not (isinstance(sizes, list) and len(sizes) >= 2 and all(map(_count, sizes))):
        raise FormatError(f"{path}: {name} sizes {sizes!r} are not two or more positive integers")
    params = []
    for l, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        for wb, shape in (("W", (fan_out, fan_in)), ("b", (fan_out,))):
            params.append(arrays[f"{name}.{l}.{wb}"])
            if params[-1].shape != shape:
                raise FormatError(f"{path}: {name}.{l}.{wb} has shape {params[-1].shape}, "
                                  f"its sizes give {shape}")
    try:
        return Mlp(sizes, spec["out_act"], params, hidden_act=spec.get("hidden_act", "silu"))
    except ValueError as exc:  # an unknown activation
        raise FormatError(f"{path}: {name}: {exc}") from exc


def _read_wgan(path, meta, arrays) -> NetworkParams:
    """The networks of a WGAN-GP checkpoint, checked against each other and the matrix."""
    nets = {name: _read_mlp(path, name, meta["nets"][name], arrays) for name in _NET_NAMES}
    noise_dim = meta["noise_dim"]
    if meta["image_shape"] != list(MATRIX_SHAPE) or not _count(noise_dim):
        raise FormatError(f"{path}: image_shape {meta['image_shape']!r} is not "
                          f"{list(MATRIX_SHAPE)} or noise_dim {noise_dim!r} is not positive")
    pixels = math.prod(MATRIX_SHAPE)
    g, c = nets["gen_embed"].sizes[-1], nets["critic_embed"].sizes[-1]  # embedding widths
    for name, want in (("gen_embed", (2, g)), ("generator", (noise_dim + g, pixels)),
                       ("critic_embed", (2, c)), ("critic", (pixels + c, 1))):
        got = (nets[name].sizes[0], nets[name].sizes[-1])
        if got != want:
            raise FormatError(f"{path}: {name} maps {got[0]} to {got[1]} values, "
                              f"not {want[0]} to {want[1]}")
    for key in ("cond_min", "cond_max"):
        if arrays[key].shape != (2,) or not np.isfinite(arrays[key]).all():
            raise FormatError(f"{path}: {key} is not 2 finite numbers")
    netp = NetworkParams(cond_min=arrays["cond_min"], cond_max=arrays["cond_max"],
                         noise_dim=noise_dim, image_shape=MATRIX_SHAPE, **nets)
    netp.check_finite()
    return netp


def _read_resampler(path, meta, arrays) -> EmpiricalResampler:
    matrices, conditions, k = arrays["matrices"], arrays["conditions"], meta["k"]
    if matrices.shape[1:] != MATRIX_SHAPE or conditions.shape != (len(matrices), 2):
        raise FormatError(f"{path}: resampler holds {matrices.shape} matrices and "
                          f"{conditions.shape} conditions, not (N, 8, 25) and (N, 2)")
    if not _count(k):
        raise FormatError(f"{path}: resampler k {k!r} is not a positive integer")
    return EmpiricalResampler(matrices, conditions, k=k)


def read_model_checkpoint(path):
    """Returns ("wgan-gp", NetworkParams) or ("resampler", EmpiricalResampler).

    A header that disagrees with its arrays, or whose networks do not map
    noise and conditions to one 8x25 matrix, is a FormatError.
    """
    meta, arrays = _read_checkpoint(path)
    backend = meta.get("backend")
    if backend not in ("wgan-gp", "resampler"):
        raise FormatError(f"{path}: unknown backend {backend!r}")
    reader = _read_wgan if backend == "wgan-gp" else _read_resampler
    try:
        return backend, reader(path, meta, arrays)
    except (KeyError, TypeError) as exc:  # a field missing or of the wrong JSON type
        raise FormatError(f"{path}: incomplete checkpoint: {exc}") from exc


# -- CSV reports -------------------------------------------------------------------


def write_report_csv(path, name: str, seed, header, rows):
    """rows: iterable of sequences aligned with header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(f"# chanimg-report v{REPORT_VERSION} name={name} seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_training_log(path, log, seed=None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(f"# chanimg-report v{REPORT_VERSION} name=training-log seed={seed}"
                 f" generator_params={log.param_counts.get('generator')}"
                 f" critic_params={log.param_counts.get('critic')}\n")
        writer = csv.writer(fh)
        writer.writerow(log.COLUMNS)
        for row in log.rows():
            writer.writerow(row.values())

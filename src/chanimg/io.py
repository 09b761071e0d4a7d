"""On-disk artifact formats.

Every format carries a major version; readers reject unknown majors.

  - dataset:    JSON Lines, one link per line, '#'-comment header with
                version, units and the generating seed
  - codec:      JSON bundle of virtual-path ranges and scaler parameters
  - images:     binary "CHIM" v2: magic, u32 version/count/rows/cols, float32
                8x25 channel matrices, then one float64 (dist2d, height) pair
                per matrix.  Matrix i of a file derived from a dataset pairs
                with link i % n_links (realizations/samples are stored as
                repeated blocks of the full dataset).
  - checkpoint: binary "WGPC" v3: magic, u32 version, u32 header length, JSON
                header (metadata + named array table), float64 payload
  - reports:    CSV with a '#'-comment identifying the metric, version and
                seed, then a regular header row
"""

import csv
import json
import math
import os
import re
import struct
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import PATH_FIELDS, LinkState, LinkTable, link_rules, padded_paths
from .codec import ChannelImageCodec
from .errors import DataError, FormatError, VersionError
from .genmodel.nn import Mlp
from .genmodel.resampler import EmpiricalResampler
from .genmodel.wgan import NetworkParams

DATASET_VERSION = 1
CODEC_VERSION = 1
IMAGES_VERSION = 2  # v2: 8x25 matrices, not their 64x50 tiled images
CHECKPOINT_VERSION = 3  # v3: the resampler stores 8x25 matrices, not 64x50 images
REPORT_VERSION = 1

IMAGES_MAGIC = b"CHIM"
CHECKPOINT_MAGIC = b"WGPC"


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


def write_table(path, table: LinkTable, seed=None):
    """Write a link table as a JSON Lines dataset, one link per line.

    Numbers are the repr of Python floats, so a file that read_table read
    writes back byte for byte.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    seed_part = f" seed={seed}" if seed is not None else ""
    ends = np.column_stack([table.tx, table.rx, table.carrier_freq]).tolist()
    with path.open("w") as fh:
        fh.write(f"# chanimg-dataset v{DATASET_VERSION}{seed_part}"
                 " units: coords=m freq=Hz pathloss=dB delay=s angles=deg phase=deg\n")
        for e, state, n, rows in zip(ends, table.state, table.counts.tolist(), table.paths):
            paths = ", ".join([_PATH_TEXT % tuple(c) for c in rows[:n].tolist()])
            fh.write(_LINK_TEXT % (*e, state.value, paths))


def read_table(path) -> LinkTable:
    """The LinkTable of a JSON Lines dataset.

    Each line is parsed on its own and appended to flat rows: 7 numbers per
    link (tx, rx, carrier_freq) and 7 per path.  Array masks then apply the
    rules of PathParams and LinkRecord to the rows.  A malformed line, a
    value that is not a JSON number and a broken rule are FormatErrors
    naming the file and line.
    """
    path = Path(path)
    ends, cells, counts, states, line_nos = bytearray(), bytearray(), [], [], []
    with path.open("rb") as fh:
        m = re.match(rb"# chanimg-dataset v(\d+)\b", fh.readline())
        if not m:
            raise FormatError(f"{path}: missing dataset header")
        _require_version("dataset", int(m.group(1)), DATASET_VERSION)
        for line_no, line in enumerate(fh, start=2):
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
    rules = link_rules(paths, counts, state, ends[:, :3], ends[:, 3:6], ends[:, 6])
    bad = np.array([mask for _, mask in rules])  # (rules, links)
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))  # the first bad line, and its first broken rule
        raise FormatError(f"{path}:{line_nos[i]}: bad link record: "
                          f"{rules[int(np.argmax(bad[:, i]))][0]}")
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
    if doc.get("format") != "chanimg-codec":
        raise FormatError(f"{path}: not a codec file")
    _require_version("codec", doc.get("version", -1), CODEC_VERSION)
    try:
        return ChannelImageCodec.from_dict(doc)
    except KeyError as exc:
        raise FormatError(f"{path}: missing codec field {exc}") from exc


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


def read_model_checkpoint(path):
    """Returns ("wgan-gp", NetworkParams) or ("resampler", EmpiricalResampler)."""
    meta, arrays = _read_checkpoint(path)
    backend = meta.get("backend")
    try:
        if backend == "wgan-gp":
            nets = {}
            for name in _NET_NAMES:
                spec = meta["nets"][name]
                params = [arrays[f"{name}.{l}.{wb}"]
                          for l in range(len(spec["sizes"]) - 1) for wb in "Wb"]
                nets[name] = Mlp(spec["sizes"], spec["out_act"], params,
                                 hidden_act=spec.get("hidden_act", "silu"))
            netp = NetworkParams(
                cond_min=arrays["cond_min"], cond_max=arrays["cond_max"],
                noise_dim=meta["noise_dim"], image_shape=tuple(meta["image_shape"]),
                **nets)
            netp.check_finite()
            return backend, netp
        if backend == "resampler":
            return backend, EmpiricalResampler(arrays["matrices"], arrays["conditions"],
                                               k=meta["k"])
    except (KeyError, TypeError) as exc:  # a field missing or of the wrong JSON type
        raise FormatError(f"{path}: incomplete checkpoint: {exc}") from exc
    raise FormatError(f"{path}: unknown backend {backend!r}")


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
        columns = ["step", "critic_loss", "gen_loss", "gp_term", "wasserstein", "gp_norm"]
        writer.writerow(columns)
        for row in log.rows():
            writer.writerow([row[c] for c in columns])

"""Split a binary container file and seal it again with a fresh digest.

The layout is io's: a 44-byte prefix (4-byte magic, u32 version, u32 JSON
header length, SHA-256 of every byte after the prefix), the JSON header,
then the arrays in entry order.  A test that changes a header or an array
reseals the file, so the change reaches the checks behind the digest.
"""

import hashlib
import json
import math
import struct

import numpy as np

PREFIX = struct.Struct("<4sII32s")


def split(raw):
    """(magic, version, header dict, payload bytes) of a container file's bytes."""
    magic, version, n, _ = PREFIX.unpack_from(raw)
    return magic, version, json.loads(raw[PREFIX.size:PREFIX.size + n]), raw[PREFIX.size + n:]


def seal(magic, version, header, payload=b""):
    """Container bytes of header (a dict, or raw bytes) and payload, with their digest."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode()
    digest = hashlib.sha256(head + payload).digest()
    return PREFIX.pack(magic, version, len(head), digest) + head + payload


def arrays(header, payload):
    """(a bytearray copy of payload, {name: writable array viewing it}) of header's entries."""
    buf, out, at = bytearray(payload), {}, 0
    for e in header["entries"]:
        dtype, n = np.dtype(e["dtype"]), math.prod(e["shape"])
        out[e["name"]] = np.frombuffer(buf, dtype, n, at).reshape(e["shape"])
        at += n * dtype.itemsize
    return buf, out

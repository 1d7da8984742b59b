"""Binary checkpoint format for model parameters.

Layout (all integers little-endian):

    bytes 0..7    magic  b"TFTBPAR1"
    u32           length L of the architecture descriptor
    L bytes       descriptor, UTF-8 JSON (see ``Architecture.descriptor``)
    per layer     raw little-endian float64 buffers, weights then bias,
                  in layer order; shapes are implied by the descriptor

The parameter bytes are ``ModelParams.flat`` verbatim, written and read as
one buffer, so the round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..errors import CorruptDataError, ShapeError
from .models import ModelParams, arch_from_descriptor

MAGIC = b"TFTBPAR1"


def save_params(params: ModelParams, path) -> None:
    desc = json.dumps(params.arch.descriptor(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(desc)))
        fh.write(desc)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def load_params(path) -> ModelParams:
    blob = Path(path).read_bytes()
    if blob[:8] != MAGIC:
        raise CorruptDataError(f"{path}: bad magic {blob[:8]!r}, expected {MAGIC!r}")
    if len(blob) < 12:
        raise CorruptDataError(f"{path}: truncated header, {len(blob)} of 12 bytes")
    (desc_len,) = struct.unpack("<I", blob[8:12])
    desc_end = 12 + desc_len
    try:
        desc = json.loads(blob[12:desc_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptDataError(f"{path}: unreadable architecture descriptor: {exc}") from exc
    try:
        arch = arch_from_descriptor(desc)
        layer_shapes = arch.layer_shapes()
    except (AttributeError, KeyError, TypeError, ValueError, ShapeError) as exc:
        raise CorruptDataError(
            f"{path}: invalid architecture descriptor {desc!r}: {exc!r}"
        ) from exc

    n_bytes = 8 * sum(int(np.prod(w)) + int(np.prod(b)) for w, b in layer_shapes)
    data = blob[desc_end:]
    if len(data) < n_bytes:
        raise CorruptDataError(
            f"{path}: truncated parameter data, wanted {n_bytes} bytes "
            f"at offset {desc_end}, got {len(data)}"
        )
    if len(data) > n_bytes:
        raise CorruptDataError(f"{path}: {len(data) - n_bytes} trailing bytes after parameter data")
    return ModelParams(arch, np.frombuffer(data, dtype="<f8").astype(np.float64))

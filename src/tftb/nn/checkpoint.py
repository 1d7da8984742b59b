"""Binary checkpoint format for model parameters.

Layout (all integers little-endian):

    bytes 0..7    magic  b"TFTBPAR1"
    u32           length L of the architecture descriptor
    L bytes       descriptor, UTF-8 JSON (see ``Architecture.descriptor``)
    per layer     raw little-endian float64 buffers, weights then bias,
                  in layer order; shapes are implied by the descriptor

The round trip is bit-exact: float64 buffers are written verbatim.
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
        for w, b in zip(params.weights, params.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


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

    offset = desc_end
    weights, biases = [], []
    for w_shape, b_shape in layer_shapes:
        for shape, dest in ((w_shape, weights), (b_shape, biases)):
            n_bytes = int(np.prod(shape)) * 8
            chunk = blob[offset : offset + n_bytes]
            if len(chunk) != n_bytes:
                raise CorruptDataError(
                    f"{path}: truncated parameter data, wanted {n_bytes} bytes "
                    f"at offset {offset}, got {len(chunk)}"
                )
            dest.append(np.frombuffer(chunk, dtype="<f8").reshape(shape).copy())
            offset += n_bytes
    if offset != len(blob):
        raise CorruptDataError(
            f"{path}: {len(blob) - offset} trailing bytes after parameter data"
        )
    return ModelParams(arch=arch, weights=weights, biases=biases)

"""Binary sampled-function files: 32-byte header then little-endian float64."""

from __future__ import annotations

import os
import struct

import numpy as np

from .core import SampledFunction
from .errors import FileFormatError

MAGIC = b"HLF1"
_HEADER = struct.Struct("<4sII20s")


def write_hlf(path, f: SampledFunction) -> None:
    header = _HEADER.pack(MAGIC, f.dim, f.finest_level, b"\0" * 20)
    data = np.ascontiguousarray(f.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_hlf(path) -> SampledFunction:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise FileFormatError(f"{path}: truncated header")
        magic, dim, level, _ = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if dim not in (1, 2):
            raise FileFormatError(f"{path}: unsupported dimension {dim}")
        # the header is checked against the file size before anything is read,
        # so a corrupt level cannot ask for terabytes
        samples, odd = divmod(os.fstat(fh.fileno()).st_size - _HEADER.size, 8)
        exponent = level * dim
        if samples.bit_length() <= exponent:
            raise FileFormatError(f"{path}: level {level} in dimension {dim} needs "
                                  f"2^{exponent} samples, the file holds {samples}")
        count = 1 << exponent
        if samples != count or odd:
            raise FileFormatError(f"{path}: {8 * (samples - count) + odd} trailing bytes "
                                  f"after {count} samples")
        body = np.frombuffer(fh.read(count * 8), dtype="<f8")
        if body.size != count:  # the file shrank after the size check
            raise FileFormatError(f"{path}: expected {count} samples, got {body.size}")
    return SampledFunction(body.reshape((1 << level,) * dim))

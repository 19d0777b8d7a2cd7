"""Binary model checkpoints.

Layout (little-endian): magic "CFPN", u32 version=1, u32 segment count,
then per segment: u8 name length, name bytes, u32 rank, u32 dims[rank],
float64 payload. Segment order is the canonical ordering from
model.param_segments; loading validates names so a truncated or
reordered file fails loudly.
"""

import re
import struct

import numpy as np

from .errors import FormatError
from .model import ModelParams, map_params, param_segments, params_template
from .signals import atomic_write

CHECKPOINT_MAGIC = b"CFPN"
CHECKPOINT_VERSION = 1


def save_checkpoint(params: ModelParams, path: str):
    chunks = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
    ]
    segments = param_segments(params)
    chunks.append(struct.pack("<I", len(segments)))
    for name, arr in segments:
        encoded = name.encode("ascii")
        chunks.append(struct.pack("<B", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    atomic_write(path, b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.path = path
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.blob):
            raise FormatError(
                f"{self.path}: truncated while reading {what} at offset {self.offset}"
            )
        out = self.blob[self.offset:self.offset + n]
        self.offset += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def read_segments(path: str) -> dict:
    """Parse a checkpoint into an ordered {name: array} dict."""
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = _Reader(blob, path)
    magic = reader.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
    version = reader.u32("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    count = reader.u32("segment count")
    segments = {}
    for index in range(count):
        name_len = reader.take(1, f"segment {index} name length")[0]
        name = reader.take(name_len, f"segment {index} name").decode("ascii")
        rank = reader.u32(f"segment {name!r} rank")
        dims = struct.unpack(f"<{rank}I", reader.take(4 * rank, f"segment {name!r} dims"))
        n_elem = int(np.prod(dims, dtype=np.int64)) if rank else 1
        payload = reader.take(8 * n_elem, f"segment {name!r} payload")
        segments[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    if reader.offset != len(blob):
        raise FormatError(
            f"{path}: {len(blob) - reader.offset} trailing bytes after last segment"
        )
    return segments


def _pop(segments: dict, name: str, path: str) -> np.ndarray:
    if name not in segments:
        raise FormatError(f"{path}: missing checkpoint segment {name!r}")
    return segments.pop(name)


def load_checkpoint(path: str) -> ModelParams:
    segments = read_segments(path)
    branch_ids = sorted(
        {int(m.group(1)) for m in
         (re.match(r"gru(\d+)\.", name) for name in segments) if m}
    )
    if branch_ids != list(range(len(branch_ids))) or not branch_ids:
        raise FormatError(f"{path}: branch segments are not contiguous: {branch_ids}")
    params = map_params(
        lambda name, _: _pop(segments, name, path), params_template(len(branch_ids))
    )
    if segments:
        raise FormatError(
            f"{path}: unexpected extra segments {sorted(segments)}"
        )
    return params


def checkpoint_element_count(path: str) -> int:
    """Total serialized element count, summed straight off the file."""
    return sum(arr.size for arr in read_segments(path).values())

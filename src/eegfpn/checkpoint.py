"""Binary model checkpoints.

Layout (little-endian): magic "CFPN", u32 version=1, u32 segment count,
then per segment: u8 name length, name bytes, u32 rank, u32 dims[rank],
float64 payload. Segment order is the canonical ordering from
model.param_segments. Loading reads the model's sizes off a few segments
and compares every segment's name and shape, in order, with the shapes
those sizes declare, so a truncated or reordered file, a repeated
segment or a segment of the wrong shape fails loudly; so does a NaN or
infinite parameter.
"""

import math
import struct
from itertools import zip_longest

import numpy as np

from .errors import ConfigError, FormatError
from .autoencoder import AeDims
from .model import ModelParams, map_params, param_segments, param_shapes
from .signals import atomic_write, bounded_reader

CHECKPOINT_MAGIC = b"CFPN"
CHECKPOINT_VERSION = 1


def save_checkpoint(params: ModelParams, path: str):
    segments = param_segments(params)
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(segments))]
    for name, arr in segments:
        encoded = name.encode("ascii")
        chunks += [
            struct.pack("<B", len(encoded)), encoded,
            struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape),
            np.ascontiguousarray(arr, dtype="<f8"),
        ]
    atomic_write(path, *chunks)


def read_segments(path: str) -> list:
    """Parse a checkpoint (a regular file) into (name, array) pairs in
    file order, reading each payload straight into its array."""
    with bounded_reader(path) as take:
        def u32(what: str) -> int:
            return struct.unpack("<I", take(4, what))[0]

        magic = take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {bytes(magic)!r} at offset 0")
        version = u32("version")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        segments = []
        for index in range(u32("segment count")):
            name_len = take(1, f"segment {index} name length")[0]
            try:
                name = take(name_len, f"segment {index} name").decode("ascii")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: segment {index} name is not ASCII: {exc}") from None
            rank = u32(f"segment {name!r} rank")
            dims = struct.unpack(f"<{rank}I", take(4 * rank, f"segment {name!r} dims"))

            def payload(_):
                try:
                    return np.empty(dims, dtype="<f8")
                except ValueError as exc:  # numpy's rank limit: 64, or 32 on numpy 1.x
                    raise FormatError(f"{path}: segment {name!r} has rank {rank}: {exc}") from None

            # Exact integers: no header can wrap the size past the check.
            segments.append(
                (name, take(8 * math.prod(dims), f"segment {name!r} payload", payload))
            )
    return segments


def load_checkpoint(path: str) -> ModelParams:
    segments = read_segments(path)
    got = [(name, arr.shape) for name, arr in segments]
    found = dict(got)

    def size(name, axis):
        # None where the segment is missing or of too low a rank; the
        # comparison below then names that segment.
        shape = found.get(name, ())
        return shape[axis] if axis < len(shape) else None

    # k as the file claims it; the comparison rejects any other layout.
    k = sum(name.endswith(".w_z") for name, _ in got)
    if k < 1:
        raise FormatError(f"{path}: no GRU branch segments")
    # The autoencoder widths are checked as they are read, so they must
    # come from matrices.
    for name in ("ae.w1", "ae.w2", "ae.w3"):
        if len(found.get(name, ())) != 2:
            raise FormatError(f"{path}: segment {(name, found.get(name))} is not a matrix")
    try:
        dims = AeDims(
            d=size("ae.w1", 1), e1=size("ae.w1", 0), e2=size("ae.w2", 0), z=size("ae.w3", 0)
        )
        want = param_shapes(
            dims, size("nsdru.conv1_w", 0), size("gru0.w_z", 1), size("gru0.w_z", 0), k
        )
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    for index, (have, expected) in enumerate(zip_longest(got, param_segments(want))):
        if have != expected:
            raise FormatError(
                f"{path}: segment {index} is {have}, expected {expected}"
            )
    for name, arr in segments:
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: segment {name!r} holds a NaN or infinite value")
    arrays = dict(segments)
    return map_params(lambda name, _: arrays[name], want)

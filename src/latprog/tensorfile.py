"""Flat binary tensor storage.

Single-tensor layout, all integers little-endian:

    magic   4 bytes  b"MRXT"
    version u8       1
    dtype   u8       0 = float32 (the only payload dtype)
    ndim    u8
    dims    ndim * u64
    payload prod(dims) * 4 bytes, row-major float32

A named-container variant holds several tensors in one file.  It shares the
magic and version, then a sentinel byte 0xFF where a single tensor would
declare its dtype (so the two kinds cannot be confused), a u32 entry count,
and per entry: u16 name length, UTF-8 name, then dtype/ndim/dims/payload as
above.

A model is stored as a named container plus a JSON metadata file beside it.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    MissingDependencyError,
    TensorFileError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    VersionMismatchError,
)

MAGIC = b"MRXT"
VERSION = 1
DTYPE_FLOAT32 = 0
_CONTAINER_SENTINEL = 0xFF


def _encode_tensor_body(array: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(array, dtype="<f4")
    header = struct.pack("<BB", DTYPE_FLOAT32, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return header + dims + arr.tobytes(order="C")


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedPayloadError(
                f"{self.path}: expected {n} more bytes at offset {self.pos}, "
                f"file has {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def done(self) -> None:
        if self.pos != len(self.data):
            raise TruncatedPayloadError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes"
            )


def _decode_tensor_body(r: _Reader) -> np.ndarray:
    dtype_code, ndim = struct.unpack("<BB", r.take(2))
    if dtype_code != DTYPE_FLOAT32:
        raise UnsupportedDtypeError(
            f"{r.path}: dtype code {dtype_code} not supported (only 0 = float32)"
        )
    dims = struct.unpack(f"<{ndim}Q", r.take(8 * ndim))
    count = 1
    for d in dims:
        count *= d
    payload = r.take(4 * count)
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()


def _check_header(r: _Reader) -> None:
    magic = r.take(4)
    if magic != MAGIC:
        raise BadMagicError(f"{r.path}: bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<B", r.take(1))
    if version != VERSION:
        raise VersionMismatchError(
            f"{r.path}: format version {version}, reader supports {VERSION}"
        )


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write a single tensor; values are stored as little-endian float32."""
    blob = MAGIC + struct.pack("<B", VERSION) + _encode_tensor_body(array)
    Path(path).write_bytes(blob)


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a single-tensor file back as a float32 array."""
    r = _Reader(Path(path).read_bytes(), str(path))
    _check_header(r)
    # Peek at the dtype byte: a container sentinel here means the caller used
    # the wrong reader, which is worth a specific message.
    if r.data[r.pos] == _CONTAINER_SENTINEL:
        raise UnsupportedDtypeError(
            f"{path}: this is a named-tensor container; use read_tensors()"
        )
    arr = _decode_tensor_body(r)
    r.done()
    return arr


def write_tensors(path: str | Path, named: dict[str, np.ndarray]) -> None:
    """Write a named-tensor container.  Entry order follows dict order."""
    parts = [
        MAGIC,
        struct.pack("<BB", VERSION, _CONTAINER_SENTINEL),
        struct.pack("<I", len(named)),
    ]
    for name, array in named.items():
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(_encode_tensor_body(array))
    Path(path).write_bytes(b"".join(parts))


def read_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a named-tensor container written by :func:`write_tensors`."""
    r = _Reader(Path(path).read_bytes(), str(path))
    _check_header(r)
    (sentinel,) = struct.unpack("<B", r.take(1))
    if sentinel != _CONTAINER_SENTINEL:
        raise UnsupportedDtypeError(
            f"{path}: not a named-tensor container (single tensor? use read_tensor())"
        )
    (count,) = struct.unpack("<I", r.take(4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", r.take(2))
        name = r.take(name_len).decode("utf-8")
        if name in out:
            raise TensorFileError(f"{path}: duplicate tensor name {name!r}")
        out[name] = _decode_tensor_body(r)
    r.done()
    return out


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def save_with_meta(tensor_path, meta_path, named: dict[str, np.ndarray], meta: dict) -> None:
    """Write a named-tensor container and its JSON metadata."""
    write_tensors(tensor_path, named)
    Path(meta_path).write_text(canonical_json(meta))


def load_with_meta(tensor_path, meta_path, config_type, stage: str):
    """Read a pair written by :func:`save_with_meta`; tensors come back as float64.

    Returns the tensors, the metadata and its ``config`` rebuilt as a
    ``config_type``.  A config key that ``config_type`` lacks, or one it has
    that the metadata lacks, means another version of the package wrote the
    pair: MissingDependencyError names ``stage``, the stage that writes it,
    to re-run.  A missing key is not filled with today's default, which may
    not be the value the model was trained with.
    """
    meta = json.loads(Path(meta_path).read_text())
    stored = set(meta["config"])
    expected = {f.name for f in dataclasses.fields(config_type)}
    for kind, keys in (("unknown", stored - expected), ("missing", expected - stored)):
        if keys:
            raise MissingDependencyError(
                stage, f"{meta_path} is stale: {kind} config key {', '.join(map(repr, sorted(keys)))}"
            )
    named = {k: v.astype(np.float64) for k, v in read_tensors(tensor_path).items()}
    return named, meta, config_type(**meta["config"])

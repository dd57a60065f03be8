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

Both kinds are streamed entry by entry through the open file, so reading or
writing a container holds its tensors but never a second copy of its bytes;
a container read can take some of its entries by name and seek past the rest,
and :func:`iter_tensors` hands them over one at a time.
A write goes to a temporary file beside the target and replaces it only when
complete: an interrupted write leaves the previous file as it was.  JSON
files (:func:`write_json`) and the CSVs of ``evaluation.write_csv`` are
written the same way.

A model is stored as a named container plus a JSON metadata file beside it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from contextlib import contextmanager
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


@contextmanager
def replacing(path: str | Path, mode: str = "wb", newline: str | None = None):
    """An open file that replaces path when the block completes.

    If the block raises, path is left as it was and the partial file removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_tensor_body(fh, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array, dtype="<f4")
    fh.write(struct.pack(f"<BB{arr.ndim}Q", DTYPE_FLOAT32, arr.ndim, *arr.shape))
    fh.write(arr.data)


class _Reader:
    def __init__(self, fh, path: str):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.path = path

    def _check(self, n: int) -> None:
        pos = self.fh.tell()
        if pos + n > self.size:
            raise TruncatedPayloadError(
                f"{self.path}: expected {n} more bytes at offset {pos}, "
                f"file has {self.size - pos}"
            )

    def take(self, n: int) -> bytearray:
        self._check(n)
        buf = bytearray(n)
        self.fh.readinto(buf)
        return buf

    def skip(self, n: int) -> None:
        self._check(n)
        self.fh.seek(n, os.SEEK_CUR)

    def done(self) -> None:
        trailing = self.size - self.fh.tell()
        if trailing:
            raise TruncatedPayloadError(f"{self.path}: {trailing} trailing bytes")


def _read_tensor_body(r: _Reader, dtype_code: int, keep: bool = True) -> np.ndarray | None:
    """The entry's tensor; unless ``keep``, its payload is bounds-checked and
    seeked past, and None is returned."""
    if dtype_code != DTYPE_FLOAT32:
        raise UnsupportedDtypeError(
            f"{r.path}: dtype code {dtype_code} not supported (only 0 = float32)"
        )
    (ndim,) = r.take(1)
    dims = struct.unpack(f"<{ndim}Q", r.take(8 * ndim))
    nbytes = 4 * math.prod(dims)
    if not keep:
        r.skip(nbytes)
        return None
    # The array is a view of the bytes read for it: no second copy.
    return np.frombuffer(r.take(nbytes), dtype="<f4").reshape(dims)


def _read_header(r: _Reader) -> int:
    """Check magic and version; return the next byte, a dtype or the container sentinel."""
    magic = bytes(r.take(4))
    if magic != MAGIC:
        raise BadMagicError(f"{r.path}: bad magic {magic!r}, expected {MAGIC!r}")
    version, kind = r.take(2)
    if version != VERSION:
        raise VersionMismatchError(
            f"{r.path}: format version {version}, reader supports {VERSION}"
        )
    return kind


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write a single tensor; values are stored as little-endian float32."""
    with replacing(path) as fh:
        fh.write(MAGIC + struct.pack("<B", VERSION))
        _write_tensor_body(fh, array)


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a single-tensor file back as a float32 array."""
    with open(path, "rb") as fh:
        r = _Reader(fh, str(path))
        kind = _read_header(r)
        # A container sentinel here means the caller used the wrong reader,
        # which is worth a specific message.
        if kind == _CONTAINER_SENTINEL:
            raise UnsupportedDtypeError(
                f"{path}: this is a named-tensor container; use read_tensors()"
            )
        arr = _read_tensor_body(r, kind)
        r.done()
    return arr


def write_tensors(path: str | Path, named: dict[str, np.ndarray]) -> None:
    """Write a named-tensor container.  Entry order follows dict order."""
    with replacing(path) as fh:
        fh.write(MAGIC + struct.pack("<BBI", VERSION, _CONTAINER_SENTINEL, len(named)))
        for name, array in named.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)) + encoded)
            _write_tensor_body(fh, array)


def iter_tensors(path: str | Path, keys=None):
    """The entries of a named-tensor container written by :func:`write_tensors`,
    read one at a time: ``(name, tensor)`` pairs in file order.

    Each tensor is read when its pair is drawn, so a caller that drops it
    before drawing the next holds one entry at a time.  With ``keys``, only
    the entries so named are yielded; the payloads of the others are seeked
    past.  Every entry's header is still read and checked, so a duplicate
    name, a payload cut short anywhere or trailing bytes raise as in a full
    read: when the pass reaches them, after the entries before them have
    been yielded.  A key the container lacks is never yielded: the caller
    decides what that means.
    """
    wanted = None if keys is None else set(keys)
    seen: set[str] = set()
    with open(path, "rb") as fh:
        r = _Reader(fh, str(path))
        if _read_header(r) != _CONTAINER_SENTINEL:
            raise UnsupportedDtypeError(
                f"{path}: not a named-tensor container (single tensor? use read_tensor())"
            )
        (count,) = struct.unpack("<I", r.take(4))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", r.take(2))
            name = r.take(name_len).decode("utf-8")
            if name in seen:
                raise TensorFileError(f"{path}: duplicate tensor name {name!r}")
            seen.add(name)
            (dtype_code,) = r.take(1)
            tensor = _read_tensor_body(r, dtype_code, keep=wanted is None or name in wanted)
            if tensor is not None:
                yield name, tensor
        r.done()


def read_tensors(path: str | Path, keys=None) -> dict[str, np.ndarray]:
    """Every entry of a named-tensor container, or with ``keys`` only those
    so named, by name in file order: :func:`iter_tensors` run to its end, so
    the same checks raise.
    """
    return dict(iter_tensors(path, keys))


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def write_json(path: str | Path, obj) -> None:
    """Write obj as canonical JSON; path is replaced only when complete."""
    with replacing(path) as fh:
        fh.write(canonical_json(obj).encode())


def save_with_meta(tensor_path, meta_path, named: dict[str, np.ndarray], meta: dict) -> None:
    """Write a named-tensor container and its JSON metadata."""
    write_tensors(tensor_path, named)
    write_json(meta_path, meta)


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

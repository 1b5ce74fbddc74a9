"""Binary files: one bounds-checked reader, SLTN1 tensor blobs and SLRK1
model checkpoints (the SLIX1 index in ``lexical`` uses the same reader).

SLTN1: magic b"SLTN1", ndim and dims as u64, then the values as doubles.
SLRK1: magic b"SLRK1", a kind byte, a u64-length-prefixed JSON metadata
object, a u64 tensor count, then each tensor in declaration order as a
u64-length-prefixed SLTN1 blob.  Everything is little-endian and
deterministic, so identical models serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

__all__ = ["KIND", "Reader", "write_bundle", "read_bundle", "bundle_bytes", "bundle_from_bytes", "load_bundle"]

_U32 = struct.Struct("<I").unpack_from
_U64 = struct.Struct("<Q").unpack_from


class Reader:
    """Bounds-checked little-endian reads over one buffer; ``pos`` is the
    next unread offset.  Every failure is a ValueError naming the path (if
    any), the format and the absolute offset.  A read that succeeds formats
    no string, and ``u32``, the hottest one, is a single Python call."""

    __slots__ = ("buf", "fmt", "path", "pos")

    def __init__(self, buf: bytes, fmt: str, path=None):
        self.buf, self.fmt, self.path, self.pos = buf, fmt, path, 0

    def error(self, what: str, at: int) -> ValueError:
        where = "" if self.path is None else f"{self.path}: "
        return ValueError(f"{where}corrupt {self.fmt} at offset {at}: {what}")

    def take(self, n: int) -> int:
        """Advance over n bytes and return the offset where they start."""
        at = self.pos
        if n > len(self.buf) - at:  # a product of u64 dims may be too long to print
            raise self.error(f"{n if n < 1 << 64 else 'over 2**64'} bytes needed, {len(self.buf) - at} left", at)
        self.pos = at + n
        return at

    def magic(self, magic: bytes) -> None:
        if self.buf[self.pos : self.pos + len(magic)] != magic:
            raise self.error(f"bad magic, expected {magic!r}", self.pos)
        self.pos += len(magic)

    def u8(self) -> int:
        return self.buf[self.take(1)]

    def u32(self) -> int:
        at = self.pos
        if len(self.buf) - at < 4:
            raise self.error(f"4 bytes needed, {len(self.buf) - at} left", at)
        self.pos = at + 4
        return _U32(self.buf, at)[0]

    def u64(self) -> int:
        return _U64(self.buf, self.take(8))[0]

    def string(self) -> str:
        """A u32 byte count, then that many bytes of UTF-8."""
        at = self.take(self.u32())
        try:
            return self.buf[at : self.pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"invalid UTF-8 ({exc.reason})", at + exc.start) from None

    def end(self) -> None:
        """Reject bytes left after the last field."""
        at, left = self.pos, len(self.buf) - self.pos
        if left:
            what = f"{left} trailing bytes after the {self.fmt} at offset {at} (trailing bytes at offset {at})"
            raise self.error(what, at)


# ---------------------------------------------------------------------------
# SLTN1


def tensor_to_bytes(t: Tensor) -> bytes:
    dims = t.data.shape
    return b"SLTN1" + struct.pack(f"<{len(dims) + 1}Q", len(dims), *dims) + t.data.astype("<f8").tobytes()


def _read_tensor(r: Reader) -> Tensor:
    r.magic(b"SLTN1")
    ndim = r.u64()
    dims_at = r.take(8 * ndim)
    dims = tuple(np.frombuffer(r.buf, "<u8", ndim, dims_at).tolist())
    values = np.frombuffer(r.buf, "<f8", math.prod(dims), r.take(8 * math.prod(dims)))
    try:
        return Tensor(values.reshape(dims).copy())
    except ValueError as exc:
        raise r.error(f"dims {dims} make no array ({exc})", dims_at) from None


def tensor_from_bytes(buf: bytes, path=None) -> Tensor:
    """Decode one SLTN1 blob; it must end exactly where its dims say."""
    r = Reader(buf, "SLTN1 tensor", path)
    t = _read_tensor(r)
    r.end()
    return t


# ---------------------------------------------------------------------------
# SLRK1

KIND = {
    "attentive_cnn": 0,
    "paraformer_lite": 1,
    "lawfulness": 2,
    "hydra_heads": 3,
    "layer_stack": 4,
    "tre_model": 5,
}
_KIND_NAMES = {v: k for k, v in KIND.items()}


def bundle_bytes(kind: str, meta: dict, tensors: list[Tensor]) -> bytes:
    raw_meta = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [b"SLRK1", bytes([KIND[kind]]), struct.pack("<Q", len(raw_meta)), raw_meta]
    parts.append(struct.pack("<Q", len(tensors)))
    for t in tensors:
        blob = tensor_to_bytes(t)
        parts += (struct.pack("<Q", len(blob)), blob)
    return b"".join(parts)


def bundle_from_bytes(buf: bytes, path=None) -> tuple[str, dict, list[Tensor]]:
    """Decode a checkpoint.  Besides every framing fault, an unknown kind
    byte, metadata that is not a JSON object, a length prefix that is not
    its blob's length and a non-finite tensor value raise ValueError."""
    r = Reader(buf, "SLRK1 checkpoint", path)
    r.magic(b"SLRK1")
    kind = _KIND_NAMES.get(r.u8())
    if kind is None:
        raise r.error(f"unknown kind byte {buf[r.pos - 1]}", r.pos - 1)
    at = r.take(r.u64())
    try:
        meta = json.loads(buf[at : r.pos].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise r.error(f"metadata is not JSON ({exc})", at) from None
    if not isinstance(meta, dict):
        raise r.error(f"metadata is a JSON {type(meta).__name__}, not an object", at)
    tensors = []
    for i in range(r.u64()):
        n = r.u64()
        at = r.pos
        t = _read_tensor(r)
        if r.pos != at + n:
            raise r.error(f"tensor {i} is {r.pos - at} bytes, its length prefix says {n}", at - 8)
        bad = np.flatnonzero(~np.isfinite(t.data))
        if bad.size:
            raise r.error(f"tensor {i} holds a non-finite value", r.pos - 8 * (t.data.size - int(bad[0])))
        tensors.append(t)
    r.end()
    return kind, meta, tensors


def write_bundle(path, kind: str, meta: dict, tensors: list[Tensor]) -> None:
    Path(path).write_bytes(bundle_bytes(kind, meta, tensors))


def read_bundle(path) -> tuple[str, dict, list[Tensor]]:
    return bundle_from_bytes(Path(path).read_bytes(), path)


def load_bundle(path, kinds: tuple[str, ...], build):
    """Read a checkpoint of one of `kinds` into a freshly built model.

    build(kind, meta, shapes) gets the stored tensor shapes and returns
    (model, tensors): an untrained model and its tensors in checkpoint
    order.  The file must hold exactly those tensors, shape for shape, and
    metadata build accepts; any mismatch raises ValueError naming the file.
    """
    kind, meta, stored = read_bundle(path)
    if kind not in kinds:
        raise ValueError(f"{path}: checkpoint holds a {kind}, not a {' or '.join(kinds)}")
    shapes = [t.data.shape for t in stored]
    try:
        model, tensors = build(kind, meta, shapes)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: {kind} checkpoint does not fit its model: {exc!r}") from None
    if len(tensors) != len(stored):
        raise ValueError(f"{path}: {kind} checkpoint holds {len(stored)} tensors, expected {len(tensors)}")
    for i, (dst, src) in enumerate(zip(tensors, stored)):
        if dst.data.shape != shapes[i]:
            raise ValueError(f"{path}: {kind} checkpoint tensor {i} has shape {shapes[i]}, expected {dst.data.shape}")
        dst.data[...] = src.data
    return model

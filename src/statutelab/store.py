"""Binary model checkpoints.

Layout: magic b"SLRK1", one kind byte, a length-prefixed JSON metadata block
(vocab, dimensions, training config), then the model tensors in declaration
order, each as a length-prefixed tensor blob.  Everything is little-endian
and deterministic, so identical models serialize to identical bytes.
"""

from __future__ import annotations

import json
import struct

from .tensor import Tensor, tensor_from_bytes, tensor_to_bytes

__all__ = [
    "KIND", "write_bundle", "read_bundle", "bundle_bytes", "bundle_from_bytes", "load_bundle",
]

_MAGIC = b"SLRK1"

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
    parts = [_MAGIC, bytes([KIND[kind]]), struct.pack("<Q", len(raw_meta)), raw_meta]
    parts.append(struct.pack("<Q", len(tensors)))
    for t in tensors:
        blob = tensor_to_bytes(t)
        parts.append(struct.pack("<Q", len(blob)))
        parts.append(blob)
    return b"".join(parts)


def _take(buf: bytes, pos: int, n: int) -> bytes:
    if n > len(buf) - pos:
        raise ValueError(f"checkpoint truncated at offset {pos}: needs {n} bytes, {len(buf) - pos} left")
    return buf[pos : pos + n]


def bundle_from_bytes(buf: bytes) -> tuple[str, dict, list[Tensor]]:
    """Decode a checkpoint; every length prefix is checked against the
    buffer, and a truncated buffer or trailing bytes raise ValueError naming
    the offset."""
    if buf[:5] != _MAGIC:
        raise ValueError("bad checkpoint magic")
    (kind_byte,) = _take(buf, 5, 1)
    kind = _KIND_NAMES.get(kind_byte)
    if kind is None:
        raise ValueError(f"unknown checkpoint kind byte {kind_byte}")
    pos = 6
    (meta_len,) = struct.unpack("<Q", _take(buf, pos, 8))
    pos += 8
    meta = json.loads(_take(buf, pos, meta_len).decode("utf-8"))
    pos += meta_len
    (n_tensors,) = struct.unpack("<Q", _take(buf, pos, 8))
    pos += 8
    tensors = []
    for i in range(n_tensors):
        (blob_len,) = struct.unpack("<Q", _take(buf, pos, 8))
        pos += 8
        blob = _take(buf, pos, blob_len)
        try:
            tensors.append(tensor_from_bytes(blob))
        except ValueError as exc:
            raise ValueError(f"checkpoint tensor {i} at offset {pos}: {exc}") from None
        pos += blob_len
    if pos != len(buf):
        raise ValueError(f"checkpoint has {len(buf) - pos} trailing bytes at offset {pos}")
    return kind, meta, tensors


def write_bundle(path, kind: str, meta: dict, tensors: list[Tensor]) -> None:
    with open(path, "wb") as fh:
        fh.write(bundle_bytes(kind, meta, tensors))


def read_bundle(path) -> tuple[str, dict, list[Tensor]]:
    with open(path, "rb") as fh:
        return bundle_from_bytes(fh.read())


def load_bundle(path, kinds: tuple[str, ...], build):
    """Read a checkpoint of one of `kinds` into a freshly built model.

    build(kind, meta, shapes) gets the stored tensor shapes and returns
    (model, tensors): an untrained model and its tensors in checkpoint
    order.  The file must hold exactly those tensors, shape for shape;
    any mismatch raises ValueError.
    """
    kind, meta, stored = read_bundle(path)
    if kind not in kinds:
        raise ValueError(f"checkpoint holds a {kind}, not a {' or '.join(kinds)}")
    shapes = [t.data.shape for t in stored]
    try:
        model, tensors = build(kind, meta, shapes)
    except IndexError as exc:
        raise ValueError(f"{kind} checkpoint is missing tensors or dimensions: {exc}") from exc
    if len(tensors) != len(stored):
        raise ValueError(f"{kind} checkpoint holds {len(stored)} tensors, expected {len(tensors)}")
    for i, (dst, src) in enumerate(zip(tensors, stored)):
        if dst.data.shape != src.data.shape:
            raise ValueError(
                f"{kind} checkpoint tensor {i} has shape {src.data.shape}, expected {dst.data.shape}"
            )
        dst.data[...] = src.data
    return model

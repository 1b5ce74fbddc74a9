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


def bundle_from_bytes(buf: bytes) -> tuple[str, dict, list[Tensor]]:
    if buf[:5] != _MAGIC:
        raise ValueError("bad checkpoint magic")
    kind = _KIND_NAMES.get(buf[5])
    if kind is None:
        raise ValueError(f"unknown checkpoint kind byte {buf[5]}")
    pos = 6
    (meta_len,) = struct.unpack_from("<Q", buf, pos)
    pos += 8
    meta = json.loads(buf[pos : pos + meta_len].decode("utf-8"))
    pos += meta_len
    (n_tensors,) = struct.unpack_from("<Q", buf, pos)
    pos += 8
    tensors = []
    for _ in range(n_tensors):
        (blob_len,) = struct.unpack_from("<Q", buf, pos)
        pos += 8
        tensors.append(tensor_from_bytes(buf[pos : pos + blob_len]))
        pos += blob_len
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

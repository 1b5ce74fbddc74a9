import re
import struct

import numpy as np
import pytest

from statutelab.store import (
    bundle_bytes,
    bundle_from_bytes,
    read_bundle,
    tensor_from_bytes,
    tensor_to_bytes,
    write_bundle,
)
from statutelab.tensor import Tensor


def test_bundle_roundtrip(tmp_path):
    tensors = [Tensor(np.arange(6.0).reshape(2, 3)), Tensor(np.asarray(4.2))]
    meta = {"vocab": ["a", "b"], "n": 2}
    blob = bundle_bytes("layer_stack", meta, tensors)
    assert blob[:5] == b"SLRK1"
    kind, meta2, back = bundle_from_bytes(blob)
    assert kind == "layer_stack" and meta2 == meta
    assert np.array_equal(back[0].data, tensors[0].data)
    assert float(back[1].data) == 4.2
    path = tmp_path / "m.slrk"
    write_bundle(path, "hydra_heads", {}, tensors)
    kind, _, _ = read_bundle(path)
    assert kind == "hydra_heads"


def test_bundle_deterministic_bytes():
    tensors = [Tensor(np.ones((2, 2)))]
    a = bundle_bytes("tre_model", {"x": 1, "a": 2}, tensors)
    b = bundle_bytes("tre_model", {"a": 2, "x": 1}, tensors)
    assert a == b  # metadata keys are sorted


def test_bundle_rejects_garbage():
    with pytest.raises(ValueError):
        bundle_from_bytes(b"NOPE!" + b"\x00" * 16)


def _small_bundle():
    tensors = [Tensor(np.arange(6.0).reshape(2, 3)), Tensor(np.asarray(4.2)), Tensor(np.ones(2))]
    return bundle_bytes("layer_stack", {"vocab": ["a", "b"]}, tensors)


def test_bundle_rejects_every_truncation():
    blob = _small_bundle()
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            bundle_from_bytes(blob[:cut])


def test_bundle_rejects_a_trailing_byte():
    blob = _small_bundle()
    with pytest.raises(ValueError, match=f"trailing bytes at offset {len(blob)}"):
        bundle_from_bytes(blob + b"\x00")


def test_tensor_blob_rejects_every_truncation_and_a_trailing_byte():
    for data in (np.arange(6.0).reshape(2, 3), np.asarray(4.2), np.zeros((0, 2))):
        blob = tensor_to_bytes(Tensor(data))
        assert np.array_equal(tensor_from_bytes(blob).data, data)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                tensor_from_bytes(blob[:cut])
        with pytest.raises(ValueError, match="trailing"):
            tensor_from_bytes(blob + b"\x00")


def test_every_decode_error_names_path_format_and_absolute_offset(tmp_path):
    blob = _small_bundle()  # its last tensor's 16 value bytes end the file
    path = tmp_path / "cut.slrk"
    path.write_bytes(blob[:-3])
    want = f"{path}: corrupt SLRK1 checkpoint at offset {len(blob) - 16}: 16 bytes needed, 13 left"
    with pytest.raises(ValueError, match=re.escape(want)):
        read_bundle(path)
    path = tmp_path / "cut.sltn"
    path.write_bytes(tensor_to_bytes(Tensor(np.ones(2)))[:-3])
    with pytest.raises(ValueError, match=re.escape(f"{path}: corrupt SLTN1 tensor at offset 21: 16 bytes needed")):
        tensor_from_bytes(path.read_bytes(), path)


def test_bundle_length_prefix_must_match_its_blob():
    blob = bytearray(_small_bundle())
    first = blob.index(b"SLTN1") - 8
    blob[first] += 1
    with pytest.raises(ValueError, match=f"at offset {first}: tensor 0 is 77 bytes, its length prefix says 78"):
        bundle_from_bytes(bytes(blob))


def test_tensor_blob_with_astronomical_dims_is_rejected_at_an_offset():
    blob = b"SLTN1" + struct.pack("<Q", 300) + b"\xff" * 8 * 300
    with pytest.raises(ValueError, match=f"corrupt SLTN1 tensor at offset {len(blob)}: over 2\\*\\*64 bytes needed"):
        tensor_from_bytes(blob)

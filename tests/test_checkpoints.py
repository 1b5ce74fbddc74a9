"""Every SLRK1 kind: loaders reject a tensor count or shape mismatch, and
the experiment blobs are exactly what the save functions write."""

import json
import re

import numpy as np
import pytest

from statutelab import inject, rankers
from statutelab.cli import cli_dispatch
from statutelab.encoders import init_self_attention_layer
from statutelab.experiments import hydra_experiment, tre_experiment
from statutelab.store import read_bundle, write_bundle
from statutelab.tensor import Tensor

VOCAB = ["act", "gift", "law", "lien", "writing"]


def _ranker(kind):
    if kind == "attentive_cnn":
        return rankers.build_attentive_cnn(VOCAB, embed_dim=6, filters=6, attn_dim=4, seed=1)
    return rankers.build_paraformer_lite(VOCAB, embed_dim=8, n_layers=2, n_heads=2, seed=1)


def _layer_stack():
    rng = np.random.default_rng(1)
    return [init_self_attention_layer(8, 2, rng) for _ in range(2)]


# kind -> (build a small model, save it, load it)
KINDS = {
    "attentive_cnn": (lambda: _ranker("attentive_cnn"), rankers.save_model, rankers.load_model),
    "paraformer_lite": (lambda: _ranker("paraformer_lite"), rankers.save_model, rankers.load_model),
    "lawfulness": (
        lambda: rankers.build_lawfulness_classifier(VOCAB, embed_dim=6, filters=6, attn_dim=4, seed=1),
        rankers.save_classifier,
        rankers.load_classifier,
    ),
    "hydra_heads": (
        lambda: inject.init_hydra_heads(8, 2, seed=1), inject.save_hydra_heads, inject.load_hydra_heads,
    ),
    "layer_stack": (_layer_stack, inject.save_layer_stack, inject.load_layer_stack),
    "tre_model": (
        lambda: inject.build_tre_model(VOCAB, d=8, n_layers=2, n_heads=2, seed=1, max_len=6),
        inject.save_tre_model,
        inject.load_tre_model,
    ),
}


def _grown(shape):
    return shape[:-1] + (shape[-1] + 1,) if shape else (1,)


def _tamper(tensors, how, where):
    i = 0 if where == "first" else len(tensors) - 1
    if how == "drop":
        return tensors[:i] + tensors[i + 1 :]
    out = list(tensors)
    out[i] = Tensor(np.zeros(_grown(tensors[i].data.shape)))
    return out


def _tampered_file(tmp_path, kind, how, where):
    build, save, _ = KINDS[kind]
    path = tmp_path / f"{kind}.slrk"
    save(build(), path)
    stored_kind, meta, tensors = read_bundle(path)
    assert stored_kind == kind
    bad = tmp_path / f"{kind}-{how}-{where}.slrk"
    write_bundle(bad, kind, meta, _tamper(tensors, how, where))
    return bad


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_untampered_checkpoint_roundtrips(tmp_path, kind):
    build, save, load = KINDS[kind]
    path = tmp_path / "a.slrk"
    save(build(), path)
    save(load(path), tmp_path / "b.slrk")
    assert (tmp_path / "b.slrk").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("how", ["drop", "reshape"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_loader_rejects_tensor_count_or_shape_mismatch(tmp_path, kind, how, where):
    bad = _tampered_file(tmp_path, kind, how, where)
    with pytest.raises(ValueError):
        KINDS[kind][2](bad)


def test_loader_rejects_wrong_kind(tmp_path):
    path = tmp_path / "heads.slrk"
    inject.save_hydra_heads(inject.init_hydra_heads(8, 2, seed=1), path)
    with pytest.raises(ValueError, match="holds a hydra_heads"):
        rankers.load_classifier(path)


@pytest.mark.parametrize("key, value", [
    ("epochs", 0), ("n_train", 0), ("n_predict", 0), ("eval_k", 0), ("k_negatives", -1),
])
def test_ranker_loader_rejects_a_stored_config_out_of_range_naming_the_file(tmp_path, key, value):
    # a bit flip turns a stored "eval_k":1 into "eval_k":0
    path = tmp_path / "ranker.slrk"
    rankers.save_model(_ranker("attentive_cnn"), path)
    kind, meta, tensors = read_bundle(path)
    meta["config"][key] = value
    write_bundle(path, kind, meta, tensors)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*stored config out of range"):
        rankers.load_model(path)


@pytest.mark.parametrize("how", ["drop", "reshape"])
def test_classify_run_on_mismatched_checkpoint_exits_1(tmp_path, capsys, how):
    bad = _tampered_file(tmp_path, "lawfulness", how, "last")
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps({"text": "the gift act"}) + "\n", encoding="utf-8")
    code = cli_dispatch(["classify", "run", "--model", str(bad), "--data", str(data)])
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["cut 100", "cut inside data", "append 7"])
def test_classify_run_on_truncated_or_padded_checkpoint_exits_1(tmp_path, capsys, edit):
    build, save, _ = KINDS["lawfulness"]
    path = tmp_path / "clf.slrk"
    save(build(), path)
    blob = path.read_bytes()
    path.write_bytes({"cut 100": blob[:-100], "cut inside data": blob[:-3], "append 7": blob + b"\x00" * 7}[edit])
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps({"text": "the gift act"}) + "\n", encoding="utf-8")
    code = cli_dispatch(["classify", "run", "--model", str(path), "--data", str(data)])
    assert code == 1
    assert "offset" in capsys.readouterr().err


def test_hydra_experiment_blob_is_the_saved_checkpoint(tmp_path):
    _, blob = hydra_experiment(3, steps=5)
    path = tmp_path / "heads.slrk"
    path.write_bytes(blob)
    heads = inject.load_hydra_heads(path)
    inject.save_hydra_heads(heads, tmp_path / "again.slrk")
    assert (tmp_path / "again.slrk").read_bytes() == blob


def test_tre_experiment_blob_is_the_saved_checkpoint(tmp_path):
    _, blob = tre_experiment(3, [2, 3, 4], n_train=6, n_val=2, epochs=1)
    path = tmp_path / "tre.slrk"
    path.write_bytes(blob)
    model = inject.load_tre_model(path)
    inject.save_tre_model(model, tmp_path / "again.slrk")
    assert (tmp_path / "again.slrk").read_bytes() == blob
    _, meta, _ = read_bundle(path)
    assert "positions" not in meta

"""Every tape node holds one VJP closure: called with a gradient of the
node's shape, it returns one entry per parent, in parent order, each a
gradient of that parent's shape, also for a parent that needs none."""

import numpy as np
import pytest

from statutelab import tensor as T
from statutelab.encoders import (
    encode_on_tape,
    init_cnn_encoder,
    init_self_attention_layer,
    random_embeddings,
    SelfAttentionEncoder,
)
from statutelab.inject import TAGSET, tre_needle_loss
from statutelab.tensor import Tensor

# the names of tensor.__all__ that build no tape node
NOT_OPS = {
    "Tensor", "RowGrad", "tensor", "sparsemax_values", "additive_attention_values",
    "multihead_self_attention_values", "dropout_mask", "backward", "sgd_step", "diverging_raises",
    "train_step", "grad_check",
}


def _leaf(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


def _layer(d=4, heads=2):
    return init_self_attention_layer(d, heads, np.random.default_rng(1))


# op name -> builders of its nodes, one per branch
OPS = {
    "add": [lambda: T.add(_leaf(3, 2), _leaf(3, 2, seed=1)), lambda: T.add(_leaf(3, 2), _leaf(2, seed=1))],
    "sub": [lambda: T.sub(_leaf(3, 2), _leaf(3, 2, seed=1))],
    "mul": [lambda: T.mul(_leaf(3, 2), _leaf(3, 2, seed=1))],
    "scale": [lambda: T.scale(_leaf(3, 2), 0.5)],
    "matmul": [lambda: T.matmul(_leaf(3, 2), _leaf(2, 4, seed=1))],
    "matvec": [lambda: T.matvec(_leaf(3, 2), _leaf(2, seed=1))],
    "vecmat": [lambda: T.vecmat(_leaf(3), _leaf(3, 2, seed=1))],
    "transpose": [lambda: T.transpose(_leaf(3, 2))],
    "dot": [lambda: T.dot(_leaf(3), _leaf(3, seed=1))],
    "tanh": [lambda: T.tanh(_leaf(3, 2))],
    "softplus": [lambda: T.softplus(_leaf(3, 2))],
    "tsum": [lambda: T.tsum(_leaf(3, 2))],
    "tmean": [lambda: T.tmean(_leaf(3, 2))],
    "stack": [lambda: T.stack([_leaf(seed=i) for i in range(3)])],
    "stack_rows": [lambda: T.stack_rows([_leaf(2, seed=i) for i in range(3)])],
    "concat_cols": [lambda: T.concat_cols([_leaf(3, 1), _leaf(3, 2, seed=1), _leaf(3, 4, seed=2)])],
    "slice_cols": [lambda: T.slice_cols(_leaf(3, 4), 1, 3)],
    "gather_rows": [lambda: T.gather_rows(_leaf(4, 2), [2, 0, 2]), lambda: T.gather_rows(T.tanh(_leaf(4, 2)), [1, 1])],
    "take_rows": [lambda: T.take_rows(_leaf(4, 2), 1), lambda: T.take_rows(_leaf(4, 2), slice(1, 3))],
    "softmax": [lambda: T.softmax(_leaf(4))],
    "softmax_rows": [lambda: T.softmax_rows(_leaf(3, 4))],
    "sparsemax": [lambda: T.sparsemax(_leaf(4))],
    "conv1d": [lambda: T.conv1d(_leaf(5, 2), _leaf(3, 2, 4, seed=1))],
    "conv_tanh": [
        lambda: T.conv_tanh(_leaf(5, 2), _leaf(3, 2, 4, seed=1)),
        lambda: T.conv_tanh(Tensor(np.ones((5, 2))), _leaf(3, 2, 4, seed=1)),
    ],
    "additive_attention": [
        lambda: T.additive_attention(_leaf(4, 3), _leaf(2, 3, seed=1), _leaf(2, seed=2), _leaf(2, seed=3))[0]
    ],
    "multihead_self_attention": [
        lambda: T.multihead_self_attention(_leaf(3, 4), _layer())[0],
        lambda: T.multihead_self_attention(Tensor(np.ones((3, 4))), _layer())[0],
    ],
    "avg_pool": [lambda: T.avg_pool(_leaf(3, 2))],
    "ce_negsample": [lambda: T.ce_negsample(_leaf(), _leaf(3, seed=1)), lambda: T.ce_negsample(_leaf(), [_leaf(seed=1)])],
    "mse_matrix": [lambda: T.mse_matrix(_leaf(3, 2), _leaf(3, 2, seed=1))],
    "softargmax": [lambda: T.softargmax(_leaf(4), beta=2.0)],
}


def _cnn():
    table = random_embeddings(["gift", "lien", "deed"], 4, seed=2)
    return init_cnn_encoder(table, filters=3, attn_dim=2, rng=np.random.default_rng(3), width=3, dropout=0.3)


def _self_attention_encoder():
    table = random_embeddings(["gift", "lien", "deed"], 4, seed=2)
    return SelfAttentionEncoder(table, _leaf(6, 4, seed=4), [_layer(), _layer()])


TOKENS = [["gift", "zzz", "deed"], ["lien"]]
MODULE_NODES = {
    "encode_on_tape_cnn": lambda: encode_on_tape(TOKENS, _cnn(), np.random.default_rng(5)),
    "encode_on_tape_self_attention": lambda: encode_on_tape(
        TOKENS, _self_attention_encoder(), np.random.default_rng(5)),
    "tre_needle_loss": lambda: tre_needle_loss(
        _leaf(3, 4), ["O", "B-R", "O"], _leaf(4, len(TAGSET), seed=1), _leaf(len(TAGSET), seed=2)),
}


def test_every_op_of_the_tensor_module_has_a_case():
    assert set(OPS) == set(T.__all__) - NOT_OPS


@pytest.mark.parametrize(
    "build",
    [b for builders in OPS.values() for b in builders] + list(MODULE_NODES.values()),
    ids=[f"{name}-{i}" for name, builders in OPS.items() for i in range(len(builders))] + list(MODULE_NODES),
)
def test_a_node_holds_one_closure_with_one_entry_per_parent(build):
    node = build()
    assert node.requires_grad and node._parents
    assert callable(node._vjp)
    contribs = node._vjp(np.ones_like(node.data))
    assert isinstance(contribs, tuple) and len(contribs) == len(node._parents)
    for parent, contrib in zip(node._parents, contribs):
        assert contrib.shape == parent.data.shape

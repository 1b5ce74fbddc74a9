import dataclasses

import numpy as np

from statutelab import tensor as T
from statutelab.encoders import SelfAttentionEncoder, self_attention_states
from statutelab.inject import attention_weights_report, build_tre_model, tre_forward
from statutelab.rankers import RankerModel, build_paraformer_lite, parameters

VOCAB = ["gift", "lien", "writing", "party", "act", "deed"]
TOKENS = ["gift", "party", "act", "gift", "deed"]


def test_encode_sentence_avg_pools_the_last_tre_state_bit_for_bit():
    tre = build_tre_model(VOCAB, 8, 3, 2, seed=4, max_len=8)
    states = tre_forward(tre, TOKENS)
    pooled = SelfAttentionEncoder(tre.embeddings, tre.positions, tre.layers).encode(TOKENS)
    assert len(states) == 3
    assert pooled.data.tobytes() == T.avg_pool(states[-1]).data.tobytes()


def test_attention_weights_report_returns_the_loop_head_weights():
    tre = build_tre_model(VOCAB, 8, 3, 2, seed=4, max_len=8)
    states, weights = self_attention_states(TOKENS, tre)
    report = attention_weights_report(tre, TOKENS)
    assert [len(layer) for layer in report] == [2, 2, 2]
    for got, want in zip(report, weights):
        assert [w.tobytes() for w in got] == [w.tobytes() for w in want]
    # and the states the loop returns are tre_forward's, after the embedded input
    assert [s.data.tobytes() for s in states[1:]] == [s.data.tobytes() for s in tre_forward(tre, TOKENS)]


def test_tensors_list_table_positions_then_layer_weights():
    tre = build_tre_model(VOCAB, 8, 2, 2, seed=4, max_len=8)
    want = [tre.embeddings.matrix, tre.positions]
    want += [t for layer in tre.layers for t in (layer.w_q, layer.w_k, layer.w_v, layer.w_o)]
    assert [id(t) for t in tre.tensors()] == [id(t) for t in want]


def test_paraformer_lite_holds_one_self_attention_encoder():
    model = build_paraformer_lite(VOCAB, 8, 2, 2, seed=3, max_len=8)
    assert isinstance(model.encoder, SelfAttentionEncoder)
    assert model.embeddings is model.encoder.embeddings
    fields = {f.name for f in dataclasses.fields(RankerModel)}
    assert "layers" not in fields and "positions" not in fields
    want = model.encoder.tensors() + [model.para_attn.A, model.para_attn.b]
    assert [id(t) for t in parameters(model)] == [id(t) for t in want]


def test_paraformer_lite_draws_layers_before_positions():
    model = build_paraformer_lite(VOCAB, 8, 2, 2, seed=3, max_len=8)
    rng = np.random.default_rng(3)
    first_w_q = rng.normal(0.0, 1.0 / np.sqrt(8), size=(8, 8))
    assert np.array_equal(model.encoder.layers[0].w_q.data, first_w_q)

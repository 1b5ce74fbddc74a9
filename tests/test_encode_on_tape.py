"""The one encode node of a training step against the per-sentence
composition it replaces (train_oracle): the same values, every parameter
gradient bit for bit, the same dropout draws and the same update."""

import numpy as np
import pytest

import train_oracle
from statutelab import rankers
from statutelab import tensor as T
from statutelab.corpus import Article, chunk_corpus
from statutelab.encoders import encode_on_tape
from statutelab.lexical import tokenize
from statutelab.tensor import Tensor, backward

# "zzz" and "qqq" are out of the vocabulary
ARTICLES = chunk_corpus([
    Article("ragged", "", "(1) gift. (2) writing deed zzz act law. (3) lien qqq."),
    Article("one", "", "claim party goods"),
    Article("blank", "", "(1) ?! (2) ..."),
    Article("neg", "", "(1) lease lien act party gift. (2) deed zzz."),
])
VOCAB = sorted({w for a in ARTICLES for w in tokenize(a.text)} - {"zzz", "qqq"})

MODELS = {
    "cnn": lambda cfg: rankers.build_attentive_cnn(VOCAB, embed_dim=6, filters=5, attn_dim=4, seed=3, config=cfg),
    "cnn_dropout": lambda cfg: rankers.build_attentive_cnn(
        VOCAB, embed_dim=6, filters=5, attn_dim=4, seed=3, width=3, dropout=0.3, config=cfg),
    "cnn_dropout_derived": lambda cfg: rankers.build_attentive_cnn(
        VOCAB, embed_dim=6, filters=5, attn_dim=4, seed=3, width=3, dropout=0.3, para_query="derived", config=cfg),
    "paraformer_lite": lambda cfg: rankers.build_paraformer_lite(VOCAB, embed_dim=8, n_layers=2, n_heads=2, seed=3, config=cfg),
}

# query text and the step's articles, the positive first
STEPS = {
    "ragged_oov": ("gift zzz writing deed", ["ragged", "neg", "one"]),
    "one_statement": ("claim goods", ["one", "blank"]),
    "article_without_tokens": ("lien act", ["neg", "blank", "ragged"]),
    "query_without_tokens": (" ?! ", ["ragged", "one"]),
}


def _step(kind, step, scores_fn):
    """One training step's loss and scores through scores_fn on a fresh
    model: the loss, the scores, each parameter's gradient, the parameters
    after the update and the rng state after the step."""
    model = MODELS[kind](rankers.RankerConfig(seed=5, lr=0.1))
    text, ids = STEPS[step]
    by_id = {a.id: a for a in ARTICLES}
    rng = np.random.default_rng(17)
    scores = scores_fn(model, tokenize(text), [by_id[i] for i in ids], rng)
    loss = T.ce_negsample(scores[0], scores[1:])
    params = rankers.parameters(model)
    if loss.requires_grad:
        backward(loss)
    grads = [p.grad for p in params]
    T.sgd_step(params, 0.1)
    return loss, scores, grads, [p.data.copy() for p in params], rng.bit_generator.state


def _grad_bytes(g):
    if g is None:
        return None
    if isinstance(g, T.RowGrad):
        rows, sums = g.totals()
        return rows.tobytes(), sums.tobytes()
    return g.tobytes()


@pytest.mark.parametrize("step", sorted(STEPS))
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_the_node_has_the_bits_of_the_per_sentence_composition(kind, step):
    node = _step(kind, step, rankers._train_scores)
    oracle = _step(kind, step, train_oracle.train_scores)
    assert np.asarray(node[0].data).tobytes() == np.asarray(oracle[0].data).tobytes()
    assert [s.data.tobytes() for s in node[1]] == [s.data.tobytes() for s in oracle[1]]
    assert [_grad_bytes(g) for g in node[2]] == [_grad_bytes(g) for g in oracle[2]]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(node[3], oracle[3]))
    assert node[4] == oracle[4]
    if step == "query_without_tokens":
        assert all(g is None for g in node[2]) and not node[0].requires_grad
    else:
        assert all(g is not None for g in node[2])


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_node_rows_are_the_per_sentence_encodes_with_the_same_draws(kind):
    model = MODELS[kind](rankers.RankerConfig(seed=5))
    token_lists = [tokenize("gift zzz")] + [t for a in ARTICLES for t in rankers._statement_tokens(a)]
    assert sorted({len(t) for t in token_lists}) == [1, 2, 3, 6]
    node_rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
    node = encode_on_tape(token_lists, model.encoder, node_rng)
    assert node.op == "encode_on_tape" and node.data.shape[0] == len(token_lists)
    for row, tokens in zip(node.data, token_lists):
        assert row.tobytes() == train_oracle.encode_sentence(tokens, model.encoder, oracle_rng).data.tobytes()
    assert node_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_the_table_gradient_is_one_row_grad_part():
    model = MODELS["cnn"](rankers.RankerConfig(seed=5))
    node = encode_on_tape([["gift", "gift", "zzz"], ["lien", "gift"]], model.encoder, np.random.default_rng(0))
    backward(T.tsum(T.mul(node, Tensor(np.ones(node.data.shape)))))
    grad = model.embeddings.matrix.grad
    assert isinstance(grad, T.RowGrad) and len(grad.parts) == 1
    vocab = model.embeddings.vocab
    # the out-of-vocabulary token reads row 0 with a zero gradient
    assert grad.parts[0][0].tolist() == sorted({0, vocab["gift"], vocab["lien"]})


def test_the_node_raises_the_per_sentence_errors():
    model = MODELS["paraformer_lite"](rankers.RankerConfig(seed=5))
    with pytest.raises(ValueError, match="cannot embed an empty token sequence"):
        encode_on_tape([["gift"], []], model.encoder, np.random.default_rng(0))
    with pytest.raises(ValueError, match="sequence length 65 exceeds positional table"):
        encode_on_tape([["gift"], ["deed"] * 65], model.encoder, np.random.default_rng(0))

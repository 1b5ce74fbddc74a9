import numpy as np
import pytest

from statutelab import tensor as T
from statutelab.tensor import Tensor, grad_check
from statutelab.encoders import (
    PRESETS,
    STACK_CAP,
    SelfAttentionEncoder,
    encode_paragraph,
    encode_sentence_cnn,
    encode_statements,
    init_attention_params,
    init_cnn_encoder,
    init_self_attention_layer,
    load_embeddings,
    random_embeddings,
    self_attention,
)


def _layer(d=4, heads=2, seed=0):
    return init_self_attention_layer(d, heads, np.random.default_rng(seed))


def test_self_attention_zero_value_path_is_identity():
    layer = _layer()
    layer.w_v.data[...] = 0.0
    layer.w_o.data[...] = 0.0
    x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
    out = self_attention(x, layer)
    assert np.array_equal(out.data, x.data)


def test_self_attention_single_row():
    layer = _layer()
    x = Tensor(np.random.default_rng(2).normal(size=(1, 4)))
    out = self_attention(x, layer)
    # one-row softmax weight is 1, so output = x W_v W_o + x
    expect = x.data @ layer.w_v.data @ layer.w_o.data + x.data
    assert np.allclose(out.data, expect, atol=1e-12)


def test_self_attention_permutation_equivariant():
    layer = _layer(d=6, heads=3, seed=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 6))
    perm = rng.permutation(5)
    out = self_attention(Tensor(x), layer).data
    out_perm = self_attention(Tensor(x[perm]), layer).data
    assert np.allclose(out_perm, out[perm], atol=1e-12)


def test_self_attention_weights_row_stochastic():
    layer = _layer(d=4, heads=2, seed=6)
    x = Tensor(np.random.default_rng(7).normal(size=(4, 4)))
    for w in T.multihead_self_attention(x, layer)[1]:
        assert w.shape == (4, 4)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


def _embeddings(words, d=4, seed=0):
    return random_embeddings(words, d, seed, scale=0.5)


def test_embed_empty_sequence_rejected():
    emb = _embeddings(["a", "b"])
    with pytest.raises(ValueError, match="empty"):
        emb.embed([])


def test_embed_oov_policies():
    emb = _embeddings(["a", "b"])
    assert np.array_equal(emb.embed(["zzz"]).data, np.zeros((1, 4)))
    out = emb.embed(["a", "zzz"]).data
    assert np.array_equal(out[1], np.zeros(4))
    assert not np.array_equal(out[0], np.zeros(4))


def test_load_embeddings(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("law 0.1 0.2\ngift -1.0 0.5\n", encoding="utf-8")
    emb = load_embeddings(path)
    assert emb.dim == 2
    assert emb.vocab == {"law": 0, "gift": 1}
    assert np.allclose(emb.matrix.data[1], [-1.0, 0.5])
    path.write_text("law 0.1 0.2\ngift -1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_embeddings(path)
    path.write_text("law 0.1\nlaw 0.2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_embeddings(path)


def test_presets():
    assert PRESETS["paper"] == {"embed_dim": 512, "filters": 512, "attn_dim": 200, "dropout": 0.2}
    assert PRESETS["desk"] == {"embed_dim": 64, "filters": 64, "attn_dim": 32, "dropout": 0.0}


def _cnn(words=("a", "b", "c"), d=4, filters=5, attn=3, seed=0):
    rng = np.random.default_rng(seed)
    emb = _embeddings(list(words), d=d, seed=seed)
    return init_cnn_encoder(emb, filters, attn, rng, width=3)


def test_encode_sentence_cnn_single_token_attends_fully():
    enc = _cnn()
    out = encode_sentence_cnn(["a"], enc)
    feats = T.tanh(T.conv1d(enc.embeddings.embed(["a"]), enc.filters))
    assert np.allclose(out.data, feats.data[0], atol=1e-12)


def test_encode_sentence_cnn_zero_filters():
    enc = _cnn()
    enc.filters.data[...] = 0.0
    out = encode_sentence_cnn(["a", "b"], enc)
    assert np.array_equal(out.data, np.zeros(5))


def test_encode_sentence_avg_single_token():
    words = ["a", "b"]
    emb = _embeddings(words)
    layer = _layer()
    pos = Tensor(np.random.default_rng(3).normal(size=(8, 4)))
    out = SelfAttentionEncoder(emb, pos, [layer]).encode(["b"])
    x = emb.matrix.data[1] + pos.data[0]
    expect = self_attention(Tensor(x[None, :]), layer).data[0]
    assert np.allclose(out.data, expect, atol=1e-12)


def test_encode_sentence_avg_residual_only_path():
    emb = _embeddings(["a", "b", "c"])
    layer = _layer()
    layer.w_v.data[...] = 0.0
    layer.w_o.data[...] = 0.0
    pos = Tensor(np.random.default_rng(4).normal(size=(8, 4)))
    out = SelfAttentionEncoder(emb, pos, [layer]).encode(["a", "c"])
    rows = np.stack([emb.matrix.data[0] + pos.data[0], emb.matrix.data[2] + pos.data[1]])
    assert np.allclose(out.data, rows.mean(axis=0), atol=1e-12)


def test_encode_sentence_avg_deterministic():
    emb = _embeddings(["a", "b", "c"])
    layers = [_layer(seed=8), _layer(seed=9)]
    pos = Tensor(np.random.default_rng(10).normal(size=(8, 4)))
    a = SelfAttentionEncoder(emb, pos, layers).encode(["a", "b", "c"]).data
    b = SelfAttentionEncoder(emb, pos, layers).encode(["a", "b", "c"]).data
    assert np.array_equal(a, b)


def test_encode_paragraph_single_sentence():
    params = init_attention_params(3, 4, np.random.default_rng(0))
    q = Tensor(np.random.default_rng(1).normal(size=3))
    rep = Tensor(np.random.default_rng(2).normal(size=4))
    out, weights = encode_paragraph(q, [rep], params)
    assert weights == [1.0]
    assert np.allclose(out.data, rep.data)


def test_encode_paragraph_identical_sentences_uniform():
    params = init_attention_params(3, 4, np.random.default_rng(0))
    q = Tensor(np.random.default_rng(1).normal(size=3))
    rep = Tensor(np.random.default_rng(2).normal(size=4))
    out, weights = encode_paragraph(q, [rep, rep, rep], params)
    assert np.allclose(weights, [1 / 3] * 3, atol=1e-12)
    assert np.allclose(out.data, rep.data, atol=1e-12)


def test_encode_paragraph_sparsemax_selects_support():
    # scores depend only on the first coordinate: tanh(A r + b) = 0.5 * r[0]
    params = init_attention_params(1, 2, np.random.default_rng(0), weight_fn="sparsemax")
    params.A.data[...] = [[np.arctanh(0.5), 0.0]]
    params.b.data[...] = 0.0
    q = Tensor([2.0])
    reps = [Tensor([1.0, 0.0]), Tensor([0.0, 0.0]), Tensor([-1.0, 1e9])]
    out, weights = encode_paragraph(q, reps, params)
    # scores are [1, 0, -1], so sparsemax keeps only the first sentence and
    # the huge second coordinate of the zero-weight sentence never leaks in
    assert np.allclose(weights, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(out.data, [1.0, 0.0])


def test_encode_paragraph_weights_on_simplex():
    rng = np.random.default_rng(11)
    for weight_fn in ("softmax", "sparsemax"):
        params = init_attention_params(3, 4, rng, weight_fn=weight_fn)
        q = Tensor(rng.normal(size=3))
        reps = [Tensor(rng.normal(size=4)) for _ in range(5)]
        _, weights = encode_paragraph(q, reps, params)
        assert abs(sum(weights) - 1.0) < 1e-12
        assert min(weights) >= 0.0


def test_query_scaling_keeps_argmax_sentence():
    rng = np.random.default_rng(13)
    params = init_attention_params(3, 4, rng)
    q = rng.normal(size=3)
    reps = [Tensor(rng.normal(size=4)) for _ in range(4)]
    _, w1 = encode_paragraph(Tensor(q), reps, params)
    _, w2 = encode_paragraph(Tensor(3.5 * q), reps, params)
    assert int(np.argmax(w1)) == int(np.argmax(w2))


def test_encoder_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    enc = _cnn(seed=17)
    tokens = ["a", "b", "c"]
    probe = Tensor(rng.normal(size=5))

    def f(t):
        old = enc.filters
        enc.filters = t
        try:
            return T.dot(encode_sentence_cnn(tokens, enc), probe)
        finally:
            enc.filters = old

    assert grad_check(f, Tensor(enc.filters.data.copy())) < 1e-4

    emb = _embeddings(["a", "b", "c"], seed=18)
    layer = _layer(seed=18)
    pos = Tensor(rng.normal(size=(8, 4)))
    probe2 = Tensor(rng.normal(size=4))

    def g(t):
        old = layer.w_q
        layer.w_q = t
        try:
            return T.dot(SelfAttentionEncoder(emb, pos, [layer]).encode(tokens), probe2)
        finally:
            layer.w_q = old

    assert grad_check(g, Tensor(layer.w_q.data.copy())) < 1e-4


# ---------------------------------------------------------------------------
# encode_statements: same-length stacks, values only, the per-sentence bits

WORDS = [f"w{i}" for i in range(10)]
MAX_LEN = 9


def _statement_lists(seed, oov=False):
    """Token lists of every length 1..MAX_LEN in shuffled order, more than
    STACK_CAP of length 4, and with `oov` some out-of-vocabulary tokens."""
    rng = np.random.default_rng(seed)
    pool = WORDS + ["oov1", "oov2"] if oov else WORDS
    lengths = [m for m in range(1, MAX_LEN + 1) for _ in range(3)] + [4] * (2 * STACK_CAP + 3)
    lists = [[str(t) for t in rng.choice(pool, size=m)] for m in lengths]
    return [lists[i] for i in rng.permutation(len(lists))]


def _cnn_encoder(width, seed=0):
    rng = np.random.default_rng(seed)
    emb = _embeddings(WORDS, d=6, seed=seed)
    return init_cnn_encoder(emb, 7, 5, rng, width=width)


def _sa_encoder(heads, seed=0):
    rng = np.random.default_rng(seed)
    emb = _embeddings(WORDS, d=8, seed=seed)
    layers = [init_self_attention_layer(8, heads, rng) for _ in range(2)]
    pos = Tensor(rng.normal(0.0, 0.1, size=(MAX_LEN + 1, 8)))
    return SelfAttentionEncoder(emb, pos, layers)


def _one_by_one(lists, enc):
    if isinstance(enc, SelfAttentionEncoder):
        return [enc.encode(t).data for t in lists]
    return [encode_sentence_cnn(t, enc).data for t in lists]


def _assert_per_sentence_bits(lists, enc):
    got = encode_statements(lists, enc)
    want = _one_by_one(lists, enc)
    assert got.shape == (len(lists), want[0].shape[0])
    for row, ref in zip(got, want):
        assert np.array_equal(row, ref) and row.tobytes() == ref.tobytes()


# the names end in the OOV rule, zero_vector, that every encoder applies
ENCODERS = {
    **{f"cnn-width{w}-zero_vector": (lambda w=w: _cnn_encoder(w)) for w in (1, 3)},
    **{f"sa-{h}heads-zero_vector": (lambda h=h: _sa_encoder(h)) for h in (1, 2, 4)},
}


@pytest.mark.parametrize("name", sorted(ENCODERS))
@pytest.mark.parametrize("oov", [False, True])
def test_encode_statements_has_the_per_sentence_bits(name, oov):
    enc = ENCODERS[name]()
    lists = _statement_lists(sorted(ENCODERS).index(name), oov)
    _assert_per_sentence_bits(lists, enc)
    _assert_per_sentence_bits(lists[:1], enc)
    _assert_per_sentence_bits([["w3"] * 4] * (STACK_CAP + 1), enc)


def test_encode_statements_groups_by_length_after_the_oov_policy():
    # an out-of-vocabulary token keeps its row, so lists group by token count
    lists = [["w1", "oov1", "w2"], ["w1", "w2"], ["oov1", "w3"], ["oov1", "oov2"]]
    for enc in (_cnn_encoder(3), _sa_encoder(2)):
        _assert_per_sentence_bits(lists, enc)
    assert encode_statements([], _cnn_encoder(3)).shape == (0, 7)
    assert encode_statements([], _sa_encoder(2)).shape == (0, 8)


def _error(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize("make", [lambda: _cnn_encoder(3), lambda: _sa_encoder(2)])
def test_encode_statements_raises_the_per_sentence_errors(make):
    enc = make()
    lists = [["w1", "w2"], [], ["w3"]]
    msg = _error(lambda: encode_statements(lists, enc))
    assert msg == _error(lambda: _one_by_one(lists, enc)) == "cannot embed an empty token sequence"
    assert _error(lambda: encode_statements([[]], enc)) == "cannot embed an empty token sequence"


def test_encode_statements_rejects_a_list_longer_than_the_positional_table():
    enc = _sa_encoder(2)
    lists = [["w1"] * 3, ["w2"] * (MAX_LEN + 2)]
    msg = _error(lambda: encode_statements(lists, enc))
    assert msg == _error(lambda: _one_by_one(lists, enc)) == f"sequence length {MAX_LEN + 2} exceeds positional table"

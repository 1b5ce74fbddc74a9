"""The fused encoder ops against the generic-op composition they replace.

The composition below is the encoder code as it was before the fused ops:
conv1d then tanh; transpose, matmul, add, tanh, matvec, softmax|sparsemax
and vecmat; and the per-head slice/matmul/scale/softmax_rows loop of
multi-head attention.  Forward values must equal it bit for bit, every
gradient must agree with it to 1e-12, and routing the real encoders through
it must reproduce training byte for byte.
"""

import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from statutelab import encoders, inject, rankers
from statutelab import tensor as T
from statutelab.corpus import Article, Query, chunk_corpus
from statutelab.encoders import init_self_attention_layer
from statutelab.lexical import build_index, tokenize
from statutelab.tensor import Tensor, backward

GRAD_TOL = 1e-12


# ---------------------------------------------------------------------------
# the reference composition


def ref_conv_tanh(x, filters):
    return T.tanh(T.conv1d(x, filters))


def ref_additive_attention(rows, A, b, q, weight_fn="softmax"):
    hidden = T.tanh(T.add(T.matmul(rows, T.transpose(A)), b))
    scores = T.matvec(hidden, q)
    if weight_fn == "sparsemax":
        weights = T.sparsemax(scores)
    elif weight_fn == "softmax":
        weights = T.softmax(scores)
    else:
        raise ValueError(f"unknown weight_fn {weight_fn!r}")
    return T.vecmat(weights, rows), weights.data


def ref_multihead_self_attention(x, layer):
    dh = layer.d // layer.n_heads
    q = T.matmul(x, layer.w_q)
    k = T.matmul(x, layer.w_k)
    v = T.matmul(x, layer.w_v)
    outs, weights = [], []
    for h in range(layer.n_heads):
        s, e = h * dh, (h + 1) * dh
        qh, kh, vh = T.slice_cols(q, s, e), T.slice_cols(k, s, e), T.slice_cols(v, s, e)
        attn = T.softmax_rows(T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(dh)))
        weights.append(attn.data)
        outs.append(T.matmul(attn, vh))
    return T.add(T.matmul(T.concat_cols(outs), layer.w_o), x), weights


REFERENCE = {
    "conv_tanh": ref_conv_tanh,
    "additive_attention": ref_additive_attention,
    "multihead_self_attention": ref_multihead_self_attention,
}


def fused_and_composed(run):
    """run() with the fused ops, then with the encoders routed through the
    reference composition."""
    fused = run()
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in REFERENCE.items():
            mp.setattr(T, name, fn)
        composed = run()
    return fused, composed


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def max_diff(a, b) -> float:
    dense = [g.dense() if isinstance(g, T.RowGrad) else np.asarray(g) for g in (a, b)]
    return float(np.max(np.abs(dense[0] - dense[1]), initial=0.0))


# ---------------------------------------------------------------------------
# op level: random inputs, one-row inputs included


def _conv_case(rng, m):
    return [rng.normal(size=(m, 3)), rng.normal(0.0, 0.4, size=(3, 3, 5))], (m, 5)


def _additive_case(rng, n):
    shapes = ((n, 4), (3, 4), (3,), (3,))
    return [rng.normal(size=s) for s in shapes], (4,)


def _run_op(op, arrays, probe_shape, seed):
    """op over fresh leaves: its output, its weights (or None) and the leaf
    gradients of sum(out * probe)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out, weights = op(*leaves)
    backward(T.tsum(T.mul(out, Tensor(np.random.default_rng(seed).normal(size=probe_shape)))))
    return out.data, weights, [leaf.grad for leaf in leaves]


OPS = {
    "conv_tanh": (lambda x, f: (T.conv_tanh(x, f), None), _conv_case),
    "additive_softmax": (lambda *a: T.additive_attention(*a, "softmax"), _additive_case),
    "additive_sparsemax": (lambda *a: T.additive_attention(*a, "sparsemax"), _additive_case),
}


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", range(12))
def test_fused_op_forward_bits_and_gradients_match_the_composition(name, seed):
    op, case = OPS[name]
    rng = np.random.default_rng(seed)
    n = 1 if seed < 3 else int(rng.integers(2, 7))  # one-row inputs first
    arrays, probe_shape = case(rng, n)
    fused, composed = fused_and_composed(lambda: _run_op(op, arrays, probe_shape, seed))
    assert same_bits(fused[0], composed[0])
    if fused[1] is not None:
        assert same_bits(fused[1], composed[1])
    for g_fused, g_composed in zip(fused[2], composed[2]):
        assert max_diff(g_fused, g_composed) <= GRAD_TOL


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_multihead_self_attention_matches_the_composition(heads, m):
    rng = np.random.default_rng(10 * heads + m)
    weights = [t.data for t in init_self_attention_layer(8, heads, rng).tensors()]
    x0, probe, side = (rng.normal(size=(m, 8)) for _ in range(3))

    def run():
        leaf = Tensor(x0.copy(), requires_grad=True)
        ws = [Tensor(w.copy(), requires_grad=True) for w in weights]
        layer = encoders.SelfAttentionLayer(*ws, heads, 8)
        # x is not a leaf and is also read after the layer, so its gradient
        # sums contributions from inside and outside the fused node
        x = T.tanh(leaf)
        out, attn = T.multihead_self_attention(x, layer)
        backward(T.add(T.tsum(T.mul(out, Tensor(probe))), T.tsum(T.mul(x, Tensor(side)))))
        return out.data, attn, [leaf.grad] + [w.grad for w in ws]

    fused, composed = fused_and_composed(run)
    assert same_bits(fused[0], composed[0])
    assert len(fused[1]) == heads
    assert all(same_bits(a, b) for a, b in zip(fused[1], composed[1]))
    for g_fused, g_composed in zip(fused[2], composed[2]):
        assert max_diff(g_fused, g_composed) <= GRAD_TOL
    # the fused VJP keeps the composition's summation order, so the bits too
    assert all(same_bits(a, b) for a, b in zip(fused[2], composed[2]))


@pytest.mark.parametrize("heads", [2, 8])
def test_batched_heads_match_the_composition_at_the_tre_sizes(heads):
    """d 16 with 2 heads (the TRE stacks) or 8 heads of width 2, M 1..24:
    the forward bits of the composition, its gradients within GRAD_TOL, and
    a stack of inputs with the bits of each single input."""
    for m in range(1, 25):
        rng = np.random.default_rng(100 * heads + m)
        weights = [t.data for t in init_self_attention_layer(16, heads, rng).tensors()]
        x0, probe = rng.normal(size=(m, 16)), rng.normal(size=(m, 16))

        def run():
            leaf = Tensor(x0.copy(), requires_grad=True)
            ws = [Tensor(w.copy(), requires_grad=True) for w in weights]
            out, attn = T.multihead_self_attention(leaf, encoders.SelfAttentionLayer(*ws, heads, 16))
            backward(T.tsum(T.mul(out, Tensor(probe))))
            return out.data, attn, [leaf.grad] + [w.grad for w in ws]

        fused, composed = fused_and_composed(run)
        assert same_bits(fused[0], composed[0])
        assert len(fused[1]) == heads and all(a.shape == (m, m) for a in fused[1])
        assert all(same_bits(a, b) for a, b in zip(fused[1], composed[1]))
        for g_fused, g_composed in zip(fused[2], composed[2]):
            assert max_diff(g_fused, g_composed) <= GRAD_TOL
        layer = encoders.SelfAttentionLayer(*(Tensor(w) for w in weights), heads, 16)
        stack = rng.normal(size=(5, m, 16))
        got = T.multihead_self_attention_values(stack, layer)
        assert got.shape == stack.shape
        for row, x in zip(got, stack):
            assert same_bits(row, T.multihead_self_attention(Tensor(x), layer)[0].data)


@pytest.mark.parametrize("weight_fn", ["softmax", "sparsemax"])
@pytest.mark.parametrize("n", [1, 4])
def test_additive_attention_rows_read_elsewhere_keep_the_composition_bits(weight_fn, n):
    rng = np.random.default_rng(n)
    (r0, a0, b0, q0), _ = _additive_case(rng, n)
    probe, side = rng.normal(size=4), rng.normal(size=(n, 4))

    def run():
        leaves = [Tensor(v.copy(), requires_grad=True) for v in (r0, a0, b0, q0)]
        # rows is not a leaf and is also read after the pooling node
        rows = T.tanh(leaves[0])
        out, w = T.additive_attention(rows, *leaves[1:], weight_fn)
        backward(T.add(T.dot(out, Tensor(probe)), T.tsum(T.mul(rows, Tensor(side)))))
        return out.data, w, [leaf.grad for leaf in leaves]

    fused, composed = fused_and_composed(run)
    assert same_bits(fused[0], composed[0]) and same_bits(fused[1], composed[1])
    for g_fused, g_composed in zip(fused[2], composed[2]):
        assert max_diff(g_fused, g_composed) <= GRAD_TOL
    assert same_bits(fused[2][0], composed[2][0])


def test_multihead_vjp_uses_the_weights_of_the_forward_pass():
    rng = np.random.default_rng(7)
    layer = init_self_attention_layer(4, 2, rng)
    x0, probe = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))

    def x_grad(swap: bool):
        x = Tensor(x0.copy(), requires_grad=True)
        ws = [Tensor(t.data.copy(), requires_grad=True) for t in layer.tensors()]
        lay = encoders.SelfAttentionLayer(*ws, 2, 4)
        out, _ = T.multihead_self_attention(x, lay)
        if swap:  # the layer's slots change between the forward and the backward pass
            lay.w_q, lay.w_k, lay.w_v, lay.w_o = (Tensor(np.zeros((4, 4)), requires_grad=True) for _ in range(4))
        backward(T.tsum(T.mul(out, Tensor(probe))))
        return [x.grad] + [w.grad for w in ws]

    assert all(same_bits(a, b) for a, b in zip(x_grad(False), x_grad(True)))


def test_fused_ops_are_one_tape_node():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    layer = init_self_attention_layer(4, 2, rng)
    out, _ = T.multihead_self_attention(x, layer)
    assert out.op == "multihead_self_attention" and out._parents[:4] == (x,) * 4
    conv = T.conv_tanh(x, Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True))
    assert conv.op == "conv_tanh" and conv._parents[0] is x
    pooled, w = T.additive_attention(conv, *(Tensor(rng.normal(size=s)) for s in ((3, 2), (3,), (3,))))
    assert pooled.op == "additive_attention" and pooled._parents[:2] == (conv, conv)
    assert isinstance(w, np.ndarray) and w.shape == (3,)


def test_fused_ops_reject_bad_input():
    a = Tensor(np.ones((3, 4)))
    with pytest.raises(ValueError, match="unknown weight_fn"):
        T.additive_attention(a, Tensor(np.ones((2, 4))), Tensor(np.ones(2)), Tensor(np.ones(2)), "argmax")
    with pytest.raises(ValueError, match="incompatible shapes"):
        T.additive_attention(a, Tensor(np.ones((2, 3))), Tensor(np.ones(2)), Tensor(np.ones(2)))
    with pytest.raises(ValueError, match="b and q"):
        T.additive_attention(a, Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.ones(2)))
    with pytest.raises(ValueError, match="filter width must be odd"):
        T.conv_tanh(a, Tensor(np.ones((2, 4, 1))))
    layer = init_self_attention_layer(6, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="does not match width 6"):
        T.multihead_self_attention(a, layer)


# ---------------------------------------------------------------------------
# model level: every parameter gradient of real training steps


def _world():
    articles = chunk_corpus([
        Article("a1", "", "(1) gift law writing deed. (2) lien."),
        Article("a2", "", "lease lien act party"),
        Article("a3", "", "(1) writing act deed. (2) claim goods party. (3) gift."),
        Article("a4", "", "claim party goods"),
        Article("a5", "", "(1) deed. (2) lease writing law."),
    ])
    queries = [
        Query("q1", "gift writing", {"a1"}),
        Query("q2", "lien", {"a2"}),
        Query("q3", "claim goods party act", {"a4", "a3"}),
    ]
    return articles, queries


def _vocab(articles, queries):
    return sorted({w for t in [a.text for a in articles] + [q.text for q in queries] for w in tokenize(t)})


MODELS = {
    "attentive_cnn": lambda v, cfg: rankers.build_attentive_cnn(
        v, embed_dim=6, filters=5, attn_dim=4, seed=3, config=cfg),
    "attentive_cnn_dropout": lambda v, cfg: rankers.build_attentive_cnn(
        v, embed_dim=6, filters=5, attn_dim=4, seed=3, dropout=0.3, config=cfg),
    "attentive_cnn_derived_query": lambda v, cfg: rankers.build_attentive_cnn(
        v, embed_dim=6, filters=5, attn_dim=4, seed=3, para_query="derived", config=cfg),
    "paraformer_lite": lambda v, cfg: rankers.build_paraformer_lite(
        v, embed_dim=8, n_layers=2, n_heads=2, seed=3, config=cfg),
}


def _recording_sgd(log):
    real = T.sgd_step

    def step(params, lr):
        log.append([None if p.grad is None else (p.grad.dense() if isinstance(p.grad, T.RowGrad) else p.grad.copy())
                    for p in params])
        real(params, lr)

    return step


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_training_gradients_match_the_composition(kind):
    articles, queries = _world()
    vocab = _vocab(articles, queries)

    def run():
        grads = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "sgd_step", _recording_sgd(grads))
            model = MODELS[kind](vocab, rankers.RankerConfig(seed=5, epochs=2, k_negatives=2, lr=0.1))
            _, trace = rankers.train_ranker(model, articles, queries)
        return trace, grads, [p.data.copy() for p in rankers.parameters(model)]

    fused, composed = fused_and_composed(run)
    assert len(fused[1]) == len(composed[1]) == 2 * len(queries)
    for step_f, step_c in zip(fused[1], composed[1]):
        for g_f, g_c in zip(step_f, step_c):
            assert (g_f is None) == (g_c is None)
            if g_f is not None:
                assert max_diff(g_f, g_c) <= GRAD_TOL
    assert same_bits(fused[0], composed[0])
    assert all(same_bits(a, b) for a, b in zip(fused[2], composed[2]))


def test_encode_paragraph_softmax_weights_match_the_composition():
    rng = np.random.default_rng(4)
    params = encoders.init_attention_params(3, 5, rng, weight_fn="softmax")
    q = Tensor(rng.normal(size=3), requires_grad=True)
    reps = [Tensor(rng.normal(size=5)) for _ in range(4)]

    def run():
        out, w = encoders.encode_paragraph(q, reps, params)
        backward(T.dot(out, Tensor(np.arange(5.0))))
        grads = [t.grad for t in (q, params.A, params.b)]
        for t in (q, params.A, params.b):
            t.zero_grad()
        return out.data, w, grads

    fused, composed = fused_and_composed(run)
    assert same_bits(fused[0], composed[0]) and fused[1] == composed[1]
    assert all(same_bits(a, b) for a, b in zip(fused[2], composed[2]))


# ---------------------------------------------------------------------------
# end to end on the benchmark's inputs


def _perfbench_inputs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_training_on_the_benchmark_inputs_is_byte_identical_to_the_composition():
    """200 one-query train_ranker steps on the seed-3 statute world (the
    desk-preset model of the benchmark's train workload) and one TRE epoch
    on its 128 bracket-grammar samples."""
    inputs = _perfbench_inputs()
    world, queries = inputs.statute_world(3, 2000, 600)
    articles = chunk_corpus([Article(i, "", t) for i, t in zip(world.ids, world.texts)])
    index = build_index(articles)
    vocab = _vocab(articles, queries)
    samples = inputs.tre_samples(3, 128)
    tre_vocab = sorted({t for s in samples for t in s.tokens})
    config = inject.InjectionConfig([2, 3, 4], [1.0 / 3, 1.0 / 3, 1.0 - 2.0 / 3])

    def run():
        model = rankers.build_attentive_cnn(
            vocab, **encoders.PRESETS["desk"], seed=0, width=3, para_query="learned",
            config=rankers.RankerConfig(seed=0, n_predict=150, epochs=1),
        )
        losses = [rankers.train_ranker(model, articles, [q], index=index)[1][0] for q in queries[:200]]
        tre = inject.build_tre_model(tre_vocab, 16, 4, 2, seed=0, max_len=max(len(s.tokens) for s in samples) + 1)
        result = inject.tre_train(tre, config, samples, 1, 0.05, 0)
        tre_params = [t.data for t in inject._tre_params(tre)] + [t.data for n in result.needles for t in (n.w, n.b)]
        return (
            _sha([losses]), _sha(p.data for p in rankers.parameters(model)),
            _sha([[t for t, _ in result.step_losses]]), _sha(tre_params),
        )

    fused, composed = fused_and_composed(run)
    assert fused == composed

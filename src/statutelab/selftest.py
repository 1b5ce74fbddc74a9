"""Built-in verification batteries: gradient checks and property sweeps.

The gradient suite runs every differentiable kernel plus both end-to-end
encoders against central differences; the property battery re-checks the
simplex, BM25-vs-oracle and augmentation invariants on seeded random data.
Both are callable from the command line for a quick health check.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor, grad_check
from .corpus import Article
from .encoders import (
    EmbeddingTable,
    GeneralAttentionParams,
    SelfAttentionEncoder,
    SelfAttentionLayer,
    SentenceEncoderCNN,
    encode_on_tape,
    encode_paragraph,
    encode_sentence_cnn,
    init_attention_params,
    init_cnn_encoder,
    init_self_attention_layer,
    random_embeddings,
)
from .lexical import build_index, bm25_score, tokenize, top_n

__all__ = [
    "gradcheck_suite",
    "property_suite",
    "bm25_oracle",
    "simplex_projection_bisection",
    "simplex_projection_dykstra",
]


def _cnn_check(rng) -> float:
    vocab = [f"w{i}" for i in range(6)]
    emb = random_embeddings(vocab, 4, int(rng.integers(1 << 30)), scale=0.7)
    enc = init_cnn_encoder(emb, filters=5, attn_dim=3, rng=rng, width=3)
    tokens = [vocab[int(i)] for i in rng.integers(0, 6, size=3)]
    probe = Tensor(rng.normal(size=5))

    def build(filters, a, b, u, matrix):
        cnn = SentenceEncoderCNN(EmbeddingTable(emb.vocab, matrix), filters, GeneralAttentionParams(a, b), u)
        return T.dot(encode_sentence_cnn(tokens, cnn), probe)

    return _slot_check(rng, build, [enc.filters, enc.attn.A, enc.attn.b, enc.u, emb.matrix])


def _avg_check(rng) -> float:
    vocab = [f"w{i}" for i in range(6)]
    d = 4
    emb = random_embeddings(vocab, d, int(rng.integers(1 << 30)), scale=0.7)
    layer = init_self_attention_layer(d, 2, rng)
    positions = Tensor(rng.normal(0.0, 0.3, size=(8, d)), requires_grad=True)
    tokens = [vocab[int(i)] for i in rng.integers(0, 6, size=3)]
    probe = Tensor(rng.normal(size=d))

    def build(w_q, w_k, w_v, w_o, matrix, pos):
        stack = [SelfAttentionLayer(w_q, w_k, w_v, w_o, 2, d)]
        enc = SelfAttentionEncoder(EmbeddingTable(emb.vocab, matrix), pos, stack)
        return T.dot(enc.encode(tokens), probe)

    return _slot_check(rng, build, layer.tensors() + [emb.matrix, positions])


def _paragraph_check(rng) -> float:
    n, d, dq = 3, 4, 3
    params = init_attention_params(dq, d, rng, weight_fn="sparsemax")
    q = Tensor(rng.normal(size=dq))
    reps_data = rng.normal(size=(n, d))
    probe = Tensor(rng.normal(size=d))

    def f(t):
        # rows of t are the sentence vectors; avg_pool squeezes each 1xd slice
        vecs = [T.avg_pool(T.gather_rows(t, [i])) for i in range(n)]
        out, _ = encode_paragraph(q, vecs, params)
        return T.dot(out, probe)

    return grad_check(f, Tensor(reps_data))


def _gather_check(rng, dense_use: bool) -> float:
    """Two gathers of one leaf table with repeated row ids (a row gradient),
    plus a matmul read of the whole table when `dense_use` (mixed)."""
    v, d = 5, 3
    idx1 = rng.integers(0, v, size=4).tolist() + [int(rng.integers(0, v))] * 2
    idx2 = rng.integers(0, v, size=3).tolist() + [idx1[0]]
    p1 = Tensor(rng.normal(size=(len(idx1), d)))
    p2 = Tensor(rng.normal(size=(len(idx2), d)))
    w = Tensor(rng.normal(size=(d, 2)))
    pm = Tensor(rng.normal(size=(v, 2)))

    def f(t):
        out = T.add(
            T.tsum(T.mul(T.gather_rows(t, idx1), p1)),
            T.tsum(T.mul(T.tanh(T.gather_rows(t, idx2)), p2)),
        )
        if dense_use:
            out = T.add(out, T.tsum(T.mul(T.matmul(t, w), pm)))
        return out

    return grad_check(f, Tensor(rng.normal(size=(v, d))))


def _slot_check(rng, build, inputs: list) -> float:
    """grad_check ``build(*inputs)`` wrt one input picked at random."""
    slot = int(rng.integers(0, len(inputs)))

    def f(t):
        return build(*inputs[:slot], t, *inputs[slot + 1 :])

    return grad_check(f, inputs[slot])


def _conv_tanh_check(rng) -> float:
    # filters at the encoder's init scale 1/sqrt(w*d): at unit scale tanh
    # saturates, and central differences lose the tiny slopes to rounding
    m = int(rng.integers(1, 5))
    x, probe = Tensor(rng.normal(size=(m, 3))), Tensor(rng.normal(size=(m, 2)))
    filt = Tensor(rng.normal(0.0, 1.0 / 3.0, size=(3, 3, 2)))
    return _slot_check(rng, lambda a, f: T.tsum(T.mul(T.conv_tanh(a, f), probe)), [x, filt])


def _additive_check(rng, weight_fn: str) -> float:
    n, d, dq = int(rng.integers(1, 5)), 4, 3
    shapes = ((n, d), (dq, d), (dq,), (dq,), (d,))
    rows, a, b, q, probe = (Tensor(rng.normal(size=s)) for s in shapes)

    def build(r, a_, b_, q_):
        return T.dot(T.additive_attention(r, a_, b_, q_, weight_fn)[0], probe)

    return _slot_check(rng, build, [rows, a, b, q])


def _multihead_check(rng) -> float:
    m, d = int(rng.integers(1, 5)), 4
    layer = init_self_attention_layer(d, int(rng.choice([1, 2])), rng)
    x, probe = Tensor(rng.normal(size=(m, d))), Tensor(rng.normal(size=(m, d)))
    slots = ["w_q", "w_k", "w_v", "w_o"]

    def build(x_, *weights):
        for name, w in zip(slots, weights):
            setattr(layer, name, w)
        return T.tsum(T.mul(T.multihead_self_attention(x_, layer)[0], probe))

    return _slot_check(rng, build, [x] + [getattr(layer, s) for s in slots])


def _encode_on_tape_check(rng, self_attention: bool) -> float:
    """The one encode node of a training step over three token lists of 1-4
    tokens, out-of-vocabulary ones included: a CNN with dropout, its masks
    drawn from a fixed seed, or a self-attention encoder."""
    vocab = [f"w{i}" for i in range(6)]
    d = 4
    emb = random_embeddings(vocab, d, int(rng.integers(1 << 30)), scale=0.7)
    words = vocab + ["oov"]
    token_lists = [[words[int(j)] for j in rng.integers(0, 7, size=int(rng.integers(1, 5)))] for _ in range(3)]
    if self_attention:
        layer = init_self_attention_layer(d, 2, rng)
        positions = Tensor(rng.normal(0.0, 0.3, size=(8, d)))
        probe = Tensor(rng.normal(size=(3, d)))

        def build(matrix, pos, *weights):
            enc = SelfAttentionEncoder(EmbeddingTable(emb.vocab, matrix), pos, [SelfAttentionLayer(*weights, 2, d)])
            return T.tsum(T.mul(encode_on_tape(token_lists, enc, None), probe))

        return _slot_check(rng, build, [emb.matrix, positions] + layer.tensors())
    enc = init_cnn_encoder(emb, filters=5, attn_dim=3, rng=rng, width=3, dropout=0.3)
    probe = Tensor(rng.normal(size=(3, 5)))
    mask_seed = int(rng.integers(1 << 30))

    def build(matrix, filters, a, b, u):
        cnn = SentenceEncoderCNN(EmbeddingTable(emb.vocab, matrix), filters, GeneralAttentionParams(a, b), u, 0.3)
        return T.tsum(T.mul(encode_on_tape(token_lists, cnn, np.random.default_rng(mask_seed)), probe))

    return _slot_check(rng, build, [emb.matrix, enc.filters, enc.attn.A, enc.attn.b, enc.u])


def gradcheck_suite(instances: int = 100, seed: int = 20240501) -> dict[str, float]:
    """Max relative error per kernel over seeded random instances."""
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    def record(name, err):
        results[name] = max(results.get(name, 0.0), err)

    for i in range(instances):
        # matmul, alternating which side is checked
        a = rng.normal(size=(3, 4))
        bmat = rng.normal(size=(4, 2))
        probe = rng.normal(size=(3, 2))
        if i % 2 == 0:
            record("matmul", grad_check(
                lambda t: T.tsum(T.mul(T.matmul(t, Tensor(bmat)), Tensor(probe))), Tensor(a)))
        else:
            record("matmul", grad_check(
                lambda t: T.tsum(T.mul(T.matmul(Tensor(a), t), Tensor(probe))), Tensor(bmat)))

        v = rng.normal(size=int(rng.integers(2, 11)))
        r = rng.normal(size=v.size)
        beta = 1.0 + float(rng.random()) * 3.0
        record("softmax", grad_check(lambda t: T.dot(T.softmax(t), Tensor(r)), Tensor(v)))
        record("sparsemax", grad_check(lambda t: T.dot(T.sparsemax(t), Tensor(r)), Tensor(v)))
        record("softargmax", grad_check(lambda t: T.softargmax(t, beta=beta), Tensor(v)))

        x = rng.normal(size=(4, 3))
        filt = rng.normal(size=(3, 3, 2))
        cprobe = rng.normal(size=(4, 2))
        if i % 2 == 0:
            record("conv1d", grad_check(
                lambda t: T.tsum(T.mul(T.conv1d(t, Tensor(filt)), Tensor(cprobe))), Tensor(x)))
        else:
            record("conv1d", grad_check(
                lambda t: T.tsum(T.mul(T.conv1d(Tensor(x), t), Tensor(cprobe))), Tensor(filt)))

        pr = rng.normal(size=3)
        record("avg_pool", grad_check(lambda t: T.dot(T.avg_pool(t), Tensor(pr)), Tensor(x)))

        negs = rng.normal(size=int(rng.integers(1, 5)))
        pos = rng.normal()
        record("ce_negsample", grad_check(
            lambda t: T.ce_negsample(t, Tensor(negs)), Tensor(np.asarray(pos))))
        record("ce_negsample", grad_check(
            lambda t: T.ce_negsample(Tensor(np.asarray(pos)), t), Tensor(negs)))

        m1 = rng.normal(size=(3, 3))
        m2 = rng.normal(size=(3, 3))
        record("mse_matrix", grad_check(lambda t: T.mse_matrix(t, Tensor(m2)), Tensor(m1)))

        record("encoder_cnn", _cnn_check(rng))
        record("encoder_avg", _avg_check(rng))
        record("encoder_paragraph", _paragraph_check(rng))
    # drawn after every other case, so their inputs stay as they were
    for i in range(instances):
        record("gather_rows", _gather_check(rng, dense_use=i % 2 == 1))
    # the fused encoder ops, drawn after every case above for the same reason
    for _ in range(instances):
        record("conv_tanh", _conv_tanh_check(rng))
        record("additive_attention_softmax", _additive_check(rng, "softmax"))
        record("additive_attention_sparsemax", _additive_check(rng, "sparsemax"))
        record("multihead_self_attention", _multihead_check(rng))
    # the training step's encode node, drawn after every case above
    for i in range(instances):
        record("encode_on_tape", _encode_on_tape_check(rng, self_attention=i % 2 == 1))
    return results


def bm25_oracle(docs: dict[str, str], query_terms: list[str], k1=1.2, b=0.75) -> dict[str, float]:
    """Straight-loop BM25 over tokenized docs, independent of the index."""
    import math

    toks = {did: tokenize(text) for did, text in docs.items()}
    n = len(docs)
    avgdl = sum(len(t) for t in toks.values()) / n
    scores = {}
    for did, dtoks in toks.items():
        s = 0.0
        for term in query_terms:
            df = sum(1 for other in toks.values() if term in other)
            tf = dtoks.count(term)
            if tf == 0:
                continue
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            s += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(dtoks) / avgdl))
        scores[did] = s
    return scores


def simplex_projection_bisection(x: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Independent simplex-projection oracle: solve sum(max(x - tau, 0)) = 1
    for tau by bisection, no sorting involved."""
    lo = float(x.max()) - 1.0
    hi = float(x.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(x - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    tau = 0.5 * (lo + hi)
    p = np.maximum(x - tau, 0.0)
    return p / p.sum()


def simplex_projection_dykstra(x: np.ndarray, iters: int = 5000, tol: float = 1e-13) -> np.ndarray:
    """Second independent oracle: Dykstra's alternating projections onto the
    sum-one hyperplane and the nonnegative orthant, which converge to the
    exact Euclidean projection onto their intersection."""
    x = np.asarray(x, dtype=np.float64)
    p = x.copy()
    q1 = np.zeros_like(x)
    q2 = np.zeros_like(x)
    for _ in range(iters):
        y = p + q1
        y = y + (1.0 - y.sum()) / y.size  # project onto the hyperplane
        q1 = p + q1 - y
        p_new = np.maximum(y + q2, 0.0)  # project onto the orthant
        q2 = y + q2 - p_new
        if np.max(np.abs(p_new - p)) < tol:
            p = p_new
            break
        p = p_new
    return p


def property_suite(seed: int = 7) -> list[tuple[str, bool, str]]:
    """Quick invariant sweep; returns (name, ok, detail) triples."""
    from .tensor import sparsemax_values
    from .augment import negate

    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(200):
        v = rng.normal(size=int(rng.integers(2, 17))) * 3.0
        p = sparsemax_values(v)
        worst = max(worst, abs(p.sum() - 1.0), -p.min())
        worst = max(worst, float(np.max(np.abs(p - simplex_projection_bisection(v)))))
    results.append(("sparsemax simplex + oracle", worst < 1e-8, f"max dev {worst:.2e}"))

    ok = True
    words = ["law", "gift", "writing", "party", "claim", "lien", "act"]
    for trial in range(25):
        n_docs = int(rng.integers(2, 30))
        docs = {
            f"d{j:03d}": " ".join(rng.choice(words, size=rng.integers(1, 12)))
            for j in range(n_docs)
        }
        q = list(rng.choice(words, size=3))
        ok = _bm25_agrees(docs, q, (1, max(1, n_docs // 3), n_docs)) and ok
    results.append(("bm25 + top_n vs straight-loop oracle", ok, "25 random corpora, n = 1, n_docs // 3, n_docs"))

    pair_ok = True
    for text in ("X can do Y", "done with care"):
        first = negate(text, "en")
        second = negate(first[0], "en") if first else None
        if second is None or second[0] != text:
            pair_ok = False
    results.append(("negation involutions", pair_ok, "can/cannot, with/without"))

    x = rng.normal(size=5)
    s = T.softmax(Tensor(x)).data
    results.append(
        ("softmax simplex", abs(s.sum() - 1.0) < 1e-12 and s.min() > 0, f"sum {s.sum():.1e}")
    )

    from .corpus import chunk_article
    from .evalkit import prf2

    text = "(1) First statement here. (2) Second with item (i) inside. (3) Third."
    chunked = chunk_article(Article("x", "", text))
    idem = all(
        chunk_article(Article("s", "", stmt)).statements == [stmt]
        for stmt in chunked.statements
    )
    results.append(
        ("chunking yields >= 1 statement and is idempotent",
         len(chunked.statements) == 3 and idem, f"{len(chunked.statements)} statements")
    )

    bounds_ok = True
    for _ in range(100):
        gold = {int(v) for v in rng.integers(0, 10, size=rng.integers(0, 4))}
        retrieved = {int(v) for v in rng.integers(0, 10, size=rng.integers(0, 4))}
        p, r, f2 = prf2(gold, retrieved)
        if not (0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f2 <= 1.0):
            bounds_ok = False
    results.append(("precision/recall/F2 bounded in [0, 1]", bounds_ok, "100 random judgments"))

    # corpora of >= 64 n docs, where top_n bounds the n-th score from a
    # sample and adds the rows of terms in a quarter of the docs; drawn after
    # every case above, so their inputs stay as they were
    ok = True
    rare = ["tort", "writ", "bond", "oath", "levy", "heir", "ward", "toll", "lease", "deed"]
    for _ in range(10):
        n_docs = int(rng.integers(128, 200))
        docs = {
            f"d{j:03d}": " ".join([*rng.choice(words, size=rng.integers(1, 6)), *rng.choice(rare, size=rng.integers(0, 2))])
            for j in range(n_docs)
        }
        q = list(rng.choice(words + rare, size=3))
        ok = _bm25_agrees(docs, q, (1, 2, n_docs // 3)) and ok
    results.append(("bm25 top_n cuts on large corpora vs oracle", ok, "10 corpora of 128-199 docs, n = 1, 2, n_docs // 3"))
    return results


def _bm25_agrees(docs: dict[str, str], q: list[str], cuts) -> bool:
    """bm25_score of every doc, and top_n's ids at each cut, against the
    straight-loop oracle."""
    idx = build_index([Article(i, "", t) for i, t in docs.items()])
    oracle = bm25_oracle(docs, q)
    expect = [d for d, _ in sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))]
    close = all(abs(bm25_score(idx, q, did) - oracle[did]) <= 1e-12 for did in docs)
    return close and all([d for d, _ in top_n(idx, q, n)] == expect[:n] for n in cuts)

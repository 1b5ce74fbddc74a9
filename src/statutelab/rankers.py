"""Trainable retrieval models and the lexical/semantic score ensemble.

Retrieval is retrieve-then-rerank: BM25 picks top-N candidates, the neural
model scores them semantically, and the final score is
alpha * s_lexical + (1 - alpha) * s_semantic with lexical scores min-max
normalized per query.  Training uses negative sampling with the
cross-entropy in tensor.ce_negsample and plain gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .corpus import Article, Query
from .encoders import (
    EmbeddingTable,
    GeneralAttentionParams,
    SelfAttentionEncoder,
    SentenceEncoderCNN,
    encode_on_tape,
    encode_sentence_cnn,
    encode_statements,
    init_attention_params,
    init_cnn_encoder,
    init_self_attention_layer,
    random_embeddings,
)
from .evalkit import RetrievalJudgment, macro_f2
from .lexical import InvertedIndex, tokenize, top_n
from .store import bundle_bytes, load_bundle, write_bundle

__all__ = [
    "RankerConfig",
    "RankerModel",
    "ScoredCandidate",
    "LawfulnessClassifier",
    "build_attentive_cnn",
    "build_paraformer_lite",
    "build_lawfulness_classifier",
    "parameters",
    "CandidateScores",
    "semantic_score",
    "require_relevant",
    "train_ranker",
    "ensemble",
    "score_candidates",
    "order_candidates",
    "best_alpha",
    "grid_search_alpha",
    "rank",
    "train_lawfulness",
    "lawful_probability",
    "classify",
    "model_bytes",
    "save_model",
    "load_model",
    "save_classifier",
    "load_classifier",
]


@dataclass
class RankerConfig:
    lr: float = 0.05
    epochs: int = 10
    k_negatives: int = 2
    seed: int = 0
    n_train: int = 50
    n_predict: int = 150
    eval_k: int = 1
    k1: float = 1.2
    b: float = 0.75


@dataclass
class RankerModel:
    kind: str  # attentive_cnn | paraformer_lite
    # SentenceEncoderCNN for attentive_cnn, SelfAttentionEncoder for paraformer_lite
    encoder: SentenceEncoderCNN | SelfAttentionEncoder
    para_attn: GeneralAttentionParams
    config: RankerConfig
    # learned global paragraph query; None means derive it from the encoded query
    para_query: Tensor | None = None

    @property
    def embeddings(self) -> EmbeddingTable:
        return self.encoder.embeddings


@dataclass(slots=True)
class ScoredCandidate:
    article_id: str
    s_lexical: float
    s_semantic: float
    s_final: float


def build_attentive_cnn(
    vocab,
    embed_dim: int,
    filters: int,
    attn_dim: int,
    seed: int,
    width: int = 3,
    dropout: float = 0.0,
    para_query: str = "learned",
    emb_scale: float = 0.1,
    config: RankerConfig | None = None,
) -> RankerModel:
    rng = np.random.default_rng(seed)
    emb = random_embeddings(vocab, embed_dim, seed, scale=emb_scale)
    enc = init_cnn_encoder(emb, filters, attn_dim, rng, width=width, dropout=dropout)
    # a derived paragraph query is the encoded query sentence, so its size is
    # the encoder output size rather than the attention query size
    d_q = attn_dim if para_query == "learned" else filters
    para = init_attention_params(d_q, filters, rng, weight_fn="sparsemax")
    pq = None
    if para_query == "learned":
        pq = Tensor(rng.normal(0.0, 1.0 / math.sqrt(attn_dim), size=attn_dim), requires_grad=True)
    elif para_query != "derived":
        raise ValueError(f"para_query must be learned or derived, got {para_query!r}")
    return RankerModel("attentive_cnn", enc, para, config or RankerConfig(seed=seed), pq)


def build_paraformer_lite(
    vocab,
    embed_dim: int,
    n_layers: int,
    n_heads: int,
    seed: int,
    max_len: int = 64,
    config: RankerConfig | None = None,
) -> RankerModel:
    rng = np.random.default_rng(seed)
    emb = random_embeddings(vocab, embed_dim, seed)
    layers = [init_self_attention_layer(embed_dim, n_heads, rng) for _ in range(n_layers)]
    positions = Tensor(rng.normal(0.0, 0.1, size=(max_len, embed_dim)), requires_grad=True)
    # paragraph attention queried by the encoded query sentence itself
    para = init_attention_params(embed_dim, embed_dim, rng, weight_fn="sparsemax")
    enc = SelfAttentionEncoder(emb, positions, layers)
    return RankerModel("paraformer_lite", enc, para, config or RankerConfig(seed=seed))


def parameters(model: RankerModel) -> list[Tensor]:
    """Model tensors in checkpoint order, every one of them trained."""
    params = model.encoder.tensors() + [model.para_attn.A, model.para_attn.b]
    if model.para_query is not None:
        params.append(model.para_query)
    return params


def _encode_sentence(model: RankerModel, tokens: list[str]) -> Tensor | None:
    """The encoded token sequence; None when it has no tokens."""
    if not tokens:
        return None
    enc = model.encoder
    # a CNN goes through this module's encode_sentence_cnn name, which tests
    # patch to count encodes
    if isinstance(enc, SentenceEncoderCNN):
        return encode_sentence_cnn(tokens, enc)
    return enc.encode(tokens)


def _statement_tokens(article: Article) -> list[list[str]]:
    """The token lists of the article's statements (its text when it has
    none), statements without tokens left out."""
    return [t for t in map(tokenize, article.statements or [article.text]) if t]


def _train_scores(model: RankerModel, q_tokens: list[str], articles: list[Article], rng) -> list[Tensor]:
    """s_s = q . r_a of each article on the tape, the query and every
    statement encoded in one encode_on_tape node, with dropout; 0.0 when the
    query or every statement of the article has no tokens.  No statement is
    encoded when the query has no tokens."""
    if not q_tokens:
        return [Tensor(0.0) for _ in articles]
    blocks = [_statement_tokens(a) for a in articles]
    encoded = encode_on_tape([q_tokens] + [t for ts in blocks for t in ts], model.encoder, rng)
    qv = T.take_rows(encoded, 0)
    pq = model.para_query if model.para_query is not None else qv
    attn = model.para_attn
    scores, start = [], 1
    for ts in blocks:
        if not ts:
            scores.append(Tensor(0.0))
            continue
        rows = T.take_rows(encoded, slice(start, start + len(ts)))
        start += len(ts)
        scores.append(T.dot(qv, T.additive_attention(rows, attn.A, attn.b, pq, attn.weight_fn)[0]))
    return scores


def _pool_paragraphs(
    model: RankerModel, blocks: list[np.ndarray | None], q: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """r_a and the statement weights of each row block [S, d] under the
    query q, None for a None block.  Blocks with the same S are stacked to
    [n, S, d] and pooled in one additive_attention_values call, which keeps
    each block's bits."""
    attn = model.para_attn
    by_count: dict[int, list[int]] = {}
    for i, rows in enumerate(blocks):
        if rows is not None:
            by_count.setdefault(len(rows), []).append(i)
    out = [None] * len(blocks)
    for members in by_count.values():
        stack = np.stack([blocks[i] for i in members])
        pooled, w = T.additive_attention_values(stack, attn.A.data, attn.b.data, q, attn.weight_fn)
        for j, i in enumerate(members):
            out[i] = (pooled[j], w[j])
    return out


def _encode_articles(model: RankerModel, articles: list[Article], encoded: dict) -> dict:
    """Put what scoring needs of each article not yet in `encoded` there, the
    statements of all of them encoded in one encode_statements call: r_a when
    the paragraph query is learned, else the statement rows; None when no
    statement has tokens.  Returns `encoded`."""
    todo = {a.id: _statement_tokens(a) for a in articles if a.id not in encoded}
    vecs = encode_statements([t for ts in todo.values() for t in ts], model.encoder)
    blocks, start = [], 0
    for ts in todo.values():
        blocks.append(vecs[start : start + len(ts)] if ts else None)
        start += len(ts)
    if model.para_query is not None:
        pooled = _pool_paragraphs(model, blocks, model.para_query.data)
        blocks = [None if p is None else p[0] for p in pooled]
    encoded.update(zip(todo, blocks))
    return encoded


def _semantic(model: RankerModel, qv: np.ndarray, encs: list[np.ndarray | None]) -> list[float]:
    """s_s = q . r_a for each article's _encode_articles entry, a derived
    query's candidates pooled together."""
    if model.para_query is None:
        encs = [None if p is None else p[0] for p in _pool_paragraphs(model, encs, qv)]
    return [0.0 if r is None else float(np.dot(qv, r)) for r in encs]


def semantic_score(model: RankerModel, query_text: str, article: Article) -> float:
    """Dot product of the encoded query and the pooled article vector; 0.0
    when the query or every statement of the article has no tokens.  The
    article is encoded only when the query has tokens."""
    qv = _encode_sentence(model, tokenize(query_text))
    if qv is None:
        return 0.0
    return _semantic(model, qv.data, [_encode_articles(model, [article], {})[article.id]])[0]


def require_relevant(queries: list[Query], article_ids) -> None:
    """Raise ValueError naming the first query none of whose relevant
    articles is among `article_ids`: training has no positive for it, and
    the alpha grid would average its F2 of 0 into the choice."""
    for q in queries:
        if not (q.relevant_ids & article_ids):
            raise ValueError(f"query {q.id!r} has no relevant article in the corpus")


def train_ranker(
    model: RankerModel,
    corpus: list[Article],
    queries: list[Query],
    k_negatives: int | None = None,
    index: InvertedIndex | None = None,
) -> tuple[RankerModel, list[float]]:
    """Negative-sampling training; returns the model and per-epoch mean loss.

    Negatives are drawn uniformly without replacement from the non-relevant
    articles.  With an index, the pool is first narrowed to each query's
    top n_train lexical candidates (the training-phase cut, which may
    differ from the prediction-phase n_predict).  The draws are seeded by
    the model's config.  A step that diverges raises ValueError naming the
    epoch and the query (tensor.train_step).
    """
    cfg = model.config
    k = cfg.k_negatives if k_negatives is None else k_negatives
    if k >= len(corpus):
        raise ValueError(f"need more than K={k} articles, corpus has {len(corpus)}")
    by_id = {a.id: a for a in corpus}
    require_relevant(queries, by_id.keys())
    pools = {}
    for q in queries:
        if index is not None:
            cands = top_n(index, tokenize(q.text), cfg.n_train, k1=cfg.k1, b=cfg.b)
            pools[q.id] = [d for d, _ in cands if d not in q.relevant_ids]
        else:
            pools[q.id] = [a.id for a in corpus if a.id not in q.relevant_ids]
    params = parameters(model)
    rng = np.random.default_rng(cfg.seed)
    trace = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(queries))
        total = 0.0
        for qi in order:
            q = queries[int(qi)]
            rel = sorted(q.relevant_ids & by_id.keys())
            pos_id = rel[int(rng.integers(0, len(rel)))]
            pool = pools[q.id]
            n_negs = min(k, len(pool))
            neg_ids = [pool[i] for i in rng.choice(len(pool), size=n_negs, replace=False)] if pool else []

            def loss_fn():
                ys = _train_scores(model, tokenize(q.text), [by_id[d] for d in [pos_id, *neg_ids]], rng)
                return T.ce_negsample(ys[0], ys[1:])

            loss = T.train_step(params, cfg.lr, loss_fn, f"epoch {epoch} at query {q.id!r}")
            total += float(loss.data)
        trace.append(total / max(1, len(queries)))
    return model, trace


def ensemble(s_l: float, s_s: float, alpha: float) -> float:
    """alpha * lexical + (1 - alpha) * semantic."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * s_l + (1.0 - alpha) * s_s


def _minmax(scores: list[float]) -> list[float]:
    lo, hi = min(scores), max(scores)
    if hi > lo:
        return [(s - lo) / (hi - lo) for s in scores]
    return [1.0 for _ in scores]


@dataclass
class CandidateScores:
    """One query's BM25 candidates in top_n order, with their min-max
    normalized lexical scores and their semantic scores."""

    ids: list[str]
    lex: list[float]
    sem: list[float]


def score_candidates(
    model: RankerModel,
    index: InvertedIndex,
    corpus: list[Article],
    queries: list[Query],
    n_predict: int | None = None,
) -> list[CandidateScores]:
    """Retrieve each query's top-N lexically and score the candidates
    semantically, in one pass: each query is encoded once and each distinct
    candidate article once, a query's new candidates in one stacked encode,
    and the encodings live only for this call."""
    n_predict = model.config.n_predict if n_predict is None else n_predict
    by_id = {a.id: a for a in corpus}
    encoded = {}
    out = []
    for query in queries:
        q_tokens = tokenize(query.text)
        hits = top_n(index, q_tokens, n_predict, k1=model.config.k1, b=model.config.b)
        ids = [doc_id for doc_id, _ in hits]
        qv = _encode_sentence(model, q_tokens)
        if qv is None:
            sem = [0.0] * len(ids)
        else:
            _encode_articles(model, [by_id[doc_id] for doc_id in ids], encoded)
            sem = _semantic(model, qv.data, [encoded[doc_id] for doc_id in ids])
        out.append(CandidateScores(ids, _minmax([s for _, s in hits]), sem))
    return out


def order_candidates(scored: CandidateScores, alpha: float) -> list[ScoredCandidate]:
    """The candidates with their ensemble scores, best first; ties go to the
    smaller article id."""
    cands = [
        ScoredCandidate(i, l, s, ensemble(l, s, alpha))
        for i, l, s in zip(scored.ids, scored.lex, scored.sem)
    ]
    cands.sort(key=lambda c: (-c.s_final, c.article_id))
    return cands


def rank(
    model: RankerModel,
    index: InvertedIndex,
    corpus: list[Article],
    query: Query,
    n_predict: int | None = None,
    alpha: float | None = None,
) -> list[ScoredCandidate]:
    """Retrieve top-N lexically, rescore semantically, sort by the ensemble."""
    alpha = 0.5 if alpha is None else alpha
    (scored,) = score_candidates(model, index, corpus, [query], n_predict)
    return order_candidates(scored, alpha)


def best_alpha(
    queries: list[Query],
    scored: list[CandidateScores],
    step: float = 0.01,
    k: int = 1,
) -> tuple[float, float]:
    """Best alpha on the grid 0, step, 2*step, ..., 1 by macro-F2@k over
    the queries' scored candidates; ties take the smallest alpha.

    Each alpha's final scores are alpha*lex + (1-alpha)*sem in float64,
    rounded exactly as the scalar expression, and each query's candidates
    are ordered by (-score, id) with one lexsort over the whole grid."""
    if not queries:
        raise ValueError("grid search needs a non-empty validation set")
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must be in (0, 1], got {step}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    alphas = []
    a = 0.0
    while a < 1.0 - 1e-12:
        alphas.append(round(a, 12))
        a += step
    alphas.append(1.0)
    grid = np.array(alphas)[:, None]
    tops = []  # per query: gold ids, candidate ids, top-k candidate positions per alpha
    for q, c in zip(queries, scored, strict=True):
        ids = np.array(c.ids, dtype=object)
        id_rank = np.empty(len(ids), dtype=np.int64)
        id_rank[sorted(range(len(ids)), key=c.ids.__getitem__)] = np.arange(len(ids))
        final = grid * np.array(c.lex) + (1.0 - grid) * np.array(c.sem)
        order = np.lexsort((np.broadcast_to(id_rank, final.shape), -final), axis=-1)
        tops.append((set(q.relevant_ids), ids, order[:, :k]))
    best, best_f2 = 0.0, -1.0
    for a, alpha in enumerate(alphas):
        judgments = [RetrievalJudgment(gold, list(ids[top[a]])) for gold, ids, top in tops]
        _, _, f2 = macro_f2(judgments, k)
        if f2 > best_f2 + 1e-12:
            best, best_f2 = alpha, f2
    return best, best_f2


def grid_search_alpha(
    model: RankerModel,
    index: InvertedIndex,
    corpus: list[Article],
    val_queries: list[Query],
    step: float = 0.01,
    n_predict: int | None = None,
    k: int | None = None,
) -> tuple[float, float]:
    """Best alpha on the validation queries by macro-F2; ties take the
    smallest alpha.  The candidates are scored once, for the whole grid.
    Every query needs a relevant article in the corpus."""
    require_relevant(val_queries, {a.id for a in corpus})
    k = model.config.eval_k if k is None else k
    scored = score_candidates(model, index, corpus, val_queries, n_predict)
    return best_alpha(val_queries, scored, step, k)


# ---------------------------------------------------------------------------
# lawfulness classification


@dataclass
class LawfulnessClassifier:
    encoder: SentenceEncoderCNN
    w: Tensor
    b: Tensor
    lr: float = 0.1
    epochs: int = 10


def build_lawfulness_classifier(
    vocab, embed_dim: int, filters: int, attn_dim: int, seed: int,
    width: int = 3, lr: float = 0.1, epochs: int = 10,
) -> LawfulnessClassifier:
    rng = np.random.default_rng(seed)
    emb = random_embeddings(vocab, embed_dim, seed, scale=0.5)
    enc = init_cnn_encoder(emb, filters, attn_dim, rng, width=width)
    w = Tensor(np.zeros(filters), requires_grad=True)
    b = Tensor(np.asarray(0.0), requires_grad=True)
    return LawfulnessClassifier(enc, w, b, lr, epochs)


def _clf_params(clf: LawfulnessClassifier) -> list[Tensor]:
    """Classifier tensors in checkpoint order."""
    return clf.encoder.tensors() + [clf.w, clf.b]


def _logit(clf: LawfulnessClassifier, text: str) -> Tensor:
    vec = encode_sentence_cnn(tokenize(text), clf.encoder)
    return T.add(T.dot(clf.w, vec), clf.b)


def train_lawfulness(clf: LawfulnessClassifier, dataset, seed: int) -> LawfulnessClassifier:
    """Binary cross-entropy training of the CNN encoder plus linear head.  A
    step that diverges raises ValueError naming the epoch and the sample,
    counted from 1 in dataset order (tensor.train_step)."""
    labels = {rec.lawful for rec in dataset}
    if labels != {True, False}:
        raise ValueError("training data must contain both lawful and unlawful records")
    params = _clf_params(clf)
    rng = np.random.default_rng(seed)
    items = list(dataset)
    for epoch in range(1, clf.epochs + 1):
        for i in rng.permutation(len(items)):
            rec = items[int(i)]

            def loss_fn():
                z = _logit(clf, rec.text)
                # -ln sigma(z) if lawful else -ln(1 - sigma(z)), via softplus
                return T.sub(T.softplus(z), T.scale(z, 1.0 if rec.lawful else 0.0))

            T.train_step(params, clf.lr, loss_fn, f"epoch {epoch} at sample {int(i) + 1}")
    return clf


def lawful_probability(clf: LawfulnessClassifier, text: str) -> float:
    z = float(_logit(clf, text).data)
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:  # z below about -709, where sigma(z) rounds to 0
        return 0.0


def classify(clf: LawfulnessClassifier, text: str) -> bool:
    return lawful_probability(clf, text) >= 0.5


# ---------------------------------------------------------------------------
# checkpoints

# every ranker and lawfulness checkpoint names the one out-of-vocabulary rule
# of encoders.EmbeddingTable: an unknown token embeds as a zero row
_OOV_POLICY = "zero_vector"


def _bundle(model: RankerModel) -> tuple[str, dict, list[Tensor]]:
    meta = {
        "vocab": model.embeddings.words(),
        "oov_policy": _OOV_POLICY,
        "config": asdict(model.config),
    }
    if model.kind == "attentive_cnn":
        meta["dropout"] = model.encoder.dropout
        meta["para_query"] = "learned" if model.para_query is not None else "derived"
    else:
        layers = model.encoder.layers
        meta["n_heads"] = layers[0].n_heads if layers else 1
        meta["n_layers"] = len(layers)
    return model.kind, meta, parameters(model)


def model_bytes(model: RankerModel) -> bytes:
    return bundle_bytes(*_bundle(model))


def save_model(model: RankerModel, path) -> None:
    write_bundle(path, *_bundle(model))


def _check_oov_policy(meta: dict) -> None:
    if meta["oov_policy"] != _OOV_POLICY:
        raise ValueError(f"unknown oov_policy {meta['oov_policy']!r}, expected {_OOV_POLICY!r}")


def _cnn_sizes(shapes) -> dict:
    """CNN encoder sizes read off the stored shapes of its first tensors:
    the table [|V|, d], the filters [w, d, F] and A [d_q, F]."""
    return {"embed_dim": shapes[0][1], "filters": shapes[1][2], "attn_dim": shapes[2][0], "width": shapes[1][0]}


def load_model(path) -> RankerModel:
    def build(kind, meta, shapes):
        _check_oov_policy(meta)
        cfg = RankerConfig(**meta["config"])
        if kind == "attentive_cnn":
            model = build_attentive_cnn(
                meta["vocab"], **_cnn_sizes(shapes), seed=cfg.seed, dropout=meta.get("dropout", 0.0),
                para_query=meta.get("para_query", "learned"), config=cfg,
            )
        else:
            model = build_paraformer_lite(
                meta["vocab"],
                embed_dim=shapes[0][1],
                n_layers=meta["n_layers"],
                n_heads=meta["n_heads"],
                seed=cfg.seed,
                max_len=shapes[1][0],
                config=cfg,
            )
        return model, parameters(model)

    return load_bundle(path, ("attentive_cnn", "paraformer_lite"), build)


def save_classifier(clf: LawfulnessClassifier, path) -> None:
    meta = {
        "vocab": clf.encoder.embeddings.words(),
        "oov_policy": _OOV_POLICY,
        "lr": clf.lr,
        "epochs": clf.epochs,
    }
    write_bundle(path, "lawfulness", meta, _clf_params(clf))


def load_classifier(path) -> LawfulnessClassifier:
    def build(kind, meta, shapes):
        _check_oov_policy(meta)
        clf = build_lawfulness_classifier(
            meta["vocab"], **_cnn_sizes(shapes), seed=0, lr=meta["lr"], epochs=meta["epochs"]
        )
        return clf, _clf_params(clf)

    return load_bundle(path, ("lawfulness",), build)

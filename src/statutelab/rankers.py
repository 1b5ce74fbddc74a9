"""Trainable retrieval models and the lexical/semantic score ensemble.

Retrieval is retrieve-then-rerank: BM25 picks top-N candidates, the neural
model scores them semantically, and the final score is
alpha * s_lexical + (1 - alpha) * s_semantic with lexical scores min-max
normalized per query.  Training uses negative sampling with the
cross-entropy in tensor.ce_negsample and plain gradient descent.

Scoring and training take a ``corpus.Prepared`` corpus (what
``chunk_corpus`` returns) or any list of articles, which is wrapped in one
for the call.  A Prepared tokenizes each article's statements on the
article's first use and keeps their rows in the scoring model's embedding
table (Prepared.statement_rows); the encoders gather the statements from
those rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .corpus import Article, Prepared, Query, StatementRows
from .encoders import (
    _NO_DRAWS,
    STACK_CAP,
    EmbeddingTable,
    GeneralAttentionParams,
    SelfAttentionEncoder,
    SentenceEncoderCNN,
    _drawn_embeddings,
    _encode_rows,
    _rows_on_tape,
    encode_on_tape,
    encode_sentence_cnn,
    encode_statements,
    init_attention_params,
    init_cnn_encoder,
    init_self_attention_layer,
    random_embeddings,
)
from .evalkit import f2_score, ordered_mean
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
    emb = random_embeddings(vocab, embed_dim, seed, scale=emb_scale)
    config = config or RankerConfig(seed=seed)
    return _attentive_cnn(emb, filters, attn_dim, np.random.default_rng(seed), width, dropout, para_query, config)


def _attentive_cnn(
    emb: EmbeddingTable, filters: int, attn_dim: int, rng, width: int, dropout: float, para_query: str,
    config: RankerConfig,
) -> RankerModel:
    """build_attentive_cnn around the table emb, its weights drawn from rng
    (a Generator, or _NO_DRAWS for a model that a checkpoint fills)."""
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
    return RankerModel("attentive_cnn", enc, para, config, pq)


def build_paraformer_lite(
    vocab,
    embed_dim: int,
    n_layers: int,
    n_heads: int,
    seed: int,
    max_len: int = 64,
    config: RankerConfig | None = None,
) -> RankerModel:
    emb = random_embeddings(vocab, embed_dim, seed)
    config = config or RankerConfig(seed=seed)
    return _paraformer_lite(emb, n_layers, n_heads, np.random.default_rng(seed), max_len, config)


def _paraformer_lite(
    emb: EmbeddingTable, n_layers: int, n_heads: int, rng, max_len: int, config: RankerConfig
) -> RankerModel:
    """build_paraformer_lite around the table emb, its weights drawn from
    rng as in _attentive_cnn."""
    embed_dim = emb.dim
    layers = [init_self_attention_layer(embed_dim, n_heads, rng) for _ in range(n_layers)]
    positions = Tensor(rng.normal(0.0, 0.1, size=(max_len, embed_dim)), requires_grad=True)
    # paragraph attention queried by the encoded query sentence itself
    para = init_attention_params(embed_dim, embed_dim, rng, weight_fn="sparsemax")
    enc = SelfAttentionEncoder(emb, positions, layers)
    return RankerModel("paraformer_lite", enc, para, config)


def parameters(model: RankerModel) -> list[Tensor]:
    """Model tensors in checkpoint order, every one of them trained."""
    params = model.encoder.tensors() + [model.para_attn.A, model.para_attn.b]
    if model.para_query is not None:
        params.append(model.para_query)
    return params


def _encode_sentence(model: RankerModel, tokens: list[str]) -> np.ndarray | None:
    """The encoded token sequence, values only; None when it has no tokens."""
    if not tokens:
        return None
    enc = model.encoder
    # a CNN goes through this module's encode_sentence_cnn name, which tests
    # and perfbench patch to count query encodes
    if isinstance(enc, SentenceEncoderCNN):
        return encode_sentence_cnn(tokens, enc).data
    return encode_statements([tokens], enc)[0]


def _prepared(corpus: list[Article]) -> Prepared:
    """The corpus as a Prepared: itself, or a new one around a plain list."""
    return corpus if isinstance(corpus, Prepared) else Prepared(corpus)


def _require_hits(ids, by_id: dict) -> None:
    """Raise ValueError naming the first of the index hits `ids` that is not
    an article of the corpus."""
    for doc_id in ids:
        if doc_id not in by_id:
            raise ValueError(
                f"index hit {doc_id!r} is not in the corpus: the index was not built from this corpus"
            )


def _rows(entries: list[StatementRows]) -> tuple[np.ndarray, list[int], list[int]]:
    """The statement rows of the entries, concatenated, each statement's
    token count, and each entry's statement count."""
    rows = np.frombuffer(b"".join([e.rows for e in entries]), dtype=np.int32)
    return rows, [n for e in entries for n in e.lengths], [len(e.lengths) for e in entries]


def _train_scores(
    model: RankerModel, q_tokens: list[str], articles: list[Article], rng, corpus: Prepared | None = None
) -> list[Tensor]:
    """s_s = q . r_a of each article on the tape, the query and every
    statement with tokens encoded in one encode_on_tape node, with dropout;
    0.0 when the query or every statement of the article has no tokens.  No
    statement is encoded when the query has no tokens.  The articles'
    statement rows are read through `corpus`, by default a Prepared of the
    articles."""
    if not q_tokens:
        return [Tensor(0.0) for _ in articles]
    corpus = _prepared(articles) if corpus is None else corpus
    rows, lengths, counts = _rows([corpus.statement_rows(a, model.embeddings) for a in articles])
    q_rows = model.embeddings.lookup(q_tokens)
    encoded = _rows_on_tape(np.concatenate([q_rows, rows]), [len(q_rows), *lengths], model.encoder, rng)
    qv = T.take_rows(encoded, 0)
    pq = model.para_query if model.para_query is not None else qv
    attn = model.para_attn
    scores, start = [], 1
    for n in counts:
        if not n:
            scores.append(Tensor(0.0))
            continue
        rows = T.take_rows(encoded, slice(start, start + n))
        start += n
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


# statements per _encode_rows call of _encode_articles: enough to fill the
# stacks, few enough to bound the rows held at once
ENCODE_CHUNK = 64 * STACK_CAP


def _encode_chunk(model: RankerModel, todo: dict[str, StatementRows], encoded: dict) -> None:
    """Put the entries of the articles in `todo` (id -> its StatementRows)
    into `encoded`, their statements encoded in one call."""
    rows, lengths, counts = _rows(list(todo.values()))
    vecs = _encode_rows(rows, lengths, model.encoder)
    blocks, start = [], 0
    for n in counts:
        blocks.append(vecs[start : start + n] if n else None)
        start += n
    if model.para_query is not None:
        pooled = _pool_paragraphs(model, blocks, model.para_query.data)
        blocks = [None if p is None else p[0] for p in pooled]
    encoded.update(zip(todo, blocks))


def _encode_articles(model: RankerModel, corpus: Prepared, articles: Iterable[Article], encoded: dict) -> dict:
    """Put what scoring needs of each article not yet in `encoded` there, in
    first-seen order: r_a when the paragraph query is learned, else the
    statement rows; None when no statement has tokens.  The articles'
    statement rows are read once each through `corpus` and encoded in
    chunks of at most ENCODE_CHUNK statements (an article with more is a
    chunk of its own); every row has the bits of its own encode, whatever
    the chunk.  Returns `encoded`."""
    todo, size = {}, 0
    for a in articles:
        if a.id in encoded or a.id in todo:
            continue
        entry = corpus.statement_rows(a, model.embeddings)
        if todo and size + len(entry.lengths) > ENCODE_CHUNK:
            _encode_chunk(model, todo, encoded)
            todo, size = {}, 0
        todo[a.id] = entry
        size += len(entry.lengths)
    if todo:
        _encode_chunk(model, todo, encoded)
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
    return _semantic(model, qv, [_encode_articles(model, Prepared([article]), [article], {})[article.id]])[0]


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
    index: InvertedIndex | None = None,
) -> tuple[RankerModel, list[float]]:
    """Negative-sampling training; returns the model and per-epoch mean loss.

    Each step draws model.config.k_negatives negatives uniformly without
    replacement from the non-relevant articles.  With an index, the pool is
    first narrowed to each query's top n_train lexical candidates (the
    training-phase cut, which may differ from the prediction-phase
    n_predict); a candidate that is not in the corpus raises ValueError.
    The draws are seeded by the model's config.  A step that diverges
    raises ValueError naming the epoch and the query (tensor.train_step).
    No queries raise ValueError.  The corpus is a Prepared or a list.
    """
    if not queries:
        raise ValueError("no training queries")
    cfg = model.config
    k = cfg.k_negatives
    if k >= len(corpus):
        raise ValueError(f"need more than K={k} articles, corpus has {len(corpus)}")
    corpus = _prepared(corpus)
    by_id = corpus.by_id
    require_relevant(queries, by_id.keys())
    # per query: its tokens, its relevant ids in the corpus and its negative pool
    plan = []
    for q in queries:
        q_tokens = tokenize(q.text)
        if index is not None:
            cands = top_n(index, q_tokens, cfg.n_train, k1=cfg.k1, b=cfg.b)
            _require_hits((d for d, _ in cands), by_id)
            pool = [d for d, _ in cands if d not in q.relevant_ids]
        else:
            pool = [a.id for a in corpus if a.id not in q.relevant_ids]
        plan.append((q_tokens, sorted(q.relevant_ids & by_id.keys()), pool))
    params = parameters(model)
    rng = np.random.default_rng(cfg.seed)
    trace = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(queries))
        total = 0.0
        for qi in order:
            q = queries[int(qi)]
            q_tokens, rel, pool = plan[int(qi)]
            pos_id = rel[int(rng.integers(0, len(rel)))]
            n_negs = min(k, len(pool))
            neg_ids = [pool[i] for i in rng.choice(len(pool), size=n_negs, replace=False)] if pool else []

            def loss_fn():
                articles = [by_id[d] for d in [pos_id, *neg_ids]]
                ys = _train_scores(model, q_tokens, articles, rng, corpus)
                return T.ce_negsample(ys[0], ys[1:])

            loss = T.train_step(params, cfg.lr, loss_fn, f"epoch {epoch} at query {q.id!r}")
            total += float(loss.data)
        trace.append(total / len(queries))
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
    semantically, in one pass: each query is encoded once, then the distinct
    candidates of every query with tokens once, in first-seen order and in
    _encode_articles' chunks, and the encodings live only for this call.
    The corpus is a Prepared or a list; a hit that is not in it raises
    ValueError."""
    n_predict = model.config.n_predict if n_predict is None else n_predict
    corpus = _prepared(corpus)
    by_id = corpus.by_id
    out, qvs = [], []
    for query in queries:
        q_tokens = tokenize(query.text)
        hits = top_n(index, q_tokens, n_predict, k1=model.config.k1, b=model.config.b)
        out.append(CandidateScores([doc_id for doc_id, _ in hits], _minmax([s for _, s in hits]), []))
        _require_hits(out[-1].ids, by_id)
        qvs.append(_encode_sentence(model, q_tokens))
    cands = (by_id[doc_id] for c, qv in zip(out, qvs) if qv is not None for doc_id in c.ids)
    encoded = _encode_articles(model, corpus, cands, {})
    for c, qv in zip(out, qvs):
        c.sem = [0.0] * len(c.ids) if qv is None else _semantic(model, qv, [encoded[doc_id] for doc_id in c.ids])
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


def _f2_at_k(gold: set[str], c: CandidateScores, grid: np.ndarray, k: int) -> np.ndarray:
    """evalkit.prf2's F2 of one query's top k candidates at each alpha of
    the grid [A, 1], ranked by (-score, id).  With the candidates in id
    order, each of k argmax passes takes the best candidate not yet taken,
    the smallest id among equals."""
    order = sorted(range(len(c.ids)), key=c.ids.__getitem__)
    final = grid * np.array(c.lex)[order] + (1.0 - grid) * np.array(c.sem)[order]
    is_gold = np.array([c.ids[i] in gold for i in order], dtype=bool)
    rows = np.arange(len(grid))
    hits = np.zeros(len(grid), dtype=np.int64)
    cut = min(k, len(order))
    for _ in range(cut):
        top = np.argmax(final, axis=1)
        hits += is_gold[top]
        final[rows, top] = -np.inf
    zero = np.zeros(len(grid))
    return f2_score(hits / cut if cut else zero, hits / len(gold) if gold else zero)


def best_alpha(
    queries: list[Query],
    scored: list[CandidateScores],
    step: float = 0.01,
    k: int = 1,
) -> tuple[float, float]:
    """Best alpha on the grid 0, step, 2*step, ..., 1 by macro-F2@k over
    the queries' scored candidates; ties take the smallest alpha.  The
    result has the bits of evalkit.macro_f2 over each alpha's rankings.

    Each alpha's final scores are alpha*lex + (1-alpha)*sem in float64,
    rounded exactly as the scalar expression.  The scores must be finite."""
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
    f2s = ordered_mean([_f2_at_k(set(q.relevant_ids), c, grid, k) for q, c in zip(queries, scored, strict=True)])
    best, best_f2 = 0.0, -1.0
    for alpha, f2 in zip(alphas, f2s.tolist()):
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
    corpus = _prepared(corpus)
    require_relevant(val_queries, corpus.by_id.keys())
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
    emb = random_embeddings(vocab, embed_dim, seed, scale=0.5)
    return _lawfulness_classifier(emb, filters, attn_dim, np.random.default_rng(seed), width, lr, epochs)


def _lawfulness_classifier(
    emb: EmbeddingTable, filters: int, attn_dim: int, rng, width: int, lr: float, epochs: int
) -> LawfulnessClassifier:
    """build_lawfulness_classifier around the table emb, its weights drawn
    from rng as in _attentive_cnn."""
    enc = init_cnn_encoder(emb, filters, attn_dim, rng, width=width)
    w = Tensor(np.zeros(filters), requires_grad=True)
    b = Tensor(np.asarray(0.0), requires_grad=True)
    return LawfulnessClassifier(enc, w, b, lr, epochs)


def _clf_params(clf: LawfulnessClassifier) -> list[Tensor]:
    """Classifier tensors in checkpoint order."""
    return clf.encoder.tensors() + [clf.w, clf.b]


def train_lawfulness(clf: LawfulnessClassifier, dataset, seed: int) -> LawfulnessClassifier:
    """Binary cross-entropy training of the CNN encoder plus linear head,
    each text encoded by encode_on_tape as a ranker step encodes its
    statements.  A step that diverges raises ValueError naming the epoch
    and the sample, counted from 1 in dataset order (tensor.train_step)."""
    labels = {rec.lawful for rec in dataset}
    if labels != {True, False}:
        raise ValueError("training data must contain both lawful and unlawful records")
    params = _clf_params(clf)
    rng = np.random.default_rng(seed)
    items = [(tokenize(rec.text), 1.0 if rec.lawful else 0.0) for rec in dataset]
    for epoch in range(1, clf.epochs + 1):
        for i in rng.permutation(len(items)):
            tokens, y = items[int(i)]

            def loss_fn():
                z = T.add(T.dot(clf.w, T.take_rows(encode_on_tape([tokens], clf.encoder, None), 0)), clf.b)
                # -ln sigma(z) if lawful else -ln(1 - sigma(z)), via softplus
                return T.sub(T.softplus(z), T.scale(z, y))

            T.train_step(params, clf.lr, loss_fn, f"epoch {epoch} at sample {int(i) + 1}")
    return clf


def lawful_probability(clf: LawfulnessClassifier, text: str) -> float:
    """sigma(w . v + b) of the encoded text, on plain arrays."""
    z = float(np.dot(clf.w.data, encode_statements([tokenize(text)], clf.encoder)[0]) + clf.b.data)
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:  # z below about -709, where sigma(z) rounds to 0
        return 0.0


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


def _blank_table(meta: dict, shapes) -> EmbeddingTable:
    """The stored vocabulary's table, its [|V|, d] values left for the
    checkpoint to fill."""
    return _drawn_embeddings(meta["vocab"], shapes[0][1], _NO_DRAWS, 0.0)


def _cnn_sizes(shapes) -> tuple[int, int, int]:
    """The CNN encoder's filter count, attention query size and width, read
    off the stored shapes of the filters [w, d, F] and A [d_q, F]."""
    return shapes[1][2], shapes[2][0], shapes[1][0]


def load_model(path) -> RankerModel:
    """The ranker a save_model file holds.  The model is built without
    drawing weights, since the checkpoint fills every tensor."""

    def build(kind, meta, shapes):
        _check_oov_policy(meta)
        cfg = RankerConfig(**meta["config"])
        if min(cfg.epochs, cfg.n_train, cfg.n_predict, cfg.eval_k) < 1 or cfg.k_negatives < 0:
            raise ValueError(f"stored config out of range: {meta['config']}")
        emb = _blank_table(meta, shapes)
        if kind == "attentive_cnn":
            filters, attn_dim, width = _cnn_sizes(shapes)
            dropout, para_query = meta.get("dropout", 0.0), meta.get("para_query", "learned")
            model = _attentive_cnn(emb, filters, attn_dim, _NO_DRAWS, width, dropout, para_query, cfg)
        else:
            model = _paraformer_lite(emb, meta["n_layers"], meta["n_heads"], _NO_DRAWS, shapes[1][0], cfg)
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
    """The classifier a save_classifier file holds, built without drawing
    weights as load_model builds a ranker."""

    def build(kind, meta, shapes):
        _check_oov_policy(meta)
        filters, attn_dim, width = _cnn_sizes(shapes)
        clf = _lawfulness_classifier(
            _blank_table(meta, shapes), filters, attn_dim, _NO_DRAWS, width, meta["lr"], meta["epochs"]
        )
        return clf, _clf_params(clf)

    return load_bundle(path, ("lawfulness",), build)

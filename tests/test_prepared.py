"""corpus.Prepared: the chunked corpus that scoring and training read
statement embedding rows from.  Its outputs are byte-identical to a plain
list's, a second rank on it tokenizes and looks up nothing but the query,
an edited article scores as a fresh chunk would, models with different
tables can alternate on it, and it cannot be changed."""

import pickle

import numpy as np
import pytest

from statutelab import corpus as corpus_mod
from statutelab import encoders, lexical, rankers
from statutelab.corpus import Article, Prepared, Query, chunk_article, chunk_corpus
from statutelab.encoders import encode_paragraph, encode_sentence_cnn
from statutelab.lexical import build_index, tokenize
from statutelab.rankers import (
    RankerConfig,
    build_attentive_cnn,
    build_paraformer_lite,
    grid_search_alpha,
    model_bytes,
    rank,
    train_ranker,
)

# "zzz" and "qqq" are out of every model's vocabulary; a2 and a5 open with
# a statement that has no tokens
TEXTS = [
    ("a1", "(1) gift law writing deed. (2) lease zzz lien act."),
    ("a2", "?! (1) claim party goods. (2) gift deed qqq writing law act."),
    ("a3", "writing act deed claim"),
    ("a4", "(1) lease lien. (2) goods party zzz. (3) act law gift deed writing claim."),
    ("a5", "... (1) party gift."),
    ("a6", "lien qqq zzz claim writing"),
]
QUERIES = [
    Query("q1", "gift writing deed", {"a1"}),
    Query("q2", "lease lien zzz", {"a4"}),
    Query("q3", "party goods claim", {"a2"}),
    Query("q4", "act law", {"a3", "a4"}),
]
N_PREDICT = 5


def world() -> Prepared:
    return chunk_corpus([Article(i, "", t) for i, t in TEXTS])


def build(kind, vocab):
    cfg = RankerConfig(seed=2, lr=0.2, epochs=2, k_negatives=2, n_train=4, n_predict=N_PREDICT)
    if kind == "paraformer_lite":
        return build_paraformer_lite(vocab, embed_dim=8, n_layers=2, n_heads=2, seed=2, config=cfg)
    return build_attentive_cnn(
        vocab, embed_dim=6, filters=5, attn_dim=4, seed=2, width=3, emb_scale=0.5,
        para_query=kind, dropout=0.2, config=cfg,
    )


def model_for(kind):
    words = {w for _, t in TEXTS for w in tokenize(t)} | {w for q in QUERIES for w in tokenize(q.text)}
    return build(kind, sorted(words - {"zzz", "qqq"}))


KINDS = ["learned", "derived", "paraformer_lite"]


def rank_bits(cands):
    return [(c.article_id, c.s_lexical.hex(), c.s_semantic.hex(), c.s_final.hex()) for c in cands]


def test_the_world_has_oov_words_and_a_statement_without_tokens():
    arts = world()
    assert arts[1].statements[0] == "?!" and not tokenize(arts[1].statements[0])
    table = model_for("learned").embeddings
    entry = arts.statement_rows(arts[1], table)
    assert entry.kept == (1, 2) and entry.lengths == (4, 7)
    tokens = [t for s in arts[1].statements for t in tokenize(s)]
    rows = np.frombuffer(entry.rows, dtype=np.int32)
    assert "qqq" not in table.vocab and rows[tokens.index("qqq")] == -1


@pytest.mark.parametrize("kind", KINDS)
def test_rank_and_grid_are_byte_identical_to_a_plain_list(kind):
    arts = world()
    plain = list(arts)
    assert type(plain) is list
    idx = build_index(arts)
    model = model_for(kind)
    for _ in range(2):  # the second pass reads the memo
        for q in QUERIES:
            got = rank(model, idx, arts, q, n_predict=N_PREDICT, alpha=0.3)
            assert rank_bits(got) == rank_bits(rank(model, idx, plain, q, n_predict=N_PREDICT, alpha=0.3))
        for k in (1, 2):
            want = grid_search_alpha(model, idx, plain, QUERIES, step=0.05, n_predict=N_PREDICT, k=k)
            assert grid_search_alpha(model, idx, arts, QUERIES, step=0.05, n_predict=N_PREDICT, k=k) == want


@pytest.mark.parametrize("kind", KINDS)
def test_rank_has_the_bits_of_the_per_sentence_tape(kind):
    """Out-of-vocabulary words included: the row path's zeroed rows are the
    tape's masked embeddings."""
    arts = world()
    idx = build_index(arts)
    model = model_for(kind)
    enc = model.encoder

    def encode(tokens):
        return enc.encode(tokens) if kind == "paraformer_lite" else encode_sentence_cnn(tokens, enc)

    for _ in range(2):
        for q in QUERIES:
            qv = encode(tokenize(q.text))
            for c in rank(model, idx, arts, q, n_predict=N_PREDICT):
                a = arts.by_id[c.article_id]
                reps = [encode(t) for t in map(tokenize, a.statements or [a.text]) if t]
                r_a, _ = encode_paragraph(qv if kind != "learned" else model.para_query, reps, model.para_attn)
                assert c.s_semantic.hex() == float(np.dot(qv.data, r_a.data)).hex()


@pytest.mark.parametrize("with_index", [True, False])
@pytest.mark.parametrize("kind", KINDS)
def test_train_ranker_is_byte_identical_to_a_plain_list(kind, with_index):
    arts = world()
    idx = build_index(arts) if with_index else None
    runs = []
    for corpus in (arts, list(arts), arts):  # a Prepared twice: cold, then warm
        model = model_for(kind)
        model, trace = train_ranker(model, corpus, QUERIES, index=idx)
        runs.append((model_bytes(model), [x.hex() for x in trace]))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("kind", KINDS)
def test_models_that_number_the_words_differently_alternate_on_one_prepared(kind):
    """The memo holds the rows of the last table asked for; a model with
    another table, here the same words in reverse order, gets its own."""
    arts = world()
    idx = build_index(arts)
    words = model_for(kind).embeddings.words()
    vocabs = {"sorted": words, "reversed": words[::-1]}
    models = {order: build(kind, vocab) for order, vocab in vocabs.items()}
    assert models["sorted"].embeddings.vocab != models["reversed"].embeddings.vocab

    def ranked(order, corpus, q):
        return rank_bits(rank(models[order], idx, corpus, q, n_predict=N_PREDICT, alpha=0.3))

    def grid(order, corpus):
        return grid_search_alpha(models[order], idx, corpus, QUERIES, step=0.05, n_predict=N_PREDICT, k=1)

    def trained(order, corpus):
        model, trace = train_ranker(build(kind, vocabs[order]), corpus, QUERIES, index=idx)
        return model_bytes(model), [x.hex() for x in trace]

    plain = list(arts)
    want = {
        order: ([ranked(order, plain, q) for q in QUERIES], grid(order, plain), trained(order, plain))
        for order in models
    }
    assert want["sorted"] != want["reversed"]
    for _ in range(2):
        for i, q in enumerate(QUERIES):
            for order in models:
                assert ranked(order, arts, q) == want[order][0][i]
        for order in models:
            assert grid(order, arts) == want[order][1]
        for order in models:
            assert trained(order, arts) == want[order][2]


@pytest.mark.parametrize("kind", KINDS)
def test_a_second_rank_tokenizes_and_looks_up_only_the_query(kind, monkeypatch):
    arts = world()
    idx = build_index(arts)
    model = model_for(kind)
    q = QUERIES[0]
    first = rank(model, idx, arts, q, n_predict=N_PREDICT)
    tokenized, looked_up = [], []
    real_tokenize, real_lookup = lexical.tokenize, encoders.EmbeddingTable.lookup

    def counting_tokenize(text):
        tokenized.append(text)
        return real_tokenize(text)

    def counting_lookup(table, tokens):
        looked_up.append(list(tokens))
        return real_lookup(table, tokens)

    monkeypatch.setattr(lexical, "tokenize", counting_tokenize)
    monkeypatch.setattr(rankers, "tokenize", counting_tokenize)
    monkeypatch.setattr(encoders.EmbeddingTable, "lookup", counting_lookup)
    second = rank(model, idx, arts, q, n_predict=N_PREDICT)
    assert rank_bits(second) == rank_bits(first)
    # no statement is tokenized or looked up: only the query, once each
    assert tokenized == [q.text]
    assert looked_up == [tokenize(q.text)]
    # a plain list is tokenized afresh on every call
    tokenized.clear()
    rank(model, idx, list(arts), q, n_predict=N_PREDICT)
    assert len(tokenized) > 1


@pytest.mark.parametrize("kind", KINDS)
def test_an_article_edited_after_chunking_scores_as_a_fresh_chunk(kind):
    arts = world()
    model = model_for(kind)
    idx = build_index(arts)
    for q in QUERIES:
        rank(model, idx, arts, q, n_predict=N_PREDICT)
    # a new text with the statements chunk_article gives it, edited in place
    a1 = arts.by_id["a1"]
    a1.text = "(1) claim goods zzz. (2) party deed. (3) writing."
    a1.statements[:] = chunk_article(a1).statements
    # a new statements list
    arts.by_id["a3"].statements = ["lien act", "?!"]
    # a new text on an article with no statements
    arts.by_id["a6"].statements = []
    arts.by_id["a6"].text = "goods gift lease"
    fresh = chunk_corpus([Article(a.id, a.title, a.text) for a in arts])
    fresh.by_id["a3"].statements = ["lien act", "?!"]
    fresh.by_id["a6"].statements = []
    idx = build_index(fresh)
    for q in QUERIES:
        got = rank(model, idx, arts, q, n_predict=N_PREDICT)
        assert rank_bits(got) == rank_bits(rank(model, idx, fresh, q, n_predict=N_PREDICT))
    assert arts.statement_rows(arts.by_id["a3"], model.embeddings).kept == (0,)


def test_prepared_is_a_read_only_list():
    arts = world()
    a = arts[0]
    calls = [
        lambda: arts.append(a), lambda: arts.extend([a]), lambda: arts.insert(0, a),
        lambda: arts.remove(a), lambda: arts.pop(), lambda: arts.clear(), lambda: arts.sort(),
        lambda: arts.reverse(),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="read-only"):
            call()
    with pytest.raises(TypeError, match="read-only"):
        arts[0] = a
    with pytest.raises(TypeError, match="read-only"):
        del arts[0]
    with pytest.raises(TypeError, match="read-only"):
        arts += [a]
    with pytest.raises(TypeError, match="read-only"):
        arts *= 2
    assert len(arts) == len(TEXTS) and arts[0] is a
    for copy in (arts[1:], arts + [a], arts * 2, list(arts), arts.copy()):
        assert type(copy) is list
    assert arts.by_id == {a.id: a for a in arts}
    assert arts.digest == corpus_mod.digest(arts) == build_index(arts).digest
    again = pickle.loads(pickle.dumps(arts))
    assert type(again) is Prepared and [x.id for x in again] == [x.id for x in arts]


@pytest.mark.parametrize("entry", ["rank", "grid_search_alpha", "train_ranker"])
def test_an_index_of_another_corpus_names_the_missing_hit(entry):
    arts = world()
    idx = build_index(arts)
    # the corpus lacks a2, which the index holds and every query below hits
    corpus = chunk_corpus([Article(i, "", t) for i, t in TEXTS if i != "a2"])
    model = model_for("learned")
    queries = [Query("q", "party goods claim gift deed", {"a1"})]
    msg = "index hit 'a2' is not in the corpus: the index was not built from this corpus"
    with pytest.raises(ValueError, match=msg):
        if entry == "rank":
            rank(model, idx, corpus, queries[0], n_predict=len(TEXTS))
        elif entry == "grid_search_alpha":
            grid_search_alpha(model, idx, corpus, queries, n_predict=len(TEXTS))
        else:
            model.config.n_train = len(TEXTS)
            train_ranker(model, corpus, queries, index=idx)


class _DrawSpy:
    """np.random.default_rng that records every Generator it makes and
    every normal() draw from one."""

    def __init__(self, real):
        self.real, self.made, self.draws = real, 0, 0

    def __call__(self, *args, **kwargs):
        self.made += 1
        spy, gen = self, self.real(*args, **kwargs)

        class Recording:
            def __getattr__(self, name):
                return getattr(gen, name)

            def normal(self, *a, **kw):
                spy.draws += 1
                return gen.normal(*a, **kw)

        return Recording()


@pytest.mark.parametrize("kind", KINDS + ["lawfulness"])
def test_loading_a_checkpoint_draws_nothing(kind, tmp_path, monkeypatch):
    vocab = sorted({w for _, t in TEXTS for w in tokenize(t)})
    if kind == "lawfulness":
        built = rankers.build_lawfulness_classifier(vocab, 6, 5, 4, seed=3)
        save, load, to_bytes = rankers.save_classifier, rankers.load_classifier, lambda c: [
            p.data.tobytes() for p in rankers._clf_params(c)
        ]
    else:
        built = build(kind, vocab)
        save, load, to_bytes = rankers.save_model, rankers.load_model, model_bytes
    save(built, tmp_path / "m.slrk")
    spy = _DrawSpy(np.random.default_rng)
    monkeypatch.setattr(np.random, "default_rng", spy)
    loaded = load(tmp_path / "m.slrk")
    assert (spy.made, spy.draws) == (0, 0)
    assert to_bytes(loaded) == to_bytes(built)
    # the spy sees the draws of a fresh build
    build(kind, vocab) if kind != "lawfulness" else rankers.build_lawfulness_classifier(vocab, 6, 5, 4, seed=3)
    assert spy.made == 2 and spy.draws > 2

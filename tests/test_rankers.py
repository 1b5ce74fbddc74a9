import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from statutelab import rankers, tensor
from statutelab.cli import cli_dispatch
from statutelab.corpus import Article, Prepared, Query, chunk_corpus, load_corpus
from statutelab.encoders import encode_paragraph, encode_sentence_cnn, encode_statements
from statutelab.evalkit import RetrievalJudgment, macro_f2
from statutelab.lexical import build_index, tokenize, top_n
from statutelab.rankers import (
    CandidateScores,
    RankerConfig,
    best_alpha,
    build_attentive_cnn,
    build_lawfulness_classifier,
    build_paraformer_lite,
    ensemble,
    grid_search_alpha,
    lawful_probability,
    load_classifier,
    load_model,
    model_bytes,
    rank,
    save_classifier,
    save_model,
    score_candidates,
    semantic_score,
    train_lawfulness,
    train_ranker,
)
from statutelab.augment import LabeledStatement


def tiny_world():
    articles = [
        Article("a1", "", "gift law writing"),
        Article("a2", "", "lease lien act"),
        Article("a3", "", "writing act deed"),
        Article("a4", "", "claim party goods"),
    ]
    queries = [
        Query("q1", "gift writing", {"a1"}),
        Query("q2", "lease lien", {"a2"}),
    ]
    return articles, queries


def vocab_of(articles, queries):
    words = set()
    for a in articles:
        words.update(tokenize(a.text))
    for q in queries:
        words.update(tokenize(q.text))
    return sorted(words)


def small_model(articles, queries, seed=0, **cfg_kwargs):
    base = dict(lr=0.2, epochs=3, k_negatives=1, n_predict=4, eval_k=1)
    base.update(cfg_kwargs)
    cfg = RankerConfig(seed=seed, **base)
    return build_attentive_cnn(
        vocab_of(articles, queries), embed_dim=6, filters=6, attn_dim=4,
        seed=seed, width=1, emb_scale=0.5, config=cfg,
    )


def test_semantic_score_zero_value_paths():
    articles, queries = tiny_world()
    model = small_model(articles, queries)
    model.encoder.filters.data[...] = 0.0
    assert semantic_score(model, "gift writing", articles[0]) == 0.0


def test_semantic_score_identical_inputs_nonnegative():
    articles, queries = tiny_world()
    cfg = RankerConfig(lr=0.2, epochs=3, k_negatives=1, seed=0, n_predict=4, eval_k=1)
    model = build_attentive_cnn(
        vocab_of(articles, queries), embed_dim=6, filters=6, attn_dim=4,
        seed=0, width=1, emb_scale=0.5, para_query="derived", config=cfg,
    )
    # single-statement article identical to the query: score is a squared norm
    s = semantic_score(model, articles[0].text, articles[0])
    assert s >= 0.0


def test_semantic_score_matches_manual_forward_pass():
    articles, queries = tiny_world()
    model = small_model(articles, queries)
    qv = encode_sentence_cnn(tokenize("gift writing"), model.encoder)
    reps = [encode_sentence_cnn(tokenize(articles[0].text), model.encoder)]
    ra, _ = encode_paragraph(model.para_query, reps, model.para_attn)
    expect = float(np.dot(qv.data, ra.data))
    assert abs(semantic_score(model, "gift writing", articles[0]) - expect) < 1e-12


def test_ensemble():
    assert ensemble(0.3, 0.9, 1.0) == 0.3
    assert ensemble(0.3, 0.9, 0.0) == 0.9
    assert abs(ensemble(0.2, 0.6, 0.5) - 0.4) < 1e-12
    with pytest.raises(ValueError):
        ensemble(0.1, 0.2, 1.5)


def test_ensemble_monotone():
    for alpha in (0.0, 0.3, 1.0):
        assert ensemble(0.5, 0.5, alpha) <= ensemble(0.6, 0.5, alpha) or alpha == 0.0
        assert ensemble(0.5, 0.5, alpha) <= ensemble(0.5, 0.6, alpha) or alpha == 1.0


def test_rank_alpha_one_reproduces_bm25_order():
    articles, queries = tiny_world()
    model = small_model(articles, queries)
    idx = build_index(articles)
    for q in queries:
        cands = rank(model, idx, articles, q, n_predict=4, alpha=1.0)
        bm25 = top_n(idx, tokenize(q.text), 4)
        assert [c.article_id for c in cands] == [d for d, _ in bm25]


def test_rank_single_candidate_and_final_score_identity():
    articles, queries = tiny_world()
    model = small_model(articles, queries)
    idx = build_index(articles)
    cands = rank(model, idx, articles, queries[0], n_predict=1, alpha=0.5)
    assert len(cands) == 1
    for c in cands:
        assert abs(c.s_final - (0.5 * c.s_lexical + 0.5 * c.s_semantic)) < 1e-12


def test_rank_candidates_match_bruteforce_top_n():
    articles, queries = tiny_world()
    model = small_model(articles, queries)
    idx = build_index(articles)
    cands = rank(model, idx, articles, queries[0], n_predict=3, alpha=0.7)
    expect = {d for d, _ in top_n(idx, tokenize(queries[0].text), 3)}
    assert {c.article_id for c in cands} == expect


def test_train_ranker_k0_leaves_parameters_unchanged():
    articles, queries = tiny_world()
    model = small_model(articles, queries, k_negatives=0)
    before = model_bytes(model)
    model, trace = train_ranker(model, articles, queries)
    assert trace == [0.0] * model.config.epochs
    assert model_bytes(model) == before


def test_train_ranker_symmetric_init_loss_ln2():
    articles, queries = tiny_world()
    model = small_model(articles, queries, k_negatives=1)
    model.encoder.filters.data[...] = 0.0  # all semantic scores identically 0
    model, trace = train_ranker(model, articles, queries)
    assert abs(trace[0] - math.log(2.0)) < 1e-12


def test_train_ranker_validates_inputs():
    articles, queries = tiny_world()
    model = small_model(articles, queries, k_negatives=4)
    with pytest.raises(ValueError):
        train_ranker(model, articles, queries)  # K >= corpus size
    model = small_model(articles, queries)
    with pytest.raises(ValueError):
        train_ranker(model, articles, [Query("qx", "gift", set())])


def test_train_ranker_narrows_negatives_to_training_pool():
    articles, queries = tiny_world()
    idx = build_index(articles)
    # with n_train=1 each query's single lexical candidate is its relevant
    # article, so the negative pool is empty and the loss collapses to zero
    model = small_model(articles, queries, n_train=1)
    model, trace = train_ranker(model, articles, queries, index=idx)
    assert trace == [0.0] * model.config.epochs
    # widening the training cut brings negatives (and a nonzero loss) back
    model = small_model(articles, queries, n_train=4)
    model, trace = train_ranker(model, articles, queries, index=idx)
    assert trace[0] > 0.0


def test_train_ranker_loss_decreases_on_planted_corpus():
    articles = [Article(f"a{i}", "", f"tok{i} bg") for i in range(8)]
    queries = [Query(f"q{i}", f"tok{i} bg", {f"a{i}"}) for i in range(8)]
    cfg = RankerConfig(lr=0.3, epochs=10, k_negatives=2, seed=5, n_predict=8, eval_k=1)
    model = build_attentive_cnn(
        vocab_of(articles, queries), embed_dim=8, filters=8, attn_dim=4,
        seed=5, width=1, emb_scale=0.5, config=cfg,
    )
    model, trace = train_ranker(model, articles, queries)
    assert trace[-1] < trace[0]


def test_train_ranker_deterministic_checkpoints():
    articles, queries = tiny_world()

    def paraformer_lite():
        cfg = RankerConfig(lr=0.1, epochs=3, k_negatives=1, seed=9, n_predict=4, eval_k=1)
        return build_paraformer_lite(vocab_of(articles, queries), embed_dim=8, n_layers=2, n_heads=2, seed=9, config=cfg)

    for build in (lambda: small_model(articles, queries, seed=9), paraformer_lite):
        runs = []
        for _ in range(2):
            model, _ = train_ranker(build(), articles, queries)
            runs.append(model_bytes(model))
        assert runs[0] == runs[1]


def test_grid_search_degenerate_semantic():
    articles, queries = tiny_world()
    model = small_model(articles, queries)
    model.encoder.filters.data[...] = 0.0  # semantic scores all zero
    idx = build_index(articles)
    alpha, f2 = grid_search_alpha(model, idx, articles, queries, step=0.25, n_predict=4, k=1)
    # returned f2 equals the pure-lexical f2 even if a smaller tied alpha wins
    _, f2_lex = grid_search_alpha(model, idx, articles, queries, step=1.0, n_predict=4, k=1)
    assert abs(f2 - f2_lex) < 1e-12


def test_grid_search_degenerate_lexical():
    articles, queries = tiny_world()
    model = small_model(articles, queries)
    idx = build_index(articles)
    # query terms absent from the corpus: all lexical scores are equal, so
    # every alpha < 1 ranks purely by the semantic score (symmetric to the
    # all-zero-semantic case)
    blank = [Query("qz", "zzz qqq www", {"a1"})]
    _, f2 = grid_search_alpha(model, idx, articles, blank, step=0.25, n_predict=4, k=1)

    def f2_at(alpha):
        cands = rank(model, idx, articles, blank[0], n_predict=4, alpha=alpha)
        return 1.0 if cands[0].article_id in blank[0].relevant_ids else 0.0

    assert f2 == max(f2_at(0.0), f2_at(1.0))


def test_rank_final_scores_convex_in_components():
    articles, queries = tiny_world()
    model = small_model(articles, queries)
    idx = build_index(articles)
    for alpha in (0.0, 0.25, 0.6, 1.0):
        for c in rank(model, idx, articles, queries[0], n_predict=4, alpha=alpha):
            lo = min(c.s_lexical, c.s_semantic)
            hi = max(c.s_lexical, c.s_semantic)
            assert lo - 1e-12 <= c.s_final <= hi + 1e-12


def test_grid_search_rejects_bad_inputs():
    articles, queries = tiny_world()
    model = small_model(articles, queries)
    idx = build_index(articles)
    with pytest.raises(ValueError):
        grid_search_alpha(model, idx, articles, [], step=0.5)
    with pytest.raises(ValueError):
        grid_search_alpha(model, idx, articles, queries, step=0.0)


def test_ranker_checkpoint_roundtrip(tmp_path):
    articles, queries = tiny_world()
    model = small_model(articles, queries, seed=3)
    model, _ = train_ranker(model, articles, queries)
    path = tmp_path / "model.slrk"
    save_model(model, path)
    assert path.read_bytes()[:5] == b"SLRK1"
    back = load_model(path)
    for a in articles:
        assert semantic_score(back, "gift writing", a) == semantic_score(model, "gift writing", a)
    assert model_bytes(back) == model_bytes(model)


def test_paraformer_lite_roundtrip_and_scoring(tmp_path):
    articles, queries = tiny_world()
    cfg = RankerConfig(lr=0.1, epochs=2, k_negatives=1, seed=2, n_predict=4)
    model = build_paraformer_lite(
        vocab_of(articles, queries), embed_dim=8, n_layers=2, n_heads=2,
        seed=2, config=cfg,
    )
    model, trace = train_ranker(model, articles, queries)
    assert len(trace) == 2
    path = tmp_path / "model.slrk"
    save_model(model, path)
    back = load_model(path)
    assert model_bytes(back) == model_bytes(model)
    s = semantic_score(back, "gift writing", articles[0])
    assert s == semantic_score(model, "gift writing", articles[0])


def lawfulness_fixture():
    lawful = [f"the party may {w} the goods" for w in ("keep", "sell", "use", "move", "store", "ship")]
    unlawful = [f"the party never {w} the goods" for w in ("keeps", "sells", "uses", "moves", "stores", "ships")]
    train = [LabeledStatement(t, True, "article_chunk") for t in lawful[:4]]
    train += [LabeledStatement(t, False, "non_entailed_query") for t in unlawful[:4]]
    held = [LabeledStatement(t, True, "article_chunk") for t in lawful[4:]]
    held += [LabeledStatement(t, False, "non_entailed_query") for t in unlawful[4:]]
    return train, held


def test_lawfulness_classifier_separable_fixture():
    train, held = lawfulness_fixture()
    vocab = sorted({w for r in train + held for w in tokenize(r.text)})
    clf = build_lawfulness_classifier(vocab, embed_dim=8, filters=8, attn_dim=4, seed=1, width=1, lr=0.3, epochs=40)
    train_lawfulness(clf, train, seed=1)
    correct = sum((lawful_probability(clf, r.text) >= 0.5) == r.lawful for r in held)
    assert correct / len(held) >= 0.95


def test_lawfulness_zero_head_probability_half():
    train, _ = lawfulness_fixture()
    vocab = sorted({w for r in train for w in tokenize(r.text)})
    clf = build_lawfulness_classifier(vocab, embed_dim=4, filters=4, attn_dim=3, seed=0)
    assert lawful_probability(clf, "the party may keep the goods") == 0.5


def test_lawful_probability_builds_no_tensor_and_has_the_tape_bits():
    train, held = lawfulness_fixture()
    vocab = sorted({w for r in train + held for w in tokenize(r.text)})
    clf = build_lawfulness_classifier(vocab, embed_dim=6, filters=6, attn_dim=4, seed=2, width=3, lr=0.3, epochs=3)
    train_lawfulness(clf, train, seed=2)
    for r in train + held + [LabeledStatement("the party zzz the goods", True, "article_chunk")]:
        start = next(tensor._ids)
        p = lawful_probability(clf, r.text)
        assert next(tensor._ids) == start + 1
        z = tensor.add(tensor.dot(clf.w, encode_sentence_cnn(tokenize(r.text), clf.encoder)), clf.b)
        assert p == 1.0 / (1.0 + math.exp(-float(z.data)))


def test_lawfulness_single_class_rejected():
    train, _ = lawfulness_fixture()
    only_lawful = [r for r in train if r.lawful]
    vocab = sorted({w for r in train for w in tokenize(r.text)})
    clf = build_lawfulness_classifier(vocab, embed_dim=4, filters=4, attn_dim=3, seed=0)
    with pytest.raises(ValueError):
        train_lawfulness(clf, only_lawful, seed=0)


def test_lawfulness_deterministic_and_roundtrip(tmp_path):
    train, _ = lawfulness_fixture()
    vocab = sorted({w for r in train for w in tokenize(r.text)})

    def run():
        clf = build_lawfulness_classifier(vocab, embed_dim=6, filters=6, attn_dim=4, seed=4, width=1, lr=0.2, epochs=5)
        return train_lawfulness(clf, train, seed=4)

    a, b = run(), run()
    pa = [lawful_probability(a, r.text) for r in train]
    pb = [lawful_probability(b, r.text) for r in train]
    assert pa == pb
    path = tmp_path / "clf.slrk"
    save_classifier(a, path)
    back = load_classifier(path)
    assert [lawful_probability(back, r.text) for r in train] == pa


# ---------------------------------------------------------------------------
# one scoring pass per call: rank, the alpha grid and rank run


def statement_world():
    """Articles with several statements, some shared between queries'
    candidate lists, and one statement with no tokens."""
    articles = [
        Article("a1", "", "gift law writing. deed act", ["gift law writing", "deed act"]),
        Article("a2", "", "lease lien act", ["lease lien act"]),
        Article("a3", "", "writing act deed. ?! . claim", ["writing act deed", "?!", "claim"]),
        Article("a4", "", "claim party goods", []),
        Article("a5", "", "gift deed party. lease goods", ["gift deed party", "lease goods"]),
    ]
    queries = [
        Query("q1", "gift writing", {"a1"}),
        Query("q2", "lease lien", {"a2"}),
        Query("q3", "deed party goods", {"a5"}),
        Query("q4", "writing act claim lease", {"a3"}),
    ]
    return articles, queries


def scoring_models(articles, queries):
    vocab = vocab_of(articles, queries)
    cfg = dict(lr=0.2, epochs=2, k_negatives=2, n_predict=5, eval_k=1)
    return {
        "learned": build_attentive_cnn(
            vocab, embed_dim=6, filters=6, attn_dim=4, seed=1, width=3, emb_scale=0.5,
            config=RankerConfig(seed=1, **cfg),
        ),
        "derived": build_attentive_cnn(
            vocab, embed_dim=6, filters=6, attn_dim=4, seed=1, width=3, emb_scale=0.5,
            para_query="derived", config=RankerConfig(seed=1, **cfg),
        ),
        "paraformer_lite": build_paraformer_lite(
            vocab, embed_dim=8, n_layers=2, n_heads=2, seed=1, config=RankerConfig(seed=1, **cfg),
        ),
    }


def _statute_world(seed, n_articles, n_queries):
    """The benchmark's statute world: 1-5 statements of 8-24 tokens per
    article, each query one statement of its gold article, thinned."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    world, queries = mod.statute_world(seed, n_articles, n_queries)
    return chunk_corpus([Article(i, "", t) for i, t in zip(world.ids, world.texts)]), queries


@pytest.mark.parametrize("kind", ["learned", "derived", "paraformer_lite"])
def test_stacked_candidate_scores_have_the_per_statement_bits(kind):
    articles, queries = _statute_world(5, 150, 8)
    model = scoring_models(articles, queries)[kind]
    enc = model.encoder
    by_id = {a.id: a for a in articles}

    def encode(tokens):
        return encode_sentence_cnn(tokens, enc) if kind != "paraformer_lite" else enc.encode(tokens)

    scored = score_candidates(model, build_index(articles), articles, queries, n_predict=30)
    for q, c in zip(queries, scored):
        qv = encode(tokenize(q.text))
        want = []
        for doc_id in c.ids:
            reps = [encode(t) for t in map(tokenize, by_id[doc_id].statements) if t]
            r_a, _ = encode_paragraph(model.para_query if kind == "learned" else qv, reps, model.para_attn)
            want.append(float(np.dot(qv.data, r_a.data)))
        assert len(want) == 30 and np.array(c.sem).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("kind", ["learned", "derived", "paraformer_lite"])
def test_rank_semantic_scores_are_exactly_semantic_score(kind):
    articles, queries = statement_world()
    model = scoring_models(articles, queries)[kind]
    idx = build_index(articles)
    by_id = {a.id: a for a in articles}

    def check():
        for q in queries:
            for c in rank(model, idx, articles, q, n_predict=5, alpha=0.4):
                assert c.s_semantic == semantic_score(model, q.text, by_id[c.article_id])
        # one pass over all queries shares article encodings between them
        for q, scored in zip(queries, score_candidates(model, idx, articles, queries, n_predict=5)):
            assert scored.sem == [semantic_score(model, q.text, by_id[i]) for i in scored.ids]

    check()
    before = model_bytes(model)
    train_ranker(model, articles, queries)
    assert model_bytes(model) != before
    check()


def sorted_sweep(queries, scored, step, k):
    """The alpha sweep written with one Python sort per (alpha, query)."""
    alphas = []
    a = 0.0
    while a < 1.0 - 1e-12:
        alphas.append(round(a, 12))
        a += step
    alphas.append(1.0)
    best_alpha, best_f2 = 0.0, -1.0
    for alpha in alphas:
        judgments = []
        for q, c in zip(queries, scored):
            order = sorted(
                range(len(c.ids)),
                key=lambda i: (-(alpha * c.lex[i] + (1.0 - alpha) * c.sem[i]), c.ids[i]),
            )
            judgments.append(RetrievalJudgment(set(q.relevant_ids), [c.ids[i] for i in order]))
        _, _, f2 = macro_f2(judgments, k)
        if f2 > best_f2 + 1e-12:
            best_alpha, best_f2 = alpha, f2
    return best_alpha, best_f2


@pytest.mark.parametrize("seed", range(6))
def test_best_alpha_equals_sorted_sweep_with_tied_scores(seed):
    """11 queries with F2 values that are mostly not dyadic, so a pairwise
    sum over the queries would change the last bits; 0-8 candidates, so k
    is often above a query's count; gold ids drawn from the candidates plus,
    for about half the queries, one that is none of them."""
    rng = np.random.default_rng(seed)
    levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])  # few levels: many exact ties
    queries, scored = [], []
    for qi in range(11):
        n = int(rng.integers(0, 9))
        ids = [f"d{j}" for j in rng.permutation(12)[:n]]
        gold = set(rng.choice(ids, size=int(rng.integers(0, n + 1)), replace=False)) if n else set()
        if rng.random() < 0.5:
            gold.add(f"x{qi}")
        queries.append(Query(f"q{qi}", "", gold))
        scored.append(CandidateScores(ids, list(rng.choice(levels, n)), list(rng.choice(levels, n))))
    for step in (0.01, 0.125, 0.3, 1.0):
        for k in (1, 2, 3, 5, 9):
            assert best_alpha(queries, scored, step, k) == sorted_sweep(queries, scored, step, k)


def test_grid_search_alpha_equals_sorted_sweep_on_model_scores():
    articles, queries = statement_world()
    idx = build_index(articles)
    for model in scoring_models(articles, queries).values():
        scored = score_candidates(model, idx, articles, queries, n_predict=5)
        for k in (1, 2, 3):
            got = grid_search_alpha(model, idx, articles, queries, step=0.05, n_predict=5, k=k)
            assert got == sorted_sweep(queries, scored, 0.05, k)


def test_best_alpha_rejects_bad_inputs():
    scored = [CandidateScores(["a"], [1.0], [0.0])]
    queries = [Query("q", "", {"a"})]
    with pytest.raises(ValueError):
        best_alpha([], [], 0.5, 1)
    with pytest.raises(ValueError):
        best_alpha(queries, scored, 1.5, 1)
    with pytest.raises(ValueError):
        best_alpha(queries, scored, 0.5, 0)


def row_runs(rows, lengths):
    """The runs of table rows of the given lengths, as tuples."""
    return [tuple(r.tolist()) for r in np.split(rows, np.cumsum(lengths)[:-1])] if len(lengths) else []


def test_score_candidates_encodes_each_query_and_article_once(monkeypatch):
    """Also in chunks of 2 statements, or of 1 (an article with 2 is then a
    chunk of its own), with the bits of a single chunk."""
    articles, queries = statement_world()
    model = scoring_models(articles, queries)["learned"]
    lookup = model.embeddings.lookup
    idx = build_index(articles)
    seen, calls = [], []
    real = rankers.encode_sentence_cnn
    real_rows = rankers._encode_rows

    def counting(tokens, enc, **kw):
        seen.append(tuple(lookup(tokens).tolist()))
        return real(tokens, enc, **kw)

    def counting_rows(rows, lengths, enc):
        seen.extend(row_runs(rows, lengths))
        calls.append(len(lengths))
        return real_rows(rows, lengths, enc)

    def bits(scored):
        return [(c.ids, [x.hex() for x in c.lex], [x.hex() for x in c.sem]) for c in scored]

    monkeypatch.setattr(rankers, "encode_sentence_cnn", counting)
    monkeypatch.setattr(rankers, "_encode_rows", counting_rows)
    statements = [tuple(lookup(t).tolist()) for a in articles for t in map(tokenize, a.statements or [a.text]) if t]
    once = sorted([tuple(lookup(tokenize(q.text)).tolist()) for q in queries] + statements)
    whole = score_candidates(model, idx, articles, queries, n_predict=5)
    assert sorted(seen) == once and calls == [len(statements)]
    for chunk in (2, 1):
        seen.clear()
        calls.clear()
        monkeypatch.setattr(rankers, "ENCODE_CHUNK", chunk)
        assert bits(score_candidates(model, idx, articles, queries, n_predict=5)) == bits(whole)
        assert sorted(seen) == once
        assert len(calls) > 1 and max(calls) == 2


@pytest.mark.parametrize("kind", ["learned", "derived", "paraformer_lite"])
def test_scoring_builds_tensors_for_the_query_encode_only(kind):
    articles, queries = _statute_world(5, 60, 1)
    model = scoring_models(articles, queries)[kind]
    idx = build_index(articles)

    def built(n_predict):
        start = next(tensor._ids)
        (scored,) = score_candidates(model, idx, articles, queries, n_predict=n_predict)
        assert len(scored.ids) == n_predict
        return next(tensor._ids) - start

    assert built(5) == built(len(articles))


def test_paraformer_lite_scoring_builds_no_tensor():
    articles, queries = statement_world()
    model = scoring_models(articles, queries)["paraformer_lite"]
    idx = build_index(articles)
    start = next(tensor._ids)
    score_candidates(model, idx, articles, queries, n_predict=5)
    semantic_score(model, "gift writing", articles[0])
    assert next(tensor._ids) == start + 1


@pytest.mark.parametrize("kind", ["learned", "derived", "paraformer_lite"])
def test_a_query_without_tokens_scores_0_encoding_no_article(kind, monkeypatch):
    articles, queries = statement_world()
    model = scoring_models(articles, queries)[kind]

    def no_article_encode(rows, lengths, enc):
        raise AssertionError("an article was encoded")

    # every article encode goes through _encode_rows, which now raises
    monkeypatch.setattr(rankers, "_encode_rows", no_article_encode)
    oov = Article("z", "", "zzz qqq. yyy", ["zzz qqq", "yyy"])
    with pytest.raises(AssertionError, match="an article was encoded"):
        semantic_score(model, "gift writing", oov)
    assert semantic_score(model, " ?! ", oov) == 0.0
    world = articles + [oov]
    (scored,) = score_candidates(model, build_index(world), world, [Query("qe", " ?! ", set())], n_predict=6)
    assert "z" in scored.ids and scored.sem == [0.0] * 6


@pytest.mark.parametrize("kind", ["learned", "derived", "paraformer_lite"])
def test_pooled_paragraphs_have_the_bits_of_encode_paragraph(kind):
    articles, queries = statement_world()
    blank = Article("z", "", "?! ...", ["?!", "..."])
    world = articles + [blank, Article("a6", "", "lease deed. gift act", ["lease deed", "gift act"])]
    model = scoring_models(world, queries)[kind]
    enc = model.encoder

    def encode(tokens):
        return encode_sentence_cnn(tokens, enc) if kind != "paraformer_lite" else enc.encode(tokens)

    qv = encode(tokenize("gift writing deed"))
    q = model.para_query if kind == "learned" else qv
    token_lists = [[t for t in map(tokenize, a.statements or [a.text]) if t] for a in world]
    # two articles of one statement, four of two, one of none
    assert sorted(map(len, token_lists)) == [0, 1, 1, 2, 2, 2, 2]
    blocks = [encode_statements(ts, enc) if ts else None for ts in token_lists]
    pooled = rankers._pool_paragraphs(model, blocks, q.data)
    for ts, got in zip(token_lists, pooled):
        if not ts:
            assert got is None
            continue
        r_a, weights = encode_paragraph(q, [encode(t) for t in ts], model.para_attn)
        assert got[0].tobytes() == r_a.data.tobytes()
        assert got[1].tobytes() == np.array(weights).tobytes()
    encoded = rankers._encode_articles(model, Prepared(world), world, {})
    sem = rankers._semantic(model, qv.data, [encoded[a.id] for a in world])
    assert encoded["z"] is None and sem[world.index(blank)] == 0.0


@pytest.mark.parametrize("kind", ["learned", "derived", "paraformer_lite"])
def test_score_candidates_rejects_a_non_finite_statement_vector(kind):
    articles, queries = statement_world()
    model = scoring_models(articles, queries)[kind]
    # "law" is in a1's first statement and in no query
    model.embeddings.matrix.data[model.embeddings.vocab["law"]] = np.nan
    idx = build_index(articles)
    with pytest.raises(ValueError, match="sparsemax input holds non-finite values"):
        score_candidates(model, idx, articles, [Query("q", "gift writing", {"a1"})], n_predict=5)


def test_texts_without_tokens_get_defined_scores():
    articles, queries = statement_world()
    idx = build_index(articles)
    for model in scoring_models(articles, queries).values():
        # a statement without tokens is left out of paragraph pooling
        a3 = articles[2]
        kept = Article("a3", "", a3.text, ["writing act deed", "claim"])
        assert semantic_score(model, "writing claim", a3) == semantic_score(model, "writing claim", kept)
        # an article without a tokenizable statement scores 0.0
        blank = Article("z", "", "?! ...", ["?!", "..."])
        assert semantic_score(model, "gift writing", blank) == 0.0
        # a query without tokens scores 0.0 against every candidate
        assert semantic_score(model, " ?! ", articles[0]) == 0.0
        cands = rank(model, idx, articles, Query("qe", " ?! ", set()), n_predict=5, alpha=0.5)
        assert len(cands) == 5 and all(c.s_semantic == 0.0 for c in cands)
        blank_world = articles + [blank]
        cands = rank(model, build_index(blank_world), blank_world, Query("qz", "gift writing", set()), n_predict=6)
        assert {c.article_id: c.s_semantic for c in cands}["z"] == 0.0


def test_rank_run_grid_rows_equal_rank_at_chosen_alpha(tmp_path, capsys):
    articles, queries = statement_world()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": a.id, "title": "", "text": a.text}) + "\n" for a in articles))
    qpath = tmp_path / "queries.jsonl"
    qpath.write_text("".join(
        json.dumps({"id": q.id, "text": q.text, "relevant_ids": sorted(q.relevant_ids), "label": None}) + "\n"
        for q in queries
    ))
    model = scoring_models(articles, queries)["learned"]
    train_ranker(model, articles, queries)
    save_model(model, tmp_path / "model.slrk")
    out = tmp_path / "ranked"
    code = cli_dispatch([
        "rank", "run", "--model", str(tmp_path / "model.slrk"), "--corpus", str(corpus),
        "--queries", str(qpath), "--alpha", "grid", "--step", "0.05", "--n-predict", "5", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    alpha = json.loads((out / "alpha.json").read_text())["alpha"]
    arts = chunk_corpus(load_corpus(corpus))
    idx = build_index(arts)
    assert alpha == grid_search_alpha(model, idx, arts, queries, step=0.05, n_predict=5, k=1)[0]
    rows = [json.loads(line) for line in (out / "run.jsonl").read_text().splitlines()]
    for q, row in zip(queries, rows):
        want = [
            {"id": c.article_id, "s_l": c.s_lexical, "s_s": c.s_semantic, "s_f": c.s_final}
            for c in rank(model, idx, arts, q, n_predict=5, alpha=alpha)
        ]
        assert row == {"qid": q.id, "ranked": want}


# ---------------------------------------------------------------------------
# training shares the scoring path and its no-token rule


def no_token_world():
    articles = [
        Article("a1", "", "gift law writing", ["gift law writing"]),
        Article("a2", "", "lease lien act", ["lease lien act"]),
        Article("a3", "", "?!", ["?!"]),
    ]
    return articles, [Query("q1", "gift writing", {"a1"}), Query("q2", "?!", {"a2"})]


def test_train_ranker_survives_texts_without_tokens():
    articles, queries = no_token_world()
    model = small_model(articles, queries, epochs=1, k_negatives=2)
    # a normal query whose negatives include the article with no tokenizable statement
    _, trace = train_ranker(model, articles, queries[:1])
    assert all(math.isfinite(v) for v in trace)
    # a query without tokens scores 0.0 against all 1+K articles: loss ln(1+K), no update
    before = model_bytes(model)
    _, trace = train_ranker(model, articles, queries[1:])
    assert trace == [math.log(3)]
    assert model_bytes(model) == before
    _, trace = train_ranker(model, articles, queries)
    assert all(math.isfinite(v) for v in trace)


def test_rank_train_cli_accepts_texts_without_tokens(tmp_path, capsys):
    articles, queries = no_token_world()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": a.id, "title": "", "text": a.text}) + "\n" for a in articles))
    qpath = tmp_path / "queries.jsonl"
    qpath.write_text("".join(
        json.dumps({"id": q.id, "text": q.text, "relevant_ids": sorted(q.relevant_ids), "label": None}) + "\n"
        for q in queries
    ))
    code = cli_dispatch([
        "rank", "train", "--corpus", str(corpus), "--queries", str(qpath), "--seed", "2",
        "--embed-dim", "4", "--filters", "4", "--attn-dim", "3", "--width", "1",
        "--epochs", "1", "--K", "2", "--out", str(tmp_path / "train"),
    ])
    err = capsys.readouterr().err
    assert code == 0, err
    trace = json.loads((tmp_path / "train" / "loss_trace.json").read_text())
    assert all(math.isfinite(v) for v in trace)


@pytest.mark.parametrize("kind", ["learned", "derived"])
def test_train_step_encodes_the_query_once(kind, monkeypatch):
    articles, queries = statement_world()
    model = scoring_models(articles, queries)[kind]
    model.config.epochs = 1
    # K = 4 on five articles: the step draws every article
    model.config.k_negatives = 4
    lookup = model.embeddings.lookup
    seen = []
    real = rankers._rows_on_tape

    def counting(rows, lengths, enc, rng):
        seen.extend(row_runs(rows, lengths))
        return real(rows, lengths, enc, rng)

    monkeypatch.setattr(rankers, "_rows_on_tape", counting)
    train_ranker(model, articles, queries[:1])
    statements = [tuple(lookup(t).tolist()) for a in articles for t in map(tokenize, a.statements or [a.text]) if t]
    assert sorted(seen) == sorted([tuple(lookup(tokenize(queries[0].text)).tolist())] + statements)


@pytest.mark.parametrize("para_query, what", [
    ("learned", "non-finite loss nan"),
    ("derived", "sparsemax input holds non-finite values"),
])
def test_train_ranker_names_epoch_and_query_on_non_finite_values(para_query, what):
    articles, queries = tiny_world()
    queries = queries + [Query("q3", "zebra deed", {"a3"})]
    cfg = RankerConfig(lr=0.2, epochs=2, k_negatives=1, seed=0, n_predict=4, eval_k=1)
    model = build_attentive_cnn(
        vocab_of(articles, queries), embed_dim=6, filters=6, attn_dim=4,
        seed=0, width=1, para_query=para_query, config=cfg,
    )
    # "zebra" occurs in no article, so only q3's query vector is poisoned
    model.embeddings.matrix.data[model.embeddings.vocab["zebra"]] = np.nan
    with pytest.raises(ValueError, match=f"training failed in epoch 1 at query 'q3': {what}"):
        train_ranker(model, articles, queries)

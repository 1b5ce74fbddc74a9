import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statutelab.corpus import Article
from statutelab.lexical import (
    build_index,
    bm25_score,
    load_index,
    save_index,
    tokenize,
    top_n,
)
from statutelab.selftest import bm25_oracle


def corpus(texts):
    return [Article(f"d{i:03d}", "", t) for i, t in enumerate(texts)]


def test_tokenize():
    assert tokenize("Gifts not in writing.") == ["gifts", "not", "in", "writing"]
    assert tokenize("") == []
    assert tokenize("shall-not") == ["shall", "not"]
    assert tokenize("Article 330 (1)") == ["article", "330", "1"]


def test_build_index_counts():
    idx = build_index(corpus(["a b", "a"]))
    assert len(idx.postings["a"]) == 2
    assert len(idx.postings["b"]) == 1
    assert idx.avgdl == 1.5
    assert idx.n_docs == 2


def test_build_index_rebuild_identical():
    arts = corpus(["a b c", "b c d", "c d e"])
    a, b = build_index(arts), build_index(arts)
    assert a.postings == b.postings and a.doc_len == b.doc_len


def test_build_index_term_frequency():
    idx = build_index(corpus(["a a a"]))
    assert idx.postings["a"] == [("d000", 3)]


def test_build_index_empty_corpus():
    with pytest.raises(ValueError):
        build_index([])


def test_bm25_hand_example_ln2():
    idx = build_index(corpus(["a b", "b c"]))
    score = bm25_score(idx, ["a"], "d000")
    assert abs(score - math.log(2.0)) < 1e-12


def test_bm25_absent_term_scores_zero():
    idx = build_index(corpus(["a b", "b c"]))
    assert bm25_score(idx, ["zzz"], "d000") == 0.0


def test_bm25_duplicate_terms_additive():
    idx = build_index(corpus(["a b", "b c"]))
    assert bm25_score(idx, ["a", "a"], "d000") == 2 * bm25_score(idx, ["a"], "d000")


def test_bm25_unknown_doc():
    idx = build_index(corpus(["a"]))
    with pytest.raises(KeyError):
        bm25_score(idx, ["a"], "nope")


def test_bm25_monotone_in_tf():
    # same doc length, increasing tf of the query term
    idx = build_index(corpus(["a x y z", "a a y z", "a a a z"]))
    scores = [bm25_score(idx, ["a"], f"d{i:03d}") for i in range(3)]
    assert scores[0] < scores[1] < scores[2]


def test_top_n_tie_breaks_ascending_id():
    idx = build_index(corpus(["a b", "a b"]))
    assert [d for d, _ in top_n(idx, ["a"], 2)] == ["d000", "d001"]


def test_top_n_covers_corpus_when_n_large():
    idx = build_index(corpus(["a", "b", "c"]))
    assert len(top_n(idx, ["a"], 50)) == 3


def test_top_n_is_argmax_of_bm25():
    texts = ["law of gifts", "gifts not in writing", "the writing act", "other text here"]
    idx = build_index(corpus(texts))
    query = ["gifts", "writing"]
    best = top_n(idx, query, 1)[0]
    scores = {d: bm25_score(idx, query, d) for d in idx.doc_len}
    expect = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    assert best[0] == expect[0]
    assert abs(best[1] - expect[1]) < 1e-12


def test_top_n_prefix_property():
    idx = build_index(corpus(["a b c", "a b", "a", "b c", "c"]))
    for q in (["a"], ["a", "c"], ["b", "c"]):
        for n in range(1, 5):
            assert top_n(idx, q, n) == top_n(idx, q, n + 1)[:n]


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10_000))
def test_bm25_matches_straight_loop_oracle(n_docs, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    words = ["law", "gift", "writing", "party", "claim", "lien", "act", "deed"]
    texts = [
        " ".join(rng.choice(words, size=int(rng.integers(1, 10))))
        for _ in range(n_docs)
    ]
    arts = corpus(texts)
    idx = build_index(arts)
    query = list(rng.choice(words, size=3))
    oracle = bm25_oracle({a.id: a.text for a in arts}, query)
    for a in arts:
        assert abs(bm25_score(idx, query, a.id) - oracle[a.id]) < 1e-12
    ranked = top_n(idx, query, n_docs)
    expect = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [d for d, _ in ranked] == [d for d, _ in expect]


def test_index_persistence_roundtrip(tmp_path):
    arts = corpus(["gifts not in writing", "the writing act", "gifts law"])
    idx = build_index(arts)
    path = tmp_path / "index.slix"
    save_index(idx, path)
    assert path.read_bytes()[:5] == b"SLIX1"
    back = load_index(path)
    assert back.postings == idx.postings
    assert back.doc_len == idx.doc_len
    assert back.n_docs == idx.n_docs
    assert abs(back.avgdl - idx.avgdl) < 1e-12
    for q in (["gifts"], ["writing", "law"]):
        assert top_n(back, q, 3) == top_n(idx, q, 3)


def test_index_load_rejects_every_truncation_and_trailing_bytes(tmp_path):
    idx = build_index(corpus(["gifts not in writing", "the writing act", "gifts law"]))
    path = tmp_path / "index.slix"
    save_index(idx, path)
    full = path.read_bytes()
    bad = tmp_path / "bad.slix"
    for cut in range(len(full)):
        bad.write_bytes(full[:cut])
        with pytest.raises(ValueError, match="bad.slix"):
            load_index(bad)
    bad.write_bytes(full + b"\x00")
    with pytest.raises(ValueError, match=f"trailing bytes after the SLIX1 index at offset {len(full)}"):
        load_index(bad)

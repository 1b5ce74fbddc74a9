import hashlib
import math
import re
import struct

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


# the token rule written out here, not imported: lowercased runs of Unicode
# letters and digits, split at anything else, underscore included
TOKEN_RULE = re.compile(r"[^\W_]+")
# every ASCII code point, plus non-ASCII letters and digits, one that lowers
# to two characters (U+0130) and two non-ASCII spaces
TOKEN_ALPHABET = [chr(c) for c in range(128)] + ["É", "ß", "\u0130", "\u0663", "\u00a0", "\u3000", "全"]


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=TOKEN_ALPHABET, max_size=40))
def test_tokenize_matches_the_regex_rule(text):
    assert tokenize(text) == TOKEN_RULE.findall(text.lower())


@pytest.mark.parametrize("text", ["a_b", "x\x1fy", "ÉCOLE 3", ""])
def test_tokenize_matches_the_regex_rule_on_edge_cases(text):
    assert tokenize(text) == TOKEN_RULE.findall(text.lower())


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


# ---------------------------------------------------------------------------
# the dict-of-postings index and top_n that the array index replaced, kept as
# the reference the array version must equal bit for bit


def _dict_index(corpus_):
    postings, doc_len = {}, {}
    for art in corpus_:
        tokens = tokenize(art.text)
        doc_len[art.id] = len(tokens)
        counts = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((art.id, tf))
    return postings, doc_len, sum(doc_len.values()) / len(corpus_), len(corpus_)


def _dict_top_n(ref, query_terms, n, k1=1.2, b=0.75):
    postings, doc_len, avgdl, n_docs = ref
    scores = {doc_id: 0.0 for doc_id in doc_len}
    for term in query_terms:
        df = len(postings.get(term, ()))
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        for doc_id, tf in postings.get(term, ()):
            dl = doc_len[doc_id]
            norm = k1 * (1.0 - b + b * dl / avgdl)
            scores[doc_id] += idf * tf * (k1 + 1.0) / (tf + norm)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[: min(n, n_docs)]


WORDS = ["law", "gift", "act", "deed"]


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.text(alphabet="ab\x00", min_size=1, max_size=3), min_size=1, max_size=12, unique=True),
    st.data(),
)
def test_top_n_equals_the_dict_reference(tmp_path_factory, ids, data):
    # few words and short texts make ties at the n-th place common; ids over
    # "ab\x00" include pairs such as "a" and "a\x00"
    texts = data.draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=5), min_size=len(ids), max_size=len(ids)))
    arts = [Article(i, "", " ".join(t)) for i, t in zip(ids, texts)]
    query = data.draw(st.lists(st.sampled_from(WORDS + ["zzz"]), max_size=6))
    n = data.draw(st.integers(min_value=1, max_value=len(ids) + 3))
    ref = _dict_index(arts)
    idx = build_index(arts)
    assert (idx.postings, idx.doc_len, idx.avgdl, idx.n_docs) == ref
    path = tmp_path_factory.mktemp("eq") / "index.slix"
    save_index(idx, path)
    want = _dict_top_n(ref, query, n)
    for index in (idx, load_index(path)):
        got = top_n(index, query, n)
        assert got == want
        assert all(type(s) is float for _, s in got)


def test_top_n_equals_the_dict_reference_on_edge_cases():
    arts = [Article(i, "", t) for i, t in (("a\x00", "law gift"), ("b", "act"), ("a", "law gift"), ("c", "law gift"))]
    ref = _dict_index(arts)
    idx = build_index(arts)
    for query in (["law"], ["law", "law", "zzz"], ["zzz"], [], ["act", "gift"]):
        for n in (1, 2, 3, 4, 5, 50):
            assert top_n(idx, query, n) == _dict_top_n(ref, query, n)
    assert [d for d, _ in top_n(idx, ["law"], 2)] == ["a", "a\x00"]


def test_build_index_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate article id 'd0'"):
        build_index([Article("d0", "", "a"), Article("d1", "", "b"), Article("d0", "", "c")])


def test_index_file_of_a_fixed_synth_corpus_is_pinned(tmp_path):
    from statutelab.synth import planted_retrieval_world

    articles, _ = planted_retrieval_world(60, 20)
    path = tmp_path / "index.slix"
    save_index(build_index(articles), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c0d9c8e80c139956c8da28e15947d13d0ea37551507312e06a6ef31ed3ac1364"


MIXED_SCRIPT_TEXTS = [
    "Gifts not in writing may be revoked_by either party.",
    "L'ÉCOLE est fermée; la Straße 3 reste ouverte.",
    "İstanbul \u0663\u0664 dates\u00a0and\u3000全 codes",
    "tab\tnew\nline\x1fsep\x1cfile CR\rLF A1b2",
    "",
    "Article 330 (1): the preserver shall prevail.",
]


def test_index_file_of_a_mixed_script_corpus_is_pinned(tmp_path):
    path = tmp_path / "index.slix"
    save_index(build_index(corpus(MIXED_SCRIPT_TEXTS)), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "dd17dee723571ba6fef813164be78247e2e312b21e8d7ea47cd02632fce556b6"


def _slix1(docs, terms):
    """SLIX1 bytes for [(doc id, length)] and [(term, [(doc position, tf)])],
    and the offset of every doc id, doc length, term and posting."""
    out, at = bytearray(b"SLIX1"), {}

    def u32(v):
        out.extend(struct.pack("<I", v))

    def string(s):
        raw = s.encode("utf-8")
        u32(len(raw))
        out.extend(raw)

    u32(len(docs))
    for i, (doc_id, dl) in enumerate(docs):
        at["doc", i] = len(out)
        string(doc_id)
        at["len", i] = len(out)
        u32(dl)
    u32(len(terms))
    for t, (term, plist) in enumerate(terms):
        at["term", t] = len(out)
        string(term)
        u32(len(plist))
        for j, (pos, tf) in enumerate(plist):
            at["post", t, j] = len(out)
            u32(pos)
            u32(tf)
    return bytes(out), at


GOOD_DOCS = [("d0", 2), ("d1", 1), ("d2", 1)]
GOOD_TERMS = [("a", [(0, 1), (1, 1)]), ("b", [(0, 1), (2, 1)])]


def test_slix1_test_writer_matches_save_index(tmp_path):
    path = tmp_path / "index.slix"
    save_index(build_index([Article("d0", "", "a b"), Article("d1", "", "a"), Article("d2", "", "b")]), path)
    assert path.read_bytes() == _slix1(GOOD_DOCS, GOOD_TERMS)[0]


def _with(items, i, value):
    return items[:i] + [value] + items[i + 1 :]


@pytest.mark.parametrize(
    "docs, terms, where, what",
    [
        (GOOD_DOCS, _with(GOOD_TERMS, 0, ("a", [(0, 1), (3, 1)])), ("post", 0, 1), "doc position out of range for 3 docs"),
        (GOOD_DOCS, _with(GOOD_TERMS, 0, ("a", [(0, 1), (0, 1)])), ("post", 0, 1), "not above the previous one"),
        (GOOD_DOCS, _with(GOOD_TERMS, 0, ("a", [(1, 1), (0, 1)])), ("post", 0, 1), "not above the previous one"),
        (_with(GOOD_DOCS, 1, ("d0", 1)), GOOD_TERMS, ("doc", 1), "duplicate doc id 'd0'"),
        (GOOD_DOCS, GOOD_TERMS + [("a", [])], ("term", 2), "duplicate term 'a'"),
        (_with(GOOD_DOCS, 1, ("d1", 0)), _with(GOOD_TERMS, 0, ("a", [(0, 1), (1, 0)])), ("post", 0, 1), "term frequency 0"),
        (_with(GOOD_DOCS, 1, ("d1", 5)), GOOD_TERMS, ("len", 1), "'d1' has length 5 but term frequencies summing to 1"),
    ],
)
def test_index_load_rejects_corrupt_postings_and_duplicates(tmp_path, docs, terms, where, what):
    raw, at = _slix1(docs, terms)
    offset = at[where] + (4 if what == "term frequency 0" else 0)
    bad = tmp_path / "bad.slix"
    bad.write_bytes(raw)
    with pytest.raises(ValueError, match=f"bad.slix: corrupt SLIX1 index at offset {offset}: .*{what}"):
        load_index(bad)


def test_index_load_survives_every_single_byte_flip(tmp_path):
    raw, _ = _slix1(GOOD_DOCS, GOOD_TERMS)
    bad = tmp_path / "bad.slix"
    loaded = 0
    for pos in range(len(raw)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(raw)
            flipped[pos] ^= mask
            bad.write_bytes(bytes(flipped))
            try:
                idx = load_index(bad)
            except ValueError as exc:
                assert "bad.slix" in str(exc) and "offset" in str(exc)
                continue
            loaded += 1
            for query in (["a"], ["b", "a"], idx.terms, ["zzz"]):
                for n in (1, 2, 5):
                    hits = top_n(idx, query, n)
                    assert len(hits) == min(n, idx.n_docs)
                    assert all(math.isfinite(s) for _, s in hits)
    # flips inside the doc ids and terms leave a well-formed file
    assert loaded > 0


BM25_K1 = st.floats(min_value=0.1, max_value=3.0)
BM25_B = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.lists(st.sampled_from(WORDS), max_size=6), min_size=1, max_size=10),
    st.lists(st.tuples(BM25_K1, BM25_B), min_size=2, max_size=2),
    st.data(),
)
def test_top_n_and_bm25_score_equal_the_dict_reference_under_any_k1_and_b(texts, pairs, data):
    # one index queried under two alternating (k1, b) pairs, so its single
    # memo of posting impacts is replaced and refilled; queries repeat terms
    # and hold unknown ones
    arts = corpus([" ".join(t) for t in texts])
    ref = _dict_index(arts)
    idx = build_index(arts)
    queries = data.draw(st.lists(st.lists(st.sampled_from(WORDS + ["zzz"]), max_size=6), min_size=1, max_size=3))
    n = data.draw(st.integers(min_value=1, max_value=len(arts) + 2))
    for k1, b in pairs * 2:
        for query in queries + [["law", "law", "zzz"]]:
            assert top_n(idx, query, n, k1, b) == _dict_top_n(ref, query, n, k1, b)
            every = dict(_dict_top_n(ref, query, len(arts), k1, b))
            assert all(bm25_score(idx, query, a.id, k1, b) == every[a.id] for a in arts)


def test_posting_impacts_are_filled_by_the_first_query_of_each_pair(tmp_path, monkeypatch):
    from statutelab import lexical
    from statutelab.synth import planted_retrieval_world

    idf_calls = []
    real_idf = lexical._idf
    monkeypatch.setattr(lexical, "_idf", lambda n_docs, df: idf_calls.append(df) or real_idf(n_docs, df))
    articles, _ = planted_retrieval_world(60, 20)
    idx = build_index(articles)
    path = tmp_path / "index.slix"
    save_index(idx, path)
    loaded = load_index(path)
    assert idf_calls == [] and idx.impact is None and loaded.impact is None
    with pytest.raises(ValueError):
        loaded.tf[0] = 2

    query = idx.terms[:3] + idx.terms[:1]
    first = top_n(loaded, query, 5)
    assert len(idf_calls) == len(loaded.terms)
    impact = loaded.impact[1]
    assert loaded.impact[0] == (1.2, 0.75) and impact.shape == loaded.docs.shape
    assert top_n(loaded, query, 5) == first
    bm25_score(loaded, idx.terms[4:6], loaded.doc_ids[0])
    assert len(idf_calls) == len(loaded.terms) and loaded.impact[1] is impact
    top_n(loaded, query, 5, k1=2.0)
    assert len(idf_calls) == 2 * len(loaded.terms) and loaded.impact[0] == (2.0, 0.75)

    # a queried index still saves the pinned bytes
    top_n(idx, query, 5)
    save_index(idx, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c0d9c8e80c139956c8da28e15947d13d0ea37551507312e06a6ef31ed3ac1364"


RARE = ["lien", "tort", "bond", "oath", "levy", "fee", "heir", "ward", "toll", "lease"]


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_dense_rows_and_the_sampled_cut_equal_the_dict_reference(n, data):
    # n_docs >= 64 n, so top_n bounds the n-th score from a strided sample;
    # "law" is in every other doc and "writ" in doc 0 only, so queries mix
    # dense rows with scatter-adds; bags of a few words tie at the n-th place
    n_docs = data.draw(st.integers(min_value=64 * n, max_value=64 * n + 64))
    bag = st.tuples(st.lists(st.sampled_from(WORDS[1:]), max_size=3), st.lists(st.sampled_from(RARE), max_size=1))
    bags = data.draw(st.lists(bag, min_size=n_docs, max_size=n_docs))
    texts = [" ".join(["law"] * (j % 2 == 0) + ["writ"] * (j == 0) + c + r) for j, (c, r) in enumerate(bags)]
    arts = corpus(texts)
    ref = _dict_index(arts)
    idx = build_index(arts)
    pairs = data.draw(st.lists(st.tuples(BM25_K1, BM25_B), min_size=2, max_size=2))
    words = WORDS + RARE + ["writ", "zzz"]
    queries = data.draw(st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=5), min_size=1, max_size=2))
    # sparse terms between dense ones, where adding the rows out of query
    # order would move last bits
    queries += [["law", "writ", "law"], ["writ", "law", "lien", "gift", "tort", "deed", "lease", "act"]]
    for k1, b in pairs * 2:
        for query in queries:
            assert top_n(idx, query, n, k1, b) == _dict_top_n(ref, query, n, k1, b)
            every = dict(_dict_top_n(ref, query, n_docs, k1, b))
            assert all(bm25_score(idx, query, a.id, k1, b) == every[a.id] for a in arts[::7])
        rows = idx.impact[2]
        assert idx.term_ids["law"] in rows and idx.term_ids["writ"] not in rows


def test_dense_rows_are_built_once_per_pair_for_terms_in_a_quarter_of_the_docs():
    # df: law 5, gift 3, deed 2 (a quarter of 8 docs), act 1, writ 1
    texts = ["law gift act", "law gift deed", "law deed", "law", "writ", "", "gift", "law"]
    idx = build_index(corpus(texts))
    assert idx.impact is None
    first = top_n(idx, ["act", "law"], 3)
    k1_b, impact, rows = idx.impact
    assert k1_b == (1.2, 0.75)
    assert sorted(rows) == sorted(idx.term_ids[t] for t in ("law", "gift", "deed"))
    for t, row in rows.items():
        lo, hi = idx.starts[t : t + 2]
        dense = [0.0] * idx.n_docs
        for d, s in zip(idx.docs[lo:hi].tolist(), impact[lo:hi].tolist()):
            dense[d] = s
        assert row.tolist() == dense and row.shape == (idx.n_docs,)

    assert top_n(idx, ["act", "law"], 3) == first
    bm25_score(idx, ["gift"], "d001")
    assert idx.impact[2] is rows and all(idx.impact[2][t] is row for t, row in rows.items())
    top_n(idx, ["law"], 3, b=0.5)
    other = idx.impact[2]
    assert other is not rows and sorted(other) == sorted(rows)
    top_n(idx, ["gift"], 3, b=0.5)
    assert idx.impact[2] is other


def test_an_index_without_tokens_scores_every_doc_0_without_warnings():
    import warnings

    idx = build_index(corpus(["", "-- ;", "_"]))
    assert (idx.avgdl, idx.terms) == (0.0, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in ([], ["zzz"], ["zzz", "yyy", "zzz"]):
            assert top_n(idx, query, 5) == [("d000", 0.0), ("d001", 0.0), ("d002", 0.0)]
            assert [bm25_score(idx, query, d) for d in idx.doc_ids] == [0.0, 0.0, 0.0]

"""Tokenization, inverted index, Okapi BM25 and top-N candidate filtering.

The idf uses the non-negative variant ln((N - df + 0.5)/(df + 0.5) + 1);
defaults k1=1.2, b=0.75.  Ties in top_n break by ascending doc id.
"""

from __future__ import annotations

import math
import re
import struct
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from .corpus import Article
from .store import Reader

__all__ = [
    "InvertedIndex",
    "tokenize",
    "build_index",
    "bm25_score",
    "top_n",
    "save_index",
    "load_index",
]

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)
# byte -> itself for [A-Za-z0-9], space for every other byte
_GAPS = bytes(b if chr(b).isascii() and chr(b).isalnum() else 0x20 for b in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercased runs of Unicode letters and digits; anything else,
    underscore included, splits.  ASCII text takes a byte-table path that
    yields the same tokens as the regex: there the regex's runs are exactly
    the runs of [a-z0-9] after lowering."""
    if text.isascii():
        return text.encode().lower().translate(_GAPS).decode().split()
    return _TOKEN.findall(text.lower())


class InvertedIndex:
    """BM25 index with postings in compressed sparse row form.

    Document i is ``doc_ids[i]`` with ``lengths[i]`` tokens; term t is
    ``terms[t]`` (first-occurrence order over the corpus).  Term t's
    postings are ``docs[starts[t]:starts[t+1]]``, ascending document
    positions, with term frequencies ``tf[starts[t]:starts[t+1]]`` (u32,
    the width SLIX1 stores them in).
    ``id_rank[i]`` is document i's place in ascending id order (Python
    string order, which numpy's fixed-width strings would not keep for ids
    ending in "\\x00"), the tie-break of ``top_n``.

    The arrays are read-only after construction, because the index memoizes
    a function of them: ``impact``, every posting's BM25 term score (a
    float64, 8 bytes per posting) under the last (k1, b) it was queried
    with, and for each common term (one in at least a quarter of the docs)
    a dense row of n_docs float64 holding its impacts at its docs and 0.0
    elsewhere, at most 4x the bytes of the term's impacts (27-28 rows,
    4.3-4.5 MB, on a 20k-article Zipf corpus).  The first query under a
    pair fills it (see ``_impacts``); building and loading an index compute
    none.  Scoring adds a common term's row in one pass where it would
    scatter-add its postings; every score keeps its bits (see ``_scores``).
    """

    def __init__(self, doc_ids: list[str], lengths: np.ndarray, terms: list[str],
                 starts: np.ndarray, docs: np.ndarray, tf: np.ndarray):
        self.doc_ids = doc_ids
        self.lengths = lengths
        self.terms = terms
        self.term_ids = {t: i for i, t in enumerate(terms)}
        self.starts = starts
        self.docs = docs
        self.tf = tf
        self.n_docs = len(doc_ids)
        self.avgdl = int(lengths.sum()) / self.n_docs if self.n_docs else 0.0
        self.id_rank = np.empty(self.n_docs, dtype=np.int64)
        self.id_rank[sorted(range(self.n_docs), key=doc_ids.__getitem__)] = np.arange(self.n_docs)
        for a in (lengths, starts, docs, tf, self.id_rank):
            a.flags.writeable = False
        self.impact: tuple[tuple[float, float], np.ndarray, dict[int, np.ndarray]] | None = None

    @property
    def doc_len(self) -> dict[str, int]:
        """doc id -> token count, built anew on each access (O(n_docs))."""
        return dict(zip(self.doc_ids, self.lengths.tolist()))

    @property
    def postings(self) -> dict[str, list[tuple[str, int]]]:
        """term -> [(doc id, tf), ...] in document order, built anew on each
        access (O(postings)); for inspection and tests, not for scoring."""
        ids, docs, tf, bounds = self.doc_ids, self.docs.tolist(), self.tf.tolist(), self.starts.tolist()
        return {
            term: [(ids[d], f) for d, f in zip(docs[bounds[t] : bounds[t + 1]], tf[bounds[t] : bounds[t + 1]])]
            for t, term in enumerate(self.terms)
        }


class _TermIds(dict):
    """term -> id, giving an unseen term the next id on lookup."""

    def __missing__(self, term: str) -> int:
        self[term] = tid = len(self)
        return tid


def build_index(corpus: list[Article]) -> InvertedIndex:
    """Index tokenized article text; deterministic for a fixed corpus."""
    if not corpus:
        raise ValueError("cannot index an empty corpus")
    doc_ids = [a.id for a in corpus]
    dups = [d for d, c in Counter(doc_ids).items() if c > 1]
    if dups:
        raise ValueError(f"duplicate article id {dups[0]!r}")
    n = len(corpus)
    term_ids = _TermIds()
    flat = array("q")
    lengths = np.empty(n, dtype=np.int64)
    for i, art in enumerate(corpus):
        tokens = tokenize(art.text)
        lengths[i] = len(tokens)
        flat.extend(map(term_ids.__getitem__, tokens))
    # one sort groups the (term, doc) pairs by term, docs ascending within a
    # term; each run of equal keys is a posting and its length the tf.  The
    # sort runs in place, where np.unique would sort a copy, to lower the
    # build's peak memory.
    keys = np.array(flat, dtype=np.int64)
    del flat
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys.sort()
    last = np.empty(len(keys), dtype=bool)  # the last pair of each run
    last[:-1] = keys[1:] != keys[:-1]
    last[-1:] = True
    last = np.flatnonzero(last)
    tf = np.diff(last, prepend=-1)
    keys = keys[last]
    starts = np.zeros(len(term_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=len(term_ids)), out=starts[1:])
    return InvertedIndex(doc_ids, lengths, list(term_ids), starts, keys % n, tf.astype("<u4"))


def _idf(n_docs: int, df: int) -> float:
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def _impacts(index: InvertedIndex, k1: float, b: float) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Every posting's BM25 term score under (k1, b), aligned with
    ``index.docs``: idf * tf * (k1 + 1) / (tf + norm), the same IEEE
    operations per posting as scoring one term at a time; and term id ->
    dense row of those scores for every term with df * 4 >= n_docs.
    Memoized on the index for the last pair asked for."""
    memo = index.impact
    if memo is not None and memo[0] == (k1, b):
        return memo[1], memo[2]
    counts = np.diff(index.starts)
    # idf through _idf's math.log: np.log need not give the same last bit
    impact = np.repeat(np.array([_idf(index.n_docs, df) for df in counts.tolist()], dtype=np.float64), counts)
    if impact.size:  # else there is nothing to score, and avgdl may be 0
        norm = k1 * (1.0 - b + b * index.lengths.astype(np.float64) / index.avgdl)
        denom = index.tf.astype(np.float64)
        impact *= denom
        impact *= k1 + 1.0
        denom += norm[index.docs]
        impact /= denom
    rows = {}
    for t in np.flatnonzero(counts * 4 >= index.n_docs).tolist():
        lo, hi = index.starts[t : t + 2].tolist()
        rows[t] = row = np.zeros(index.n_docs)
        row[index.docs[lo:hi]] = impact[lo:hi]
    index.impact = ((k1, b), impact, rows)
    return impact, rows


def _scores(index: InvertedIndex, query_terms: list[str], k1: float, b: float) -> np.ndarray:
    """Every document's Okapi BM25 score, summed term by term in query
    order: per query term, one add of its dense row if it has one, else one
    scatter-add of its memoized posting impacts.  The summation order is
    that of scoring each term from scratch, and the dense rows keep every
    bit: scores start at +0.0 and so are never -0.0, and x + 0.0 == x for
    every other x.  Duplicate query terms contribute additively; terms
    absent from a document contribute zero."""
    impact, rows = _impacts(index, k1, b)
    scores = np.zeros(index.n_docs)
    for term in query_terms:
        t = index.term_ids.get(term)
        if t is None:
            continue
        row = rows.get(t)
        if row is not None:
            scores += row
        else:
            lo, hi = index.starts[t : t + 2].tolist()
            scores[index.docs[lo:hi]] += impact[lo:hi]
    return scores


def bm25_score(
    index: InvertedIndex,
    query_terms: list[str],
    doc_id: str,
    k1: float = 1.2,
    b: float = 0.75,
) -> float:
    """Okapi BM25 of one document against a bag of query terms, the score
    ``top_n`` gives it; KeyError for an unknown doc id."""
    try:
        i = index.doc_ids.index(doc_id)
    except ValueError:
        raise KeyError(f"unknown doc id {doc_id!r}") from None
    return float(_scores(index, query_terms, k1, b)[i])


def top_n(
    index: InvertedIndex,
    query_terms: list[str],
    n: int,
    k1: float = 1.2,
    b: float = 0.75,
) -> list[tuple[str, float]]:
    """Top n docs by BM25, descending score then ascending doc id.

    Every doc scoring at least the n-th best score is a candidate.  That
    score is found from a bound: the n-th best of every
    (n_docs // (32 n))-th score, which is no higher than the n-th best of
    all, so only the docs scoring at or above it are sorted and filtered;
    when the step is 1 or less, all of them are."""
    if n < 1:
        raise ValueError("n must be >= 1")
    n_docs = index.n_docs
    scores = _scores(index, query_terms, k1, b)
    m = min(n, n_docs)
    if m < n_docs:
        # every document scoring at least the m-th best score, ties included
        step = n_docs // (32 * m)
        if step > 1:
            bound = np.sort(scores[::step])[-m]
            # "not below" keeps NaN, which sorts last, as a sort of all would
            pool = np.flatnonzero(~(scores < bound))
            pooled = scores[pool]
            kth = np.sort(pooled)[-m]
            cand = pool[pooled >= kth]
        else:
            kth = np.sort(scores)[-m]
            cand = np.flatnonzero(scores >= kth)
    else:
        cand = np.arange(n_docs)
    best = cand[np.lexsort((index.id_rank[cand], -scores[cand]))[:m]]
    return list(zip(map(index.doc_ids.__getitem__, best.tolist()), scores[best].tolist()))


# ---------------------------------------------------------------------------
# persistence: b"SLIX1", u32 doc count, per doc a length-prefixed UTF-8 id and
# its u32 token count, u32 term count, per term a length-prefixed UTF-8 term,
# its u32 posting count and that many (u32 doc position, u32 tf) pairs; every
# integer little-endian

def _field(s: str, n: int) -> bytes:
    """A length-prefixed UTF-8 string and the u32 after it."""
    raw = s.encode("utf-8")
    return len(raw).to_bytes(4, "little") + raw + n.to_bytes(4, "little")


def save_index(index: InvertedIndex, path) -> None:
    """Write an SLIX1 file, streaming each term's posting block from one
    array of (doc position, tf) pairs rather than joining the file in
    memory.  The doc records are packed before the file opens, so a doc id
    that UTF-8 cannot encode writes nothing; terms are tokens or decoded
    UTF-8 and always encode."""
    docs = map(_field, index.doc_ids, index.lengths.tolist())
    head = b"".join([b"SLIX1", struct.pack("<I", index.n_docs), *docs, struct.pack("<I", len(index.terms))])
    pairs = np.empty((len(index.docs), 2), dtype="<u4")
    pairs[:, 0], pairs[:, 1] = index.docs, index.tf
    blob = memoryview(pairs.view("u1").reshape(-1))
    bounds = index.starts.tolist()
    with open(path, "wb") as f:
        f.write(head)
        for term, lo, hi in zip(index.terms, bounds, bounds[1:]):
            f.write(_field(term, hi - lo))
            f.write(blob[8 * lo : 8 * hi])


def load_index(path) -> InvertedIndex:
    """Read an SLIX1 file.

    A truncated or corrupt file, trailing bytes, a duplicate doc id or term,
    a posting whose doc position is out of range or not above the previous
    one of its term, a term frequency of 0, or a doc length that is not the
    sum of its term frequencies raise ValueError naming the file and offset.
    """
    buf = Path(path).read_bytes()
    r = Reader(buf, "SLIX1 index", path)
    r.magic(b"SLIX1")
    ids: dict[str, int] = {}  # doc id or term -> its offset
    lengths, length_at = [], []
    for _ in range(r.u32()):
        at = r.pos
        if ids.setdefault(doc_id := r.string(), at) != at:
            raise r.error(f"duplicate doc id {doc_id!r}", at)
        length_at.append(r.pos)
        lengths.append(r.u32())
    doc_ids, ids = list(ids), {}
    block_at, counts = [], []
    for _ in range(r.u32()):
        at = r.pos
        if ids.setdefault(term := r.string(), at) != at:
            raise r.error(f"duplicate term {term!r}", at)
        counts.append(r.u32())
        block_at.append(r.take(8 * counts[-1]))
    r.end()
    terms = list(ids)

    blocks = b"".join([buf[at : at + 8 * n] for at, n in zip(block_at, counts)])
    pairs = np.frombuffer(blocks, dtype="<u4").reshape(-1, 2)
    docs, tf = pairs[:, 0].astype(np.int64), pairs[:, 1].copy()
    n_docs = len(doc_ids)
    block_at, counts = np.array(block_at, dtype=np.int64), np.array(counts, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))

    rising = np.diff(docs, prepend=-1) > 0
    rising[starts[:-1][counts > 0]] = True  # a term's first posting
    for bad, what, field in (
        (docs >= n_docs, f"doc position out of range for {n_docs} docs", 0),
        (~rising, "doc position not above the previous one of its term", 0),
        (tf == 0, "term frequency 0", 4),
    ):
        hit = np.flatnonzero(bad)
        if hit.size:
            i = int(hit[0])
            t = int(np.searchsorted(starts, i, side="right")) - 1
            raise r.error(f"posting {what}", int(block_at[t]) + 8 * (i - int(starts[t])) + field)
    lengths = np.array(lengths, dtype=np.int64)
    summed = np.bincount(docs, weights=tf, minlength=n_docs)
    off = np.flatnonzero(summed != lengths)
    if off.size:
        d = int(off[0])
        what = f"doc {doc_ids[d]!r} has length {lengths[d]} but term frequencies summing to {int(summed[d])}"
        raise r.error(what, length_at[d])
    return InvertedIndex(doc_ids, lengths, terms, starts, docs, tf)

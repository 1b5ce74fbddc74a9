"""Tokenization, inverted index, Okapi BM25 and top-N candidate filtering.

The idf uses the non-negative variant ln((N - df + 0.5)/(df + 0.5) + 1);
defaults k1=1.2, b=0.75.  Ties in top_n break by ascending doc id.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field

from .corpus import Article

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


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace and punctuation, drop empties."""
    return _TOKEN.findall(text.lower())


@dataclass
class InvertedIndex:
    postings: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    doc_len: dict[str, int] = field(default_factory=dict)
    avgdl: float = 0.0
    n_docs: int = 0


def build_index(corpus: list[Article]) -> InvertedIndex:
    """Index tokenized article text; deterministic for a fixed corpus."""
    if not corpus:
        raise ValueError("cannot index an empty corpus")
    idx = InvertedIndex()
    for art in corpus:
        tokens = tokenize(art.text)
        idx.doc_len[art.id] = len(tokens)
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        for term, tf in counts.items():
            idx.postings.setdefault(term, []).append((art.id, tf))
    idx.n_docs = len(corpus)
    idx.avgdl = sum(idx.doc_len.values()) / idx.n_docs
    return idx


def _idf(index: InvertedIndex, term: str) -> float:
    df = len(index.postings.get(term, ()))
    return math.log((index.n_docs - df + 0.5) / (df + 0.5) + 1.0)


def bm25_score(
    index: InvertedIndex,
    query_terms: list[str],
    doc_id: str,
    k1: float = 1.2,
    b: float = 0.75,
) -> float:
    """Okapi BM25 of one document against a bag of query terms.

    Duplicate query terms contribute additively; terms absent from the
    document contribute zero.
    """
    if doc_id not in index.doc_len:
        raise KeyError(f"unknown doc id {doc_id!r}")
    dl = index.doc_len[doc_id]
    score = 0.0
    for term in query_terms:
        tf = 0
        for did, f in index.postings.get(term, ()):
            if did == doc_id:
                tf = f
                break
        if tf == 0:
            continue
        norm = k1 * (1.0 - b + b * dl / index.avgdl)
        score += _idf(index, term) * tf * (k1 + 1.0) / (tf + norm)
    return score


def top_n(
    index: InvertedIndex,
    query_terms: list[str],
    n: int,
    k1: float = 1.2,
    b: float = 0.75,
) -> list[tuple[str, float]]:
    """Top n docs by BM25, descending score then ascending doc id."""
    if n < 1:
        raise ValueError("n must be >= 1")
    scores = {doc_id: 0.0 for doc_id in index.doc_len}
    for term in query_terms:
        idf = _idf(index, term)
        for doc_id, tf in index.postings.get(term, ()):
            dl = index.doc_len[doc_id]
            norm = k1 * (1.0 - b + b * dl / index.avgdl)
            scores[doc_id] += idf * tf * (k1 + 1.0) / (tf + norm)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[: min(n, index.n_docs)]


# ---------------------------------------------------------------------------
# persistence: b"SLIX1", length-prefixed UTF-8 strings, little-endian u32

_MAGIC = b"SLIX1"


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def u32(self) -> int:
        (v,) = struct.unpack_from("<I", self.buf, self.pos)
        self.pos += 4
        return v

    def string(self) -> str:
        n = self.u32()
        s = self.buf[self.pos : self.pos + n].decode("utf-8")
        self.pos += n
        return s


def save_index(index: InvertedIndex, path) -> None:
    doc_ids = list(index.doc_len)
    doc_pos = {d: i for i, d in enumerate(doc_ids)}
    parts = [_MAGIC, struct.pack("<I", len(doc_ids))]
    for d in doc_ids:
        parts.append(_pack_str(d))
        parts.append(struct.pack("<I", index.doc_len[d]))
    parts.append(struct.pack("<I", len(index.postings)))
    for term, plist in index.postings.items():
        parts.append(_pack_str(term))
        parts.append(struct.pack("<I", len(plist)))
        for doc_id, tf in plist:
            parts.append(struct.pack("<II", doc_pos[doc_id], tf))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_index(path) -> InvertedIndex:
    """Read an SLIX1 file; a truncated or corrupt file, or trailing bytes,
    raise ValueError naming the file and the reader offset."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:5] != _MAGIC:
        raise ValueError(f"{path}: bad index magic")
    r = _Reader(buf)
    r.pos = 5
    idx = InvertedIndex()
    try:
        n_docs = r.u32()
        doc_ids = []
        for _ in range(n_docs):
            doc_id = r.string()
            doc_ids.append(doc_id)
            idx.doc_len[doc_id] = r.u32()
        n_terms = r.u32()
        for _ in range(n_terms):
            term = r.string()
            n_post = r.u32()
            plist = []
            for _ in range(n_post):
                pos = r.u32()
                tf = r.u32()
                plist.append((doc_ids[pos], tf))
            idx.postings[term] = plist
    except (struct.error, UnicodeDecodeError, IndexError) as exc:
        raise ValueError(f"{path}: corrupt SLIX1 index at offset {r.pos}: {exc}") from None
    if r.pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - r.pos} trailing bytes after the SLIX1 index at offset {r.pos}")
    idx.n_docs = n_docs
    idx.avgdl = sum(idx.doc_len.values()) / n_docs if n_docs else 0.0
    return idx

"""Seeded input generators for the benchmark workloads.

Every generator takes its randomness from a few whole-array draws on one
``numpy.random.Generator`` (never one draw per document), so the 20k-article
corpus is generated in well under a second and the same seed always yields
the same bytes.  Token ranks follow a Zipf law over a synthetic vocabulary
``t0, t1, ...``; ``t0`` is the most frequent word.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from statutelab import synth
from statutelab.corpus import Query


@dataclass
class Corpus:
    """Generated articles as plain records plus the JSONL bytes that
    ``corpus.load_corpus`` reads back."""

    ids: list[str]
    texts: list[str]

    def jsonl(self) -> bytes:
        lines = [
            json.dumps({"id": i, "title": f"Article {i}", "text": t}, separators=(",", ":"))
            for i, t in zip(self.ids, self.texts)
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")


def _zipf_tokens(rng: np.random.Generator, vocab: int, exponent: float, size: int) -> np.ndarray:
    p = 1.0 / np.arange(1, vocab + 1, dtype=np.float64) ** exponent
    return rng.choice(vocab, size=size, p=p / p.sum())


def _words(ids: np.ndarray) -> list[str]:
    return [f"t{i}" for i in ids.tolist()]


def statute_world(seed: int, n_articles: int, n_queries: int):
    """Statute-shaped corpus and planted-gold queries.

    Each article has 1-5 statements of 8-24 Zipf tokens, written as
    "(1) ... . (2) ... ." so ``chunk_corpus`` splits them back apart.  Each
    query is one statement of its gold article with about a quarter of the
    tokens dropped (at least three kept) and 0-3 Zipf noise tokens appended.
    """
    vocab, exponent = 4000, 1.0
    rng = np.random.default_rng([seed, 1])
    n_stmt = rng.integers(1, 6, size=n_articles)
    stmt_len = rng.integers(8, 25, size=int(n_stmt.sum()))
    tokens = _words(_zipf_tokens(rng, vocab, exponent, int(stmt_len.sum())))
    gold = rng.integers(0, n_articles, size=n_queries)
    pick = rng.random(n_queries)
    n_noise = rng.integers(0, 4, size=n_queries)
    noise = _words(_zipf_tokens(rng, vocab, exponent, int(n_noise.sum())))
    keep = rng.random(int(stmt_len.max()) * n_queries).reshape(n_queries, -1) >= 0.25

    stmt_start = np.concatenate([[0], np.cumsum(stmt_len)])
    first_stmt = np.concatenate([[0], np.cumsum(n_stmt)])
    statements = [tokens[stmt_start[s] : stmt_start[s + 1]] for s in range(len(stmt_len))]
    ids = [f"a{i:05d}" for i in range(n_articles)]
    texts = []
    for a in range(n_articles):
        own = statements[first_stmt[a] : first_stmt[a + 1]]
        texts.append(" ".join(f"({k + 1}) {' '.join(s)}." for k, s in enumerate(own)))

    queries = []
    noise_at = np.concatenate([[0], np.cumsum(n_noise)])
    for q in range(n_queries):
        g = int(gold[q])
        stmt = statements[first_stmt[g] + int(pick[q] * n_stmt[g])]
        kept = [t for t, k in zip(stmt, keep[q]) if k]
        if len(kept) < 3:
            kept = stmt[:3]
        words = kept + noise[noise_at[q] : noise_at[q + 1]]
        queries.append(Query(id=f"q{q:04d}", text=" ".join(words), relevant_ids={ids[g]}))
    return Corpus(ids, texts), queries


def zipf_world(seed: int, n_articles: int, n_queries: int):
    """Flat Zipf corpus of 60-100 tokens per article (80 on average) and
    short Zipf queries of 2-6 tokens, returned as token lists."""
    vocab, exponent = 30000, 1.07
    rng = np.random.default_rng([seed, 2])
    doc_len = rng.integers(60, 101, size=n_articles)
    q_len = rng.integers(2, 7, size=n_queries)
    tokens = _words(_zipf_tokens(rng, vocab, exponent, int(doc_len.sum() + q_len.sum())))
    cut = np.concatenate([[0], np.cumsum(np.concatenate([doc_len, q_len]))])
    ids = [f"d{i:05d}" for i in range(n_articles)]
    texts = [" ".join(tokens[cut[i] : cut[i + 1]]) for i in range(n_articles)]
    queries = [tokens[cut[n_articles + q] : cut[n_articles + q + 1]] for q in range(n_queries)]
    return Corpus(ids, texts), queries


def tre_samples(seed: int, n_samples: int):
    """Bracket-grammar BIOE samples from ``synth.bracket_grammar``."""
    return synth.bracket_grammar(n_samples, seed)


def digest(obj) -> str:
    """sha256 of bytes, or of the canonical JSON form of anything else (sets
    are sorted)."""
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=sorted).encode("utf-8")
    return hashlib.sha256(obj).hexdigest()

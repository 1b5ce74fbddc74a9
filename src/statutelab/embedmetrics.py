"""Embedding-quality metrics over static word-vector tables.

Vocabulary coverage is |V ∩ L| / |L| for a legal-term set L.  The
centroid-based score averages, over corpus sentences, the mean cosine
distance (1 - cosine similarity) of each in-vocabulary token vector to the
centroid of the covered legal terms; lower is better.  Out-of-vocabulary
tokens are skipped and counted rather than zero-mapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import EmbeddingTable
from .evalkit import ordered_mean

__all__ = [
    "MetricReport",
    "lvc",
    "centroid",
    "leca",
    "metric_report",
    "export_projection",
]


@dataclass
class MetricReport:
    lvc: float
    leca: float
    covered_terms: int
    skipped_tokens: int


def lvc(table: EmbeddingTable, legal_terms: set[str]) -> float:
    """Fraction of the legal-term set present in the vocabulary."""
    if not legal_terms:
        raise ValueError("legal-term set must be non-empty")
    covered = sum(1 for t in legal_terms if t in table.vocab)
    return covered / len(legal_terms)


def centroid(table: EmbeddingTable, terms: set[str]) -> np.ndarray:
    """Arithmetic mean of the vectors of the covered terms."""
    rows = [table.matrix.data[table.vocab[t]] for t in sorted(terms) if t in table.vocab]
    if not rows:
        raise ValueError("no term is covered by the vocabulary")
    return np.mean(rows, axis=0)


def _cosine_distance(v: np.ndarray, o: np.ndarray, name: str) -> float:
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError(f"zero-norm vector for token {name!r}")
    no = np.linalg.norm(o)
    if no == 0.0:
        raise ValueError("zero-norm centroid")
    return 1.0 - float(np.dot(v, o) / (nv * no))


def leca(
    table: EmbeddingTable,
    legal_terms: set[str],
    corpus_sentences: list[list[str]],
) -> tuple[float, int]:
    """Mean over sentences of the mean token-to-centroid cosine distance.

    Only in-vocabulary tokens count toward a sentence's mean; sentences with
    no covered token are skipped.  Returns (score, skipped_token_count).
    """
    o = centroid(table, legal_terms)
    sentence_means = []
    skipped = 0
    for sent in corpus_sentences:
        dists = []
        for tok in sent:
            row = table.vocab.get(tok)
            if row is None:
                skipped += 1
                continue
            dists.append(_cosine_distance(table.matrix.data[row], o, tok))
        if dists:
            sentence_means.append(ordered_mean(dists))
    if not sentence_means:
        raise ValueError("no sentence has an in-vocabulary token")
    return ordered_mean(sentence_means), skipped


def metric_report(
    table: EmbeddingTable,
    legal_terms: set[str],
    corpus_sentences: list[list[str]],
) -> MetricReport:
    score, skipped = leca(table, legal_terms, corpus_sentences)
    covered = sum(1 for t in legal_terms if t in table.vocab)
    return MetricReport(lvc(table, legal_terms), score, covered, skipped)


def export_projection(
    table: EmbeddingTable,
    terms: set[str],
    top_k: int,
    path,
) -> int:
    """Write a TSV (word, label, v1..vd) of the first top_k vocabulary rows,
    ready for external t-SNE/PCA; returns the row count.

    Vocabulary order is taken as the frequency order (embedding files list
    most frequent words first).  Words in `terms` get the "legal" label,
    everything else "nonlegal".
    """
    words = sorted(table.vocab.items(), key=lambda kv: kv[1])[: max(0, top_k)]
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in words:
            label = "legal" if word in terms else "nonlegal"
            vals = "\t".join(repr(float(v)) for v in table.matrix.data[row])
            fh.write(f"{word}\t{label}\t{vals}\n")
    return len(words)

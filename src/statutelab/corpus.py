"""Corpus ingestion, article chunking and length statistics.

Corpora are JSONL files with one ``{"id", "title", "text"}`` object per line;
query sets are JSONL with ``{"id", "text", "relevant_ids", "label"}``.
Articles are chunked at top-level enumeration markers "(1)", "(2)", ... while
roman-numeral items "(i)", "(ii)" stay inside their parent chunk.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Article",
    "Query",
    "CorpusStats",
    "open_text",
    "read_jsonl",
    "load_corpus",
    "load_queries",
    "chunk_article",
    "chunk_corpus",
    "corpus_stats",
    "split_dataset",
]


@dataclass
class Article:
    id: str
    title: str
    text: str
    statements: list[str] = field(default_factory=list)


@dataclass
class Query:
    id: str
    text: str
    relevant_ids: set[str] = field(default_factory=set)
    entailment_label: bool | None = None


@dataclass
class CorpusStats:
    mean_len: float
    std_len: float
    count: int


@contextmanager
def open_text(path):
    """open(path, encoding="utf-8") for reading, except that invalid UTF-8
    raises ValueError naming the file, the line and the column (in bytes)
    of the first bad byte.  The file is read again, as bytes, only then."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno = data.count(b"\n", 0, exc.start) + 1
                column = exc.start - data.rfind(b"\n", 0, exc.start)
                raise ValueError(
                    f"{path} line {lineno}: invalid UTF-8 byte 0x{data[exc.start]:02x} "
                    f"at column {column} ({exc.reason})"
                ) from None
            raise


def read_jsonl(path, keys=()):
    """Yield (line number, object) for each non-blank line of a JSONL file.
    A line that is not a JSON object, or an object without one of `keys`,
    raises ValueError naming the file and the line."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {lineno}: invalid JSON ({exc.msg} at column {exc.colno})") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path} line {lineno}: expected a JSON object, got a {type(obj).__name__}")
            for key in keys:
                if key not in obj:
                    raise ValueError(f"{path} line {lineno}: missing key {key!r}")
            yield lineno, obj


def load_corpus(path) -> list[Article]:
    """Read a JSONL corpus; order preserved, statements left empty."""
    articles: list[Article] = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                art = Article(id=str(obj["id"]), title=str(obj.get("title", "")), text=str(obj["text"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed corpus line {lineno}: {exc}") from exc
            if not art.id:
                raise ValueError(f"malformed corpus line {lineno}: empty id")
            if art.id in seen:
                raise ValueError(f"duplicate article id {art.id!r}")
            seen.add(art.id)
            articles.append(art)
    return articles


def load_queries(path) -> list[Query]:
    """Read a JSONL query set; label may be true, false or null."""
    queries: list[Query] = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                q = Query(
                    id=str(obj["id"]),
                    text=str(obj["text"]),
                    relevant_ids=set(map(str, obj.get("relevant_ids", []))),
                    entailment_label=obj.get("label"),
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed query line {lineno}: {exc}") from exc
            if q.entailment_label is not None and not isinstance(q.entailment_label, bool):
                raise ValueError(f"malformed query line {lineno}: label must be true/false/null")
            if q.id in seen:
                raise ValueError(f"duplicate query id {q.id!r}")
            seen.add(q.id)
            queries.append(q)
    return queries


_MARKER = re.compile(r"\((\d+)\)")
_SEGMENT_END = ".;:!?\n"


def _marker_positions(text: str) -> list[int]:
    # A decimal marker splits only at a segment start: the very beginning of
    # the text or right after sentence-ending punctuation / a newline
    # (whitespace in between allowed).  "(i)", "(ii)" never match.
    positions = []
    for m in _MARKER.finditer(text):
        i = m.start() - 1
        while i >= 0 and text[i] in " \t":
            i -= 1
        if i < 0 or text[i] in _SEGMENT_END:
            positions.append(m.start())
    return positions


def chunk_article(article: Article) -> Article:
    """Split the article text into statements at top-level markers.

    An article with no markers yields one statement equal to its text.
    """
    if not article.text:
        raise ValueError(f"article {article.id!r} has empty text")
    cuts = _marker_positions(article.text)
    if not cuts:
        statements = [article.text]
    else:
        statements = []
        head = article.text[: cuts[0]]
        if head.strip():
            statements.append(head.strip())
        for start, end in zip(cuts, cuts[1:] + [len(article.text)]):
            statements.append(article.text[start:end].strip())
    return Article(id=article.id, title=article.title, text=article.text, statements=statements)


def chunk_corpus(articles: list[Article]) -> list[Article]:
    return [chunk_article(a) for a in articles]


def corpus_stats(texts) -> CorpusStats:
    """Mean and population standard deviation of whitespace-token counts."""
    lengths = [len(t.split()) for t in texts]
    if not lengths:
        return CorpusStats(0.0, 0.0, 0)
    mean = sum(lengths) / len(lengths)
    var = sum((n - mean) ** 2 for n in lengths) / len(lengths)
    return CorpusStats(mean, math.sqrt(var), len(lengths))


def split_dataset(items, ratios, seed: int):
    """Deterministic seeded shuffle, then split by the three ratios.

    Rounded val/test sizes, remainder to train; partitions are disjoint and
    exhaustive.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be three positive reals, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    items = list(items)
    n = len(items)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = min(round(ratios[1] * n), n)
    n_test = min(round(ratios[2] * n), n - n_val)
    n_train = n - n_val - n_test
    shuffled = [items[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )

"""Corpus ingestion, article chunking and length statistics.

Corpora are JSONL files with one ``{"id", "title", "text"}`` object per line;
query sets are JSONL with ``{"id", "text", "relevant_ids", "label"}``.
Articles are chunked at top-level enumeration markers "(1)", "(2)", ... while
roman-numeral items "(i)", "(ii)" stay inside their parent chunk.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Article",
    "Query",
    "CorpusStats",
    "open_text",
    "read_jsonl",
    "json_list",
    "require_records",
    "load_corpus",
    "load_queries",
    "chunk_article",
    "chunk_corpus",
    "corpus_stats",
    "digest",
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


_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def read_jsonl(path, keys=(), parse=None):
    """Yield (line number, record) for each non-blank line of a JSONL file;
    the record is the line's object, or parse(object).  A line that is not
    a JSON object, an object without one of `keys`, a key or value holding
    a lone surrogate (only a \\u escape can write one, so only lines with
    one are searched), or a ValueError or TypeError from `parse` raises
    ValueError naming the file and the line.

    A line is decoded by the steps of ``json.loads``, without its Python
    wrapper: skip JSON whitespace, one ``raw_decode``, and only JSON
    whitespace after the value.  A line that fails them goes through
    ``json.loads``, so the error and its message are its own."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():  # a line from a file is never empty
                continue
            try:
                obj, end = _raw_decode(line, len(line) - len(line.lstrip(_JSON_SPACE)))
                clean = not line[end:].strip(_JSON_SPACE)
            except ValueError:
                clean = False
            if not clean:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path} line {lineno}: invalid JSON ({exc.msg} at column {exc.colno})") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path} line {lineno}: expected a JSON object, got a {type(obj).__name__}")
            # a lone surrogate needs a \u escape; the search for one byte
            # (memchr) rules most lines out ten times faster than for two
            if "\\" in line and "\\u" in line:
                for key, value in obj.items():
                    try:
                        json.dumps({key: value}, ensure_ascii=False).encode("utf-8")
                    except UnicodeEncodeError:
                        msg = f"key {key!r} holds a lone surrogate (not UTF-8)"
                        raise ValueError(f"{path} line {lineno}: {msg}") from None
            for key in keys:
                if key not in obj:
                    raise ValueError(f"{path} line {lineno}: missing key {key!r}")
            if parse is not None:
                try:
                    obj = parse(obj)
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"{path} line {lineno}: {exc}") from None
            yield lineno, obj


def require_records(path, records, what: str):
    """The records a loader read from `path`; none raises ValueError
    "no <what> in <path>".  Every loader a command uses returns through it."""
    if not records:
        raise ValueError(f"no {what} in {path}")
    return records


def json_list(obj: dict, key: str) -> list:
    """obj[key], an empty list when the key is absent; TypeError unless the
    value is a JSON array."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a JSON array, got {type(value).__name__}")
    return value


def _article(obj: dict) -> Article:
    art = Article(id=str(obj["id"]), title=str(obj.get("title", "")), text=str(obj["text"]))
    if not art.id:
        raise ValueError("empty article id")
    return art


def _query(obj: dict) -> Query:
    label = obj.get("label")
    if label is not None and not isinstance(label, bool):
        raise ValueError("label must be true/false/null")
    return Query(str(obj["id"]), str(obj["text"]), set(map(str, json_list(obj, "relevant_ids"))), label)


def _unique(path, records, what: str, plural: str) -> list:
    """The records of (line number, record) pairs, in order; a repeated id
    raises ValueError naming its line, and no record "no <plural> in <path>"."""
    out, seen = [], set()
    for lineno, rec in records:
        if rec.id in seen:
            raise ValueError(f"{path} line {lineno}: duplicate {what} id {rec.id!r}")
        seen.add(rec.id)
        out.append(rec)
    return require_records(path, out, plural)


def load_corpus(path) -> list[Article]:
    """Read a JSONL corpus of one article or more; order preserved, statements left empty."""
    return _unique(path, read_jsonl(path, ("id", "text"), _article), "article", "articles")


def load_queries(path) -> list[Query]:
    """Read a JSONL query set of one query or more; label may be true, false or null."""
    return _unique(path, read_jsonl(path, ("id", "text"), _query), "query", "queries")


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


def digest(articles) -> bytes:
    """sha256 over each article's id and text, in order, each as its UTF-8
    byte count (u64, little-endian) and bytes.  Titles and statements do
    not enter it, so chunking a corpus keeps its digest.  A lone surrogate,
    which no loaded corpus holds, is hashed as its surrogatepass bytes, so
    every Article has a digest."""
    h = hashlib.sha256()
    for a in articles:
        for s in (a.id, a.text):
            raw = s.encode("utf-8", "surrogatepass")
            h.update(len(raw).to_bytes(8, "little"))
            h.update(raw)
    return h.digest()

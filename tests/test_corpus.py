import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from statutelab.augment import load_rules
from statutelab.corpus import (
    Article,
    chunk_article,
    corpus_stats,
    load_corpus,
    load_queries,
    read_jsonl,
)
from statutelab.encoders import load_embeddings
from statutelab.inject import load_bioe

ARTICLE_330 = (
    "(1) In cases where there is conflict among special statutory liens with "
    "respect to the same movables, the order of priority shall follow the order "
    "listed below. In such cases, if there are two or more preservers with "
    "respect to the statutory liens for preservation of movables listed in item "
    "(ii), a new preserver shall prevail over previous preservers.\n"
    "(i) Statutory liens for leases of immovable properties, lodging at hotels "
    "and transportation;\n"
    "(ii) Statutory liens for the preservation of movables; and\n"
    "(iii) Statutory liens for the sale of movables, the supply of seed or "
    "fertilizer, agricultural labor and industrial labor.\n"
    "(2) In the cases provided for in the preceding paragraph, if a holder of a "
    "statutory lien ranked first knew at the time he/she acquired that claim of "
    "the existence of a holder of a statutory lien of the second or third rank, "
    "he/she cannot exercise his/her rights against those persons.\n"
    "(3) Regarding fruits, the first rank shall belong to persons who engage in "
    "agricultural labor."
)


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def test_load_corpus_order_and_fields(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, [
        {"id": "a1", "title": "t1", "text": "x"},
        {"id": "a2", "title": "t2", "text": "y"},
    ])
    arts = load_corpus(p)
    assert [a.id for a in arts] == ["a1", "a2"]
    assert arts[0].statements == []


def test_load_corpus_empty_file(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no articles in"):
        load_corpus(p)


def test_load_corpus_duplicate_id(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, [{"id": "a1", "title": "", "text": "x"}] * 2)
    with pytest.raises(ValueError, match="a1"):
        load_corpus(p)


def test_load_corpus_malformed_line_names_line_number(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a1", "title": "", "text": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_corpus(p)


# each text loader, a file it rejects, and the message after "<file> line "
_BAD_TEXT_FILES = {
    "bioe columns": (load_bioe, "a\t-\t-\t-\nb\t-\t-\n", "2: expected 4 tab-separated columns"),
    "bioe tag": (load_bioe, "a\t-\t-\t-\n\nb\tX-Q\t-\t-\nc\t-\t-\t-\n", "3: level 1 token 0: unknown tag 'X-Q'"),
    "bioe bracket": (load_bioe, "\n\na\t-\tE-E\t-\n", "3: level 2 token 0: E-E without an open segment"),
    "rule columns": (load_rules, "# rules\nen\ta\tb\n", "2: expected 4 tab-separated columns"),
    "rule rank": (load_rules, "en\ta\tb\tfirst\n", "1: invalid literal for int() with base 10: 'first'"),
    "rule trigger": (load_rules, "en\ta\tb\t1\nen\tc\tc\t2\n", "2: trigger equals replacement"),
    "rule rank twice": (
        load_rules, "en\ta\tb\t1\nja\ta\tb\t1\n\nen\tc\td\t1\n", "4: duplicate rank 1 for language en"
    ),
    "embedding word only": (load_embeddings, "law 0.1\ngift\n", "2: expected word and values"),
    "embedding dimension": (load_embeddings, "law 0.1 0.2\ngift -1.0\n", "2: dimension 1 != 2"),
    "embedding word twice": (load_embeddings, "law 0.1\nlaw 0.2\n", "2: duplicate word 'law'"),
    "embedding value": (load_embeddings, "law 0.1\ngift x\n", "2: could not convert string to float: 'x'"),
}


@pytest.mark.parametrize("case", sorted(_BAD_TEXT_FILES))
def test_text_loaders_name_the_file_and_the_line(tmp_path, case):
    loader, text, message = _BAD_TEXT_FILES[case]
    p = tmp_path / "in.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        loader(p)
    assert str(exc.value) == f"{p} line {message}"


def test_a_lone_surrogate_names_file_line_and_key(tmp_path):
    p = tmp_path / "in.jsonl"
    good = {"id": "a0", "title": "", "text": "x"}
    for loader, bad, key in (
        (load_corpus, {"id": "a\ud800", "title": "", "text": "x"}, "id"),
        (load_corpus, {"id": "a1", "title": "", "text": "x \udc00 y"}, "text"),
        (load_corpus, {"id": "a1", "title": "", "text": "x", "notes": [["ok", "\ud83d"]]}, "notes"),
        (load_queries, {"id": "q1", "text": "x", "relevant_ids": ["a\udfff"]}, "relevant_ids"),
    ):
        write_jsonl(p, [good, bad])  # json.dumps writes each surrogate as a \u escape
        with pytest.raises(ValueError) as exc:
            loader(p)
        assert str(exc.value) == f"{p} line 2: key {key!r} holds a lone surrogate (not UTF-8)"
    # an escaped surrogate pair is one character, and an escaped backslash
    # before a u is no escape
    write_jsonl(p, [good, {"id": "a\U0001f600", "title": "C:\\users", "text": "x \\ud800"}])
    assert [(a.id, a.title, a.text) for a in load_corpus(p)][1] == ("a\U0001f600", "C:\\users", "x \\ud800")


def test_load_queries(tmp_path):
    p = tmp_path / "q.jsonl"
    write_jsonl(p, [
        {"id": "q1", "text": "foo", "relevant_ids": ["a1"], "label": True},
        {"id": "q2", "text": "bar", "relevant_ids": [], "label": None},
    ])
    qs = load_queries(p)
    assert qs[0].relevant_ids == {"a1"}
    assert qs[0].entailment_label is True
    assert qs[1].entailment_label is None


def test_chunk_two_marker_article():
    art = Article("329", "", "(1) First statement text. (2) Second statement text.")
    out = chunk_article(art)
    assert len(out.statements) == 2
    assert out.statements[0].startswith("(1)")
    assert out.statements[1].startswith("(2)")


def test_chunk_no_markers_is_identity():
    art = Article("x", "", "No enumeration here at all.")
    assert chunk_article(art).statements == ["No enumeration here at all."]


def test_chunk_article_330_keeps_roman_items_inside():
    out = chunk_article(Article("330", "", ARTICLE_330))
    assert len(out.statements) == 3
    first = out.statements[0]
    for item in ("(i)", "(ii)", "(iii)"):
        assert item in first
    assert out.statements[1].startswith("(2)")
    assert out.statements[2].startswith("(3)")


def test_chunk_midsentence_marker_not_split():
    art = Article("x", "", "Refer to item (2) of the schedule for details.")
    assert len(chunk_article(art).statements) == 1


def test_chunk_idempotent():
    out = chunk_article(Article("330", "", ARTICLE_330))
    for stmt in out.statements:
        again = chunk_article(Article("s", "", stmt))
        assert again.statements == [stmt]


def test_chunk_empty_text_rejected():
    with pytest.raises(ValueError):
        chunk_article(Article("x", "", ""))


def test_corpus_stats_hand_values():
    st_ = corpus_stats(["a b", "a b c d"])
    assert st_.mean_len == 3.0 and st_.std_len == 1.0 and st_.count == 2
    st_ = corpus_stats(["one two three four five"])
    assert st_.mean_len == 5.0 and st_.std_len == 0.0
    st_ = corpus_stats([])
    assert (st_.mean_len, st_.std_len, st_.count) == (0.0, 0.0, 0)


def test_chunking_reduces_mean_length():
    arts = [Article("330", "", ARTICLE_330), Article("x", "", "short text")]
    before = corpus_stats([a.text for a in arts]).mean_len
    chunked = [chunk_article(a) for a in arts]
    after = corpus_stats([s for a in chunked for s in a.statements]).mean_len
    assert after < before


def test_invalid_utf8_names_file_line_and_column(tmp_path):
    from statutelab.corpus import open_text

    p = tmp_path / "t.txt"
    p.write_bytes(b"ok\nfine\n  \xe2\x82 x\n")
    with pytest.raises(ValueError, match=r"t\.txt line 3: invalid UTF-8 byte 0xe2 at column 3 \("):
        with open_text(p) as fh:
            fh.read()
    for loader in (load_corpus, load_queries):
        with pytest.raises(ValueError, match="line 3: invalid UTF-8"):
            loader(p)


# one JSONL line each, as written to the file after a good line; the file's
# own line iteration turns a "\r" into a line break
JSONL_LINES = [
    '  {"a": 1}  ',
    '\t{"a": 1}\t',
    ' \r{"a": 1}\r\n',
    '{"a": 1}\r \t',
    '\x0c{"a": 1}',
    '{"a": 1}\x0c',
    '\x0c',
    ' \u2028\x85 ',
    '\ufeff{"a": 1}',
    '{"a":1}x',
    '{"a":1}{"b":2}',
    '{"a":1} {"b":2}',
    '{"a": NaN, "b": Infinity, "c": -Infinity}',
    '{"a": "\\ud83d\\ude00", "\\ud83d\\ude00": 1}',
    '{"a": "\\ud83d"}',
    '{"\\udc00": 1}',
    '{"a": "\\ude00\\ud83d"}',
    '[1, 2]',
    '"text"',
    'null',
    '{"a": 1',
    '',
    '{"a": {"b": [1, 2.5e3, true, false, null]}, "c": "\\u00e9\\\\u"}',
]


def _read_jsonl_by_json_loads(path):
    """(records, error text) of the line by line json.loads reader that
    ``read_jsonl``'s decode replaced, stopping at the first error."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                return out, f"{path} line {lineno}: invalid JSON ({exc.msg} at column {exc.colno})"
            if not isinstance(obj, dict):
                return out, f"{path} line {lineno}: expected a JSON object, got a {type(obj).__name__}"
            for key, value in obj.items():
                try:
                    json.dumps({key: value}, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    return out, f"{path} line {lineno}: key {key!r} holds a lone surrogate (not UTF-8)"
            out.append((lineno, obj))
    return out, None


@pytest.mark.parametrize("line", JSONL_LINES)
def test_read_jsonl_decodes_each_line_as_json_loads_does(tmp_path, monkeypatch, line):
    p = tmp_path / "in.jsonl"
    p.write_bytes(('{"ok": 0}\n' + line + "\n").encode("utf-8", "surrogatepass"))
    want, error = _read_jsonl_by_json_loads(p)
    calls = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: calls.append(s) or real_loads(s, *a, **k))
    got = []
    if error is None:
        got = list(read_jsonl(p))
    else:
        with pytest.raises(ValueError) as exc:
            for rec in read_jsonl(p):
                got.append(rec)
        assert str(exc.value) == error
    assert repr(got) == repr(want)  # repr, since NaN != NaN
    # json.loads runs only on a line the fast decode rejects, to raise its error
    assert len(calls) == (error is not None and "invalid JSON" in error)

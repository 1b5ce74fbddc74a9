"""Corrupt SLIX1 indexes and SLRK1 checkpoints fed through the CLI: every
case exits 0 or 1, never 2, prints no traceback and raises no
RuntimeWarning, and every exit-1 message names the file."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statutelab.cli import cli_dispatch
from statutelab.inject import dump_bioe
from statutelab.store import read_bundle, write_bundle
from statutelab.synth import bracket_grammar
from statutelab.tensor import Tensor


def _run(*argv):
    """(exit code, stderr, warnings raised) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch([str(a) for a in argv])
    return code, err.getvalue(), [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files, and for each target a good file and the command that
    reads it: {target: (good file, argv with {} where the file goes)}."""
    d = tmp_path_factory.mktemp("hostile")
    corpus, queries, statements = d / "corpus.jsonl", d / "queries.jsonl", d / "statements.jsonl"
    corpus.write_text(
        "".join(json.dumps({"id": f"a{i}", "title": "", "text": f"tok{i} bg. tok{i + 1}"}) + "\n" for i in range(5))
    )
    queries.write_text(
        "".join(
            json.dumps({"id": f"q{i}", "text": f"tok{i} bg", "relevant_ids": [f"a{i}"], "label": None}) + "\n"
            for i in range(5)
        )
    )
    statements.write_text(
        "".join(
            json.dumps({"text": t, "lawful": ok}) + "\n"
            for t, ok in (("the party may keep goods", True), ("the party never keeps goods", False))
        )
    )
    bioe = d / "bracket.bioe.tsv"
    dump_bioe(bracket_grammar(8, seed=4), bioe)
    small = ["--embed-dim", "4", "--filters", "4", "--attn-dim", "3", "--width", "1"]
    for argv in (
        ["index", "build", "--corpus", corpus, "--out", d / "ix"],
        ["rank", "train", "--corpus", corpus, "--queries", queries, "--out", d / "rank", "--seed", "2",
         *small, "--epochs", "1", "--K", "1", "--n-predict", "5"],
        ["classify", "train", "--data", statements, "--out", d / "clf", "--seed", "1", *small, "--epochs", "2"],
        ["inject", "tre-train", "--bioe", bioe, "--seed", "2", "--epochs", "1", "--embed-dim", "8",
         "--n-layers", "2", "--n-heads", "2", "--out", d / "tre"],
    ):
        code, err, _ = _run(*argv)
        assert code == 0, err
    rank = ["rank", "run", "--corpus", corpus, "--queries", queries, "--alpha", "0.5", "--n-predict", "5",
            "--out", d / "out"]
    return {
        "index": (d / "ix" / "index.slix", [*rank, "--model", d / "rank" / "model.slrk", "--index", "{}"]),
        "ranker": (d / "rank" / "model.slrk", [*rank, "--model", "{}", "--index", d / "ix" / "index.slix"]),
        "classifier": (d / "clf" / "classifier.slrk", ["classify", "run", "--model", "{}", "--data", statements]),
        "tre": (d / "tre" / "model.slrk", ["inject", "attn-report", "--model", "{}", "--tokens", "rb0 rm1 re0"]),
    }


def _feed(files, target, raw, name):
    """Write raw next to the good file as `name`, run the target's command
    on it, and check the exit contract; return (code, stderr)."""
    good, argv = files[target]
    bad = good.parent / name
    bad.write_bytes(raw)
    code, err, runtime_warnings = _run(*(bad if a == "{}" else a for a in argv))
    assert code in (0, 1), err
    assert "Traceback" not in err and not runtime_warnings, (err, runtime_warnings)
    if code == 1:
        assert name in err, err
    return code, err


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["index", "ranker", "classifier", "tre"]), st.data())
def test_truncated_file_exits_1_naming_file_and_offset(files, target, data):
    size = files[target][0].stat().st_size
    cut = data.draw(st.integers(min_value=0, max_value=size - 1))
    code, err = _feed(files, target, files[target][0].read_bytes()[:cut], "cut.bin")
    assert code == 1
    assert "offset" in err, err


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["index", "ranker", "classifier", "tre"]), st.sampled_from([0x01, 0x80, 0xFF]), st.data())
def test_bit_flipped_file_exits_0_or_1_naming_file(files, target, mask, data):
    raw = bytearray(files[target][0].read_bytes())
    pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    raw[pos] ^= mask
    code, err = _feed(files, target, bytes(raw), "flipped.bin")
    if code == 1 and "corrupt" in err:
        assert "offset" in err, err


def _edit_meta(meta):
    meta["config"]["bogus"] = 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: ["not", "an", "object"], "metadata is a JSON list"),
        (_edit_meta, "bogus"),
        (lambda meta: {k: v for k, v in meta.items() if k != "vocab"}, "vocab"),
        (lambda meta: {**meta, "oov_policy": "weird"}, "oov_policy 'weird'"),
        (lambda meta: {**meta, "oov_policy": "skip"}, "oov_policy 'skip'"),
    ],
    ids=["list", "unknown-config-key", "no-vocab", "unknown-oov-policy", "skip-oov-policy"],
)
def test_ranker_checkpoint_with_bad_metadata_exits_1(files, edit, message):
    kind, meta, tensors = read_bundle(files["ranker"][0])
    meta = edit(meta) or meta
    bad = files["ranker"][0].parent / "meta.slrk"
    write_bundle(bad, kind, meta, tensors)
    code, err = _feed(files, "ranker", bad.read_bytes(), "meta.slrk")
    assert code == 1
    assert message in err, err


def test_checkpoint_with_non_finite_value_exits_1_naming_tensor_and_offset(files):
    kind, meta, tensors = read_bundle(files["ranker"][0])
    data = tensors[2].data.copy()
    data.flat[1] = np.inf
    raw = bytearray(files["ranker"][0].read_bytes())
    at = raw.index(tensors[2].data.astype("<f8").tobytes()) + 8
    bad = files["ranker"][0].parent / "inf.slrk"
    write_bundle(bad, kind, meta, tensors[:2] + [Tensor(data)] + tensors[3:])
    code, err = _feed(files, "ranker", bad.read_bytes(), "inf.slrk")
    assert code == 1
    assert f"offset {at}: tensor 2 holds a non-finite value" in err, err

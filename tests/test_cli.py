import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from statutelab.cli import cli_dispatch
from statutelab.config import RunConfig, effective_sizes, load_config, merge_overrides
from statutelab.lexical import load_index


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_corpus(tmp_path, rows=None):
    rows = rows or [
        {"id": "a1", "title": "", "text": "gift law writing act"},
        {"id": "a2", "title": "", "text": "(1) lease lien. (2) claim party."},
    ]
    p = tmp_path / "corpus.jsonl"
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return p


def test_no_args_usage_exit_1(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_subcommand_exit_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_eval_prf2_prints_hand_example(capsys):
    code, out, _ = run(capsys, "eval", "prf2", "--gold", "a,b", "--retrieved", "a")
    assert code == 0
    assert out.strip() == "1.0 0.5 0.5556"


@pytest.mark.parametrize("k", ["0", "-1"])
def test_eval_prf2_judgments_at_a_cut_below_1_exits_1(tmp_path, capsys, k):
    path = tmp_path / "judgments.jsonl"
    path.write_text(json.dumps({"gold": ["a"], "retrieved": ["b", "a"]}) + "\n")
    code, out, err = run(capsys, "eval", "prf2", "--judgments", str(path), "--k", k)
    assert code == 1 and out == ""
    assert f"error: k must be >= 1, got {k}" in err
    code, out, _ = run(capsys, "eval", "prf2", "--judgments", str(path), "--k", "2")
    assert code == 0 and out.strip() == "0.5 1.0 0.8333"


def test_eval_accuracy_prints_testset_value(capsys):
    code, out, _ = run(capsys, "eval", "accuracy", "--correct", "43", "--total", "81")
    assert code == 0
    assert out.strip() == "0.5309"


def test_eval_accuracy_counts_are_the_fraction_and_are_checked(capsys):
    code, out, _ = run(capsys, "eval", "accuracy", "--correct", "0", "--total", "3")
    assert (code, out.strip()) == (0, "0.0")
    code, out, _ = run(capsys, "eval", "accuracy", "--correct", "3", "--total", "3")
    assert (code, out.strip()) == (0, "1.0")
    for correct, total, flag in (("5", "3", "--correct"), ("-1", "3", "--correct"), ("0", "0", "--total")):
        code, out, err = run(capsys, "eval", "accuracy", "--correct", correct, "--total", total)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} must") and "--total" in err


def test_eval_human(capsys):
    code, out, _ = run(capsys, "eval", "human", "--positives", "1,3", "--total", "4")
    assert code == 0
    assert out.strip() == "0.5"


def test_corpus_stats_and_chunk(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    code, out, _ = run(capsys, "corpus", "stats", "--corpus", str(corpus))
    assert code == 0
    stats = json.loads(out)
    assert stats["count"] == 2
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, "corpus", "chunk", "--corpus", str(corpus), "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "chunked.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    assert len(json.loads(lines[1])["statements"]) == 2
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert str(corpus) in manifest["inputs"]


def test_corpus_stats_missing_file_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "corpus", "stats", "--corpus", str(tmp_path / "nope.jsonl"))
    assert code == 1
    assert "error" in err


def test_augment_negate_roundtrip(tmp_path, capsys):
    data = tmp_path / "in.jsonl"
    data.write_text(json.dumps({"text": "The debtor shall pay.", "lawful": True}) + "\n")
    out_dir = tmp_path / "aug"
    code, _, _ = run(capsys, "augment", "negate", "--data", str(data), "--lang", "en", "--out", str(out_dir))
    assert code == 0
    rows = [json.loads(l) for l in (out_dir / "augmented.jsonl").read_text().strip().split("\n")]
    assert len(rows) == 2
    assert rows[1]["lawful"] is False and rows[1]["rule_rank"] == 2


def test_augment_negate_custom_rules(tmp_path, capsys):
    rules = tmp_path / "rules.tsv"
    rules.write_text("en\tvalid\tvoid\t1\n", encoding="utf-8")
    data = tmp_path / "in.jsonl"
    data.write_text(json.dumps({"text": "The deed is valid."}) + "\n")
    out_dir = tmp_path / "aug"
    code, _, _ = run(
        capsys, "augment", "negate", "--data", str(data), "--lang", "en",
        "--rules", str(rules), "--out", str(out_dir),
    )
    assert code == 0
    rows = [json.loads(l) for l in (out_dir / "augmented.jsonl").read_text().strip().split("\n")]
    assert rows[1]["text"] == "The deed is void."


def test_augment_negate_japanese(tmp_path, capsys):
    data = tmp_path / "in.jsonl"
    data.write_text(json.dumps({"text": "権利を行使できる", "lawful": True}, ensure_ascii=False) + "\n", encoding="utf-8")
    out_dir = tmp_path / "aug"
    code, _, _ = run(capsys, "augment", "negate", "--data", str(data), "--lang", "ja", "--out", str(out_dir))
    assert code == 0
    rows = [json.loads(l) for l in (out_dir / "augmented.jsonl").read_text(encoding="utf-8").strip().split("\n")]
    assert rows[1]["text"] == "権利を行使できない" and rows[1]["rule_rank"] == 2


def test_eval_prf2_judgments_file(tmp_path, capsys):
    path = tmp_path / "judgments.jsonl"
    path.write_text(
        json.dumps({"qid": "q1", "gold": ["a"], "retrieved": ["a", "b"]}) + "\n"
        + json.dumps({"qid": "q2", "gold": ["c"], "retrieved": ["x"]}) + "\n"
    )
    code, out, _ = run(capsys, "eval", "prf2", "--judgments", str(path), "--k", "1")
    assert code == 0
    assert out.strip() == "0.5 0.5 0.5"


def test_augment_lawfulness(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    queries = tmp_path / "queries.jsonl"
    queries.write_text(
        json.dumps({"id": "q1", "text": "x", "relevant_ids": [], "label": True}) + "\n"
        + json.dumps({"id": "q2", "text": "y", "relevant_ids": [], "label": False}) + "\n"
    )
    out_dir = tmp_path / "law"
    code, _, _ = run(capsys, "augment", "lawfulness", "--corpus", str(corpus), "--queries", str(queries), "--out", str(out_dir))
    assert code == 0
    rows = [json.loads(l) for l in (out_dir / "lawfulness.jsonl").read_text().strip().split("\n")]
    assert [r["lawful"] for r in rows] == [True, True, True, True, False]


def test_augment_nfsp_requires_seed(tmp_path, capsys):
    doc = tmp_path / "doc.jsonl"
    doc.write_text(json.dumps({"pairs": [["a1", "b1"], ["a2", "b2"]]}) + "\n")
    code, _, _ = run(capsys, "augment", "nfsp", "--doc", str(doc), "--out", str(tmp_path / "o"))
    assert code == 1  # --seed is required on randomized paths


def test_augment_nfsp_writes_pairs(tmp_path, capsys):
    doc = tmp_path / "doc.jsonl"
    doc.write_text(json.dumps({"pairs": [["a1", "b1"], ["a2", "b2"], ["a3", "b3"], ["a4", "b4"]]}) + "\n")
    out_dir = tmp_path / "nfsp"
    code, _, _ = run(capsys, "augment", "nfsp", "--doc", str(doc), "--seed", "3", "--out", str(out_dir))
    assert code == 0
    rows = [json.loads(l) for l in (out_dir / "pairs.jsonl").read_text().strip().split("\n")]
    assert {r["label"] for r in rows} == {"CONSECUTIVE", "NOT_CONSECUTIVE"}


def test_index_build(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    out_dir = tmp_path / "idx"
    code, out, _ = run(capsys, "index", "build", "--corpus", str(corpus), "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "index.slix").read_bytes()[:5] == b"SLIX2"


def test_selftest_properties(capsys):
    code, out, _ = run(capsys, "selftest", "properties")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_selftest_gradcheck_small(capsys):
    code, out, _ = run(capsys, "selftest", "gradcheck", "--instances", "3")
    assert code == 0
    assert "OK" in out


def test_selftest_seed_zero_is_not_the_default(capsys):
    runs = {
        argv: run(capsys, "selftest", *argv)
        for argv in [
            ("properties",), ("properties", "--seed", "7"), ("properties", "--seed", "0"),
            ("gradcheck", "--instances", "2"), ("gradcheck", "--instances", "2", "--seed", "0"),
        ]
    }
    assert all(code == 0 for code, _, _ in runs.values())
    assert runs[("properties",)] == runs[("properties", "--seed", "7")]
    assert runs[("properties", "--seed", "0")] != runs[("properties",)]
    assert runs[("gradcheck", "--instances", "2", "--seed", "0")] != runs[("gradcheck", "--instances", "2")]


def test_inject_tag_stats(tmp_path, capsys):
    bioe = tmp_path / "x.tsv"
    bioe.write_text("Gifts\tB-R\tB-E\t-\nrevoked\tE-R\tE-E\t-\n", encoding="utf-8")
    code, out, _ = run(capsys, "inject", "tag-stats", "--bioe", str(bioe))
    assert code == 0
    counts = json.loads(out)
    assert counts["B-R"] == 1 and counts["O"] == 2


def test_classify_train_and_run(tmp_path, capsys):
    rows = [
        {"text": "the party may keep goods", "lawful": True},
        {"text": "the party may sell goods", "lawful": True},
        {"text": "the party never keeps goods", "lawful": False},
        {"text": "the party never sells goods", "lawful": False},
    ]
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out_dir = tmp_path / "clf"
    code, _, err = run(
        capsys, "classify", "train", "--data", str(data), "--out", str(out_dir),
        "--seed", "1", "--embed-dim", "6", "--filters", "6", "--attn-dim", "4",
        "--width", "1", "--lr", "0.3", "--epochs", "60",
    )
    assert code == 0, err
    run_dir = tmp_path / "preds"
    code, _, _ = run(
        capsys, "classify", "run", "--model", str(out_dir / "classifier.slrk"),
        "--data", str(data), "--out", str(run_dir),
    )
    assert code == 0
    preds = [json.loads(l) for l in (run_dir / "predictions.jsonl").read_text().strip().split("\n")]
    assert [p["lawful"] for p in preds] == [True, True, False, False]


def test_classify_train_and_run_reject_a_statement_without_tokens(tmp_path, capsys):
    rows = [
        {"text": "the party may keep goods", "lawful": True},
        {"text": "the party never keeps goods", "lawful": False},
        {"text": " ?! ", "lawful": True},
    ]
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    small = ["--embed-dim", "4", "--filters", "4", "--attn-dim", "3", "--width", "1", "--epochs", "1"]
    out = tmp_path / "clf"
    code, _, err = run(capsys, "classify", "train", "--data", str(data), "--seed", "1", *small, "--out", str(out))
    assert code == 1
    assert f"error: {data} line 3: the statement has no tokens" in err
    assert not out.exists()
    data.write_text("\n".join(json.dumps(r) for r in rows[:2]) + "\n")
    code, _, err = run(capsys, "classify", "train", "--data", str(data), "--seed", "1", *small, "--out", str(out))
    assert code == 0, err
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(rows[0]) + "\n\n" + json.dumps({"text": ""}) + "\n")
    preds = tmp_path / "preds"
    code, stdout, err = run(
        capsys, "classify", "run", "--model", str(out / "classifier.slrk"), "--data", str(bad), "--out", str(preds)
    )
    assert code == 1 and stdout == ""
    assert f"error: {bad} line 3: the statement has no tokens" in err
    assert not preds.exists()
    # augment negate keeps such statements
    code, _, err = run(capsys, "augment", "negate", "--data", str(bad), "--lang", "en", "--out", str(tmp_path / "aug"))
    assert code == 0, err


def test_rank_pipeline_deterministic(tmp_path, capsys):
    rows = [{"id": f"a{i}", "title": "", "text": f"tok{i} bg"} for i in range(6)]
    corpus = write_corpus(tmp_path, rows)
    queries = tmp_path / "queries.jsonl"
    queries.write_text(
        "\n".join(
            json.dumps({"id": f"q{i}", "text": f"tok{i} bg", "relevant_ids": [f"a{i}"], "label": None})
            for i in range(6)
        )
        + "\n"
    )
    train_flags = [
        "--seed", "3", "--embed-dim", "6", "--filters", "6", "--attn-dim", "4",
        "--width", "1", "--epochs", "3", "--K", "2", "--lr", "0.2", "--n-predict", "6",
    ]
    out_a, out_b = tmp_path / "runA", tmp_path / "runB"
    for out_dir in (out_a, out_b):
        code, _, err = run(
            capsys, "rank", "train", "--corpus", str(corpus), "--queries", str(queries),
            "--out", str(out_dir), *train_flags,
        )
        assert code == 0, err
        code, _, err = run(
            capsys, "rank", "run", "--model", str(out_dir / "model.slrk"),
            "--corpus", str(corpus), "--queries", str(queries),
            "--out", str(out_dir / "ranked"), "--n-predict", "6", "--alpha", "0.5",
        )
        assert code == 0, err
    assert (out_a / "model.slrk").read_bytes() == (out_b / "model.slrk").read_bytes()
    assert (out_a / "ranked" / "run.jsonl").read_bytes() == (out_b / "ranked" / "run.jsonl").read_bytes()
    row = json.loads((out_a / "ranked" / "run.jsonl").read_text().split("\n")[0])
    assert set(row) == {"qid", "ranked"}
    assert set(row["ranked"][0]) == {"id", "s_l", "s_s", "s_f"}


def test_rank_grid_alpha_prints_json(tmp_path, capsys):
    rows = [{"id": f"a{i}", "title": "", "text": f"tok{i} bg"} for i in range(4)]
    corpus = write_corpus(tmp_path, rows)
    queries = tmp_path / "queries.jsonl"
    queries.write_text(
        "\n".join(
            json.dumps({"id": f"q{i}", "text": f"tok{i} bg", "relevant_ids": [f"a{i}"], "label": None})
            for i in range(4)
        )
        + "\n"
    )
    out_dir = tmp_path / "train"
    code, _, err = run(
        capsys, "rank", "train", "--corpus", str(corpus), "--queries", str(queries),
        "--out", str(out_dir), "--seed", "1", "--embed-dim", "4", "--filters", "4",
        "--attn-dim", "3", "--width", "1", "--epochs", "1", "--K", "1", "--n-predict", "4",
    )
    assert code == 0, err
    code, out, err = run(
        capsys, "rank", "grid-alpha", "--model", str(out_dir / "model.slrk"),
        "--corpus", str(corpus), "--queries", str(queries), "--step", "0.25", "--n-predict", "4",
    )
    assert code == 0, err
    result = json.loads(out)
    assert 0.0 <= result["alpha"] <= 1.0 and 0.0 <= result["f2"] <= 1.0


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 0.1}))
    corpus = write_corpus(tmp_path)
    code, _, err = run(
        capsys, "rank", "train", "--corpus", str(corpus), "--queries", str(corpus),
        "--out", str(tmp_path / "o"), "--seed", "0", "--config", str(cfg),
    )
    assert code == 1
    assert "learning_rate" in err


def test_config_presets():
    cfg = RunConfig(preset="paper")
    sizes = effective_sizes(cfg)
    assert sizes == {"embed_dim": 512, "filters": 512, "attn_dim": 200, "dropout": 0.2}
    cfg = RunConfig(preset="desk")
    assert effective_sizes(cfg)["embed_dim"] == 64


def test_config_load_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    assert load_config(path) == RunConfig()  # empty object means all defaults
    path.write_text(json.dumps({"preset": "desk", "lr": 0.07, "alpha": "grid"}))
    cfg = load_config(path)
    assert cfg.lr == 0.07
    merged = merge_overrides(cfg, {"lr": 0.5, "alpha": 0.3, "seed": 4})
    assert merged.lr == 0.5 and merged.alpha == 0.3 and merged.seed == 4
    with pytest.raises(ValueError):
        merge_overrides(cfg, {"bogus": 1})
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "missing.json")


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(preset="huge").validate()
    with pytest.raises(ValueError):
        RunConfig(alpha=1.5).validate()
    with pytest.raises(ValueError):
        RunConfig(alpha="sometimes").validate()
    RunConfig(alpha="grid").validate()


def _training_argv(command, tmp_path):
    """The argv of a short run of a training command on small inputs of
    its own."""
    if command == "rank train":
        texts = ["gift law writing act", "(1) lease lien. (2) claim party.", "goods deed"]
        corpus = write_corpus(tmp_path, [{"id": f"a{i}", "title": "", "text": t} for i, t in enumerate(texts)])
        queries = _write_queries(tmp_path / "queries.jsonl", ["gift law", "lease claim"])
        return ["rank", "train", "--corpus", str(corpus), "--queries", str(queries), "--seed", "2",
                "--width", "1", "--epochs", "1", "--K", "1"]
    if command == "classify train":
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"text": "party may keep goods", "lawful": True}) + "\n"
                        + json.dumps({"text": "party never keeps goods", "lawful": False}) + "\n")
        return ["classify", "train", "--data", str(data), "--seed", "1", "--width", "1", "--epochs", "1"]
    return ["inject", "tre-train", "--bioe", str(_bioe(tmp_path)), "--seed", "2", "--epochs", "1"]


@pytest.mark.parametrize("command, flag, value, message", [
    ("rank train", "--embed-dim", "0", "embed_dim must be >= 1"),
    ("rank train", "--filters", "0", "filters must be >= 1"),
    ("rank train", "--attn-dim", "0", "attn_dim must be >= 1"),
    ("rank train", "--dropout", "-0.5", "dropout must be in [0, 1), got -0.5"),
    ("rank train", "--dropout", "1.0", "dropout must be in [0, 1), got 1.0"),
    ("rank train", "--lr", "-1", "lr must be > 0, got -1.0"),
    ("rank train", "--lr", "0", "lr must be > 0, got 0.0"),
    ("rank train", "--k1", "-1", "k1 must be >= 0, got -1.0"),
    ("rank train", "--b", "2", "b must be in [0, 1], got 2.0"),
    ("rank train", "--b", "-0.1", "b must be in [0, 1], got -0.1"),
    ("classify train", "--embed-dim", "0", "embed_dim must be >= 1"),
    ("classify train", "--filters", "0", "filters must be >= 1"),
    ("classify train", "--attn-dim", "0", "attn_dim must be >= 1"),
    ("classify train", "--lr", "-1", "lr must be > 0, got -1.0"),
    ("inject tre-train", "--embed-dim", "0", "embed_dim must be >= 1"),
    ("inject tre-train", "--lr", "-1", "lr must be > 0, got -1.0"),
])
def test_a_config_value_out_of_range_exits_1_before_any_work(tmp_path, capsys, command, flag, value, message):
    out = tmp_path / "out"
    code, _, err = run(capsys, *_training_argv(command, tmp_path), flag, value, "--out", str(out))
    assert code == 1
    assert f"error: {message}" in err
    assert not out.exists()


def test_a_config_file_value_out_of_range_names_the_file_and_the_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dropout": 1.5}))
    with pytest.raises(ValueError, match=r"bad\.json: dropout must be in \[0, 1\), got 1\.5"):
        load_config(cfg)


def test_embed_commands(tmp_path, capsys):
    emb = tmp_path / "vec.txt"
    emb.write_text("lien 1.0 0.0\neast 2.0 0.0\nnorth 0.0 1.0\n")
    terms = tmp_path / "terms.txt"
    terms.write_text("lien\ntort\n")
    code, out, _ = run(capsys, "embed", "lvc", "--embeddings", str(emb), "--terms", str(terms))
    assert code == 0 and out.strip() == "0.5"
    corpus = write_corpus(tmp_path, [{"id": "a1", "title": "", "text": "north east"}])
    code, out, _ = run(capsys, "embed", "leca", "--embeddings", str(emb), "--terms", str(terms), "--corpus", str(corpus))
    assert code == 0
    rep = json.loads(out)
    assert rep["leca"] == pytest.approx(0.5)
    proj = tmp_path / "proj.tsv"
    code, _, _ = run(capsys, "embed", "project", "--embeddings", str(emb), "--terms", str(terms), "--top-k", "2", "--out", str(proj))
    assert code == 0
    assert len(proj.read_text().strip().split("\n")) == 2


def _sha256(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_queries(path, texts):
    path.write_text("".join(
        json.dumps({"id": f"q{i}", "text": t, "relevant_ids": [f"a{i}"], "label": None}) + "\n"
        for i, t in enumerate(texts)
    ))
    return path


def _trained_ranker(tmp_path, capsys):
    """A tiny corpus, its queries, an index file and a trained model."""
    corpus = write_corpus(tmp_path, [{"id": f"a{i}", "title": "", "text": f"tok{i} bg. tok{i + 1}"} for i in range(5)])
    queries = _write_queries(tmp_path / "queries.jsonl", [f"tok{i} bg" for i in range(5)])
    code, _, err = run(
        capsys, "rank", "train", "--corpus", str(corpus), "--queries", str(queries),
        "--out", str(tmp_path / "train"), "--seed", "2", "--embed-dim", "4", "--filters", "4",
        "--attn-dim", "3", "--width", "1", "--epochs", "1", "--K", "1", "--n-predict", "5",
    )
    assert code == 0, err
    code, _, err = run(capsys, "index", "build", "--corpus", str(corpus), "--out", str(tmp_path / "ix"))
    assert code == 0, err
    return corpus, queries, tmp_path / "ix" / "index.slix", tmp_path / "train" / "model.slrk"


def test_rank_manifests_name_the_index_digest(tmp_path, capsys):
    corpus, queries, index, model = _trained_ranker(tmp_path, capsys)
    common = ["--model", str(model), "--corpus", str(corpus), "--queries", str(queries), "--n-predict", "5"]
    for sub, extra in (("run", []), ("grid-alpha", ["--step", "0.25"])):
        out = tmp_path / sub
        code, _, err = run(capsys, "rank", sub, *common, *extra, "--index", str(index), "--out", str(out))
        assert code == 0, err
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs[str(index)] == _sha256(index)
        assert set(inputs) == {str(corpus), str(queries), str(model), str(index)}


def test_rank_train_with_no_queries_exits_1_and_writes_nothing(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    queries = tmp_path / "queries.jsonl"
    queries.write_text("")
    out = tmp_path / "train"
    code, _, err = run(
        capsys, "rank", "train", "--corpus", str(corpus), "--queries", str(queries), "--out", str(out),
        "--seed", "2", "--embed-dim", "4", "--filters", "4", "--attn-dim", "3", "--width", "1",
        "--epochs", "2", "--K", "1", "--n-predict", "5",
    )
    assert code == 1
    assert f"error: no queries in {queries}" in err
    assert not out.exists()


def test_rank_run_at_a_fixed_alpha_with_no_queries_exits_1_and_writes_nothing(tmp_path, capsys):
    corpus, _, index, model = _trained_ranker(tmp_path, capsys)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "ranked"
    code, _, err = run(
        capsys, "rank", "run", "--model", str(model), "--corpus", str(corpus), "--queries", str(empty),
        "--index", str(index), "--alpha", "0.5", "--n-predict", "5", "--out", str(out),
    )
    assert code == 1
    assert f"error: no queries in {empty}" in err
    assert not out.exists()


def test_rank_run_on_corrupt_index_or_checkpoint_exits_1(tmp_path, capsys):
    corpus, queries, index, model = _trained_ranker(tmp_path, capsys)
    bad_index = tmp_path / "cut.slix"
    bad_index.write_bytes(index.read_bytes()[:-5])
    bad_model = tmp_path / "long.slrk"
    bad_model.write_bytes(model.read_bytes() + b"\x00" * 7)
    for m, ix, name in ((model, bad_index, "cut.slix"), (bad_model, index, "trailing bytes")):
        code, _, err = run(
            capsys, "rank", "run", "--model", str(m), "--corpus", str(corpus), "--queries", str(queries),
            "--index", str(ix), "--alpha", "0.5", "--n-predict", "5", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert name in err


def test_rank_run_query_without_tokens(tmp_path, capsys):
    corpus, queries, _, model = _trained_ranker(tmp_path, capsys)
    lines = queries.read_text().splitlines(keepends=True)
    blank = json.dumps({"id": "qblank", "text": " ?! ", "relevant_ids": ["a0"], "label": None}) + "\n"
    with_blank = tmp_path / "with_blank.jsonl"
    with_blank.write_text("".join(lines[:2] + [blank] + lines[2:]))
    rows = {}
    for name, qs in (("plain", queries), ("blank", with_blank)):
        out = tmp_path / name
        code, _, err = run(
            capsys, "rank", "run", "--model", str(model), "--corpus", str(corpus), "--queries", str(qs),
            "--alpha", "0.5", "--n-predict", "5", "--out", str(out),
        )
        assert code == 0, err
        rows[name] = (out / "run.jsonl").read_bytes().splitlines(keepends=True)
    blank_row = json.loads(rows["blank"].pop(2))
    assert blank_row["qid"] == "qblank"
    assert len(blank_row["ranked"]) == 5 and all(c["s_s"] == 0.0 for c in blank_row["ranked"])
    assert rows["blank"] == rows["plain"]


def _bioe(tmp_path, n=12):
    from statutelab.inject import dump_bioe
    from statutelab.synth import bracket_grammar

    path = tmp_path / "bracket.bioe.tsv"
    dump_bioe(bracket_grammar(n, seed=4), path)
    return path


def test_inject_tre_train_default_positions_are_the_last_layers(tmp_path, capsys):
    bioe = _bioe(tmp_path)
    common = ["inject", "tre-train", "--bioe", str(bioe), "--seed", "2", "--epochs", "1"]
    code, _, err = run(capsys, *common, "--out", str(tmp_path / "default"))
    assert code == 0, err
    assert json.loads((tmp_path / "default" / "config.json").read_text())["positions"] is None
    # with the default two layers, the default is layers 1 and 2
    code, _, err = run(capsys, *common, "--positions", "1,2", "--out", str(tmp_path / "explicit"))
    assert code == 0, err
    for name in ("model.slrk", "report.json"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()


def test_inject_tre_train_positions_beyond_the_stack_exit_1(tmp_path, capsys):
    bioe = _bioe(tmp_path)
    code, _, err = run(
        capsys, "inject", "tre-train", "--bioe", str(bioe), "--seed", "2", "--epochs", "1",
        "--positions", "2,3,4", "--n-layers", "3", "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert "positions must lie in [1, 3]" in err


@pytest.mark.parametrize("text", ["", "\n\n  \n"])
def test_inject_tre_train_on_a_tagged_file_with_no_samples_exits_1(tmp_path, capsys, text):
    bioe = tmp_path / "empty.bioe.tsv"
    bioe.write_text(text)
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "inject", "tre-train", "--bioe", str(bioe), "--seed", "2", "--epochs", "1", "--out", str(out),
    )
    assert code == 1
    assert f"error: no samples in {bioe}" in err
    assert not out.exists()


def test_inject_attn_report_input_longer_than_the_positional_table_exits_1(tmp_path, capsys):
    bioe = _bioe(tmp_path)
    code, _, err = run(
        capsys, "inject", "tre-train", "--bioe", str(bioe), "--seed", "2", "--epochs", "1",
        "--positions", "1,2", "--out", str(tmp_path / "tre"),
    )
    assert code == 0, err
    model = str(tmp_path / "tre" / "model.slrk")
    code, out, err = run(capsys, "inject", "attn-report", "--model", model, "--tokens", "rb0 rm1 re0")
    assert code == 0, err
    assert len(json.loads(out)) == 2
    code, _, err = run(capsys, "inject", "attn-report", "--model", model, "--tokens", " ".join(["rm1"] * 80))
    assert code == 1
    assert "exceeds positional table" in err


@pytest.mark.parametrize("sub", ["run", "grid-alpha"])
def test_rank_with_an_index_from_another_corpus_exits_1(sub, tmp_path, capsys):
    corpus, queries, _, model = _trained_ranker(tmp_path, capsys)
    other = tmp_path / "other"
    other.mkdir()
    subset = write_corpus(other, [json.loads(l) for l in corpus.read_text().splitlines()[:3]])
    renamed = tmp_path / "renamed.jsonl"
    renamed.write_text(corpus.read_text().replace('"id": "a', '"id": "xa'))
    expected = {
        subset: "2 ids missing from the index (first 'a3'), 0 ids missing from the corpus",
        renamed: "5 ids missing from the index (first 'a0'), 5 ids missing from the corpus (first 'xa0')",
    }
    for source, message in expected.items():
        ix = tmp_path / f"ix-{source.stem}"
        code, _, err = run(capsys, "index", "build", "--corpus", str(source), "--out", str(ix))
        assert code == 0, err
        code, _, err = run(
            capsys, "rank", sub, "--model", str(model), "--corpus", str(corpus), "--queries", str(queries),
            "--index", str(ix / "index.slix"), "--n-predict", "5", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert message in err
        assert not (tmp_path / "out").exists()


def test_rank_run_on_index_with_repeated_posting_exits_1(tmp_path, capsys):
    corpus, queries, index, model = _trained_ranker(tmp_path, capsys)
    raw = bytearray(index.read_bytes())
    idx = load_index(index)
    # the first posting of "bg", in the block of (doc, tf) pairs that ends the file
    at = len(raw) - 8 * len(idx.docs) + 8 * int(idx.starts[idx.term_ids["bg"]])
    raw[at + 8 : at + 12] = raw[at : at + 4]  # its second posting repeats the doc
    bad = tmp_path / "repeat.slix"
    bad.write_bytes(bytes(raw))
    code, _, err = run(
        capsys, "rank", "run", "--model", str(model), "--corpus", str(corpus), "--queries", str(queries),
        "--index", str(bad), "--alpha", "0.5", "--n-predict", "5", "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert f"repeat.slix: corrupt SLIX2 index at offset {at + 8}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub", ["run", "grid-alpha"])
def test_rank_with_an_index_of_the_same_ids_but_other_texts_exits_1(sub, tmp_path, capsys):
    corpus, queries, index, model = _trained_ranker(tmp_path, capsys)
    rows = [json.loads(l) for l in corpus.read_text().splitlines()]
    for order in ("texts", "order"):
        stale = tmp_path / f"stale-{order}.jsonl"
        changed = [{**r, "text": f"other{i} bg. words{i}"} for i, r in enumerate(rows)] if order == "texts" else rows[::-1]
        stale.write_text("".join(json.dumps(r) + "\n" for r in changed))
        ix = tmp_path / f"ix-{order}"
        code, _, err = run(capsys, "index", "build", "--corpus", str(stale), "--out", str(ix))
        assert code == 0, err
        code, _, err = run(
            capsys, "rank", sub, "--model", str(model), "--corpus", str(corpus), "--queries", str(queries),
            "--index", str(ix / "index.slix"), "--n-predict", "5", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert f"index {ix / 'index.slix'} was not built from corpus {corpus}: the same ids, but the corpus digest differs" in err
        assert not (tmp_path / "out").exists()
    # a title is not in the digest
    retitled = tmp_path / "retitled.jsonl"
    retitled.write_text("".join(json.dumps({**r, "title": "Title " + r["id"]}) + "\n" for r in rows))
    code, _, err = run(
        capsys, "rank", sub, "--model", str(model), "--corpus", str(retitled), "--queries", str(queries),
        "--index", str(index), "--n-predict", "5", "--out", str(tmp_path / "out"),
    )
    assert code == 0, err


def test_rank_run_on_an_slix1_index_exits_1_asking_for_a_rebuild(tmp_path, capsys):
    corpus, queries, _, model = _trained_ranker(tmp_path, capsys)
    old = tmp_path / "old.slix"
    # the fixture corpus's five docs in the format before the corpus digest
    old.write_bytes(b"SLIX1" + struct.pack("<I", 5) + b"".join(struct.pack("<I2sI", 2, f"a{i}".encode(), 3) for i in range(5)))
    code, _, err = run(
        capsys, "rank", "run", "--model", str(model), "--corpus", str(corpus), "--queries", str(queries),
        "--index", str(old), "--alpha", "0.5", "--n-predict", "5", "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert err == f"error: {old}: an SLIX1 index, which holds no corpus digest; rebuild it with `slab index build`\n"
    assert not (tmp_path / "out").exists()


# a paraformer_lite training run on the planted world that overflows
DIVERGING_FLAGS = [
    "--seed", "11", "--embed-dim", "8", "--filters", "8", "--attn-dim", "4", "--width", "1", "--epochs", "3",
    "--K", "2", "--lr", "0.1", "--n-predict", "50", "--model", "paraformer_lite",
]


def _diverging_run(tmp_path):
    """The planted world written as a corpus and queries, and the stderr a
    DIVERGING_FLAGS run on them should print: the error that
    rankers.train_ranker raises in process on the same inputs.  The epoch
    and the query where training overflows follow the float trajectory,
    which depends on the BLAS kernel."""
    from statutelab import corpus as corpus_mod, lexical, rankers
    from statutelab.synth import planted_retrieval_world

    articles, qs = planted_retrieval_world()
    corpus = write_corpus(tmp_path, [{"id": a.id, "title": a.title, "text": a.text} for a in articles])
    queries = tmp_path / "queries.jsonl"
    queries.write_text("".join(
        json.dumps({"id": q.id, "text": q.text, "relevant_ids": sorted(q.relevant_ids), "label": None}) + "\n"
        for q in qs
    ))
    chunked = corpus_mod.chunk_corpus(corpus_mod.load_corpus(corpus))
    loaded = corpus_mod.load_queries(queries)
    vocab = sorted({w for t in [a.text for a in chunked] + [q.text for q in loaded] for w in lexical.tokenize(t)})
    cfg = RunConfig()
    model = rankers.build_paraformer_lite(
        vocab, 8, cfg.n_layers, cfg.n_heads, seed=11,
        config=rankers.RankerConfig(lr=0.1, epochs=3, k_negatives=2, seed=11, n_predict=50),
    )
    with pytest.raises(ValueError, match=r"^training failed in epoch [1-3] at query 'q\d+': ") as exc:
        rankers.train_ranker(model, chunked, loaded, index=lexical.build_index(chunked))
    return corpus, queries, f"error: {exc.value}\n"


def test_rank_train_that_diverges_exits_1_naming_epoch_and_query(tmp_path, capsys):
    corpus, queries, expected = _diverging_run(tmp_path)
    out = tmp_path / "train"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, _, err = run(
            capsys, "rank", "train", "--corpus", str(corpus), "--queries", str(queries), *DIVERGING_FLAGS,
            "--out", str(out),
        )
    assert code == 1
    assert err == expected
    assert not seen
    assert not out.exists()


def test_rank_train_that_diverges_prints_one_error_and_no_numpy_warning(tmp_path):
    """The same run as a process of its own: numpy warnings would reach its
    stderr, which pytest's warning capture hides in-process."""
    import statutelab

    corpus, queries, expected = _diverging_run(tmp_path)
    out = tmp_path / "train"
    src = str(Path(statutelab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable, "-m", "statutelab.cli", "rank", "train", "--corpus", str(corpus),
            "--queries", str(queries), *DIVERGING_FLAGS, "--out", str(out),
        ],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr == expected
    assert not out.exists()


@pytest.mark.parametrize("sub, extra", [("run", ["--alpha", "grid"]), ("grid-alpha", [])])
def test_alpha_grid_on_a_query_without_relevant_article_exits_1(tmp_path, capsys, sub, extra):
    corpus, _, _, model = _trained_ranker(tmp_path, capsys)
    queries = _write_queries(tmp_path / "orphan.jsonl", ["tok0 bg", "tok1 bg"])
    queries.write_text(queries.read_text().replace('"a1"', '"gone"'))
    common = ["--model", str(model), "--corpus", str(corpus), "--queries", str(queries), "--n-predict", "5"]
    code, _, err = run(capsys, "rank", sub, *common, *extra, "--out", str(tmp_path / "out"))
    assert code == 1
    assert "error: query 'q1' has no relevant article in the corpus" in err
    assert not (tmp_path / "out").exists()
    # a fixed alpha needs no relevance judgments
    code, _, err = run(capsys, "rank", "run", *common, "--alpha", "0.5", "--out", str(tmp_path / "fixed"))
    assert code == 0, err


def test_invalid_utf8_input_names_file_and_line(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    raw = corpus.read_bytes().split(b"\n")
    raw[1] = raw[1].replace(b"lease", b"le\xffse")
    corpus.write_bytes(b"\n".join(raw))
    column = raw[1].index(b"\xff") + 1
    code, _, err = run(capsys, "corpus", "stats", "--corpus", str(corpus))
    assert code == 1
    assert f"error: {corpus} line 2: invalid UTF-8 byte 0xff at column {column}" in err
    queries = _write_queries(tmp_path / "q.jsonl", ["tok0 bg", "tok1 bg"])
    queries.write_bytes(queries.read_bytes().replace(b"tok1", b"tok\xc3"))
    code, _, err = run(capsys, "rank", "train", "--corpus", str(write_corpus(tmp_path)), "--queries", str(queries),
                       "--out", str(tmp_path / "train"), "--seed", "1")
    assert code == 1
    assert f"error: {queries} line 2: invalid UTF-8 byte 0xc3" in err
    assert not (tmp_path / "train").exists()


@pytest.mark.parametrize("key", ["id", "text"])
def test_a_lone_surrogate_in_a_corpus_exits_1_writing_nothing(tmp_path, capsys, key):
    rows = [{"id": "a1", "title": "", "text": "gift law"}, {"id": "a2", "title": "", "text": "lease lien"}]
    rows[1][key] += "\ud800"
    corpus = write_corpus(tmp_path, rows)
    for argv in (["index", "build"], ["corpus", "chunk"]):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *argv, "--corpus", str(corpus), "--out", str(out))
        assert code == 1
        assert err == f"error: {corpus} line 2: key {key!r} holds a lone surrogate (not UTF-8)\n"
        assert stdout == "" and not out.exists()


# each JSONL reader: the command that reads it and one good record
_JSONL_READERS = {
    "bilingual": (["augment", "nmsp", "--seed", "7", "--out", "{out}", "--doc"], {"pairs": [["a b", "c d"]]}),
    "statements": (["augment", "negate", "--out", "{out}", "--data"], {"text": "X can do Y"}),
    "judgments": (["eval", "prf2", "--judgments"], {"gold": ["a"], "retrieved": ["a"]}),
    "predictions": (["eval", "accuracy", "--preds"], {"pred": True, "gold": True}),
    "sdoi": (["inject", "hydra-pretrain", "--seed", "1", "--out", "{out}", "--sdoi"],
             {"tokens": ["a", "b"], "matrix": [[0, 1], [1, 0]]}),
}


@pytest.mark.parametrize("reader", sorted(_JSONL_READERS))
def test_jsonl_reader_names_file_and_line_of_bad_json(tmp_path, capsys, reader):
    argv, good = _JSONL_READERS[reader]
    path = tmp_path / "in.jsonl"
    path.write_text(f"{json.dumps(good)}\n{json.dumps(good)}\nnot json\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *[a.replace("{out}", str(out)) for a in argv], str(path))
    assert code == 1
    assert err == f"error: {path} line 3: invalid JSON (Expecting value at column 1)\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("reader", sorted(_JSONL_READERS))
def test_jsonl_reader_names_file_line_and_key_of_a_wrong_shape(tmp_path, capsys, reader):
    argv, good = _JSONL_READERS[reader]
    first_key = next(iter(good))
    path = tmp_path / "in.jsonl"
    out = tmp_path / "out"
    argv = [a.replace("{out}", str(out)) for a in argv]
    for line, message in (
        ("[1, 2]", "expected a JSON object, got a list"),
        (json.dumps({k: v for k, v in good.items() if k != first_key}), f"missing key {first_key!r}"),
    ):
        path.write_text(f"{json.dumps(good)}\n{line}\n", encoding="utf-8")
        code, stdout, err = run(capsys, *argv, str(path))
        assert code == 1
        assert err == f"error: {path} line 2: {message}\n"
        assert stdout == "" and not out.exists()


def test_selftest_gradcheck_prints_the_fused_op_cases(capsys):
    code, out, _ = run(capsys, "selftest", "gradcheck", "--instances", "2")
    assert code == 0
    names = [line.split(":")[0] for line in out.splitlines()[:-1]]
    for case in ("conv_tanh", "additive_attention_softmax", "additive_attention_sparsemax",
                 "multihead_self_attention"):
        assert case in names


def test_a_key_error_in_a_handler_exits_2(monkeypatch, capsys):
    # every reader turns a missing key into a ValueError naming its file, so
    # a KeyError that still escapes is a fault of the program
    def fail(positives, total):
        raise KeyError("gold")

    monkeypatch.setattr("statutelab.evalkit.aggregate_human_eval", fail)
    code, _, err = run(capsys, "eval", "human", "--positives", "1,3", "--total", "4")
    assert code == 2
    assert err == "runtime error: 'gold'\n"

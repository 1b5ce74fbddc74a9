"""Diverging trainers, the lawful-probability overflow, JSONL values of the
wrong type, and the BM25 parameters of `rank run`."""

import json
import warnings

import numpy as np
import pytest

from statutelab.cli import cli_dispatch
from statutelab.inject import dump_bioe
from statutelab.rankers import build_lawfulness_classifier, save_classifier
from statutelab.synth import bracket_grammar, planted_retrieval_world

STATEMENTS = [
    {"text": "the party may revoke the gift in writing", "lawful": True},
    {"text": "the party may not revoke the gift in writing", "lawful": False},
    {"text": "a buyer may cancel the contract", "lawful": True},
    {"text": "a buyer shall not cancel the contract", "lawful": False},
]


def run(capsys, *argv):
    code = cli_dispatch([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def run_quietly(capsys, *argv):
    """The command's exit code and stderr, and the numpy warnings it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, _, err = run(capsys, *argv)
    return code, err, seen


def test_tre_train_that_diverges_exits_1_naming_epoch_and_sample(tmp_path, capsys):
    bioe = tmp_path / "bracket.bioe.tsv"
    dump_bioe(bracket_grammar(50, seed=7), bioe)
    out = tmp_path / "tre"
    code, err, seen = run_quietly(
        capsys, "inject", "tre-train", "--bioe", bioe, "--positions", "2,3,4", "--seed", "5",
        "--epochs", "1", "--lr", "1000", "--embed-dim", "16", "--n-layers", "4", "--out", out,
    )
    assert code == 1
    assert err == "error: training failed in epoch 1 at sample 42: overflow encountered in matmul\n"
    assert not seen and not out.exists()


def test_hydra_pretrain_that_diverges_exits_1_naming_epoch_and_sample(tmp_path, capsys):
    rng = np.random.default_rng(7)
    matrix = (rng.random((5, 5)) < 0.4).astype(int).tolist()
    sdoi = write_jsonl(tmp_path / "relations.jsonl", [{"tokens": ["gift", "lien", "writing", "party", "act"], "matrix": matrix}])
    out = tmp_path / "hydra"
    code, err, seen = run_quietly(capsys, "inject", "hydra-pretrain", "--sdoi", sdoi, "--seed", "4", "--lr", "1e6", "--out", out)
    assert code == 1
    assert err == "error: training failed in epoch 4 at sample 1: overflow encountered in multiply\n"
    assert not seen and not out.exists()


def test_classify_train_that_diverges_exits_1_naming_epoch_and_sample(tmp_path, capsys):
    data = write_jsonl(tmp_path / "statements.jsonl", STATEMENTS)
    out = tmp_path / "clf"
    # the softplus loss and its gradient stay finite at any logit, so only a
    # step that overflows the logits themselves diverges
    code, err, seen = run_quietly(capsys, "classify", "train", "--data", data, "--seed", "3", "--lr", "1e100", "--out", out)
    assert code == 1
    assert err == "error: training failed in epoch 1 at sample 2: overflow encountered in matmul\n"
    assert not seen and not out.exists()


def test_classify_run_gives_probability_0_below_the_exp_range(tmp_path, capsys):
    clf = build_lawfulness_classifier(["the", "party", "may"], 4, 4, 3, seed=0)
    clf.b.data[...] = -1000.0  # w is zero, so every logit is -1000
    save_classifier(clf, tmp_path / "clf.slrk")
    data = write_jsonl(tmp_path / "statements.jsonl", STATEMENTS[:2])
    code, out, err = run(capsys, "classify", "run", "--model", tmp_path / "clf.slrk", "--data", data)
    assert code == 0, err
    assert [json.loads(line)["lawful_prob"] for line in out.splitlines()] == [0.0, 0.0]


_WRONG_TYPES = {
    "corpus list": (["corpus", "stats", "--corpus"], [1, 2], "expected a JSON object, got a list"),
    "sdoi tokens": (
        ["inject", "hydra-pretrain", "--seed", "1", "--out", "{out}", "--sdoi"],
        {"tokens": 5, "matrix": [[0]]}, "'tokens' must be a JSON array, got int",
    ),
    "judgments gold": (
        ["eval", "prf2", "--judgments"], {"gold": 5, "retrieved": ["a"]}, "'gold' must be a JSON array, got int",
    ),
    "bilingual pair": (
        ["augment", "nmsp", "--seed", "7", "--out", "{out}", "--doc"], {"pairs": [["a"]]},
        "pair 1 must be a [sentence, sentence] array",
    ),
    "bilingual pairs": (
        ["augment", "nmsp", "--seed", "7", "--out", "{out}", "--doc"], {"pairs": 5},
        "'pairs' must be a JSON array, got int",
    ),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_jsonl_value_of_the_wrong_type_exits_1_naming_file_and_line(tmp_path, capsys, case):
    argv, bad, message = _WRONG_TYPES[case]
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *[a.replace("{out}", str(out)) for a in argv], path)
    assert code == 1
    assert err == f"error: {path} line 1: {message}\n"
    assert stdout == "" and not out.exists()


def _fixtures(tmp_path):
    articles, queries = planted_retrieval_world()
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [{"id": a.id, "title": a.title, "text": a.text} for a in articles])
    rows = [{"id": q.id, "text": q.text, "relevant_ids": sorted(q.relevant_ids), "label": None} for q in queries]
    return corpus, write_jsonl(tmp_path / "queries.jsonl", rows)


def test_query_relevant_ids_of_the_wrong_type_exit_1_naming_file_and_line(tmp_path, capsys):
    corpus, _ = _fixtures(tmp_path)
    queries = write_jsonl(tmp_path / "q.jsonl", [{"id": "q1", "text": "gift", "relevant_ids": 5}])
    code, _, err = run(capsys, "rank", "train", "--corpus", corpus, "--queries", queries, "--seed", "1",
                       "--out", tmp_path / "m")
    assert code == 1
    assert err == f"error: {queries} line 1: 'relevant_ids' must be a JSON array, got int\n"


def _train(tmp_path, capsys, *extra):
    corpus, queries = _fixtures(tmp_path)
    model = tmp_path / "model"
    code, _, err = run(
        capsys, "rank", "train", "--corpus", corpus, "--queries", queries, "--seed", "11",
        "--embed-dim", "8", "--filters", "8", "--attn-dim", "4", "--width", "1", "--epochs", "1",
        "--K", "1", "--lr", "0.1", "--n-predict", "20", "--n-train", "5", *extra, "--out", model,
    )
    assert code == 0, err
    return corpus, queries, model / "model.slrk"


@pytest.mark.parametrize("sub", ["run", "grid-alpha"])
def test_rank_manifest_records_the_checkpoint_bm25_parameters(tmp_path, capsys, sub):
    corpus, queries, model = _train(tmp_path, capsys, "--k1", "2.0", "--b", "0.5")
    out = tmp_path / "ranked"
    alpha = ["--alpha", "0.5"] if sub == "run" else []
    code, _, err = run(capsys, "rank", sub, "--model", model, "--corpus", corpus, "--queries", queries,
                       "--n-predict", "20", *alpha, "--out", out)
    assert code == 0, err
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["k1"], config["b"]) == (2.0, 0.5)

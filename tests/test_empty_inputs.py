"""One rule for a record file that holds no record, over every command.

Each command that reads a record file runs here through
`statutelab.cli.main` on the fixtures of `scripts/make_fixtures.py`, once
with each record flag pointed at an empty file and once at a file of blank
lines.  The command exits 1 with `error: no <records> in FILE` and writes
nothing.  An embedding file has no blank lines: one is a malformed line,
and the command exits 1 naming the file and the line."""

import argparse
import json
import re
import runpy
import shlex
from pathlib import Path

import pytest

from statutelab import cli
from test_documented_commands import ROOT

# each command that reads a record file, on good inputs; every {name} but
# {out}, {ranker} and {classifier} is a record flag, and so a row below
COMMANDS = {
    "corpus stats": "--corpus {corpus}",
    "corpus chunk": "--corpus {corpus} --out {out}",
    "augment negate": "--data {statements} --rules {rules} --out {out}",
    "augment lawfulness": "--corpus {corpus} --queries {queries} --out {out}",
    "augment nfsp": "--doc {bilingual} --seed 1 --out {out}",
    "augment nmsp": "--doc {bilingual} --seed 1 --out {out}",
    "index build": "--corpus {corpus} --out {out}",
    "rank train": "--corpus {corpus} --queries {queries} --seed 2 --embed-dim 4 --filters 4 --attn-dim 3 "
    "--width 1 --epochs 1 --K 1 --n-predict 5 --out {out}",
    "rank run": "--model {ranker} --corpus {corpus} --queries {queries} --alpha 0.5 --n-predict 5 --out {out}",
    "rank grid-alpha": "--model {ranker} --corpus {corpus} --queries {queries} --n-predict 5 --step 0.5 "
    "--out {out}",
    "classify train": "--data {statements} --seed 3 --embed-dim 4 --filters 4 --attn-dim 3 --width 1 "
    "--epochs 1 --out {out}",
    "classify run": "--model {classifier} --data {statements} --out {out}",
    "inject hydra-pretrain": "--sdoi {relations} --seed 4 --epochs 1 --out {out}",
    "inject tre-train": "--bioe {bracket} --seed 5 --epochs 1 --out {out}",
    "inject tag-stats": "--bioe {gifts}",
    "embed lvc": "--embeddings {embeddings} --terms {terms}",
    "embed leca": "--embeddings {embeddings} --terms {terms} --corpus {statutes}",
    "embed project": "--embeddings {embeddings} --terms {terms} --top-k 5 --out {out}",
    "eval prf2": "--judgments {judgments}",
    "eval accuracy": "--preds {predictions}",
}

# the commands that read no record file; binary checkpoints are
# tests/test_hostile_files.py's concern
EXEMPT = {"eval human", "selftest gradcheck", "selftest properties", "inject attn-report", "inject hydra-attach"}

MODELS = {"ranker": "ranker/model.slrk", "classifier": "classifier/classifier.slrk"}

FILES = {
    "corpus": "corpus.jsonl",
    "queries": "queries.jsonl",
    "statements": "statements.jsonl",
    "rules": "negation_rules.tsv",
    "bilingual": "bilingual.jsonl",
    "relations": "relations.jsonl",
    "bracket": "bracket.bioe.tsv",
    "gifts": "gifts.bioe.tsv",
    "embeddings": "embeddings.txt",
    "terms": "legal_terms.txt",
    "statutes": "statutes.jsonl",
    "judgments": "judgments.jsonl",
    "predictions": "predictions.jsonl",
}

ROWS = [
    (command, flag, name)
    for command, template in COMMANDS.items()
    for flag, name in re.findall(r"(--[\w-]+) \{(\w+)\}", template)
    if name in FILES
]


def _argv(command: str, values: dict) -> list[str]:
    return command.split() + [word.format(**values) for word in shlex.split(COMMANDS[command])]


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """The path of each {name}, with the models trained by the rows' own
    `rank train` and `classify train` commands."""
    root = tmp_path_factory.mktemp("fixtures")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.argv", ["make_fixtures.py", "--out", str(root)])
        runpy.run_path(str(ROOT / "scripts" / "make_fixtures.py"), run_name="__main__")
    (root / "judgments.jsonl").write_text(json.dumps({"gold": ["a"], "retrieved": ["a", "b"]}) + "\n")
    (root / "predictions.jsonl").write_text(json.dumps({"pred": True, "gold": False}) + "\n")
    values = {name: str(root / path) for name, path in {**FILES, **MODELS}.items()}
    for command, model in (("rank train", "ranker"), ("classify train", "classifier")):
        assert cli.main(_argv(command, {**values, "out": str(Path(values[model]).parent)})) == 0
    return values


def _subcommands() -> set[str]:
    def choices(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    return {f"{group} {name}" for group, p in choices(cli._build_parser()).items() for name in choices(p)}


def test_every_subcommand_has_a_row_or_reads_no_record_file():
    assert not EXEMPT & set(COMMANDS)
    assert _subcommands() == set(COMMANDS) | EXEMPT
    assert {command for command, _, _ in ROWS} == set(COMMANDS)
    assert len(ROWS) == 29


@pytest.mark.parametrize("text", ["", "\n\n  \n"], ids=["empty", "blank"])
@pytest.mark.parametrize("command, flag, name", ROWS, ids=[f"{c} {f}" for c, f, _ in ROWS])
def test_a_file_with_no_record_exits_1_naming_it_and_writes_nothing(
    fixtures, tmp_path, capsys, command, flag, name, text
):
    path = tmp_path / FILES[name]
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(_argv(command, {**fixtures, name: str(path), "out": str(out)}))
    stdout, err = capsys.readouterr()
    assert code == 1
    if flag == "--embeddings" and text:
        assert err.startswith(f"error: {path} line 1: ")
    else:
        assert re.fullmatch(rf"error: no [a-z ]+ in {re.escape(str(path))}\n", err), err
    assert stdout == ""
    assert not out.exists()

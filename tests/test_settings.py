"""Each config command takes only the settings it reads: a flag it does not
read exits 1 and writes nothing, every flag it takes changes the checkpoint
it trains, and a config file may hold any RunConfig key for any of them."""

import dataclasses
import json

import pytest

from statutelab import cli
from statutelab.cli import cli_dispatch
from statutelab.config import RunConfig
from statutelab.inject import InjectionConfig, dump_bioe, injection_config
from statutelab.synth import bracket_grammar

STATEMENTS = [
    ("the party may keep the goods", True),
    ("the party may not keep the goods", False),
    ("a buyer shall pay the price", True),
    ("a buyer shall not pay the price", False),
]


def _run(capsys, *argv):
    code = cli_dispatch([str(a) for a in argv])
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("settings")
    (d / "statements.jsonl").write_text(
        "".join(json.dumps({"text": t, "lawful": ok}) + "\n" for t, ok in STATEMENTS)
    )
    dump_bioe(bracket_grammar(3, seed=4), d / "bracket.bioe.tsv")
    (d / "corpus.jsonl").write_text(
        "".join(json.dumps({"id": f"a{i}", "title": "", "text": f"tok{i} bg. tok{i + 1}"}) + "\n" for i in range(6))
    )
    (d / "queries.jsonl").write_text(
        "".join(
            json.dumps({"id": f"q{i}", "text": f"tok{i} bg", "relevant_ids": [f"a{i}"], "label": None}) + "\n"
            for i in range(6)
        )
    )
    (d / "lr.json").write_text(json.dumps({"lr": 0.2}))
    return d


RANK = ["--corpus", "corpus.jsonl", "--queries", "queries.jsonl"]

# the required flags of each config command; argparse rejects a flag before
# rank run or grid-alpha opens the model, so its file need not exist
ARGV = {
    "classify": ["classify", "train", "--data", "statements.jsonl", "--seed", "1"],
    "tre": ["inject", "tre-train", "--bioe", "bracket.bioe.tsv", "--seed", "1"],
    "rank": ["rank", "train", *RANK, "--seed", "1"],
    # rank train reads --n-layers and --n-heads only for paraformer_lite; at
    # the default lr 0.05 its three-layer stack diverges on this corpus
    "paraformer": ["rank", "train", *RANK, "--seed", "1", "--model-kind", "paraformer_lite", "--lr", "0.02"],
    "run": ["rank", "run", "--model", "model.slrk", *RANK],
    "grid-alpha": ["rank", "grid-alpha", "--model", "model.slrk", *RANK],
}

# the checkpoint each training command writes
CHECKPOINTS = {"classify": "classifier.slrk", "tre": "model.slrk", "rank": "model.slrk", "paraformer": "model.slrk"}

# per training command, one flag moved off its default for each config key
# it reads
OFF_DEFAULT = {
    "classify": {
        "config": ["--config", "lr.json"],
        "seed": ["--seed", "2"],
        "preset": ["--preset", "paper"],
        "embed_dim": ["--embed-dim", "8"],
        "filters": ["--filters", "8"],
        "attn_dim": ["--attn-dim", "8"],
        "width": ["--width", "1"],
        "lr": ["--lr", "0.2"],
        "epochs": ["--epochs", "2"],
    },
    "tre": {
        "config": ["--config", "lr.json"],
        "seed": ["--seed", "2"],
        "preset": ["--preset", "paper"],
        "embed_dim": ["--embed-dim", "8"],
        "n_layers": ["--n-layers", "3"],
        "n_heads": ["--n-heads", "4"],
        "lr": ["--lr", "0.2"],
        "epochs": ["--epochs", "2"],
        "positions": ["--positions", "2"],
        "portions": ["--portions", "0.25,0.75"],
    },
    "rank": {
        "config": ["--config", "lr.json"],
        "seed": ["--seed", "2"],
        "preset": ["--preset", "paper"],
        "model": ["--model-kind", "paraformer_lite"],
        "k1": ["--k1", "2.0"],
        "b": ["--b", "0.5"],
        "n_train": ["--n-train", "2"],
        "n_predict": ["--n-predict", "5"],
        "eval_k": ["--eval-k", "2"],
        "K": ["--K", "1"],
        "lr": ["--lr", "0.2"],
        "epochs": ["--epochs", "2"],
        "embed_dim": ["--embed-dim", "8"],
        "filters": ["--filters", "8"],
        "attn_dim": ["--attn-dim", "8"],
        "dropout": ["--dropout", "0.5"],
        "width": ["--width", "1"],
    },
    "paraformer": {
        "n_layers": ["--n-layers", "3"],
        "n_heads": ["--n-heads", "4"],
    },
}

# the config keys each parser takes: a training command's are those
# OFF_DEFAULT moves, and rank run and grid-alpha take only prediction settings
KEYS = {
    "classify": set(OFF_DEFAULT["classify"]),
    "tre": set(OFF_DEFAULT["tre"]),
    "rank": set(OFF_DEFAULT["rank"]) | set(OFF_DEFAULT["paraformer"]),
    "run": {"config", "n_predict", "alpha", "step", "eval_k"},
    "grid-alpha": {"config", "n_predict", "step", "eval_k"},
}

FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _argv(inputs, command, *extra):
    """The command's argv with `extra` appended and input file names made
    paths in `inputs`."""
    return [
        inputs / a if isinstance(a, str) and a.endswith((".jsonl", ".tsv", ".json")) else a
        for a in [*ARGV[command], *extra]
    ]


@pytest.mark.parametrize("command", sorted(KEYS))
def test_every_config_flag_is_covered(inputs, command):
    args = cli._build_parser().parse_args([str(a) for a in _argv(inputs, command, "--out", "x")])
    assert {k for k in vars(args) if k in FIELDS or k == "config"} == KEYS[command]


@pytest.fixture(scope="module")
def default_checkpoints(inputs, tmp_path_factory):
    out = tmp_path_factory.mktemp("defaults")
    blobs = {}
    for command, name in CHECKPOINTS.items():
        code = cli_dispatch([str(a) for a in _argv(inputs, command, "--out", out / command)])
        assert code == 0
        blobs[command] = (out / command / name).read_bytes()
    return blobs


@pytest.mark.parametrize(
    "command, key", [(c, k) for c in sorted(OFF_DEFAULT) for k in OFF_DEFAULT[c]]
)
def test_every_flag_changes_the_checkpoint(inputs, default_checkpoints, tmp_path, capsys, command, key):
    code, err = _run(capsys, *_argv(inputs, command, *OFF_DEFAULT[command][key], "--out", tmp_path))
    assert code == 0, err
    assert (tmp_path / CHECKPOINTS[command]).read_bytes() != default_checkpoints[command]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("classify", ["--K", "2"]),
        ("classify", ["--alpha", "0.3"]),
        ("classify", ["--n-layers", "9"]),
        ("classify", ["--k1", "3"]),
        ("classify", ["--dropout", "0.5"]),
        ("classify", ["--model-kind", "paraformer_lite"]),
        ("classify", ["--positions", "1"]),
        ("tre", ["--K", "2"]),
        ("tre", ["--alpha", "0.3"]),
        ("tre", ["--filters", "8"]),
        ("tre", ["--width", "1"]),
        ("tre", ["--dropout", "0.5"]),
        ("tre", ["--model-kind", "paraformer_lite"]),
        ("run", ["--lr", "9"]),
        ("run", ["--seed", "5"]),
        ("run", ["--k1", "5.0"]),
        ("run", ["--b", "0.1"]),
        ("run", ["--model-kind", "paraformer_lite"]),
        ("grid-alpha", ["--alpha", "0.2"]),
        ("grid-alpha", ["--k1", "5.0"]),
        ("grid-alpha", ["--b", "0.1"]),
        ("grid-alpha", ["--epochs", "99"]),
        ("rank", ["--alpha", "0.3"]),
        ("rank", ["--step", "0.5"]),
    ],
)
def test_a_flag_the_command_does_not_read_exits_1_writing_nothing(inputs, tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    code, err = _run(capsys, *_argv(inputs, command, *flag, "--out", out))
    assert code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert not out.exists()


def _without_seed(argv):
    i = argv.index("--seed")
    return argv[:i] + argv[i + 2:]


@pytest.mark.parametrize("command", ["classify", "tre", "rank"])
def test_a_training_command_without_a_seed_exits_1_writing_nothing(inputs, tmp_path, capsys, command):
    out = tmp_path / "out"
    code, err = _run(capsys, *_without_seed(_argv(inputs, command, "--out", out)))
    assert code == 1
    assert err == "error: --seed is required, on the command line or as the config file's seed\n"
    assert not out.exists()


def test_the_seed_of_a_config_file_trains_as_the_seed_flag_does(inputs, tmp_path, capsys):
    (tmp_path / "seed.json").write_text(json.dumps({"seed": 3}))
    unseeded = _without_seed(_argv(inputs, "rank"))
    for name, seed in (("flag", ["--seed", "3"]), ("file", ["--config", tmp_path / "seed.json"])):
        code, err = _run(capsys, *unseeded, *seed, "--out", tmp_path / name)
        assert code == 0, err
        assert json.loads((tmp_path / name / "manifest.json").read_text())["seed"] == 3
    assert (tmp_path / "file" / "model.slrk").read_bytes() == (tmp_path / "flag" / "model.slrk").read_bytes()


@pytest.mark.parametrize("key, value", [("lr", "x"), ("epochs", 1.5), ("seed", True), ("positions", "2")])
def test_a_config_value_of_the_wrong_type_exits_1_naming_file_and_key(inputs, tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    code, err = _run(capsys, *_argv(inputs, "tre", "--config", bad, "--out", out))
    assert code == 1
    assert err.startswith(f"error: {bad}: config key {key!r} must be ")
    assert err.endswith(f", got {json.dumps(value)}\n")
    assert not out.exists()


# a value for every RunConfig key that all five config commands accept
EVERY_KEY = {
    "seed": 3, "preset": "desk", "model": "attentive_cnn", "k1": 1.2, "b": 0.75,
    "n_train": 5, "n_predict": 5, "alpha": 0.5, "step": 0.5, "eval_k": 1, "K": 1,
    "lr": 0.1, "epochs": 1, "positions": [1, 2], "portions": [0.5, 0.5],
    "embed_dim": 4, "filters": 4, "attn_dim": 3, "dropout": 0.0, "width": 1,
    "n_layers": 2, "n_heads": 2,
}


def test_a_config_file_with_every_key_loads_for_each_config_command(inputs, tmp_path, capsys):
    assert set(EVERY_KEY) == FIELDS
    cfg = tmp_path / "every.json"
    cfg.write_text(json.dumps(EVERY_KEY))
    rank = ["--corpus", inputs / "corpus.jsonl", "--queries", inputs / "queries.jsonl"]
    model = ["--model", tmp_path / "rank-train" / "model.slrk"]
    for name, argv in (
        ("rank-train", ["rank", "train", *rank]),
        ("rank-run", ["rank", "run", *model, *rank]),
        ("rank-grid-alpha", ["rank", "grid-alpha", *model, *rank]),
        ("classify-train", ["classify", "train", "--data", inputs / "statements.jsonl"]),
        ("inject-tre-train", ["inject", "tre-train", "--bioe", inputs / "bracket.bioe.tsv"]),
    ):
        code, err = _run(capsys, *argv, "--config", cfg, "--out", tmp_path / name)
        assert code == 0, (name, err)
        # the checkpoint's sizes are no preset's, so rank run and grid-alpha record none
        want = {**EVERY_KEY, "preset": None} if name in ("rank-run", "rank-grid-alpha") else EVERY_KEY
        assert json.loads((tmp_path / name / "config.json").read_text()) == want, name


def test_rank_run_and_grid_alpha_take_n_predict_and_eval_k_from_the_checkpoint(inputs, tmp_path, capsys):
    code, err = _run(capsys, *_argv(inputs, "rank", "--n-predict", "2", "--eval-k", "2", "--out", tmp_path / "train"))
    assert code == 0, err
    (tmp_path / "n4.json").write_text(json.dumps({"n_predict": 4}))
    model = ["--model", tmp_path / "train" / "model.slrk", *_argv(inputs, "run")[4:]]
    # the flag wins over the config file, the file over the checkpoint
    for name, extra, n in (
        ("stored", [], 2),
        ("flag", ["--n-predict", "3"], 3),
        ("file", ["--config", tmp_path / "n4.json"], 4),
        ("flag-and-file", ["--config", tmp_path / "n4.json", "--n-predict", "3"], 3),
    ):
        code, err = _run(capsys, "rank", "run", *model, "--alpha", "0.5", *extra, "--out", tmp_path / name)
        assert code == 0, (name, err)
        rows = [json.loads(line) for line in (tmp_path / name / "run.jsonl").read_text().splitlines()]
        assert rows and all(len(row["ranked"]) == n for row in rows), name
        cfg = json.loads((tmp_path / name / "config.json").read_text())
        assert (cfg["n_predict"], cfg["eval_k"]) == (n, 2), name
        code, err = _run(capsys, "rank", "grid-alpha", *model, *extra, "--out", tmp_path / f"grid-{name}")
        assert code == 0, (name, err)
        cfg = json.loads((tmp_path / f"grid-{name}" / "config.json").read_text())
        assert (cfg["n_predict"], cfg["eval_k"]) == (n, 2), name


# per model kind: rank train flags, and the config keys the checkpoint then fixes
TRAINED = {
    "rank": (
        ["--epochs", "2", "--lr", "0.1", "--K", "1", "--n-train", "3", "--k1", "2.0", "--b", "0.5",
         "--embed-dim", "8", "--filters", "6", "--attn-dim", "5", "--width", "1", "--dropout", "0.25"],
        {"model": "attentive_cnn", "seed": 1, "epochs": 2, "lr": 0.1, "K": 1, "n_train": 3, "k1": 2.0,
         "b": 0.5, "embed_dim": 8, "filters": 6, "attn_dim": 5, "width": 1, "dropout": 0.25},
    ),
    "paraformer": (
        ["--epochs", "2", "--embed-dim", "8", "--n-layers", "1", "--n-heads", "4"],
        {"model": "paraformer_lite", "seed": 1, "epochs": 2, "lr": 0.02, "K": 2, "n_train": 50, "k1": 1.2,
         "b": 0.75, "embed_dim": 8, "n_layers": 1, "n_heads": 4},
    ),
}


@pytest.mark.parametrize("command", sorted(TRAINED))
def test_rank_run_and_grid_alpha_record_the_keys_the_checkpoint_fixes(inputs, tmp_path, capsys, command):
    flags, fixed = TRAINED[command]
    code, err = _run(capsys, *_argv(inputs, command, *flags, "--out", tmp_path / "train"))
    assert code == 0, err
    # a config file that says otherwise for every fixed key loses to the checkpoint
    other = {
        "model": "paraformer_lite" if fixed["model"] == "attentive_cnn" else "attentive_cnn", "seed": 9,
        "epochs": 7, "lr": 0.5, "K": 3, "n_train": 9, "k1": 1.0, "b": 0.1, "embed_dim": 16,
        "filters": 16, "attn_dim": 16, "width": 3, "dropout": 0.0, "n_layers": 3, "n_heads": 2,
    }
    (tmp_path / "other.json").write_text(json.dumps(other))
    model = ["--model", tmp_path / "train" / "model.slrk", *_argv(inputs, "run")[4:]]
    model += ["--config", tmp_path / "other.json"]
    for name, argv in (("run", ["rank", "run", *model, "--alpha", "0.5"]), ("grid", ["rank", "grid-alpha", *model])):
        code, err = _run(capsys, *argv, "--out", tmp_path / name)
        assert code == 0, (name, err)
        cfg = json.loads((tmp_path / name / "config.json").read_text())
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["config"] == cfg and manifest["seed"] == 1, name
        assert {k: cfg[k] for k in fixed} == fixed, name
        # the keys the checkpoint does not fix keep the file's values
        assert {k: cfg[k] for k in other if k not in fixed} == {k: v for k, v in other.items() if k not in fixed}


# rank train flags, and per model kind the preset that rank run and
# grid-alpha then record: the one whose sizes equal the checkpoint's, if any
PRESET_CASES = {
    "paper": (["--preset", "paper"], {"rank": "paper", "paraformer": "paper"}),
    "desk": ([], {"rank": "desk", "paraformer": "desk"}),
    "custom-embed-dim": (["--preset", "paper", "--embed-dim", "8"], {"rank": None, "paraformer": None}),
    # dropout is a CNN size; a paraformer_lite checkpoint has none to compare
    "desk-dropout": (["--dropout", "0.1"], {"rank": None, "paraformer": "desk"}),
}


@pytest.mark.parametrize("command", ["rank", "paraformer"])
def test_rank_run_and_grid_alpha_record_the_preset_whose_sizes_the_checkpoint_has(inputs, tmp_path, capsys, command):
    for name, (flags, presets) in PRESET_CASES.items():
        code, err = _run(capsys, *_argv(inputs, command, *flags, "--epochs", "1", "--out", tmp_path / name))
        assert code == 0, (name, err)
        model = ["--model", tmp_path / name / "model.slrk", *_argv(inputs, "run")[4:], "--n-predict", "3"]
        for out, argv in (("run", ["rank", "run", *model, "--alpha", "0.5"]), ("grid", ["rank", "grid-alpha", *model])):
            code, err = _run(capsys, *argv, "--out", tmp_path / f"{name}-{out}")
            assert code == 0, (name, out, err)
            cfg = json.loads((tmp_path / f"{name}-{out}" / "config.json").read_text())
            manifest = json.loads((tmp_path / f"{name}-{out}" / "manifest.json").read_text())
            assert cfg["preset"] == manifest["config"]["preset"] == presets[command], (name, out)


@pytest.mark.parametrize("n_layers", [1, 2, 3, 4, 5])
def test_needle_defaults_match_the_last_three_layers_rule(n_layers):
    positions = list(range(max(1, n_layers - 2), n_layers + 1))
    n = len(positions)
    portions = [1.0 / n] * n
    portions[-1] = 1.0 - sum(portions[:-1])
    assert injection_config(n_layers) == InjectionConfig(positions, portions)
    assert injection_config(n_layers, [1]) == InjectionConfig([1], [1.0])
    assert injection_config(n_layers, [1], [1.0]) == InjectionConfig([1], [1.0])
    injection_config(n_layers).validate(n_layers)

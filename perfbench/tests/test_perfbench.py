"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest perfbench/tests -q"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from reference import REF_S, reference  # noqa: E402
from spans import Tracer, instrument  # noqa: E402
from statutelab import corpus as corpus_mod  # noqa: E402
from statutelab import encoders, lexical, rankers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = workloads.Sizes(
    statute_articles=60, statute_queries=30, grid_queries=4, zipf_articles=300, zipf_queries=40,
    oracle_docs=50, oracle_queries=2, tre_samples=8, train_pool=4, min_ops=5, calibrate_ops=2,
)


def test_generators_are_deterministic_per_seed():
    a, qa = inputs.statute_world(5, 50, 20)
    b, qb = inputs.statute_world(5, 50, 20)
    c, _ = inputs.statute_world(6, 50, 20)
    assert a.jsonl() == b.jsonl() and a.jsonl() != c.jsonl()
    assert inputs.digest([q.__dict__ for q in qa]) == inputs.digest([q.__dict__ for q in qb])
    z1, zq1 = inputs.zipf_world(5, 100, 10)
    z2, zq2 = inputs.zipf_world(5, 100, 10)
    assert z1.jsonl() == z2.jsonl() and zq1 == zq2
    assert z1.jsonl() != inputs.zipf_world(6, 100, 10)[0].jsonl()
    assert inputs.digest([s.__dict__ for s in inputs.tre_samples(5, 4)]) == inputs.digest(
        [s.__dict__ for s in inputs.tre_samples(5, 4)]
    )


def test_statute_queries_come_from_their_gold_article():
    world, queries = inputs.statute_world(3, 40, 30)
    texts = dict(zip(world.ids, world.texts))
    for q in queries:
        (gold,) = q.relevant_ids
        words = set(lexical.tokenize(texts[gold]))
        assert sum(t in words for t in lexical.tokenize(q.text)) >= 3


def _bm25_case():
    world, queries = inputs.zipf_world(2, 200, 5)
    idx = lexical.build_index(corpus_mod.chunk_corpus(
        [corpus_mod.Article(i, "", t) for i, t in zip(world.ids, world.texts)]
    ))
    ref = checks.RefIndex(world.ids, [lexical.tokenize(t) for t in world.texts])
    expected, score_of = ref.top(queries[0], 20)
    return lexical.top_n(idx, queries[0], 20), expected, score_of


def test_reference_bm25_agrees_with_top_n():
    hits, expected, score_of = _bm25_case()
    assert hits == expected
    assert checks.top_n_problems(hits, expected, score_of) == []


@pytest.mark.parametrize("corrupt", ["swap", "score", "drop", "stranger"])
def test_corrupted_bm25_result_is_counted_as_failed(corrupt):
    hits, expected, score_of = _bm25_case()
    bad = list(hits)
    if corrupt == "swap":
        bad[0], bad[5] = bad[5], bad[0]
    elif corrupt == "score":
        bad[3] = (bad[3][0], bad[3][1] + 1e-6)
    elif corrupt == "drop":
        bad.pop()
    else:
        bad[2] = ("nobody", bad[2][1])
    ledger = checks.Ledger()
    ledger.check("top_n 1", checks.top_n_problems(bad, expected, score_of))
    assert list(ledger.failed) == ["top_n 1"]


def _rank_case():
    world, queries = inputs.statute_world(4, 60, 5)
    arts = corpus_mod.chunk_corpus([corpus_mod.Article(i, "", t) for i, t in zip(world.ids, world.texts)])
    idx = lexical.build_index(arts)
    model = workloads._ranker(workloads._vocab(world.texts))
    cands = rankers.rank(model, idx, arts, queries[0], n_predict=20, alpha=0.5)
    ref = checks.RefIndex(world.ids, [lexical.tokenize(t) for t in world.texts])
    expected, score_of = ref.top(lexical.tokenize(queries[0].text), 20)
    return cands, expected, score_of


def test_ranking_check_accepts_rank_output():
    cands, expected, score_of = _rank_case()
    assert checks.ranking_problems(cands, expected, score_of, 0.5) == []


@pytest.mark.parametrize("corrupt", ["order", "s_f", "s_l", "candidate"])
def test_corrupted_ranking_is_counted_as_failed(corrupt):
    cands, expected, score_of = _rank_case()
    bad = list(cands)
    if corrupt == "order":
        bad[0], bad[1] = bad[1], bad[0]
    elif corrupt == "s_f":
        bad[4] = dataclasses.replace(bad[4], s_final=bad[4].s_final + 1e-6)
    elif corrupt == "s_l":
        bad[4] = dataclasses.replace(bad[4], s_lexical=bad[4].s_lexical + 1e-3)
    else:
        bad[-1] = dataclasses.replace(bad[-1], article_id="nobody")
    ledger = checks.Ledger()
    ledger.check("rank 1", checks.ranking_problems(bad, expected, score_of, 0.5))
    assert list(ledger.failed) == ["rank 1"]


def test_grid_check_rejects_a_wrong_alpha():
    per_query = [({"a"}, [("a", 0.0, 1.0), ("b", 1.0, 0.0)]), ({"c"}, [("c", 1.0, 0.2), ("d", 0.0, 0.9)])]
    # only alpha = 0.5 ranks both golds first (the first query by the id tie-break)
    assert checks.grid_problems((0.5, 1.0), per_query, 0.1, 1) == []
    assert checks.grid_problems((0.6, 1.0), per_query, 0.1, 1) != []
    assert checks.grid_problems((0.5, 0.5), per_query, 0.1, 1) != []


def test_instrument_wraps_every_namespace_and_restores():
    original = encoders.encode_sentence_cnn
    tracer = Tracer()
    with instrument(tracer):
        assert rankers.encode_sentence_cnn is encoders.encode_sentence_cnn is not original
        lexical.tokenize("a b")
    assert rankers.encode_sentence_cnn is original and encoders.encode_sentence_cnn is original
    assert tracer.metric("lexical.tokenize", "calls") == 1


def test_scaled_time_divides_by_the_neighbouring_reference_loops(tmp_path):
    b = workloads.Bench(1, 1.0, False, tmp_path, TINY)
    assert b._scale(0.3, 0.002, 0.004) == pytest.approx(0.3 * REF_S / 0.003)
    assert 0 < reference() < 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == workloads.END_TO_END
    assert layer == workloads.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in list(e2e) + list(layer) + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_runs_pass_their_checks_and_repeat(workload, tmp_path):
    reps = [workloads.run(workload, 7, 0.3, trace=False, sizes=TINY, out_dir=tmp_path) for _ in range(2)]
    for rep in reps:
        assert rep["failed"] == 0, rep["failures"]
        assert set(rep["metrics"]) == set(workloads.END_TO_END)
        for name, (value, _) in rep["metrics"].items():
            assert value > 0, name
        # the unscaled times are printed under the pipeline names
        assert set(workloads.ALIASES[workload].values()) <= set(rep["named"])
    assert reps[0]["inputs"] == reps[1]["inputs"]
    assert reps[0]["outputs"] == reps[1]["outputs"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    rep = workloads.run(workload, 7, 0.3, trace=True, sizes=TINY, out_dir=tmp_path)
    assert rep["failed"] == 0, rep["failures"]
    m = {k: v for k, (v, _) in rep["metrics"].items()}
    assert set(m) == set(workloads.per_layer_units())
    assert (tmp_path / f"spans-{workload}-seed7.npz").is_file()
    if workload == "bm25-20k":
        assert all(v == 0 for k, v in m.items() if k.startswith(("tensor.", "encoders.")) and k.endswith(".calls"))
    if workload == "rerank":
        assert m["tensor.backward.calls"] == 0
        assert m["encoders.encode_sentence_cnn.calls"] > m["encoders.encode_distinct"] > 0
    if workload == "train":
        assert m["tensor.backward.calls"] > 0 and m["inject.tre_forward.calls"] > 0


def test_launcher_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "rerank", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

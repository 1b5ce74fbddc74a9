"""The three benchmark workloads, run in-process against statutelab's API.

Run through ``perfbench/run.py``, which pins the BLAS and OpenMP thread
counts and starts one process per workload.  Each workload is one client in
a closed loop, run as ``ROUNDS`` rounds of set-up, a timed primary operation
and a timed batch job (see ``Bench.schedule``).  Operation and batch times are
also reported scaled by the reference loop of ``reference.py``, timed next to
each of them.  Inputs are generated before anything is timed, and every output
is checked after the timed regions end.  See ``perfbench/README.md`` for the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "statutelab" / "__init__.py").is_file():
    sys.exit(f"perfbench: no statutelab sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from statutelab import corpus as corpus_mod  # noqa: E402
from statutelab import encoders, inject, lexical, rankers, selftest  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from reference import REF_S, reference  # noqa: E402
from spans import SPAN_NAMES, Tracer, instrument  # noqa: E402

WORKLOADS = ("rerank", "bm25-20k", "train")
ROUNDS = 6
PRIMARY_SHARE = 0.6
MODEL_SEED = 0
N_PREDICT = 150
RANK_ALPHA = 0.5
GRID_STEP = 0.01
TRE_LR = 0.05
# reference loops timed right before and right after each set-up and batch
BATCH_REFS = 3

# end-to-end metrics, printed by every workload with tracing off; every
# time is scaled to a core where the reference loop takes REF_S
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "scaled_ops_per_s": "1/s",
    "scaled_op_p50_ms": "ms",
    "scaled_op_p90_ms": "ms",
    "scaled_batch_s": "s",
}

# spans that also report their inclusive seconds as "<name>.s"
INCLUSIVE_S = (
    "corpus.load_corpus", "corpus.chunk_corpus", "lexical.build_index", "lexical.save_index",
    "lexical.load_index", "rankers.load_model", "rankers.train_ranker", "inject.tre_evaluate",
)
# phases whose encode_sentence_cnn calls feed encoders.encode_reuse_ratio.<phase>
ENCODE_PHASES = ("rank", "grid_alpha", "train")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in INCLUSIVE_S:
        units[f"{name}.s"] = "s"
    units.update({
        "lexical.index_bytes": "bytes",
        "lexical.postings_scanned": "count",
        "lexical.docs_scored": "count",
        "lexical.docs_matched": "count",
        "lexical.kept_ratio": "ratio",
        "lexical.top_n.p50_ms": "ms",
        "encoders.encode_reuse_ratio": "ratio",
        "encoders.encode_distinct": "count",
    })
    for phase in ENCODE_PHASES:
        units[f"encoders.encode_reuse_ratio.{phase}"] = "ratio"
        units[f"encoders.encode_calls.{phase}"] = "count"
        units[f"encoders.encode_distinct.{phase}"] = "count"
    units.update({
        "trace.overhead_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.spans": "count",
        "trace.spans_dropped": "count",
    })
    return units


@dataclass
class Sizes:
    """Input sizes; the defaults are the benchmark, tests use smaller ones."""

    statute_articles: int = 2000
    statute_queries: int = 600
    grid_queries: int = 12
    zipf_articles: int = 20000
    zipf_queries: int = 2000
    oracle_docs: int = 200
    oracle_queries: int = 3
    tre_samples: int = 128
    train_pool: int = 300
    min_ops: int = 100
    calibrate_ops: int = 8


class LayerCounts:
    """Work counts gathered at the traced ``top_n`` and ``encode_sentence_cnn``
    boundaries; ``ref`` is the benchmark's own index of the corpus."""

    def __init__(self, tracer: Tracer, ref: checks.RefIndex):
        self.tracer = tracer
        self.ref = ref
        self.postings = self.scored = self.matched = self.kept = 0
        self.top_n_ms: list[float] = []
        self.encode_calls = {p: 0 for p in ENCODE_PHASES}
        self.encode_texts = {p: set() for p in ENCODE_PHASES}
        tracer.hooks["lexical.top_n"] = self.on_top_n
        tracer.hooks["encoders.encode_sentence_cnn"] = self.on_encode

    def on_top_n(self, args, out, dur):
        terms = args[1]
        self.postings += sum(self.ref.df(t) for t in terms)
        self.scored += self.ref.n
        self.matched += self.ref.matched(terms)
        self.kept += len(out)
        self.top_n_ms.append(dur * 1e3)

    def on_encode(self, args, out, dur):
        phase = self.tracer.phase
        if phase in self.encode_calls:
            self.encode_calls[phase] += 1
            self.encode_texts[phase].add(tuple(args[0]))


@dataclass
class Outcome:
    """Outputs of a schedule: the state from the first set-up, the warm-up
    output, each item's first output, every repeated (item, output), and the
    batch outputs in order."""

    state: object
    warm: object
    first: dict
    repeats: list
    batches: list

    def leading(self, n: int) -> list:
        """The warm-up output and the first n items' outputs: the same for
        every run of one seed, however fast it ran."""
        return [self.warm] + [self.first[i] for i in sorted(self.first)[:n]]


class Bench:
    """State of one workload run: timings, the failure ledger, the tracer."""

    def __init__(self, seed: int, seconds: float, trace: bool, work: Path, sizes: Sizes):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.sizes = sizes
        self.ledger = checks.Ledger()
        self.tracer = Tracer() if trace else None
        self.counts: LayerCounts | None = None
        self.setup_s: list[float] = []
        self.latencies: list[float] = []
        self.batch_s: list[float] = []
        # the same times, scaled by the reference loops timed next to them
        self.scaled_setup_s: list[float] = []
        self.scaled_latencies: list[float] = []
        self.scaled_batch_s: list[float] = []
        self.ref_s: list[float] = []
        self.named: dict[str, tuple[float, str]] = {}
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.overhead: tuple[float, float] | None = None
        self.index_bytes = 0

    def traced(self, phase: str):
        if self.tracer is None:
            return nullcontext()
        self.tracer.phase = phase
        return instrument(self.tracer)

    def count_layers(self, ref: checks.RefIndex) -> None:
        if self.tracer is not None:
            self.counts = LayerCounts(self.tracer, ref)

    def _begin_op(self) -> None:
        """Count one attempted operation; its spans carry its number."""
        self.ledger.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = self.ledger.attempted

    def _timed(self, phase: str, fn, times: list[float]):
        with self.traced(phase):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return out

    def _ref(self, n: int = 1) -> float:
        """Median time of n reference loops."""
        times = [reference() for _ in range(n)]
        self.ref_s.extend(times)
        return statistics.median(times)

    def _scale(self, t: float, before: float, after: float) -> float:
        """t on a core where the reference loop takes REF_S, from the loop's
        times right before and right after t was measured."""
        return t * REF_S / (0.5 * (before + after))

    def _timed_scaled(self, phase: str, fn, times: list[float], scaled: list[float]):
        before = self._ref(BATCH_REFS)
        out = self._timed(phase, fn, times)
        scaled.append(self._scale(times[-1], before, self._ref(BATCH_REFS)))
        return out

    def schedule(self, setup, items, op, batch, phases: tuple[str, str], new_pass=None) -> Outcome:
        """Run ROUNDS rounds, each ``seconds / ROUNDS`` long, of: set-up, the
        primary op over items[1:] (cycled) for PRIMARY_SHARE of what is left
        of the round, then the batch job for the rest (at least once).
        Interleaving spreads every metric's samples over the whole run, so a
        slow stretch of the machine touches all of them alike, and a slower
        set-up shortens the round's other parts rather than the run.  The
        first set-up's state is used throughout, and items[0] is an untimed
        warm-up.  One reference loop runs after each op, and BATCH_REFS
        before and after each set-up and batch, to scale their times.
        ``op(state, item)``, ``batch(state, j)``; ``new_pass(state)`` runs
        untimed before each pass over items[1:]."""
        op_phase, batch_phase = phases
        state = warm = None
        first, repeats, batches = {}, [], []
        k = 0
        for r in range(ROUNDS):
            round_end = time.perf_counter() + self.seconds / ROUNDS
            self._begin_op()
            fresh = self._timed_scaled("setup", setup, self.setup_s, self.scaled_setup_s)
            if state is None:
                state = fresh
                self._begin_op()
                with self.traced(op_phase):
                    warm = op(state, items[0])
            with self.traced(op_phase):
                ref_before = self._ref()
                now = time.perf_counter()
                deadline = now + PRIMARY_SHARE * (round_end - now)
                while time.perf_counter() < deadline or (r == ROUNDS - 1 and k < self.sizes.min_ops):
                    i = 1 + k % (len(items) - 1)
                    if i == 1 and new_pass is not None:
                        new_pass(state)
                    k += 1
                    self._begin_op()
                    t0 = time.perf_counter()
                    out = op(state, items[i])
                    self.latencies.append(time.perf_counter() - t0)
                    ref_after = self._ref()
                    self.scaled_latencies.append(self._scale(self.latencies[-1], ref_before, ref_after))
                    ref_before = ref_after
                    if i in first:
                        repeats.append((i, out))
                    else:
                        first[i] = out
            while True:
                self._begin_op()
                j = len(batches)
                batches.append(self._timed_scaled(batch_phase, lambda: batch(state, j), self.batch_s, self.scaled_batch_s))
                if time.perf_counter() >= round_end:
                    break
        return Outcome(state, warm, first, repeats, batches)

    def calibrate(self, items, op, same=None):
        """Tracing overhead: the same operations untraced, then traced.
        ``same`` compares the two outputs of one item when they should agree."""
        if self.tracer is None:
            return
        walls = []
        outs = []
        for phase in (None, "calibrate"):
            with self.traced(phase) if phase else nullcontext():
                t0 = time.perf_counter()
                outs.append([])
                for x in items:
                    self._begin_op()
                    outs[-1].append(op(x))
                walls.append(time.perf_counter() - t0)
        if same is not None:
            for j, (a, b) in enumerate(zip(*outs)):
                self.ledger.check(f"calibrate {j}", [] if same(a, b) else ["traced output differs from untraced"])
        self.overhead = (walls[1] - walls[0], (walls[1] - walls[0]) / walls[0])

    def write_file(self, name: str, data: bytes) -> Path:
        path = self.work / name
        path.write_bytes(data)
        self.inputs[name] = inputs.digest(data)
        return path


# ---------------------------------------------------------------------------
# workloads


def _vocab(texts) -> list[str]:
    words = set()
    for t in texts:
        words.update(lexical.tokenize(t))
    return sorted(words)


def _ranker(vocab) -> rankers.RankerModel:
    """attentive_cnn at the desk preset, width 3, learned paragraph query."""
    cfg = rankers.RankerConfig(seed=MODEL_SEED, n_predict=N_PREDICT, epochs=1)
    return rankers.build_attentive_cnn(
        vocab, **encoders.PRESETS["desk"], seed=MODEL_SEED, width=3, para_query="learned", config=cfg
    )


def _rank_key(cands):
    return [(c.article_id, c.s_lexical, c.s_semantic, c.s_final) for c in cands]


def _statute_inputs(b: Bench):
    world, queries = inputs.statute_world(b.seed, b.sizes.statute_articles, b.sizes.statute_queries)
    path = b.write_file("corpus.jsonl", world.jsonl())
    b.inputs["queries"] = inputs.digest([q.__dict__ for q in queries])
    ref = checks.RefIndex(world.ids, [lexical.tokenize(t) for t in world.texts])
    return world, queries, path, ref


def _check_chunks(b: Bench, world, arts) -> None:
    want = [t.count(". (") + 1 for t in world.texts]
    got = [len(a.statements) for a in arts]
    b.ledger.check("setup chunk", [] if got == want else ["chunk_corpus statement counts differ"])


def _check_repeats(b: Bench, label: str, res: Outcome, key=lambda x: x) -> None:
    """A repeated op must return its first output exactly."""
    for i, out in res.repeats:
        b.ledger.check(f"{label} {i} repeat", [] if key(out) == key(res.first[i]) else ["repeat gave a different output"])


def _check_same_batches(b: Bench, res: Outcome) -> None:
    for j, out in enumerate(res.batches[1:], start=1):
        b.ledger.check(f"batch {j}", [] if out == res.batches[0] else ["repeat batch gave a different output"])


def run_rerank(b: Bench) -> None:
    world, queries, corpus_path, ref = _statute_inputs(b)
    b.count_layers(ref)
    model_path = b.work / "model.slrk"
    rankers.save_model(_ranker(_vocab(world.texts + [q.text for q in queries])), model_path)
    model_bytes = model_path.read_bytes()
    b.inputs["model.slrk"] = inputs.digest(model_bytes)
    index_path = b.work / "index.slix"
    pool, held_out = queries[: -b.sizes.grid_queries], queries[-b.sizes.grid_queries :]

    def setup():
        arts = corpus_mod.chunk_corpus(corpus_mod.load_corpus(corpus_path))
        idx = lexical.build_index(arts)
        lexical.save_index(idx, index_path)
        return arts, idx, rankers.load_model(model_path)

    def rank(state, q):
        arts, idx, model = state
        return rankers.rank(model, idx, arts, q, n_predict=N_PREDICT, alpha=RANK_ALPHA)

    def grid(state, _):
        arts, idx, model = state
        return rankers.grid_search_alpha(model, idx, arts, held_out, step=GRID_STEP, n_predict=N_PREDICT, k=1)

    res = b.schedule(setup, pool, rank, grid, ("rank", "grid_alpha"))
    arts, idx, model = res.state
    b.calibrate(pool[1 : 1 + b.sizes.calibrate_ops], lambda q: rank(res.state, q), lambda x, y: _rank_key(x) == _rank_key(y))

    _check_chunks(b, world, arts)
    b.ledger.check("setup slix", checks.index_problems(idx, lexical.load_index(index_path)))
    b.ledger.check("setup slrk", [] if rankers.model_bytes(model) == model_bytes else ["SLRK1 round trip changed the model"])
    b.index_bytes = index_path.stat().st_size

    for i, cands in sorted(res.first.items()):
        expected, score_of = ref.top(lexical.tokenize(pool[i].text), N_PREDICT)
        b.ledger.check(f"rank {i}", checks.ranking_problems(cands, expected, score_of, RANK_ALPHA))
    by_id = {a.id: a for a in arts}
    for i in sorted(res.first)[:3]:
        cands = res.first[i]
        for c in (cands[0], cands[len(cands) // 2], cands[-1]):
            want = rankers.semantic_score(model, pool[i].text, by_id[c.article_id])
            b.ledger.check(f"rank {i}", checks.close_problems(f"s_s of {c.article_id}", c.s_semantic, want))
    res.repeats += [(i, rank(res.state, pool[i])) for i in sorted(res.first)[:2]]
    _check_repeats(b, "rank", res, _rank_key)
    _check_same_batches(b, res)

    per_query = []
    for q in held_out:
        cands = rank(res.state, q)
        per_query.append((q.relevant_ids, [(c.article_id, c.s_lexical, c.s_semantic) for c in cands]))
    b.ledger.check("batch 0", checks.grid_problems(res.batches[0], per_query, GRID_STEP, 1))

    b.outputs["rank"] = inputs.digest([_rank_key(c) for c in res.leading(b.sizes.min_ops)])
    b.outputs["grid"] = inputs.digest(list(res.batches[0]))
    b.named["rerank_f2"] = (res.batches[0][1], "F2@1")
    b.named["grid_alpha"] = (res.batches[0][0], "alpha")


def run_bm25(b: Bench) -> None:
    world, queries = inputs.zipf_world(b.seed, b.sizes.zipf_articles, b.sizes.zipf_queries)
    corpus_path = b.write_file("corpus.jsonl", world.jsonl())
    b.inputs["queries"] = inputs.digest(queries)
    ref = checks.RefIndex(world.ids, [lexical.tokenize(t) for t in world.texts])
    b.count_layers(ref)
    # the index the set-up loads is built before anything is timed; every
    # timed build must save the same bytes
    arts = corpus_mod.load_corpus(corpus_path)
    built = lexical.build_index(arts)
    index_path = b.work / "index.slix"
    lexical.save_index(built, index_path)
    b.index_bytes = index_path.stat().st_size
    index_digest = inputs.digest(index_path.read_bytes())
    load_s = []

    def setup():
        loaded = corpus_mod.load_corpus(corpus_path)
        t0 = time.perf_counter()
        idx = lexical.load_index(index_path)
        load_s.append(time.perf_counter() - t0)
        return loaded, idx

    def top(state, terms):
        return lexical.top_n(state[1], terms, N_PREDICT)

    def build(state, j):
        path = b.work / f"rebuilt{j}.slix"
        lexical.save_index(lexical.build_index(arts), path)
        return path

    res = b.schedule(setup, queries, top, build, ("top_n", "build"))
    loaded, idx = res.state
    b.calibrate(queries[1 : 1 + b.sizes.calibrate_ops * 3], lambda q: top(res.state, q), lambda x, y: x == y)

    b.ledger.check("setup slix", checks.index_problems(built, idx))
    b.ledger.check("setup corpus", [] if [a.text for a in loaded] == world.texts else ["load_corpus changed texts"])
    for j, path in enumerate(res.batches):
        same = inputs.digest(path.read_bytes()) == index_digest
        b.ledger.check(f"batch {j}", [] if same else ["rebuilt index saved different bytes"])

    for i, hits in sorted(res.first.items()):
        expected, score_of = ref.top(queries[i], N_PREDICT)
        b.ledger.check(f"top_n {i}", checks.top_n_problems(hits, expected, score_of))
    _check_repeats(b, "top_n", res)

    sub = arts[: b.sizes.oracle_docs]
    sub_idx = lexical.build_index(sub)
    docs = {a.id: a.text for a in sub}
    for i in range(1, 1 + b.sizes.oracle_queries):
        oracle = selftest.bm25_oracle(docs, queries[i])
        hits = lexical.top_n(sub_idx, queries[i], N_PREDICT)
        b.ledger.check(f"top_n {i}", checks.top_n_problems(hits, checks.expected_top(oracle, N_PREDICT), oracle.get))

    b.outputs["top_n"] = inputs.digest(res.leading(b.sizes.min_ops))
    b.outputs["index"] = index_digest
    b.named["index_load_s"] = (statistics.median(load_s), "s")


def run_train(b: Bench) -> None:
    world, queries, corpus_path, ref = _statute_inputs(b)
    b.count_layers(ref)
    samples = inputs.tre_samples(b.seed, b.sizes.tre_samples)
    b.inputs["tre_samples"] = inputs.digest([s.__dict__ for s in samples])
    n = 3
    icfg = inject.InjectionConfig([2, 3, 4], [1.0 / n, 1.0 / n, 1.0 - 2.0 / n])
    tre_vocab = sorted({t for s in samples for t in s.tokens})
    max_len = max(len(s.tokens) for s in samples) + 1

    def setup():
        arts = corpus_mod.chunk_corpus(corpus_mod.load_corpus(corpus_path))
        idx = lexical.build_index(arts)
        return arts, idx, _ranker(_vocab([a.text for a in arts] + [q.text for q in queries]))

    def step(state, q):
        arts, idx, model = state
        return rankers.train_ranker(model, arts, [q], index=idx)[1][0]

    # Plain SGD on one model for thousands of steps can diverge, so every
    # pass over the queries restarts from the weights the first pass began
    # with, and every TRE epoch starts from a freshly built model (about a
    # millisecond of the epoch).  Cost depends on shapes, not on weights.
    start = []

    def new_pass(state):
        params = rankers.parameters(state[2])
        if not start:
            start.extend(p.data.copy() for p in params)
        for p, data in zip(params, start):
            p.data[...] = data

    def tre_epoch(state, _):
        tre = inject.build_tre_model(tre_vocab, 16, 4, 2, seed=MODEL_SEED, max_len=max_len)
        return inject.tre_train(tre, icfg, samples, 1, TRE_LR, MODEL_SEED).step_losses

    pool = queries[: b.sizes.train_pool]
    res = b.schedule(setup, pool, step, tre_epoch, ("train", "tre"), new_pass)
    b.calibrate(pool[1 : 1 + b.sizes.calibrate_ops], lambda q: step(res.state, q))

    arts, idx, _ = res.state
    _check_chunks(b, world, arts)
    losses = [res.warm] + list(res.first.values()) + [l for _, l in res.repeats]
    b.ledger.check("train", checks.finite_problems("ranker", losses))
    b.ledger.check("batch 0", checks.finite_problems("tre", [t for t, _ in res.batches[0]]))
    _check_repeats(b, "train", res)
    _check_same_batches(b, res)
    # a freshly built model must replay the warm-up and the first two steps
    fresh = setup()
    replay = [step(fresh, pool[i]) for i in range(3)]
    b.ledger.check("train replay", [] if replay == [res.warm, res.first[1], res.first[2]] else ["replayed steps differ"])

    b.outputs["train"] = inputs.digest(res.leading(b.sizes.min_ops))
    b.outputs["tre"] = inputs.digest(res.batches[0])
    b.named["tre_train_steps_per_s"] = (len(samples) / statistics.fmean(b.batch_s), "1/s")


RUNNERS = {"rerank": run_rerank, "bm25-20k": run_bm25, "train": run_train}

# pipeline names of the unscaled times, per workload
ALIASES = {
    "rerank": {"ops_per_s": "rank_qps", "op_p50_ms": "rank_p50_ms", "op_p90_ms": "rank_p90_ms", "batch_s": "grid_alpha_s"},
    "bm25-20k": {"ops_per_s": "bm25_qps", "op_p50_ms": "bm25_p50_ms", "op_p90_ms": "bm25_p90_ms", "batch_s": "index_build_s"},
    "train": {
        "ops_per_s": "rank_train_steps_per_s", "op_p50_ms": "rank_train_p50_ms",
        "op_p90_ms": "rank_train_p90_ms", "batch_s": "tre_batch_s",
    },
}


# ---------------------------------------------------------------------------
# metrics and reporting


def op_metrics(latencies: list[float], batch_s: list[float]) -> dict[str, float]:
    lat_ms = np.array(latencies) * 1e3
    return {
        "ops_per_s": len(lat_ms) / (lat_ms.sum() / 1e3),
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, 90)),
        "batch_s": statistics.fmean(batch_s),
    }


def end_to_end(b: Bench) -> dict[str, float]:
    scaled = op_metrics(b.scaled_latencies, b.scaled_batch_s)
    return {
        "setup_s": statistics.median(b.scaled_setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{f"scaled_{k}": v for k, v in scaled.items()},
    }


def per_layer(b: Bench) -> dict[str, float]:
    t = b.tracer
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = t.metric(name, "calls")
        out[f"{name}.self_s"] = t.metric(name, "self_s")
    for name in INCLUSIVE_S:
        out[f"{name}.s"] = t.metric(name, "s")
    c = b.counts
    out["lexical.index_bytes"] = b.index_bytes
    out["lexical.postings_scanned"] = c.postings
    out["lexical.docs_scored"] = c.scored
    out["lexical.docs_matched"] = c.matched
    out["lexical.kept_ratio"] = c.kept / c.scored if c.scored else 0.0
    out["lexical.top_n.p50_ms"] = statistics.median(c.top_n_ms) if c.top_n_ms else 0.0
    calls = sum(c.encode_calls.values())
    distinct = set().union(*c.encode_texts.values())
    out["encoders.encode_reuse_ratio"] = len(distinct) / calls if calls else 0.0
    out["encoders.encode_distinct"] = len(distinct)
    for p in ENCODE_PHASES:
        n, d = c.encode_calls[p], len(c.encode_texts[p])
        out[f"encoders.encode_reuse_ratio.{p}"] = d / n if n else 0.0
        out[f"encoders.encode_calls.{p}"] = n
        out[f"encoders.encode_distinct.{p}"] = d
    out["trace.overhead_s"], out["trace.overhead_frac"] = b.overhead
    out["trace.spans"] = len(t.log_name) + t.dropped
    out["trace.spans_dropped"] = t.dropped
    return out


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes | None = None, out_dir: Path | None = None) -> dict:
    """Run one workload in this process and return its report."""
    out_dir = out_dir or ROOT / "perfbench" / "_out"
    work = out_dir / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    b = Bench(seed, seconds, trace, work, sizes or Sizes())
    try:
        RUNNERS[workload](b)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        spans_path = out_dir / f"spans-{workload}-seed{seed}.npz"
        b.tracer.write(spans_path)
        values = per_layer(b)
        metrics = {k: (values[k], u) for k, u in per_layer_units().items()}
    else:
        spans_path = None
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(b).items()}
    named = dict(b.named)
    if not trace:
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "batch_s": "s"}
        for k, v in op_metrics(b.latencies, b.batch_s).items():
            named[ALIASES[workload][k]] = (v, units[k])
        named["setup_wall_s"] = (statistics.median(b.setup_s), "s")
        named.update({k: metrics[k] for k in END_TO_END})
        named["ref_loop_ms"] = (statistics.median(b.ref_s) * 1e3, "ms")
    named["failed_frac"] = (len(b.ledger.failed) / b.ledger.attempted, "ratio")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": b.ledger.attempted,
        "failed": len(b.ledger.failed),
        "failures": dict(list(b.ledger.failed.items())[:10]),
        "samples": {"timed_ops": len(b.latencies), "batches": len(b.batch_s), "setups": len(b.setup_s)},
        "named": named,
        "metrics": metrics,
        "inputs": b.inputs,
        "outputs": b.outputs,
        "spans_file": os.path.relpath(spans_path, ROOT) if spans_path else None,
        "machine": machine(),
    }


def print_report(rep: dict) -> None:
    print(f"# perfbench {rep['workload']} seed={rep['seed']} seconds={rep['seconds']} trace={rep['trace']}")
    for name, (value, unit) in rep["named"].items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    detail = {k: rep[k] for k in ("samples", "failures", "inputs", "outputs", "spans_file", "machine")}
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rep["metrics"].items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    print_report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks and the independent references they compare against.

Every check returns a list of problems (empty when the output is right), so
a deliberately corrupted output can be shown to fail.  None of them runs
inside a timed region.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9  # scores from a different summation path
EXACT = 1e-12  # values the program computes by the same formula


class RefIndex:
    """BM25 over numpy postings, built from the corpus texts independently
    of ``lexical.InvertedIndex``; same idf and parameters as ``top_n``, and
    the same per-document summation order, so scores agree to the last bit
    when ``top_n`` is right."""

    def __init__(self, ids: list[str], token_lists: list[list[str]], k1: float = 1.2, b: float = 0.75):
        self.ids = ids
        self.pos = {d: i for i, d in enumerate(ids)}
        self.id_rank = np.argsort(np.argsort(np.array(ids)))
        self.n = len(ids)
        lens = np.array([len(t) for t in token_lists], dtype=np.int64)
        self.vocab: dict[str, int] = {}
        term = np.array(
            [self.vocab.setdefault(t, len(self.vocab)) for toks in token_lists for t in toks],
            dtype=np.int64,
        )
        doc = np.repeat(np.arange(self.n, dtype=np.int64), lens)
        pairs, tf = np.unique(term * self.n + doc, return_counts=True)
        self.post_doc = pairs % self.n
        self.post_tf = tf.astype(np.float64)
        self.start = np.searchsorted(pairs // self.n, np.arange(len(self.vocab) + 1))
        dl = lens.astype(np.float64)
        self.norm = k1 * (1.0 - b + b * dl / (int(lens.sum()) / self.n))
        self.k1 = k1

    def df(self, term: str) -> int:
        t = self.vocab.get(term)
        return 0 if t is None else int(self.start[t + 1] - self.start[t])

    def matched(self, terms: list[str]) -> int:
        """Documents holding at least one of the terms."""
        parts = [self.post_doc[self.start[t] : self.start[t + 1]] for t in map(self.vocab.get, terms) if t is not None]
        return len(np.unique(np.concatenate(parts))) if parts else 0

    def scores(self, terms: list[str]) -> np.ndarray:
        s = np.zeros(self.n)
        for term in terms:
            df = self.df(term)
            if df == 0:
                continue
            t = self.vocab[term]
            docs = self.post_doc[self.start[t] : self.start[t + 1]]
            tf = self.post_tf[self.start[t] : self.start[t + 1]]
            idf = math.log((self.n - df + 0.5) / (df + 0.5) + 1.0)
            s[docs] += idf * tf * (self.k1 + 1.0) / (tf + self.norm[docs])
        return s

    def top(self, terms: list[str], n: int):
        """The top n (id, score) by (-score, id), and a lookup from any id to
        its score (None for an unknown id)."""
        s = self.scores(terms)
        order = np.lexsort((self.id_rank, -s))[: min(n, self.n)]

        def score_of(doc_id):
            i = self.pos.get(doc_id)
            return None if i is None else float(s[i])

        return [(self.ids[i], float(s[i])) for i in order], score_of


def expected_top(scores: dict[str, float], n: int) -> list[tuple[str, float]]:
    """Top n of a full id -> score map by (-score, id), as ``top_n`` orders."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def top_n_problems(hits, expected, score_of) -> list[str]:
    """``hits`` must be the expected list: the same ids in the same order,
    except that ids whose reference scores tie within TOL may swap, and each
    score within TOL of the reference."""
    if len(hits) != len(expected):
        return [f"{len(hits)} results, expected {len(expected)}"]
    problems = []
    for rank, ((got_id, got_s), (exp_id, exp_s)) in enumerate(zip(hits, expected)):
        ref = score_of(got_id)
        if ref is None:
            problems.append(f"rank {rank}: unknown id {got_id!r}")
        elif got_id != exp_id and abs(ref - exp_s) > TOL:
            problems.append(f"rank {rank}: {got_id} where {exp_id} belongs")
        elif abs(got_s - ref) > TOL:
            problems.append(f"rank {rank}: {got_id} score {got_s!r} != reference {ref!r}")
    return problems


def ranking_problems(cands, expected, score_of, alpha: float) -> list[str]:
    """A ``rankers.rank`` list must hold exactly the expected top-n candidate
    set, with s_l the min-max normalised BM25 score, s_f = alpha*s_l +
    (1-alpha)*s_s, and the order (-s_f, id)."""
    got = {c.article_id for c in cands}
    want = {i for i, _ in expected}
    if len(cands) != len(expected) or got != want:
        floor = expected[-1][1] if expected else 0.0
        stray = [i for i in got ^ want if score_of(i) is None or abs(score_of(i) - floor) > TOL]
        if len(cands) != len(expected) or stray:
            return [f"candidate set differs from top_n: {sorted(stray)[:3]}"]
    lex = [score_of(c.article_id) for c in cands]
    lo, hi = min(lex), max(lex)
    problems = []
    for c, s in zip(cands, lex):
        s_l = (s - lo) / (hi - lo) if hi > lo else 1.0
        if abs(c.s_lexical - s_l) > TOL:
            problems.append(f"{c.article_id}: s_l {c.s_lexical!r} != {s_l!r}")
        if abs(c.s_final - (alpha * c.s_lexical + (1.0 - alpha) * c.s_semantic)) > EXACT:
            problems.append(f"{c.article_id}: s_f is not the alpha ensemble")
    if [c.article_id for c in cands] != [c.article_id for c in sorted(cands, key=lambda c: (-c.s_final, c.article_id))]:
        problems.append("not ordered by (-s_f, id)")
    return problems


def close_problems(label: str, got: float, want: float, tol: float = TOL) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= tol:
        return []
    return [f"{label}: {got!r} != {want!r}"]


def grid_problems(result, per_query, step: float, k: int) -> list[str]:
    """Recompute the alpha sweep from each validation query's candidates.

    ``per_query`` holds (gold ids, [(id, s_l, s_s), ...]).  The best alpha
    has the highest macro-F2@k, ties going to the smallest alpha."""
    alphas = []
    a = 0.0
    while a < 1.0 - 1e-12:
        alphas.append(round(a, 12))
        a += step
    alphas.append(1.0)
    best = (0.0, -1.0)
    for alpha in alphas:
        f2s = []
        for gold, cands in per_query:
            top = sorted(cands, key=lambda c: (-(alpha * c[1] + (1.0 - alpha) * c[2]), c[0]))[:k]
            hits = sum(c[0] in gold for c in top)
            p, r = hits / len(top), hits / len(gold)
            f2s.append(5.0 * p * r / (4.0 * p + r) if hits else 0.0)
        f2 = sum(f2s) / len(f2s)
        if f2 > best[1] + 1e-12:
            best = (alpha, f2)
    if result[0] != best[0] or abs(result[1] - best[1]) > EXACT:
        return [f"grid search gave {result}, recomputed {best}"]
    return []


def index_problems(a, b) -> list[str]:
    """Two ``InvertedIndex`` values must hold the same contents."""
    for field in ("n_docs", "avgdl", "doc_len", "postings"):
        if getattr(a, field) != getattr(b, field):
            return [f"index round trip changed {field}"]
    return []


def finite_problems(label: str, values) -> list[str]:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{label}: non-finite loss {bad[0]!r}"] if bad else []


class Ledger:
    """Operations attempted and the ones whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, str] = {}

    def check(self, op: str, problems: list[str]) -> None:
        if problems:
            self.failed.setdefault(op, problems[0])

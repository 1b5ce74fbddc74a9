"""Retrieval and classification metrics.

F2 weights recall: F2 = 5PR / (4P + R).  Macro scores are arithmetic means
of the per-query values, not the F-measure of averaged P and R.  Zero
denominators (empty gold or retrieved sets) score 0 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RetrievalJudgment",
    "f2_score",
    "ordered_mean",
    "prf2",
    "macro_f2",
    "accuracy",
    "aggregate_human_eval",
]


@dataclass
class RetrievalJudgment:
    gold: set[str]
    retrieved: list[str]

    def __post_init__(self):
        if len(self.retrieved) != len(set(self.retrieved)):
            raise ValueError("retrieved list contains duplicates")


def f2_score(p, r):
    """F2 = 5PR / (4P + R) of a precision and a recall (both >= 0), 0.0
    where both are 0.  Floats or float64 arrays, elementwise: the IEEE
    operations are the same either way."""
    den = 4.0 * p + r
    return 5.0 * p * r / np.where(den > 0.0, den, 1.0)


def ordered_mean(values):
    """The mean of floats or of float64 arrays, added left to right from
    0.0: the order of sum() before Python 3.12, whose sum() compensates."""
    total = 0.0
    for v in values:
        total = total + v
    return total / len(values)


def prf2(gold: set, retrieved: set) -> tuple[float, float, float]:
    """Precision, recall and F2 of one retrieval."""
    hits = len(set(gold) & set(retrieved))
    p = hits / len(retrieved) if retrieved else 0.0
    r = hits / len(gold) if gold else 0.0
    return p, r, float(f2_score(p, r))


def macro_f2(judgments: list[RetrievalJudgment], k: int) -> tuple[float, float, float]:
    """Per-query prf2 at cut k (k >= 1), averaged arithmetically."""
    if not judgments:
        raise ValueError("macro_f2 needs at least one judgment")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ps, rs, f2s = [], [], []
    for j in judgments:
        p, r, f2 = prf2(j.gold, set(j.retrieved[:k]))
        ps.append(p)
        rs.append(r)
        f2s.append(f2)
    return ordered_mean(ps), ordered_mean(rs), ordered_mean(f2s)


def accuracy(preds: list[bool], golds: list[bool]) -> float:
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise ValueError("accuracy of an empty list is undefined")
    return sum(p == g for p, g in zip(preds, golds)) / len(preds)


def aggregate_human_eval(positives_per_evaluator: list[int], s: int) -> float:
    """Mean fraction of sentences judged positive across evaluators."""
    if s < 1:
        raise ValueError("total sentence count must be >= 1")
    for p in positives_per_evaluator:
        if p > s:
            raise ValueError(f"evaluator count {p} exceeds total {s}")
        if p < 0:
            raise ValueError("counts must be non-negative")
    if not positives_per_evaluator:
        raise ValueError("need at least one evaluator")
    return ordered_mean([p / s for p in positives_per_evaluator])

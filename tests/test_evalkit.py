import pytest
from hypothesis import given
from hypothesis import strategies as st

from statutelab.evalkit import (
    RetrievalJudgment,
    accuracy,
    aggregate_human_eval,
    macro_f2,
    prf2,
)


def test_prf2_hand_values():
    assert prf2({"a", "b"}, {"a", "b"}) == (1.0, 1.0, 1.0)
    p, r, f2 = prf2({"a", "b"}, {"a"})
    assert (p, r) == (1.0, 0.5)
    assert f2 == pytest.approx(2.5 / 4.5)
    assert prf2({"a"}, {"b"}) == (0.0, 0.0, 0.0)
    assert prf2(set(), {"a"}) == (0.0, 0.0, 0.0)
    assert prf2({"a"}, set()) == (0.0, 0.0, 0.0)


def test_f2_weights_recall_over_precision():
    _, _, f2 = prf2({"a", "b"}, {"a", "b", "c", "d"})  # P=0.5, R=1.0
    assert f2 == pytest.approx(2.5 / 3.0)
    f1 = 2 * 0.5 * 1.0 / 1.5
    assert f2 > f1


@given(st.sets(st.integers(0, 20)), st.sets(st.integers(0, 20)))
def test_prf2_bounds_and_pr_equality(gold, retrieved):
    p, r, f2 = prf2(gold, retrieved)
    assert 0.0 <= f2 <= 1.0
    if p == r and p > 0:
        assert f2 == pytest.approx(p)


def test_macro_f2():
    j1 = RetrievalJudgment({"a"}, ["a"])
    j2 = RetrievalJudgment({"b"}, ["x"])
    p, r, f2 = macro_f2([j1, j2], 1)
    assert (p, r, f2) == (0.5, 0.5, 0.5)
    same = macro_f2([j1, j1], 1)
    assert same == (1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        macro_f2([], 1)


def test_macro_f2_truncates_at_k():
    j = RetrievalJudgment({"a"}, ["x", "a"])
    assert macro_f2([j], 1)[2] == 0.0
    assert macro_f2([j], 2)[2] > 0.0


@pytest.mark.parametrize("k", [0, -1])
def test_macro_f2_rejects_a_cut_below_1(k):
    # at k=-1 the slice would drop the last retrieved id and score 0.0
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
        macro_f2([RetrievalJudgment({"a"}, ["b", "a"])], k)


def test_macro_f2_permutation_invariant():
    js = [
        RetrievalJudgment({"a"}, ["a"]),
        RetrievalJudgment({"b"}, ["c"]),
        RetrievalJudgment({"d", "e"}, ["d"]),
    ]
    assert macro_f2(js, 1) == macro_f2(list(reversed(js)), 1)


def test_macro_f2_matches_bruteforce():
    import numpy as np

    rng = np.random.default_rng(4)
    js = []
    for _ in range(10):
        gold = {f"d{i}" for i in rng.choice(20, size=rng.integers(1, 4), replace=False)}
        retrieved = [f"d{i}" for i in rng.choice(20, size=5, replace=False)]
        js.append(RetrievalJudgment(gold, retrieved))
    k = 3
    ps, rs, f2s = [], [], []
    for j in js:
        hits = len(j.gold & set(j.retrieved[:k]))
        p = hits / k
        r = hits / len(j.gold)
        f2s.append(5 * p * r / (4 * p + r) if p + r else 0.0)
        ps.append(p)
        rs.append(r)
    got = macro_f2(js, k)
    assert got[0] == pytest.approx(sum(ps) / 10)
    assert got[1] == pytest.approx(sum(rs) / 10)
    assert got[2] == pytest.approx(sum(f2s) / 10)


def test_judgment_rejects_duplicates():
    with pytest.raises(ValueError):
        RetrievalJudgment({"a"}, ["a", "a"])


def test_accuracy():
    assert accuracy([True, False], [True, False]) == 1.0
    assert accuracy([True, False], [False, True]) == 0.0
    preds = [True] * 81
    golds = [True] * 43 + [False] * 38
    assert round(accuracy(preds, golds), 4) == 0.5309
    with pytest.raises(ValueError):
        accuracy([True], [True, False])


@given(st.lists(st.booleans(), min_size=1))
def test_accuracy_identity(xs):
    assert accuracy(xs, xs) == 1.0


def test_aggregate_human_eval():
    assert aggregate_human_eval([4, 4, 4], 4) == 1.0
    assert aggregate_human_eval([1, 3], 4) == 0.5
    assert aggregate_human_eval([0], 5) == 0.0
    with pytest.raises(ValueError):
        aggregate_human_eval([5], 4)
    with pytest.raises(ValueError):
        aggregate_human_eval([1], 0)

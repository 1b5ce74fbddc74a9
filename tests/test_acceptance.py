"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all).
The training-heavy pipelines run twice through module-scoped fixtures so
the determinism criterion can compare bytes without re-training a third
time.
"""

import json
import math
import time

import numpy as np
import pytest

from statutelab.tensor import Tensor, sparsemax_values
from statutelab.augment import (
    EN_RULES,
    JA_RULES,
    augment_negation,
    derive_lawfulness,
    gen_nfsp,
    gen_nmsp,
    negate,
    BilingualDoc,
)
from statutelab.corpus import Article, Query
from statutelab.encoders import init_self_attention_layer, self_attention
from statutelab.evalkit import RetrievalJudgment, accuracy, macro_f2, prf2
from statutelab.experiments import (
    ensemble_experiment,
    hydra_experiment,
    tre_experiment,
)
from statutelab.inject import SdoiMatrix, hydra_attach, hydra_pretrain, init_hydra_heads
from statutelab.lexical import build_index, bm25_score, top_n
from statutelab.selftest import (
    bm25_oracle,
    gradcheck_suite,
    simplex_projection_bisection,
    simplex_projection_dykstra,
)
from statutelab.store import bundle_bytes


def report(criterion, passed, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


SEED = 11


@pytest.fixture(scope="module")
def ensemble_pair():
    return [ensemble_experiment(SEED) for _ in range(2)]


@pytest.fixture(scope="module")
def hydra_pair():
    return [hydra_experiment(SEED) for _ in range(2)]


@pytest.fixture(scope="module")
def tre_late_pair():
    return [tre_experiment(SEED, [2, 3, 4]) for _ in range(2)]


@pytest.fixture(scope="module")
def tre_early():
    report_, _ = tre_experiment(SEED, [1, 2, 3])
    return report_


def test_criterion_01_gradient_suite():
    t0 = time.time()
    results = gradcheck_suite(instances=100, seed=20240501)
    elapsed = time.time() - t0
    worst = max(results.values())
    expected = {
        "matmul", "softmax", "sparsemax", "softargmax", "conv1d", "avg_pool",
        "ce_negsample", "mse_matrix", "encoder_cnn", "encoder_avg",
        "encoder_paragraph",
    }
    ok = worst < 1e-4 and elapsed < 60.0 and expected <= set(results)
    report(1, ok, f"max rel err {worst:.2e} over {len(results)} kernels in {elapsed:.1f}s")


def test_criterion_02_sparsemax():
    rng = np.random.default_rng(2024)
    worst_sum = worst_neg = worst_oracle = 0.0
    shift_exact = True
    shifts = [-2.0, -1.0, 0.5, 1.0, 4.0]
    for i in range(1000):
        dim = int(rng.integers(2, 17))
        # dyadic-grid components so that adding a small exact shift is exact
        v = rng.integers(-64, 65, size=dim).astype(float) / 8.0
        p = sparsemax_values(v)
        worst_sum = max(worst_sum, abs(p.sum() - 1.0))
        worst_neg = max(worst_neg, -min(0.0, p.min()))
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(p - simplex_projection_bisection(v))))
        )
        if i % 10 == 0:  # the alternating-projection oracle is slower; spot-check
            worst_oracle = max(
                worst_oracle, float(np.max(np.abs(p - simplex_projection_dykstra(v))))
            )
        shifted = sparsemax_values(v + shifts[i % len(shifts)])
        if not np.array_equal(p, shifted):
            shift_exact = False
    ok = worst_sum < 1e-12 and worst_neg == 0.0 and shift_exact and worst_oracle < 1e-8
    report(
        2,
        ok,
        f"simplex dev {worst_sum:.1e}, oracle dev {worst_oracle:.1e}, "
        f"translation exact: {shift_exact}",
    )


def test_criterion_03_bm25():
    fixture = {
        "d1": "gifts not in writing may be revoked",
        "d2": "statutory liens on movables",
        "d3": "the writing act applies to gifts",
        "d4": "obligations of the lessee",
        "d5": "revoked gifts return to the donor",
    }
    arts = [Article(k, "", v) for k, v in sorted(fixture.items())]
    idx = build_index(arts)
    exact = True
    for q in (["gifts"], ["gifts", "writing"], ["revoked", "donor"], ["zzz"]):
        oracle = bm25_oracle(fixture, q)
        for did in fixture:
            if bm25_score(idx, q, did) != oracle[did]:
                exact = False
        ranked = top_n(idx, q, 5)
        expect = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
        if [d for d, _ in ranked] != [d for d, _ in expect]:
            exact = False

    rng = np.random.default_rng(33)
    words = ["law", "gift", "act", "party", "claim", "lien", "deed", "writ", "tort"]
    for _ in range(50):
        n_docs = int(rng.integers(1, 101))
        docs = {
            f"r{j:03d}": " ".join(rng.choice(words, size=int(rng.integers(1, 15))))
            for j in range(n_docs)
        }
        ridx = build_index([Article(k, "", v) for k, v in docs.items()])
        q = list(rng.choice(words, size=3))
        oracle = bm25_oracle(docs, q)
        for did in docs:
            if abs(bm25_score(ridx, q, did) - oracle[did]) > 0.0:
                exact = False
        ranked = top_n(ridx, q, n_docs)
        expect = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
        if [d for d, _ in ranked] != [d for d, _ in expect]:
            exact = False

    ln2_idx = build_index([Article("d1", "", "a b"), Article("d2", "", "b c")])
    ln2_err = abs(bm25_score(ln2_idx, ["a"], "d1") - math.log(2.0))
    ok = exact and ln2_err < 1e-12
    report(3, ok, f"oracle exact on fixture + 50 random corpora, ln2 err {ln2_err:.1e}")


def test_criterion_04_ensemble_retrieval(ensemble_pair):
    t0 = time.time()
    rep, _ = ensemble_pair[0]
    ok = (
        rep["bm25_only_f2_all"] <= 0.6
        and rep["bm25_only_f2_val"] <= 0.6
        and rep["f2_star"] >= 0.90
        and 0.0 < rep["alpha_star"] < 1.0
    )
    report(
        4,
        ok,
        f"bm25-only F2 {rep['bm25_only_f2_all']:.3f} -> ensemble F2 "
        f"{rep['f2_star']:.3f} at alpha* {rep['alpha_star']:.2f}",
    )


def _augment_fixture():
    en_sentences = [
        "Gifts not in writing may be revoked.",
        "The debtor shall pay the fee.",
        "The court should weigh the claim.",
        "An unborn child may be given a gift.",
        "The party must deliver the goods.",
        "The claim is valid.",
        "The terms are binding.",
        "The lien will be extinguished.",
        "The owner can exercise the right.",
        "The owner cannot exercise the right.",
        "The deed comes with a warranty.",
        "The deed comes without a warranty.",
        "A gift becomes effective on delivery.",
        "An heir takes the estate.",
    ]
    # 10 articles: the first four carry two statements each
    articles = []
    k = 0
    for i in range(10):
        n_stmt = 2 if i < 4 else 1
        parts = en_sentences[k : k + n_stmt]
        k += n_stmt
        art = Article(f"a{i}", "", " ".join(parts))
        art.statements = parts
        articles.append(art)
    queries = [
        Query(f"q{i}", text, set(), label)
        for i, (text, label) in enumerate(
            [
                ("The heir may claim the estate.", True),
                ("The debtor shall pay twice.", False),
                ("The gift is void.", True),
                ("The lien can lapse.", False),
                ("The deed comes with a seal.", True),
                ("The party must act.", False),
                ("The terms are fair.", True),
                ("The claim should stand.", False),
                ("A seal binds the deed.", True),
                ("The right cannot lapse.", None),
            ]
        )
    ]
    return articles, queries


def test_criterion_05_augmentation():
    articles, queries = _augment_fixture()
    base = derive_lawfulness(articles, queries)
    n_statements = sum(len(a.statements) for a in articles)
    n_labeled = sum(1 for q in queries if q.entailment_label is not None)
    count_ok = len(base) == n_statements + n_labeled == 14 + 9

    augmented = augment_negation(base, "en")
    fired = [negate(r.text, "en") for r in base]
    n_fired = sum(1 for f in fired if f is not None)
    closed_form = len(base) + n_fired
    count_ok = count_ok and len(augmented) == closed_form and n_fired == len(base)

    en_ranks = {negate(s, "en")[1] for a in articles for s in a.statements}
    ja_sentences = [
        "権利を行使できません", "権利を行使できる", "権利を行使できない",
        "契約を解除した", "当事者でない", "履行を完了できた", "義務を履行させる",
        "効力を有している", "異議がない", "無効ではない", "取り消すことがある",
        "届出をしなければならない", "その効力は妨げとならない",
    ]
    ja_ranks = {negate(s, "ja")[1] for s in ja_sentences}
    rules_ok = en_ranks == {r.rank for r in EN_RULES} and ja_ranks == {r.rank for r in JA_RULES}

    involution_ok = True
    for text in ("The owner can exercise the right.", "The deed comes with a warranty."):
        once = negate(text, "en")
        twice = negate(once[0], "en")
        if twice is None or twice[0] != text:
            involution_ok = False

    labels_ok = all(
        rec.lawful != src.lawful
        for src, rec in zip(
            [r for r in base if negate(r.text, "en") is not None],
            augmented[len(base) :],
        )
    )
    ok = count_ok and rules_ok and involution_ok and labels_ok
    report(
        5,
        ok,
        f"{len(base)} base + {n_fired} negated = {len(augmented)} records, "
        f"all {len(EN_RULES)}+{len(JA_RULES)} rules fired, involutions hold",
    )


def test_criterion_06_hydra(hydra_pair):
    rep, _ = hydra_pair[0]
    converged = rep["loss_last"] <= 1e-3 and (rep["steps_to_1e-3"] or 501) <= 500

    # frozen body: serialize a body, derive states from it, pretrain, compare
    rng = np.random.default_rng(SEED)
    body = [init_self_attention_layer(16, 2, rng) for _ in range(2)]
    x = Tensor(rng.normal(size=(8, 16)))
    hidden = x
    for layer in body:
        hidden = self_attention(hidden, layer)
    body_tensors = [t for l in body for t in (l.w_q, l.w_k, l.w_v, l.w_o)]
    before = bundle_bytes("layer_stack", {}, body_tensors)
    target = SdoiMatrix([f"t{i}" for i in range(8)], (rng.random((8, 8)) < 0.3).astype(float))
    heads = init_hydra_heads(16, 2, seed=SEED)
    heads, _ = hydra_pretrain([Tensor(hidden.data)], [target], heads, epochs=50, lr=0.1)
    after = bundle_bytes("layer_stack", {}, body_tensors)
    frozen = before == after

    # attach with zero value/output projections never changes the output
    model = hydra_attach(body, heads)
    out_before = hidden.data
    out_after = self_attention(Tensor(hidden.data), model[-1]).data
    deviation = float(np.max(np.abs(out_after - out_before)))
    ok = converged and frozen and deviation == 0.0
    report(
        6,
        ok,
        f"mse {rep['loss_last']:.1e} at step {rep['steps_to_1e-3']}, body frozen: "
        f"{frozen}, attach deviation {deviation}",
    )


def test_criterion_07_tre(tre_late_pair, tre_early):
    late, _ = tre_late_pair[0]
    early = tre_early

    def mean_f1(rep):
        return sum(l["f1"] for l in rep["val_metrics"]["levels"]) / 3.0

    acc = late["val_metrics"]["token_accuracy"]
    flag = mean_f1(late) >= mean_f1(early)
    ok = acc >= 0.95
    report(
        7,
        ok,
        f"late {late['positions']} token acc {acc:.4f}, val F1 late "
        f"{mean_f1(late):.3f} vs early {mean_f1(early):.3f}, "
        f"late >= early: {flag} (informational)",
    )


def test_criterion_08_metrics():
    from statutelab.embedmetrics import leca, lvc
    from statutelab.encoders import EmbeddingTable

    def table(rows):
        vocab = {w: i for i, (w, _) in enumerate(rows)}
        return EmbeddingTable(vocab, Tensor(np.array([v for _, v in rows], dtype=float)))

    tab = table([("lien", [1.0, 0.0]), ("tort", [3.0, 0.0]), ("north", [0.0, 1.0])])
    lvc_vals = (
        lvc(tab, {"lien", "tort"}),
        lvc(tab, {"lien", "tort", "estoppel", "bailment"}),
        lvc(tab, {"estoppel", "bailment"}),
    )
    leca_zero, _ = leca(tab, {"lien", "tort"}, [["tort"]])
    leca_one, _ = leca(tab, {"lien", "tort"}, [["north"]])
    leca_half, _ = leca(tab, {"lien", "tort"}, [["tort"], ["north"]])
    exact_ok = (
        lvc_vals == (1.0, 0.5, 0.0)
        and leca_zero == 0.0
        and leca_one == 1.0
        and leca_half == 0.5
    )

    _, _, f2 = prf2({"a", "b"}, {"a"})
    macro = macro_f2(
        [RetrievalJudgment({"a", "b"}, ["a"]), RetrievalJudgment({"x", "y"}, ["x"])], 1
    )
    f2_ok = abs(f2 - 0.5556) < 1e-4 and abs(macro[2] - 0.5556) < 1e-4

    acc = accuracy([True] * 81, [True] * 43 + [False] * 38)
    acc_str = str(round(acc, 4))
    acc_ok = acc_str == "0.5309"
    ok = exact_ok and f2_ok and acc_ok
    report(
        8,
        ok,
        f"lvc/leca exact {{0, 0.5, 1.0}}, F2 {f2:.4f}, accuracy prints {acc_str}",
    )


def test_criterion_09_pair_generation():
    ok = True
    checked = 0
    for n in range(2, 11):
        doc = BilingualDoc([(f"en {i}.", f"ja {i}。") for i in range(n)])
        index_of = {}
        for k, (a, b) in enumerate(doc.pairs):
            index_of[a] = k
            index_of[b] = k
        for seed in (0, 1, 2):
            ratio = 1.0 if n >= 4 else 0.0
            for gen, pos_label in ((gen_nfsp, "CONSECUTIVE"), (gen_nmsp, "NEXT")):
                examples = gen(doc, seed=seed, neg_ratio=ratio)
                n_pos = n_neg = 0
                for e in examples:
                    gap = index_of[e.second] - index_of[e.first]
                    if e.label in ("CONSECUTIVE", "NEXT"):
                        n_pos += 1
                        ok = ok and gap == 1
                    elif e.label == "PREV":
                        n_pos += 1
                        ok = ok and gap == -1
                    else:
                        n_neg += 1
                        ok = ok and abs(gap) >= 2
                ok = ok and abs(n_neg - ratio * n_pos) <= 1
                checked += len(examples)
    report(9, ok, f"exhaustive index-scan on docs of 2..10 pairs ({checked} examples)")


def test_criterion_10_determinism(ensemble_pair, hydra_pair, tre_late_pair):
    def canon(rep):
        return json.dumps(rep, sort_keys=True).encode()

    pairs = {
        "ensemble": ensemble_pair,
        "hydra": hydra_pair,
        "tre": tre_late_pair,
    }
    ok = True
    for name, ((rep1, blob1), (rep2, blob2)) in pairs.items():
        if blob1 != blob2 or canon(rep1) != canon(rep2):
            ok = False
    report(10, ok, "checkpoints and reports byte-identical across reruns")

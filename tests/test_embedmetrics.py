import numpy as np
import pytest

from statutelab.embedmetrics import (
    centroid,
    export_projection,
    leca,
    lvc,
    metric_report,
)
from statutelab.encoders import EmbeddingTable
from statutelab.tensor import Tensor


def table(rows):
    vocab = {w: i for i, (w, _) in enumerate(rows)}
    mat = np.array([v for _, v in rows], dtype=float)
    return EmbeddingTable(vocab, Tensor(mat))


def test_lvc_values():
    tab = table([("lien", [1.0, 0.0]), ("tort", [0.0, 1.0])])
    assert lvc(tab, {"lien", "tort"}) == 1.0
    assert lvc(tab, {"estoppel", "bailment"}) == 0.0
    assert lvc(tab, {"lien", "tort", "estoppel", "bailment"}) == 0.5
    with pytest.raises(ValueError):
        lvc(tab, set())


def test_lvc_monotone_in_vocabulary():
    terms = {"lien", "tort", "estoppel"}
    small = table([("lien", [1.0, 0.0])])
    big = table([("lien", [1.0, 0.0]), ("tort", [0.0, 1.0])])
    assert lvc(small, terms) <= lvc(big, terms)


def test_centroid():
    tab = table([("a", [1.0, 0.0]), ("b", [-1.0, 0.0]), ("c", [0.0, 3.0])])
    assert np.array_equal(centroid(tab, {"a"}), [1.0, 0.0])
    assert np.array_equal(centroid(tab, {"a", "b"}), [0.0, 0.0])
    assert np.allclose(centroid(tab, {"a", "b", "c"}), [0.0, 1.0])
    with pytest.raises(ValueError):
        centroid(tab, {"missing"})


def test_leca_exact_values():
    tab = table([
        ("legal", [1.0, 0.0]),
        ("east", [2.0, 0.0]),
        ("north", [0.0, 1.0]),
    ])
    # centroid is (1, 0); a token at (0, 1) sits at distance 1, at (2, 0) at 0
    score, skipped = leca(tab, {"legal"}, [["north"]])
    assert score == pytest.approx(1.0)
    score, _ = leca(tab, {"legal"}, [["east"]])
    assert score == pytest.approx(0.0)
    score, skipped = leca(tab, {"legal"}, [["east", "north"], ["oov", "east"]])
    assert score == pytest.approx((0.5 + 0.0) / 2)
    assert skipped == 1


def test_leca_skips_all_oov_sentences():
    tab = table([("legal", [1.0, 0.0]), ("east", [2.0, 0.0])])
    score, skipped = leca(tab, {"legal"}, [["oov1"], ["east"]])
    assert score == pytest.approx(0.0)
    assert skipped == 1
    with pytest.raises(ValueError):
        leca(tab, {"legal"}, [["oov1"], ["oov2"]])


def test_leca_zero_norm_vector_names_token():
    tab = table([("legal", [1.0, 0.0]), ("nil", [0.0, 0.0])])
    with pytest.raises(ValueError, match="nil"):
        leca(tab, {"legal"}, [["nil"]])


def test_leca_scale_invariance():
    rng = np.random.default_rng(0)
    rows = [(f"w{i}", rng.normal(size=3)) for i in range(6)]
    tab = table(rows)
    terms = {"w0", "w1"}
    sentences = [["w2", "w3"], ["w4", "w5", "w2"]]
    base, _ = leca(tab, terms, sentences)
    scaled = table([(w, 7.3 * np.asarray(v)) for w, v in rows])
    again, _ = leca(scaled, terms, sentences)
    assert again == pytest.approx(base, abs=1e-12)


def test_leca_equals_mean_of_sentence_values():
    rng = np.random.default_rng(1)
    rows = [(f"w{i}", rng.normal(size=4)) for i in range(10)]
    tab = table(rows)
    terms = {"w0", "w3", "w7"}
    sentences = [
        [f"w{rng.integers(0, 10)}" for _ in range(int(rng.integers(1, 5)))]
        for _ in range(15)
    ]
    total, _ = leca(tab, terms, sentences)
    per_sentence = [leca(tab, terms, [s])[0] for s in sentences]
    assert total == pytest.approx(sum(per_sentence) / len(per_sentence), abs=1e-12)


def test_metric_report_fields():
    tab = table([("lien", [1.0, 0.0]), ("other", [0.0, 1.0])])
    rep = metric_report(tab, {"lien", "tort"}, [["other", "oov"]])
    assert rep.lvc == 0.5
    assert rep.covered_terms == 1
    assert rep.skipped_tokens == 1
    assert rep.leca == pytest.approx(1.0)


def test_export_projection(tmp_path):
    tab = table([("lien", [1.0, 0.0]), ("cat", [0.5, 0.25]), ("tort", [0.0, 1.0])])
    out = tmp_path / "proj.tsv"
    n = export_projection(tab, {"lien", "tort"}, top_k=3, path=out)
    assert n == 3
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 3
    first = lines[0].split("\t")
    assert first[0] == "lien" and first[1] == "legal"
    assert lines[1].split("\t")[1] == "nonlegal"
    # top_k larger than the vocabulary clamps
    assert export_projection(tab, set(), top_k=99, path=out) == 3

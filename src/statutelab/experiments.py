"""End-to-end experiment pipelines shared by scripts/ and the test suite.

Each experiment is a pure function of its seed and returns both a report
dict and the serialized model bytes, so determinism can be checked by
comparing two runs byte for byte.
"""

from __future__ import annotations

import numpy as np

from . import inject, rankers
from .evalkit import RetrievalJudgment, macro_f2, ordered_mean
from .lexical import build_index, tokenize, top_n
from .synth import bracket_grammar, planted_retrieval_world
from .tensor import Tensor

__all__ = [
    "ensemble_experiment",
    "hydra_experiment",
    "tre_experiment",
    "tre_position_comparison",
]


def ensemble_experiment(seed: int, epochs: int = 40) -> tuple[dict, bytes]:
    """Train the attentive CNN on the planted world and grid-search alpha.

    Returns the report (BM25-only baseline, best alpha, macro-F2 at the
    best alpha) and the trained checkpoint bytes.
    """
    articles, queries = planted_retrieval_world()
    index = build_index(articles)
    train_queries, val_queries = queries[:160], queries[160:]
    vocab = sorted(
        {w for a in articles for w in tokenize(a.text)}
        | {w for q in queries for w in tokenize(q.text)}
    )
    cfg = rankers.RankerConfig(
        lr=0.1, epochs=epochs, k_negatives=2, seed=seed, n_predict=300, eval_k=1
    )
    model = rankers.build_attentive_cnn(
        vocab, embed_dim=16, filters=16, attn_dim=8, seed=seed,
        width=1, emb_scale=0.5, config=cfg,
    )
    model, trace = rankers.train_ranker(model, articles, train_queries)
    alpha_star, f2_star = rankers.grid_search_alpha(
        model, index, articles, val_queries, step=0.01, n_predict=300, k=1
    )

    def bm25_f2(qs):
        judgments = [
            RetrievalJudgment(
                set(q.relevant_ids), [d for d, _ in top_n(index, tokenize(q.text), 1)]
            )
            for q in qs
        ]
        return macro_f2(judgments, 1)[2]

    report = {
        "seed": seed,
        "bm25_only_f2_all": bm25_f2(queries),
        "bm25_only_f2_val": bm25_f2(val_queries),
        "alpha_star": alpha_star,
        "f2_star": f2_star,
        "loss_first": trace[0],
        "loss_last": trace[-1],
    }
    return report, rankers.model_bytes(model)


def _hydra_world(seed: int, n: int = 8, d: int = 16, n_samples: int = 2):
    """Attainable pretraining samples: hidden states are scaled orthogonal
    row blocks of one random orthogonal matrix, so a single head's score
    matrix can match any binary target on each block exactly."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    states = [Tensor(q[i * n : (i + 1) * n] * 2.0) for i in range(n_samples)]
    targets = [
        inject.SdoiMatrix(
            [f"t{j}" for j in range(n)], (rng.random((n, n)) < 0.35).astype(float)
        )
        for i in range(n_samples)
    ]
    return states, targets


def hydra_experiment(seed: int, steps: int = 500) -> tuple[dict, bytes]:
    """Pretrain one wide head on attainable targets; returns the loss trace
    summary and the serialized head bytes."""
    states, targets = _hydra_world(seed)
    heads = inject.init_hydra_heads(16, 1, seed=seed, scale=0.25)
    heads, trace = inject.hydra_pretrain(states, targets, heads, epochs=steps, lr=0.5)
    reached = next((i for i, v in enumerate(trace) if v <= 1e-3), None)
    report = {
        "seed": seed,
        "loss_first": trace[0],
        "loss_last": trace[-1],
        "steps_to_1e-3": reached,
    }
    return report, inject.hydra_heads_bytes(heads)


def tre_experiment(
    seed: int, positions: list[int], n_train: int = 2000, n_val: int = 200,
    epochs: int = 2, lr: float = 0.1,
) -> tuple[dict, bytes]:
    """Train a 4-layer stack with needles at `positions` on the bracket
    grammar; reports validation metrics and returns checkpoint bytes."""
    data = bracket_grammar(n_train + n_val, seed=seed)
    train, val = data[:n_train], data[n_train:]
    vocab = sorted({t for s in data for t in s.tokens})
    model = inject.build_tre_model(vocab, d=16, n_layers=4, n_heads=2, seed=seed, max_len=24)
    config = inject.injection_config(4, positions)
    result = inject.tre_train(model, config, train, epochs=epochs, lr=lr, seed=seed)
    val_metrics = inject.tre_evaluate(result.model, result.needles, config, val)
    report = {
        "seed": seed,
        "positions": list(positions),
        "train_metrics": result.metrics,
        "val_metrics": val_metrics,
        "loss_trace": result.loss_trace,
    }
    return report, inject.tre_model_bytes(result.model)


def tre_position_comparison(seed: int) -> dict:
    """Late {2,3,4} vs early {1,2,3} injection, reported side by side with
    an informational direction flag."""
    late, _ = tre_experiment(seed, [2, 3, 4])
    early, _ = tre_experiment(seed, [1, 2, 3])

    def mean_f1(report):
        levels = report["val_metrics"]["levels"]
        return ordered_mean([l["f1"] for l in levels])

    return {
        "late": late,
        "early": early,
        "late_f1": mean_f1(late),
        "early_f1": mean_f1(early),
        "late_ge_early": mean_f1(late) >= mean_f1(early),
    }

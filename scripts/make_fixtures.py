#!/usr/bin/env python3
"""Generate small sample data files for driving the CLI.

Writes a demo corpus and query set, an aligned bilingual document, the
default negation rule tables as TSV, a three-level bracket-tagged sample,
a token-relation matrix, a toy embedding table and a legal-term list, a
few statute articles that share words with that table, statements about
them labelled lawful or unlawful, and a two-layer self-attention body for
`slab inject hydra-attach`.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from statutelab.augment import EN_RULES, JA_RULES, dump_rules
from statutelab.encoders import init_self_attention_layer
from statutelab.synth import bracket_grammar, planted_retrieval_world
from statutelab.inject import dump_bioe, save_layer_stack

GIFTS_SENTENCE = [
    ("Gifts", "B-R", "B-E", "-"), ("not", "I-R", "-", "-"), ("in", "I-R", "-", "-"),
    ("writing", "E-R", "-", "-"), ("may", "-", "I-E", "-"), ("be", "-", "I-E", "-"),
    ("revoked", "-", "I-E", "-"), ("by", "-", "I-E", "-"), ("either", "-", "I-E", "-"),
    ("party", "-", "E-E", "-"), (";", "-", "-", "-"), ("provided", "-", "-", "B-U"),
    (",", "-", "-", "I-U"), ("however", "-", "-", "I-U"), (",", "-", "-", "I-U"),
    ("that", "-", "-", "I-U"), ("this", "-", "B-E", "I-U"), ("shall", "-", "I-E", "I-U"),
    ("not", "-", "I-E", "I-U"), ("apply", "-", "I-E", "I-U"), ("to", "-", "I-E", "I-U"),
    ("any", "-", "I-E", "I-U"), ("portion", "B-R", "I-E", "I-U"), ("of", "I-R", "I-E", "I-U"),
    ("the", "I-R", "I-E", "I-U"), ("gift", "I-R", "E-E", "I-U"), ("for", "I-R", "-", "I-U"),
    ("which", "I-R", "-", "I-U"), ("performance", "I-R", "-", "I-U"),
    ("has", "I-R", "-", "I-U"), ("been", "I-R", "-", "I-U"),
    ("completed", "E-R", "-", "E-U"), (".", "-", "-", "-"),
]

# (id, title, text): short statute articles for `slab embed leca --corpus`
STATUTES = [
    ("art295", "Liens",
     "(1) A holder of a thing belonging to another who has a claim arising from that thing "
     "may retain that thing until the claim is satisfied. "
     "(2) The lien shall not apply if the possession commenced by a tort."),
    ("art550", "Gifts",
     "Gifts not in writing may be revoked by either party; provided, however, that this shall "
     "not apply to any portion of the gift for which performance has been completed."),
    ("art709", "Compensation for loss or damage in torts",
     "A person who has intentionally or negligently infringed any right of others is liable "
     "to compensate any damages resulting in consequence."),
]

# statements about those articles, labelled lawful or not, for `slab augment
# negate` and `slab classify train|run`
STATEMENTS = [
    ("A gift not in writing may be revoked by either party.", True),
    ("A gift in writing may be revoked by either party.", False),
    ("A gift may be revoked after its performance has been completed.", False),
    ("The holder of a thing may retain it until the claim is satisfied.", True),
    ("The lien shall apply when the possession commenced by a tort.", False),
    ("A person who negligently infringed a right of others is liable for the damages.", True),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="fixtures")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    articles, queries = planted_retrieval_world()
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for a in articles:
            fh.write(json.dumps({"id": a.id, "title": a.title, "text": a.text}) + "\n")
    with open(out / "queries.jsonl", "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(
                json.dumps(
                    {"id": q.id, "text": q.text, "relevant_ids": sorted(q.relevant_ids), "label": None}
                )
                + "\n"
            )

    with open(out / "bilingual.jsonl", "w", encoding="utf-8") as fh:
        pairs = [
            ["Hello.", "こんにちは。"],
            ["How are you?", "お元気ですか？"],
            ["The act applies.", "この法律を適用する。"],
            ["Gifts may be revoked.", "贈与は撤回することがある。"],
        ]
        fh.write(json.dumps({"pairs": pairs}, ensure_ascii=False) + "\n")

    dump_rules(EN_RULES + JA_RULES, out / "negation_rules.tsv")

    with open(out / "gifts.bioe.tsv", "w", encoding="utf-8") as fh:
        for row in GIFTS_SENTENCE:
            fh.write("\t".join(row) + "\n")
    dump_bioe(bracket_grammar(50, seed=args.seed), out / "bracket.bioe.tsv")

    rng = np.random.default_rng(args.seed)
    tokens = ["gift", "lien", "writing", "party", "act"]
    matrix = (rng.random((5, 5)) < 0.4).astype(int).tolist()
    with open(out / "relations.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"tokens": tokens, "matrix": matrix}) + "\n")

    words = ["law", "gift", "lien", "tort", "act", "cat", "dog", "house"]
    with open(out / "embeddings.txt", "w", encoding="utf-8") as fh:
        for w in words:
            vec = " ".join(f"{v:.4f}" for v in rng.normal(size=8))
            fh.write(f"{w} {vec}\n")
    (out / "legal_terms.txt").write_text("law\ngift\nlien\ntort\nestoppel\n", encoding="utf-8")
    with open(out / "statutes.jsonl", "w", encoding="utf-8") as fh:
        for art_id, title, text in STATUTES:
            fh.write(json.dumps({"id": art_id, "title": title, "text": text}) + "\n")
    with open(out / "statements.jsonl", "w", encoding="utf-8") as fh:
        for text, lawful in STATEMENTS:
            fh.write(json.dumps({"text": text, "lawful": lawful}) + "\n")

    # d 16 in 2 heads, the size of the README's hydra-pretrain heads
    body_rng = np.random.default_rng(args.seed)
    save_layer_stack([init_self_attention_layer(16, 2, body_rng) for _ in range(2)], out / "body.slrk")

    print(f"fixtures written to {out}/")


if __name__ == "__main__":
    main()

"""Rule-based data generation.

Negation augmentation for English and Japanese statutes, lawfulness-label
derivation from chunked articles plus labeled queries, and construction of
next-foreign-sentence (NFSP) / neighbor-multilingual-sentence (NMSP)
pretraining pairs from aligned bilingual documents.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import Article, Query, json_list, open_text, read_jsonl

__all__ = [
    "NegationRule",
    "LabeledStatement",
    "BilingualDoc",
    "PairExample",
    "EN_RULES",
    "JA_RULES",
    "default_rules",
    "load_rules",
    "dump_rules",
    "negate",
    "derive_lawfulness",
    "augment_negation",
    "gen_nfsp",
    "gen_nmsp",
    "load_bilingual",
]


@dataclass(frozen=True)
class NegationRule:
    language: str  # "en" or "ja"
    trigger: str
    replacement: str
    rank: int


# English rules in table order; first match wins.  "not" is a removal rule.
# "A"/"An" match only capitalized standalone tokens, everything else matches
# case-sensitively on word boundaries.
EN_RULES = [
    NegationRule("en", "not", "", 1),
    NegationRule("en", "shall", "shall not", 2),
    NegationRule("en", "should", "should not", 3),
    NegationRule("en", "may", "may not", 4),
    NegationRule("en", "must", "must not", 5),
    NegationRule("en", "is", "is not", 6),
    NegationRule("en", "are", "are not", 7),
    NegationRule("en", "will be", "will not be", 8),
    NegationRule("en", "can", "cannot", 9),
    NegationRule("en", "cannot", "can", 10),
    NegationRule("en", "with", "without", 11),
    NegationRule("en", "without", "with", 12),
    NegationRule("en", "A", "No", 13),
    NegationRule("en", "An", "No", 14),
]

# Japanese rules: clause-final predicates, plain substring match on the last
# occurrence.
JA_RULES = [
    NegationRule("ja", "ません", "ます", 1),
    NegationRule("ja", "できる", "できない", 2),
    NegationRule("ja", "できない", "できる", 3),
    NegationRule("ja", "した", "しなかった", 4),
    NegationRule("ja", "でない", "である", 5),
    NegationRule("ja", "できた", "できなかった", 6),
    NegationRule("ja", "させる", "させない", 7),
    NegationRule("ja", "ている", "ていない", 8),
    NegationRule("ja", "がない", "がある", 9),
    NegationRule("ja", "ではない", "ではある", 10),
    NegationRule("ja", "ことがある", "ことがない", 11),
    NegationRule("ja", "しなければならない", "してはいけません", 12),
    NegationRule("ja", "ならない", "なる", 13),
]


def default_rules(language: str) -> list[NegationRule]:
    if language == "en":
        return list(EN_RULES)
    if language == "ja":
        return list(JA_RULES)
    raise ValueError(f"unknown language {language!r}")


def _validate_rules(rules: list[NegationRule]) -> list[NegationRule]:
    ranks: dict[str, set[int]] = {}
    for r in rules:
        if r.trigger == r.replacement:
            raise ValueError(f"rule {r.rank}: trigger equals replacement")
        if r.rank in ranks.setdefault(r.language, set()):
            raise ValueError(f"duplicate rank {r.rank} for language {r.language}")
        ranks[r.language].add(r.rank)
    return sorted(rules, key=lambda r: (r.language, r.rank))


def load_rules(path) -> list[NegationRule]:
    """Read a TSV rule file with columns language, trigger, replacement, rank."""
    rules = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 4:
                raise ValueError(f"rule line {lineno}: expected 4 tab-separated columns")
            lang, trigger, replacement, rank = cols
            rules.append(NegationRule(lang, trigger, replacement, int(rank)))
    return _validate_rules(rules)


def dump_rules(rules: list[NegationRule], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rules:
            fh.write(f"{r.language}\t{r.trigger}\t{r.replacement}\t{r.rank}\n")


def _match_en(rule: NegationRule, text: str):
    if rule.trigger in ("A", "An"):
        pat = r"(?<!\S)" + re.escape(rule.trigger) + r"(?!\S)"
    else:
        pat = r"\b" + re.escape(rule.trigger) + r"\b"
    return re.search(pat, text)


def _apply_rule(rule: NegationRule, text: str) -> str | None:
    """Apply one rule; English replaces the first occurrence on word
    boundaries, Japanese the last plain-substring occurrence."""
    if rule.language == "en":
        m = _match_en(rule, text)
        if m is None:
            return None
        s, e = m.span()
    else:
        s = text.rfind(rule.trigger)
        if s < 0:
            return None
        e = s + len(rule.trigger)
    if rule.replacement:
        return text[:s] + rule.replacement + text[e:]
    # removal: also drop one adjacent space so the join stays clean
    if s > 0 and text[s - 1] == " ":
        return text[: s - 1] + text[e:]
    if e < len(text) and text[e] == " ":
        return text[:s] + text[e + 1 :]
    return text[:s] + text[e:]


def negate(text: str, language: str, rules: list[NegationRule] | None = None):
    """First matching rule in table order fires once; None if nothing matches."""
    if rules is None:
        rules = default_rules(language)
    else:
        rules = sorted((r for r in rules if r.language == language), key=lambda r: r.rank)
    for rule in rules:
        result = _apply_rule(rule, text)
        if result is not None:
            return result, rule.rank
    return None


@dataclass
class LabeledStatement:
    text: str
    lawful: bool
    provenance: str  # article_chunk | entailed_query | non_entailed_query | negated
    rule_rank: int | None = None


def derive_lawfulness(articles: list[Article], queries: list[Query]) -> list[LabeledStatement]:
    """Article statements are lawful; entailed queries lawful, non-entailed
    unlawful; queries without a label are skipped."""
    out: list[LabeledStatement] = []
    for art in articles:
        if not art.statements:
            raise ValueError(f"article {art.id!r} is not chunked")
        for stmt in art.statements:
            out.append(LabeledStatement(stmt, True, "article_chunk"))
    for q in queries:
        if q.entailment_label is True:
            out.append(LabeledStatement(q.text, True, "entailed_query"))
        elif q.entailment_label is False:
            out.append(LabeledStatement(q.text, False, "non_entailed_query"))
    return out


def augment_negation(
    dataset: list[LabeledStatement],
    language: str,
    rules: list[NegationRule] | None = None,
) -> list[LabeledStatement]:
    """Append a label-flipped negation of every statement a rule fires on."""
    out = list(dataset)
    for rec in dataset:
        hit = negate(rec.text, language, rules)
        if hit is not None:
            text, rank = hit
            out.append(LabeledStatement(text, not rec.lawful, "negated", rank))
    return out


@dataclass
class BilingualDoc:
    pairs: list[tuple[str, str]]


def load_bilingual(path) -> list[BilingualDoc]:
    """JSONL, one doc per line: {"pairs": [["sent a", "sent b"], ...]}."""

    def parse(obj):
        pairs = []
        for i, pair in enumerate(json_list(obj, "pairs"), start=1):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"pair {i} must be a [sentence, sentence] array")
            a, b = str(pair[0]), str(pair[1])
            if not a or not b:
                raise ValueError(f"pair {i} has an empty sentence")
            pairs.append((a, b))
        return BilingualDoc(pairs)

    return [doc for _, doc in read_jsonl(path, ("pairs",), parse)]


@dataclass
class PairExample:
    first: str
    second: str
    label: str
    task: str  # NFSP or NMSP
    first_index: int
    second_index: int
    first_side: str
    second_side: str


def _side(doc: BilingualDoc, side: str, i: int) -> str:
    return doc.pairs[i][0] if side == "a" else doc.pairs[i][1]


def _sample_negatives(doc, rng, count, side_combos, label, task):
    n = len(doc.pairs)
    cands = [(i, j) for i in range(n) for j in range(n) if abs(i - j) >= 2]
    if count > 0 and not cands:
        raise ValueError("document too short to sample negatives with index gap >= 2")
    out = []
    for _ in range(count):
        i, j = cands[int(rng.integers(0, len(cands)))]
        s1, s2 = side_combos[int(rng.integers(0, len(side_combos)))]
        out.append(PairExample(_side(doc, s1, i), _side(doc, s2, j), label, task, i, j, s1, s2))
    return out


def gen_nfsp(doc: BilingualDoc, seed: int, neg_ratio: float = 1.0) -> list[PairExample]:
    """Cross-lingual consecutive pairs plus seeded gap>=2 negatives.

    Positives are (a_i, b_{i+1}) and (b_i, a_{i+1}) for every adjacent i;
    negatives number ceil(neg_ratio * positives).
    """
    n = len(doc.pairs)
    if n < 2:
        raise ValueError("NFSP needs at least 2 aligned pairs")
    pos: list[PairExample] = []
    for i in range(n - 1):
        pos.append(PairExample(_side(doc, "a", i), _side(doc, "b", i + 1), "CONSECUTIVE", "NFSP", i, i + 1, "a", "b"))
        pos.append(PairExample(_side(doc, "b", i), _side(doc, "a", i + 1), "CONSECUTIVE", "NFSP", i, i + 1, "b", "a"))
    rng = np.random.default_rng(seed)
    n_neg = math.ceil(neg_ratio * len(pos))
    neg = _sample_negatives(doc, rng, n_neg, [("a", "b"), ("b", "a")], "NOT_CONSECUTIVE", "NFSP")
    return pos + neg


def gen_nmsp(doc: BilingualDoc, seed: int, neg_ratio: float = 1.0) -> list[PairExample]:
    """Ordered neighbor pairs over all four language combinations.

    For adjacent indices, (s_i, t_{i+1}) is NEXT and (s_{i+1}, t_i) is PREV
    for every (s, t) in {a, b}^2; NONE negatives are sampled like NFSP.
    """
    n = len(doc.pairs)
    if n < 2:
        raise ValueError("NMSP needs at least 2 aligned pairs")
    combos = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    pos: list[PairExample] = []
    for i in range(n - 1):
        for s, t in combos:
            pos.append(PairExample(_side(doc, s, i), _side(doc, t, i + 1), "NEXT", "NMSP", i, i + 1, s, t))
        for s, t in combos:
            pos.append(PairExample(_side(doc, s, i + 1), _side(doc, t, i), "PREV", "NMSP", i + 1, i, s, t))
    rng = np.random.default_rng(seed)
    n_neg = math.ceil(neg_ratio * len(pos))
    neg = _sample_negatives(doc, rng, n_neg, combos, "NONE", "NMSP")
    return pos + neg

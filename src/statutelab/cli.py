"""Subcommand front door.

Exit codes: 0 success, 1 validation error (bad arguments, bad config, bad
input files), 2 runtime error.  Every command that writes an output
directory also writes a manifest (effective config, seed, input digests) so
a run can be replayed; outputs carry no timestamps, so identical
config+seed runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import augment as aug
from . import corpus as corpus_mod
from . import embedmetrics
from . import evalkit
from . import inject
from . import lexical
from . import rankers
from .config import RunConfig, effective_sizes, load_config, merge_overrides
from .encoders import PRESETS, load_embeddings
from .selftest import gradcheck_suite, property_suite
from .tensor import Tensor

__all__ = ["main", "cli_dispatch"]


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _write_json(path, obj) -> None:
    Path(path).write_text(_dump_json(obj), encoding="utf-8")


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(args, out: Path, cfg: RunConfig | None, inputs: list) -> None:
    record = {
        "command": args.command + " " + args.subcommand,
        "seed": cfg.seed if cfg is not None else getattr(args, "seed", None),
        "config": dataclasses.asdict(cfg) if cfg is not None else None,
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    _write_json(out / "manifest.json", record)
    if cfg is not None:
        _write_json(out / "config.json", dataclasses.asdict(cfg))


def _resolve_config(args, base: RunConfig | None = None) -> RunConfig:
    """The --config file over `base` (the defaults when None), under the
    command's config flags; a flag left unset keeps the file's value, a key
    the file leaves out keeps the base's.  A command with a --seed flag needs
    a seed from the flag or the file."""
    base = base or RunConfig()
    cfg = load_config(args.config, base) if args.config else base
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)}
    cfg = merge_overrides(cfg, flags)
    if "seed" in flags and cfg.seed is None:
        raise CliError("--seed is required, on the command line or as the config file's seed")
    return cfg


# ---------------------------------------------------------------------------
# corpus


def _cmd_corpus_stats(args) -> int:
    articles = corpus_mod.load_corpus(args.corpus)
    if args.chunk:
        articles = corpus_mod.chunk_corpus(articles)
        texts = [s for a in articles for s in a.statements]
    else:
        texts = [a.text for a in articles]
    st = corpus_mod.corpus_stats(texts)
    print(_dump_json({"mean_len": st.mean_len, "std_len": st.std_len, "count": st.count}), end="")
    return 0


def _cmd_corpus_chunk(args) -> int:
    articles = corpus_mod.chunk_corpus(corpus_mod.load_corpus(args.corpus))
    out = _out_dir(args)
    _write_jsonl(out / "chunked.jsonl", map(dataclasses.asdict, articles))
    _manifest(args, out, None, [args.corpus])
    print(f"wrote {out / 'chunked.jsonl'}")
    return 0


# ---------------------------------------------------------------------------
# augment


def _load_statements(path, need_tokens: bool = False) -> list[aug.LabeledStatement]:
    """The labelled statements of a JSONL file, one or more.  With
    need_tokens, a statement whose text has no tokens raises ValueError
    naming the file and the line: the classifier cannot encode it."""
    records = []
    for lineno, obj in corpus_mod.read_jsonl(path, ("text",)):
        text = str(obj["text"])
        if need_tokens and not lexical.tokenize(text):
            raise ValueError(f"{path} line {lineno}: the statement has no tokens")
        records.append(
            aug.LabeledStatement(
                text,
                bool(obj.get("lawful", True)),
                str(obj.get("provenance", "article_chunk")),
                obj.get("rule_rank"),
            )
        )
    return corpus_mod.require_records(path, records, "statements")


def _cmd_augment_negate(args) -> int:
    rules = aug.load_rules(args.rules) if args.rules else None
    records = _load_statements(args.data)
    out = _out_dir(args)
    augmented = aug.augment_negation(records, args.lang, rules)
    _write_jsonl(out / "augmented.jsonl", map(dataclasses.asdict, augmented))
    _manifest(args, out, None, [args.data] + ([args.rules] if args.rules else []))
    print(f"{len(records)} in, {len(augmented)} out")
    return 0


def _cmd_augment_lawfulness(args) -> int:
    articles = corpus_mod.chunk_corpus(corpus_mod.load_corpus(args.corpus))
    queries = corpus_mod.load_queries(args.queries)
    records = aug.derive_lawfulness(articles, queries)
    out = _out_dir(args)
    _write_jsonl(out / "lawfulness.jsonl", map(dataclasses.asdict, records))
    _manifest(args, out, None, [args.corpus, args.queries])
    print(f"{len(records)} labeled statements")
    return 0


def _cmd_augment_pairs(args) -> int:
    docs = aug.load_bilingual(args.doc)
    gen = aug.gen_nfsp if args.subcommand == "nfsp" else aug.gen_nmsp
    examples = []
    for i, doc in enumerate(docs):
        examples.extend(gen(doc, seed=args.seed + i, neg_ratio=args.neg_ratio))
    out = _out_dir(args)
    _write_jsonl(out / "pairs.jsonl", map(dataclasses.asdict, examples))
    _manifest(args, out, None, [args.doc])
    print(f"{len(examples)} examples")
    return 0


# ---------------------------------------------------------------------------
# index


def _cmd_index_build(args) -> int:
    articles = corpus_mod.load_corpus(args.corpus)
    idx = lexical.build_index(articles)
    out = _out_dir(args)
    lexical.save_index(idx, out / "index.slix")
    _manifest(args, out, None, [args.corpus])
    print(f"{idx.n_docs} docs, {len(idx.terms)} terms, avgdl {idx.avgdl:.2f}")
    return 0


# ---------------------------------------------------------------------------
# rank / classify


def _vocab_from(articles, queries) -> list[str]:
    words = set()
    for a in articles:
        words.update(lexical.tokenize(a.text))
    for q in queries:
        words.update(lexical.tokenize(q.text))
    return sorted(words)


def _build_ranker(cfg: RunConfig, vocab):
    sizes = effective_sizes(cfg)
    rcfg = rankers.RankerConfig(
        lr=cfg.lr, epochs=cfg.epochs, k_negatives=cfg.K, seed=cfg.seed,
        n_train=cfg.n_train, n_predict=cfg.n_predict, eval_k=cfg.eval_k,
        k1=cfg.k1, b=cfg.b,
    )
    if cfg.model == "attentive_cnn":
        return rankers.build_attentive_cnn(
            vocab, sizes["embed_dim"], sizes["filters"], sizes["attn_dim"],
            seed=cfg.seed, width=cfg.width, dropout=sizes["dropout"], config=rcfg,
        )
    return rankers.build_paraformer_lite(
        vocab, sizes["embed_dim"], cfg.n_layers, cfg.n_heads, seed=cfg.seed, config=rcfg,
    )


def _cmd_rank_train(args) -> int:
    cfg = _resolve_config(args)
    articles = corpus_mod.chunk_corpus(corpus_mod.load_corpus(args.corpus))
    queries = corpus_mod.load_queries(args.queries)
    model = _build_ranker(cfg, _vocab_from(articles, queries))
    # negatives come from each query's top-n_train lexical candidates
    index = lexical.build_index(articles)
    model, trace = rankers.train_ranker(model, articles, queries, index=index)
    out = _out_dir(args)
    rankers.save_model(model, out / "model.slrk")
    _write_json(out / "loss_trace.json", trace)
    _manifest(args, out, cfg, [args.corpus, args.queries])
    print(f"final epoch loss {trace[-1]:.4f}")
    return 0


def _rank_row(q, cands):
    return {
        "qid": q.id,
        "ranked": [
            {"id": c.article_id, "s_l": c.s_lexical, "s_s": c.s_semantic, "s_f": c.s_final}
            for c in cands
        ],
    }


def _missing(ids: set, side: str) -> str:
    first = f" (first {min(ids)!r})" if ids else ""
    return f"{len(ids)} ids missing from the {side}{first}"


def _checkpoint_keys(model) -> dict:
    """The RunConfig keys a ranker checkpoint fixes, with its values; the
    preset is the PRESETS entry whose sizes equal the checkpoint's, None
    when none does."""
    c, enc = model.config, model.encoder
    keys = {
        "model": model.kind, "seed": c.seed, "k1": c.k1, "b": c.b, "n_train": c.n_train,
        "K": c.k_negatives, "lr": c.lr, "epochs": c.epochs, "embed_dim": model.embeddings.dim,
    }
    if model.kind == "attentive_cnn":
        width, _, filters = enc.filters.data.shape
        keys.update(filters=filters, attn_dim=enc.attn.A.data.shape[0], dropout=enc.dropout, width=width)
    else:
        keys.update(n_layers=len(enc.layers), n_heads=enc.layers[0].n_heads if enc.layers else 1)
    # a paraformer_lite checkpoint has no filters, attn_dim or dropout to compare
    fits = (name for name, sizes in PRESETS.items() if all(keys.get(k, v) == v for k, v in sizes.items()))
    keys["preset"] = next(fits, None)
    return keys


def _rank_inputs(args):
    """Config, model, chunked corpus, queries, index, and the input files to
    digest.  The config records the checkpoint's values of the keys it
    fixes (BM25 scores with its k1 and b); n_predict and eval_k come from
    the flag, else the --config file, else the checkpoint.  An index must
    hold exactly the chunked corpus's article ids, and then its corpus
    digest must be the corpus's."""
    model = rankers.load_model(args.model_path)
    stored = RunConfig(n_predict=model.config.n_predict, eval_k=model.config.eval_k)
    cfg = dataclasses.replace(_resolve_config(args, stored), **_checkpoint_keys(model))
    articles = corpus_mod.chunk_corpus(corpus_mod.load_corpus(args.corpus))
    queries = corpus_mod.load_queries(args.queries)
    idx = lexical.load_index(args.index) if args.index else lexical.build_index(articles)
    corpus_ids, index_ids = {a.id for a in articles}, set(idx.doc_ids)
    if corpus_ids != index_ids:
        raise ValueError(
            f"index {args.index} was not built from corpus {args.corpus}: "
            f"{_missing(corpus_ids - index_ids, 'index')}, {_missing(index_ids - corpus_ids, 'corpus')}"
        )
    if args.index and idx.digest != corpus_mod.digest(articles):
        raise ValueError(
            f"index {args.index} was not built from corpus {args.corpus}: the same ids, "
            f"but the corpus digest differs (an article's text or the article order changed); "
            f"rebuild it with `slab index build`"
        )
    files = [args.corpus, args.queries, args.model_path] + ([args.index] if args.index else [])
    return cfg, model, articles, queries, idx, files


def _cmd_rank_run(args) -> int:
    cfg, model, articles, queries, idx, files = _rank_inputs(args)
    if cfg.alpha == "grid":
        rankers.require_relevant(queries, {a.id for a in articles})
    # one scoring pass serves both the alpha grid and the ranked rows
    scored = rankers.score_candidates(model, idx, articles, queries, n_predict=cfg.n_predict)
    alpha = cfg.alpha
    if alpha == "grid":
        alpha, _ = rankers.best_alpha(queries, scored, step=cfg.step, k=cfg.eval_k)
    rows = [_rank_row(q, rankers.order_candidates(c, alpha)) for q, c in zip(queries, scored)]
    out = _out_dir(args)
    _write_jsonl(out / "run.jsonl", rows)
    _write_json(out / "alpha.json", {"alpha": alpha})
    _manifest(args, out, cfg, files)
    print(f"ranked {len(rows)} queries at alpha {alpha}")
    return 0


def _cmd_rank_grid_alpha(args) -> int:
    cfg, model, articles, queries, idx, files = _rank_inputs(args)
    alpha, f2 = rankers.grid_search_alpha(
        model, idx, articles, queries, step=cfg.step,
        n_predict=cfg.n_predict, k=cfg.eval_k,
    )
    result = {"alpha": alpha, "f2": f2}
    if args.out:
        out = _out_dir(args)
        _write_json(out / "grid.json", result)
        _manifest(args, out, cfg, files)
    print(_dump_json(result), end="")
    return 0


def _cmd_classify_train(args) -> int:
    cfg = _resolve_config(args)
    records = _load_statements(args.data, need_tokens=True)
    sizes = effective_sizes(cfg)
    vocab = sorted({w for r in records for w in lexical.tokenize(r.text)})
    clf = rankers.build_lawfulness_classifier(
        vocab, sizes["embed_dim"], sizes["filters"], sizes["attn_dim"],
        seed=cfg.seed, width=cfg.width, lr=cfg.lr, epochs=cfg.epochs,
    )
    rankers.train_lawfulness(clf, records, seed=cfg.seed)
    out = _out_dir(args)
    rankers.save_classifier(clf, out / "classifier.slrk")
    _manifest(args, out, cfg, [args.data])
    print("classifier saved")
    return 0


def _cmd_classify_run(args) -> int:
    clf = rankers.load_classifier(args.model_path)
    records = _load_statements(args.data, need_tokens=True)
    rows = []
    for r in records:
        p = rankers.lawful_probability(clf, r.text)
        rows.append({"text": r.text, "lawful_prob": p, "lawful": p >= 0.5})
    if args.out:
        out = _out_dir(args)
        _write_jsonl(out / "predictions.jsonl", rows)
        _manifest(args, out, None, [args.data, args.model_path])
    else:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# inject


def _cmd_inject_hydra_pretrain(args) -> int:
    samples = inject.load_sdoi(args.sdoi)
    rng = np.random.default_rng(args.seed)
    vocab = sorted({t for s in samples for t in s.tokens})
    table = {w: rng.normal(0.0, 1.0, size=args.d) for w in vocab}
    states = [Tensor(np.stack([table[t] for t in s.tokens])) for s in samples]
    heads = inject.init_hydra_heads(args.d, args.n_heads, args.seed)
    heads, trace = inject.hydra_pretrain(states, samples, heads, args.epochs, args.lr)
    out = _out_dir(args)
    inject.save_hydra_heads(heads, out / "heads.slrk")
    _write_json(out / "loss_trace.json", trace)
    _manifest(args, out, None, [args.sdoi])
    print(f"final loss {trace[-1]:.6f}")
    return 0


def _cmd_inject_hydra_attach(args) -> int:
    body = inject.load_layer_stack(args.body)
    heads = inject.load_hydra_heads(args.heads)
    model = inject.hydra_attach(body, heads)
    out = _out_dir(args)
    inject.save_layer_stack(model, out / "model.slrk")
    _manifest(args, out, None, [args.body, args.heads])
    print(f"{len(body)} + 1 layers, {inject.count_parameters(model)} attention parameters")
    return 0


def _cmd_inject_tre_train(args) -> int:
    cfg = _resolve_config(args)
    data = inject.load_bioe(args.bioe)
    icfg = inject.injection_config(cfg.n_layers, cfg.positions, cfg.portions)
    vocab = sorted({t for s in data for t in s.tokens})
    sizes = effective_sizes(cfg)
    model = inject.build_tre_model(
        vocab, sizes["embed_dim"], cfg.n_layers, cfg.n_heads,
        seed=cfg.seed, max_len=max(len(s.tokens) for s in data) + 1,
    )
    result = inject.tre_train(model, icfg, data, cfg.epochs, cfg.lr, cfg.seed)
    out = _out_dir(args)
    inject.save_tre_model(result.model, out / "model.slrk")
    _write_json(out / "report.json", {"loss_trace": result.loss_trace, "metrics": result.metrics})
    _manifest(args, out, cfg, [args.bioe])
    print(f"token accuracy {result.metrics['token_accuracy']:.4f}")
    return 0


def _cmd_inject_tag_stats(args) -> int:
    data = inject.load_bioe(args.bioe)
    print(_dump_json(inject.tag_stats(data)), end="")
    return 0


def _cmd_inject_attn_report(args) -> int:
    model = inject.load_tre_model(args.model_path)
    tokens = args.tokens.split()
    report = inject.attention_weights_report(model, tokens)
    obj = [[head.tolist() for head in layer] for layer in report]
    if args.out:
        out = _out_dir(args)
        _write_json(out / "attention.json", obj)
        _manifest(args, out, None, [args.model_path])
    else:
        print(_dump_json(obj), end="")
    return 0


# ---------------------------------------------------------------------------
# embed


def _load_terms(path) -> set[str]:
    with corpus_mod.open_text(path) as fh:
        return corpus_mod.require_records(path, {line.strip() for line in fh if line.strip()}, "terms")


def _cmd_embed_lvc(args) -> int:
    emb = load_embeddings(args.embeddings)
    value = embedmetrics.lvc(emb, _load_terms(args.terms))
    print(round(value, 4))
    return 0


def _cmd_embed_leca(args) -> int:
    emb = load_embeddings(args.embeddings)
    articles = corpus_mod.load_corpus(args.corpus)
    sentences = [lexical.tokenize(a.text) for a in articles]
    report = embedmetrics.metric_report(emb, _load_terms(args.terms), sentences)
    print(_dump_json(dataclasses.asdict(report)), end="")
    return 0


def _cmd_embed_project(args) -> int:
    emb = load_embeddings(args.embeddings)
    terms = _load_terms(args.terms)
    count = embedmetrics.export_projection(emb, terms, args.top_k, args.out)
    print(f"wrote {count} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _cmd_eval_prf2(args) -> int:
    if args.judgments:
        def judgment(obj):
            gold = set(corpus_mod.json_list(obj, "gold"))
            return evalkit.RetrievalJudgment(gold, corpus_mod.json_list(obj, "retrieved"))

        judgments = [j for _, j in corpus_mod.read_jsonl(args.judgments, ("gold", "retrieved"), judgment)]
        corpus_mod.require_records(args.judgments, judgments, "judgments")
        p, r, f2 = evalkit.macro_f2(judgments, args.k)
    else:
        if args.gold is None or args.retrieved is None:
            raise CliError("need --gold and --retrieved, or --judgments")
        gold = set(args.gold.split(",")) if args.gold else set()
        retrieved = set(args.retrieved.split(",")) if args.retrieved else set()
        p, r, f2 = evalkit.prf2(gold, retrieved)
    print(round(p, 4), round(r, 4), round(f2, 4))
    return 0


def _cmd_eval_accuracy(args) -> int:
    if args.preds:
        preds, golds = [], []
        for _, obj in corpus_mod.read_jsonl(args.preds, ("pred", "gold")):
            preds.append(bool(obj["pred"]))
            golds.append(bool(obj["gold"]))
        corpus_mod.require_records(args.preds, preds, "predictions")
        value = evalkit.accuracy(preds, golds)
    else:
        if args.correct is None or args.total is None:
            raise CliError("need --correct and --total, or --preds")
        if args.total < 1:
            raise CliError(f"--total must be >= 1, got {args.total}")
        if not 0 <= args.correct <= args.total:
            raise CliError(f"--correct must lie in [0, --total] = [0, {args.total}], got {args.correct}")
        value = args.correct / args.total
    print(round(value, 4))
    return 0


def _cmd_eval_human(args) -> int:
    positives = [int(p) for p in args.positives.split(",")]
    print(round(evalkit.aggregate_human_eval(positives, args.total), 4))
    return 0


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest_gradcheck(args) -> int:
    results = gradcheck_suite(instances=args.instances, seed=args.seed)
    worst = 0.0
    for name in sorted(results):
        print(f"{name}: max rel err {results[name]:.3e}")
        worst = max(worst, results[name])
    print("OK" if worst < 1e-4 else "FAIL")
    return 0 if worst < 1e-4 else 2


def _cmd_selftest_properties(args) -> int:
    results = property_suite(seed=args.seed)
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")
        ok = ok and passed
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser


# argparse names these in its messages ("invalid int_list value: '2,x'");
# an empty list sets nothing
def int_list(text: str) -> list[int] | None:
    return [int(x) for x in text.split(",")] if text else None


def float_list(text: str) -> list[float] | None:
    return [float(x) for x in text.split(",")] if text else None


def number_or_grid(text: str) -> float | str:
    return text if text == "grid" else float(text)


# every RunConfig key a flag can set: flag name (the key, "_" as "-") and
# argparse options.  Each command adds the flags of the keys it reads.
_CONFIG_FLAGS = {
    "seed": {"type": int},
    "preset": {"choices": list(PRESETS)},
    "model": {"flag": "--model-kind", "choices": ["attentive_cnn", "paraformer_lite"]},
    "k1": {"type": float},
    "b": {"type": float},
    "n_train": {"type": int},
    "n_predict": {"type": int},
    "alpha": {"type": number_or_grid},
    "step": {"type": float},
    "K": {"type": int},
    "lr": {"type": float},
    "epochs": {"type": int},
    "eval_k": {"type": int},
    "embed_dim": {"type": int},
    "filters": {"type": int},
    "attn_dim": {"type": int},
    "dropout": {"type": float},
    "width": {"type": int},
    "n_layers": {"type": int},
    "n_heads": {"type": int},
    "positions": {"type": int_list},
    "portions": {"type": float_list},
}
_RANK_TRAIN_KEYS = tuple(k for k in _CONFIG_FLAGS if k not in ("alpha", "step", "positions", "portions"))
_RANK_RUN_KEYS = ("n_predict", "alpha", "step", "eval_k")
_GRID_ALPHA_KEYS = ("n_predict", "step", "eval_k")
_CLASSIFY_KEYS = ("seed", "preset", "embed_dim", "filters", "attn_dim", "width", "lr", "epochs")
_TRE_KEYS = ("seed", "preset", "embed_dim", "n_layers", "n_heads", "lr", "epochs", "positions", "portions")


def _add_config_flags(p, keys):
    p.add_argument("--config", help="JSON config file")
    for key in keys:
        opts = dict(_CONFIG_FLAGS[key])
        flag = opts.pop("flag", "--" + key.replace("_", "-"))
        p.add_argument(flag, dest=key, **opts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slab", description=__doc__)
    top = parser.add_subparsers(dest="command", required=False)

    def sub(group, name, fn, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(handler=fn, subcommand=name)
        return p

    corpus_p = top.add_parser("corpus").add_subparsers(dest="subcommand", required=True)
    p = sub(corpus_p, "stats", _cmd_corpus_stats)
    p.add_argument("--corpus", required=True)
    p.add_argument("--chunk", action="store_true")
    p = sub(corpus_p, "chunk", _cmd_corpus_chunk)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    augment_p = top.add_parser("augment").add_subparsers(dest="subcommand", required=True)
    p = sub(augment_p, "negate", _cmd_augment_negate)
    p.add_argument("--data", required=True)
    p.add_argument("--lang", choices=["en", "ja"], default="en")
    p.add_argument("--rules")
    p.add_argument("--out", required=True)
    p = sub(augment_p, "lawfulness", _cmd_augment_lawfulness)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    for name in ("nfsp", "nmsp"):
        p = sub(augment_p, name, _cmd_augment_pairs)
        p.add_argument("--doc", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--neg-ratio", dest="neg_ratio", type=float, default=1.0)
        p.add_argument("--out", required=True)

    index_p = top.add_parser("index").add_subparsers(dest="subcommand", required=True)
    p = sub(index_p, "build", _cmd_index_build)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    rank_p = top.add_parser("rank").add_subparsers(dest="subcommand", required=True)
    p = sub(rank_p, "train", _cmd_rank_train)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, _RANK_TRAIN_KEYS)
    p = sub(rank_p, "run", _cmd_rank_run)
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--index")
    p.add_argument("--out", required=True)
    _add_config_flags(p, _RANK_RUN_KEYS)
    p = sub(rank_p, "grid-alpha", _cmd_rank_grid_alpha)
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--index")
    p.add_argument("--out")
    _add_config_flags(p, _GRID_ALPHA_KEYS)

    classify_p = top.add_parser("classify").add_subparsers(dest="subcommand", required=True)
    p = sub(classify_p, "train", _cmd_classify_train)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, _CLASSIFY_KEYS)
    p = sub(classify_p, "run", _cmd_classify_run)
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")

    inject_p = top.add_parser("inject").add_subparsers(dest="subcommand", required=True)
    p = sub(inject_p, "hydra-pretrain", _cmd_inject_hydra_pretrain)
    p.add_argument("--sdoi", required=True)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--n-heads", dest="n_heads", type=int, default=2)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p = sub(inject_p, "hydra-attach", _cmd_inject_hydra_attach)
    p.add_argument("--body", required=True)
    p.add_argument("--heads", required=True)
    p.add_argument("--out", required=True)
    p = sub(inject_p, "tre-train", _cmd_inject_tre_train)
    p.add_argument("--bioe", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, _TRE_KEYS)
    p = sub(inject_p, "tag-stats", _cmd_inject_tag_stats)
    p.add_argument("--bioe", required=True)
    p = sub(inject_p, "attn-report", _cmd_inject_attn_report)
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--tokens", required=True)
    p.add_argument("--out")

    embed_p = top.add_parser("embed").add_subparsers(dest="subcommand", required=True)
    p = sub(embed_p, "lvc", _cmd_embed_lvc)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--terms", required=True)
    p = sub(embed_p, "leca", _cmd_embed_leca)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--terms", required=True)
    p.add_argument("--corpus", required=True)
    p = sub(embed_p, "project", _cmd_embed_project)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--terms", required=True)
    p.add_argument("--top-k", dest="top_k", type=int, required=True)
    p.add_argument("--out", required=True)

    eval_p = top.add_parser("eval").add_subparsers(dest="subcommand", required=True)
    p = sub(eval_p, "prf2", _cmd_eval_prf2)
    p.add_argument("--gold")
    p.add_argument("--retrieved")
    p.add_argument("--judgments")
    p.add_argument("--k", type=int, default=1)
    p = sub(eval_p, "accuracy", _cmd_eval_accuracy)
    p.add_argument("--preds")
    p.add_argument("--correct", type=int)
    p.add_argument("--total", type=int)
    p = sub(eval_p, "human", _cmd_eval_human)
    p.add_argument("--positives", required=True)
    p.add_argument("--total", type=int, required=True)

    selftest_p = top.add_parser("selftest").add_subparsers(dest="subcommand", required=True)
    p = sub(selftest_p, "gradcheck", _cmd_selftest_gradcheck)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=20240501)
    p = sub(selftest_p, "properties", _cmd_selftest_properties)
    p.add_argument("--seed", type=int, default=7)

    return parser


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return handler(args)
    except (CliError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())

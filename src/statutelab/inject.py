"""Knowledge injection into toy self-attention stacks.

Two mechanisms live here.  Extra attention heads are pretrained to imitate
binary token-relation matrices by MSE on the pre-softmax score matrix
q k^T / sqrt(d_head), with the body untouched, then attached as a final
layer whose value/output projections start at zero so attaching never
changes the model output.  Injection needles are per-token softmax
classifiers hung off intermediate layers and trained on three parallel
levels of B/I/O/E tags for requisite, effectuation and unless segments;
the needles are dropped from checkpoints after training.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .encoders import (
    SelfAttentionEncoder,
    SelfAttentionLayer,
    embedded_stacks,
    init_self_attention_layer,
    random_embeddings,
    self_attention_stack_states,
    self_attention_states,
)
from .corpus import json_list, open_text, read_jsonl, require_records
from .store import bundle_bytes, load_bundle, write_bundle

__all__ = [
    "TAGSET",
    "SdoiMatrix",
    "HydraHead",
    "BioeSample",
    "InjectionConfig",
    "injection_config",
    "Needle",
    "load_sdoi",
    "load_bioe",
    "dump_bioe",
    "validate_bioe",
    "init_hydra_heads",
    "hydra_attn_matrix",
    "hydra_pretrain",
    "hydra_attach",
    "count_parameters",
    "build_tre_model",
    "tre_forward",
    "tre_needle_loss",
    "tre_train",
    "tre_logits",
    "tre_evaluate",
    "tag_stats",
    "spans_from_tags",
    "attention_weights_report",
    "save_layer_stack",
    "load_layer_stack",
    "hydra_heads_bytes",
    "save_hydra_heads",
    "load_hydra_heads",
    "tre_model_bytes",
    "save_tre_model",
    "load_tre_model",
]

TAGSET = ["B-R", "I-R", "E-R", "B-E", "I-E", "E-E", "B-U", "I-U", "E-U", "O"]
_TAG_IDX = {t: i for i, t in enumerate(TAGSET)}
_LEVELS = 3


@dataclass
class SdoiMatrix:
    tokens: list[str]
    entries: np.ndarray  # [n, n], values in {0, 1}

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("relation matrix must be square")
        if not np.all((m == 0.0) | (m == 1.0)):
            raise ValueError("relation matrix entries must be 0 or 1")
        if len(self.tokens) != m.shape[0]:
            raise ValueError("token count does not match matrix size")
        self.entries = m


@dataclass
class HydraHead:
    w_q: Tensor  # [d, d_head]
    w_k: Tensor


@dataclass
class BioeSample:
    tokens: list[str]
    tags: list[list[str]]  # three levels, each parallel to tokens


@dataclass
class InjectionConfig:
    positions: list[int]  # 1-based layer indices, strictly increasing
    portions: list[float]  # per-position loss weights, sum to 1

    def validate(self, depth: int) -> None:
        if len(self.positions) != len(self.portions):
            raise ValueError("positions and portions must have equal length")
        if not self.positions:
            raise ValueError("need at least one injection position")
        if any(p2 <= p1 for p1, p2 in zip(self.positions, self.positions[1:])):
            raise ValueError(f"positions must be strictly increasing: {self.positions}")
        if self.positions[0] < 1 or self.positions[-1] > depth:
            raise ValueError(f"positions must lie in [1, {depth}]: {self.positions}")
        if any(p < 0 for p in self.portions):
            raise ValueError("portions must be non-negative")
        if abs(sum(self.portions) - 1.0) > 1e-9:
            raise ValueError(f"portions must sum to 1, got {sum(self.portions)}")


def injection_config(n_layers: int, positions=None, portions=None) -> InjectionConfig:
    """Needles at `positions`, by default on the last min(3, n_layers)
    layers, with loss weights `portions`, by default equal shares with the
    last one taking the remainder."""
    if positions is None:
        positions = list(range(max(1, n_layers - 2), n_layers + 1))
    if portions is None:
        if not positions:
            raise ValueError("need at least one injection position")
        n = len(positions)
        portions = [1.0 / n] * n
        portions[-1] = 1.0 - sum(portions[:-1])
    return InjectionConfig(list(positions), portions)


# ---------------------------------------------------------------------------
# file formats


def load_sdoi(path) -> list[SdoiMatrix]:
    """JSONL, one line or more: {"tokens": [...], "matrix": [[0,1,...], ...]}."""

    def parse(obj):
        return SdoiMatrix(list(map(str, json_list(obj, "tokens"))), np.array(json_list(obj, "matrix")))

    return require_records(path, [m for _, m in read_jsonl(path, ("tokens", "matrix"), parse)], "samples")


def validate_bioe(sample: BioeSample) -> None:
    """Check tag vocabulary and B...E bracketing on every level."""
    if len(sample.tags) != _LEVELS:
        raise ValueError(f"expected {_LEVELS} tag levels, got {len(sample.tags)}")
    for level, tags in enumerate(sample.tags):
        if len(tags) != len(sample.tokens):
            raise ValueError(f"level {level + 1} has {len(tags)} tags for {len(sample.tokens)} tokens")
        open_seg: dict[str, bool] = {}
        for i, tag in enumerate(tags):
            if tag not in _TAG_IDX:
                raise ValueError(f"level {level + 1} token {i}: unknown tag {tag!r}")
            if tag == "O":
                continue
            kind, typ = tag.split("-")
            if kind == "B":
                if open_seg.get(typ):
                    raise ValueError(f"level {level + 1} token {i}: B-{typ} inside an open {typ} segment")
                open_seg[typ] = True
            elif kind == "E":
                if not open_seg.get(typ):
                    raise ValueError(f"level {level + 1} token {i}: E-{typ} without an open segment")
                open_seg[typ] = False


def load_bioe(path) -> list[BioeSample]:
    """TSV columns token, L1, L2, L3; "-" means O; blank line between
    samples; one sample or more.  A bad line, or a sample validate_bioe
    rejects, raises ValueError naming the file and the line (the sample's
    first)."""
    samples, rows = [], []  # rows: the columns of the sample being read
    with open_text(path) as fh:
        # a blank line after the last one ends the last sample
        for lineno, line in enumerate(itertools.chain(fh, [""]), start=1):
            if line.strip():
                rows.append(line.rstrip("\n").split("\t"))
                if len(rows[-1]) != 4:
                    raise ValueError(f"{path} line {lineno}: expected 4 tab-separated columns")
            elif rows:
                tokens, *levels = zip(*rows)
                tags = [["O" if tag == "-" else tag for tag in level] for level in levels]
                sample = BioeSample(list(tokens), tags)
                try:
                    validate_bioe(sample)
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno - len(rows)}: {exc}") from None
                samples.append(sample)
                rows = []
    return require_records(path, samples, "samples")


def dump_bioe(samples: list[BioeSample], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for si, sample in enumerate(samples):
            if si:
                fh.write("\n")
            for i, tok in enumerate(sample.tokens):
                cols = [tok] + ["-" if sample.tags[l][i] == "O" else sample.tags[l][i] for l in range(_LEVELS)]
                fh.write("\t".join(cols) + "\n")


def tag_stats(data: list[BioeSample]) -> dict[str, int]:
    """Exact tag counts over all three levels."""
    counts = {t: 0 for t in TAGSET}
    for sample in data:
        for tags in sample.tags:
            for tag in tags:
                if tag not in counts:
                    raise ValueError(f"unknown tag {tag!r}")
                counts[tag] += 1
    return counts


# ---------------------------------------------------------------------------
# head pretraining against token-relation targets


def init_hydra_heads(d: int, n_heads: int, seed: int, scale: float = 0.3) -> list[HydraHead]:
    if d % n_heads != 0:
        raise ValueError(f"hidden size {d} not divisible by {n_heads} heads")
    rng = np.random.default_rng(seed)
    dh = d // n_heads
    return [
        HydraHead(
            Tensor(rng.normal(0.0, scale, size=(d, dh)), requires_grad=True),
            Tensor(rng.normal(0.0, scale, size=(d, dh)), requires_grad=True),
        )
        for _ in range(n_heads)
    ]


def hydra_attn_matrix(head: HydraHead, hidden: Tensor) -> Tensor:
    """Pre-softmax score matrix q k^T / sqrt(d_head) for one head."""
    dh = head.w_q.data.shape[1]
    q = T.matmul(hidden, head.w_q)
    k = T.matmul(hidden, head.w_k)
    return T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(dh))


def hydra_pretrain(
    hidden_states: list[Tensor],
    targets: list[SdoiMatrix],
    heads: list[HydraHead],
    epochs: int,
    lr: float,
) -> tuple[list[HydraHead], list[float]]:
    """Full-batch gradient descent of the head projections against the
    targets; only the head tensors are updated.  Training that diverges
    raises ValueError naming the epoch, and the sample (counted from 1) when
    its own forward pass meets the overflow."""
    if len(hidden_states) != len(targets):
        raise ValueError(f"{len(hidden_states)} states but {len(targets)} targets")
    d = heads[0].w_q.data.shape[0]
    for h, tgt in zip(hidden_states, targets):
        if h.data.ndim != 2 or h.data.shape[1] != d:
            raise ValueError(f"hidden state shape {h.data.shape} does not match head dim {d}")
        if h.data.shape[0] != tgt.entries.shape[0]:
            raise ValueError("hidden state length does not match its target")
    params = _head_tensors(heads)
    target_tensors = [Tensor(t.entries) for t in targets]
    trace = []
    for epoch in range(1, epochs + 1):
        losses = []
        for i, (hidden, tgt) in enumerate(zip(hidden_states, target_tensors), start=1):
            with T.diverging_raises(f"epoch {epoch} at sample {i}"):
                for head in heads:
                    losses.append(T.mse_matrix(hydra_attn_matrix(head, hidden), tgt))
        loss = T.train_step(params, lr, lambda: T.tmean(T.stack(losses)), f"epoch {epoch}")
        trace.append(float(loss.data))
    return heads, trace


def hydra_attach(body: list[SelfAttentionLayer], heads: list[HydraHead]) -> list[SelfAttentionLayer]:
    """Append one layer built from the pretrained heads.

    Value and output projections start at zero, so with the residual
    connection the attached model reproduces the body output exactly.
    """
    d = heads[0].w_q.data.shape[0]
    dh = heads[0].w_q.data.shape[1]
    if dh * len(heads) != d:
        raise ValueError(f"{len(heads)} heads of width {dh} do not tile hidden size {d}")
    for head in heads:
        if head.w_q.data.shape != (d, dh) or head.w_k.data.shape != (d, dh):
            raise ValueError("inconsistent head shapes")
    if body and body[0].d != d:
        raise ValueError(f"head hidden size {d} does not match body size {body[0].d}")
    layer = SelfAttentionLayer(
        Tensor(np.concatenate([h.w_q.data for h in heads], axis=1), requires_grad=True),
        Tensor(np.concatenate([h.w_k.data for h in heads], axis=1), requires_grad=True),
        Tensor(np.zeros((d, d)), requires_grad=True),
        Tensor(np.zeros((d, d)), requires_grad=True),
        len(heads),
        d,
    )
    return list(body) + [layer]


def count_parameters(layers: list[SelfAttentionLayer]) -> int:
    return sum(t.data.size for t in _layer_tensors(layers))


# ---------------------------------------------------------------------------
# injection-needle training


@dataclass
class Needle:
    w: Tensor  # [d, T]
    b: Tensor  # [T]


def build_tre_model(
    vocab, d: int, n_layers: int, n_heads: int, seed: int, max_len: int = 64
) -> SelfAttentionEncoder:
    rng = np.random.default_rng(seed)
    emb = random_embeddings(vocab, d, seed, scale=0.5)
    positions = Tensor(rng.normal(0.0, 0.1, size=(max_len, d)), requires_grad=True)
    layers = [init_self_attention_layer(d, n_heads, rng) for _ in range(n_layers)]
    return SelfAttentionEncoder(emb, positions, layers)


_tre_params = SelfAttentionEncoder.tensors  # model tensors in checkpoint order


def tre_forward(model: SelfAttentionEncoder, tokens: list[str]) -> list[Tensor]:
    """Per-layer hidden states Z^1 .. Z^L for one token sequence."""
    return self_attention_states(tokens, model)[0][1:]


def _token_cross_entropy(logits: Tensor, gold_idx: np.ndarray) -> Tensor:
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    p = e / e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    rows = np.arange(len(gold_idx))
    loss = float((lse - z[rows, gold_idx]).mean())

    def vjp(g):
        gm = p.copy()
        gm[rows, gold_idx] -= 1.0
        return (float(g) * gm / len(gold_idx),)

    return T._out(np.asarray(loss), (logits,), vjp, "token_ce")


def tre_needle_loss(z: Tensor, gold_tags: list[str], w: Tensor, b: Tensor) -> Tensor:
    """Mean token-level cross entropy of softmax(z W + b) against gold tags."""
    if w.data.shape[1] != len(TAGSET) or b.data.shape[0] != len(TAGSET):
        raise ValueError(f"needle must map to {len(TAGSET)} tags")
    if z.data.shape[0] != len(gold_tags):
        raise ValueError(f"{z.data.shape[0]} states but {len(gold_tags)} gold tags")
    try:
        gold_idx = np.array([_TAG_IDX[t] for t in gold_tags])
    except KeyError as exc:
        raise ValueError(f"unknown tag {exc.args[0]!r}") from exc
    logits = T.add(T.matmul(z, w), b)
    return _token_cross_entropy(logits, gold_idx)


def _needle_assignment(config: InjectionConfig) -> list[tuple[int, float]]:
    # one needle per tag level, assigned round-robin to the config positions
    n = len(config.positions)
    return [(config.positions[l % n], config.portions[l % n]) for l in range(_LEVELS)]


@dataclass
class TreTrainResult:
    model: SelfAttentionEncoder
    needles: list[Needle]
    loss_trace: list[float]  # per-epoch mean of the total loss
    step_losses: list[tuple[float, list[float]]]  # (total, per-needle) per step
    metrics: dict


def tre_train(
    model: SelfAttentionEncoder,
    config: InjectionConfig,
    data: list[BioeSample],
    epochs: int,
    lr: float,
    seed: int,
) -> TreTrainResult:
    """Train the stack with needles at the configured layers.

    The total loss per sample is the portion-weighted sum of the per-level
    needle losses; every model weight is updated, and the needles are kept
    out of checkpoints.  A step that diverges raises ValueError naming the
    epoch and the sample, counted from 1 in data order (tensor.train_step).
    """
    config.validate(len(model.layers))
    if not data:
        raise ValueError("no training samples")
    d = model.embeddings.dim
    rng = np.random.default_rng(seed)
    needles = [
        Needle(
            Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, len(TAGSET))), requires_grad=True),
            Tensor(np.zeros(len(TAGSET)), requires_grad=True),
        )
        for _ in range(_LEVELS)
    ]
    assignment = _needle_assignment(config)
    params = _tre_params(model) + [t for n in needles for t in (n.w, n.b)]
    trace = []
    step_losses: list[tuple[float, list[float]]] = []
    for epoch in range(1, epochs + 1):
        total_epoch = 0.0
        for si in rng.permutation(len(data)):
            sample = data[int(si)]
            raw = []

            def loss_fn():
                states = tre_forward(model, sample.tokens)
                parts = []
                for level, (pos, portion) in enumerate(assignment):
                    l = tre_needle_loss(
                        states[pos - 1], sample.tags[level], needles[level].w, needles[level].b
                    )
                    raw.append(float(l.data))
                    parts.append(T.scale(l, portion))
                return functools.reduce(T.add, parts)

            loss = T.train_step(params, lr, loss_fn, f"epoch {epoch} at sample {int(si) + 1}")
            step_losses.append((float(loss.data), raw))
            total_epoch += float(loss.data)
        trace.append(total_epoch / len(data))
    metrics = tre_evaluate(model, needles, config, data)
    return TreTrainResult(model, needles, trace, step_losses, metrics)


def spans_from_tags(tags: list[str]) -> set[tuple[str, int, int]]:
    """(type, start, end) segments; a B-x opens and the next E-x closes."""
    spans = set()
    open_at: dict[str, int] = {}
    for i, tag in enumerate(tags):
        if tag == "O":
            continue
        kind, typ = tag.split("-")
        if kind == "B":
            open_at[typ] = i
        elif kind == "E" and typ in open_at:
            spans.add((typ, open_at.pop(typ), i))
    return spans


def tre_logits(
    model: SelfAttentionEncoder, needles: list[Needle], config: InjectionConfig, data: list[BioeSample]
) -> list[np.ndarray]:
    """Each sample's needle logits, a [levels, M, tags] array, values only.
    The samples run in the stacks of encoders.embedded_stacks and each level
    takes one product per stack; entry i has the bits of the tape path's
    tre_forward(model, data[i].tokens)[pos - 1].data @ w + b per level."""
    assignment = _needle_assignment(config)
    out: list = [None] * len(data)
    for members, x in embedded_stacks([s.tokens for s in data], model):
        states = self_attention_stack_states(x, model)
        logits = np.stack(
            [np.matmul(states[pos], n.w.data) + n.b.data for n, (pos, _) in zip(needles, assignment)], axis=1
        )
        for j, i in enumerate(members):
            out[i] = logits[j]
    return out


def tre_evaluate(
    model: SelfAttentionEncoder, needles: list[Needle], config: InjectionConfig, data: list[BioeSample]
) -> dict:
    """Segment-level P/R/F1 per level plus overall token accuracy."""
    per_level = [{"match": 0, "pred": 0, "gold": 0} for _ in range(_LEVELS)]
    correct = 0
    total = 0
    for sample, logits in zip(data, tre_logits(model, needles, config, data)):
        preds = [[TAGSET[t] for t in level] for level in logits.argmax(axis=-1)]
        for level in range(_LEVELS):
            gold_spans = spans_from_tags(sample.tags[level])
            pred_spans = spans_from_tags(preds[level])
            per_level[level]["match"] += len(gold_spans & pred_spans)
            per_level[level]["pred"] += len(pred_spans)
            per_level[level]["gold"] += len(gold_spans)
            correct += sum(p == g for p, g in zip(preds[level], sample.tags[level]))
            total += len(sample.tokens)
    levels = []
    for stats in per_level:
        p = stats["match"] / stats["pred"] if stats["pred"] else 0.0
        r = stats["match"] / stats["gold"] if stats["gold"] else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        levels.append({"precision": p, "recall": r, "f1": f1})
    return {"levels": levels, "token_accuracy": correct / total if total else 0.0}


def attention_weights_report(model: SelfAttentionEncoder, tokens: list[str]) -> list[list[np.ndarray]]:
    """Row-stochastic attention matrices per layer per head for one input."""
    return self_attention_states(tokens, model)[1]


# ---------------------------------------------------------------------------
# checkpoints


def _layer_tensors(layers: list[SelfAttentionLayer]) -> list[Tensor]:
    return [t for layer in layers for t in layer.tensors()]


def _head_tensors(heads: list[HydraHead]) -> list[Tensor]:
    return [t for head in heads for t in (head.w_q, head.w_k)]


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def save_layer_stack(layers: list[SelfAttentionLayer], path) -> None:
    if not layers:
        raise ValueError("empty layer stack")
    meta = {"n_layers": len(layers), "n_heads": layers[0].n_heads, "d": layers[0].d}
    write_bundle(path, "layer_stack", meta, _layer_tensors(layers))


def load_layer_stack(path) -> list[SelfAttentionLayer]:
    def build(kind, meta, shapes):
        d, n_heads = meta["d"], meta["n_heads"]
        layers = [
            SelfAttentionLayer(_zeros(d, d), _zeros(d, d), _zeros(d, d), _zeros(d, d), n_heads, d)
            for _ in range(meta["n_layers"])
        ]
        return layers, _layer_tensors(layers)

    return load_bundle(path, ("layer_stack",), build)


def _heads_bundle(heads: list[HydraHead]) -> tuple[str, dict, list[Tensor]]:
    d, dh = heads[0].w_q.data.shape
    return "hydra_heads", {"n_heads": len(heads), "d": d, "d_head": dh}, _head_tensors(heads)


def hydra_heads_bytes(heads: list[HydraHead]) -> bytes:
    return bundle_bytes(*_heads_bundle(heads))


def save_hydra_heads(heads: list[HydraHead], path) -> None:
    write_bundle(path, *_heads_bundle(heads))


def load_hydra_heads(path) -> list[HydraHead]:
    def build(kind, meta, shapes):
        d, dh = meta["d"], meta["d_head"]
        heads = [HydraHead(_zeros(d, dh), _zeros(d, dh)) for _ in range(meta["n_heads"])]
        return heads, _head_tensors(heads)

    return load_bundle(path, ("hydra_heads",), build)


def _tre_bundle(model: SelfAttentionEncoder) -> tuple[str, dict, list[Tensor]]:
    meta = {
        "vocab": model.embeddings.words(),
        "n_layers": len(model.layers),
        "n_heads": model.layers[0].n_heads,
        "max_len": model.positions.data.shape[0],
    }
    return "tre_model", meta, _tre_params(model)


def tre_model_bytes(model: SelfAttentionEncoder) -> bytes:
    return bundle_bytes(*_tre_bundle(model))


def save_tre_model(model: SelfAttentionEncoder, path) -> None:
    write_bundle(path, *_tre_bundle(model))


def load_tre_model(path) -> SelfAttentionEncoder:
    def build(kind, meta, shapes):
        model = build_tre_model(
            meta["vocab"], shapes[0][1], meta["n_layers"], meta["n_heads"],
            seed=0, max_len=meta["max_len"],
        )
        return model, _tre_params(model)

    return load_bundle(path, ("tre_model",), build)

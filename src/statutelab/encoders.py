"""Attention primitives and the two hierarchical encoders.

Tokens embed as rows of a table, an out-of-vocabulary token as a zero row.
The CNN sentence encoder embeds tokens, convolves, applies tanh and pools
with a learned-query additive attention.  The transformer-style encoder
adds learned positions to the embedded tokens, stacks multi-head
self-attention layers (scaled dot-product, residual, no layer norm at this
scale) and average-pools the final states.  Paragraphs
are pooled from sentence vectors with general attention a_i = q^T tanh(A r_i
+ b), weighted by softmax or sparsemax.  Outside training,
``encode_statements`` encodes many sentences at once, values only, in
stacks of the same length that ``embedded_stacks`` yields.  In training,
``encode_on_tape`` encodes all the sentences of a CNN's step as one tape
node, and those of a self-attention encoder one by one.  Both CNN paths
run one forward, ``_cnn_forward``: once per stack outside training, once
per sentence in training.  Behind both sits a path on table rows
(``_encode_rows``, ``_rows_on_tape``): each sentence is a run of row ids,
-1 for an out-of-vocabulary token, and each stack, or a training step's
sentences, is gathered from the table with one index array.  Token lists
reach it through ``EmbeddingTable.lookup``, which a ``corpus.Prepared``
corpus calls once per article and table to keep its statements' rows.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import tensor as T
from .corpus import open_text, require_records
from .tensor import Tensor

__all__ = [
    "STACK_CAP",
    "EmbeddingTable",
    "GeneralAttentionParams",
    "SelfAttentionLayer",
    "SentenceEncoderCNN",
    "SelfAttentionEncoder",
    "PRESETS",
    "load_embeddings",
    "random_embeddings",
    "init_attention_params",
    "init_self_attention_layer",
    "init_cnn_encoder",
    "self_attention",
    "self_attention_states",
    "encode_sentence_cnn",
    "embedded_stacks",
    "self_attention_stack_states",
    "encode_statements",
    "encode_on_tape",
    "encode_paragraph",
]

# encoder size presets: embedding dim, CNN filter count, attention query
# size, dropout rate
PRESETS = {
    "paper": {"embed_dim": 512, "filters": 512, "attn_dim": 200, "dropout": 0.2},
    "desk": {"embed_dim": 64, "filters": 64, "attn_dim": 32, "dropout": 0.0},
}

# the most same-length token lists embedded_stacks yields as one stack; it
# bounds the working memory whatever the number of lists
STACK_CAP = 16


@dataclass
class EmbeddingTable:
    vocab: dict[str, int]
    matrix: Tensor  # [|V|, d]

    @property
    def dim(self) -> int:
        return self.matrix.data.shape[1]

    def words(self) -> list[str]:
        """The vocabulary in row order."""
        return [w for w, _ in sorted(self.vocab.items(), key=lambda kv: kv[1])]

    def lookup(self, tokens: list[str]) -> np.ndarray:
        """The table row of each token, -1 for an out-of-vocabulary token."""
        if not tokens:
            raise ValueError("cannot embed an empty token sequence")
        get = self.vocab.get
        return np.array([get(t, -1) for t in tokens], dtype=np.intp)

    def embed(self, tokens: list[str]) -> Tensor:
        """Token rows as an [M, d] tensor; an out-of-vocabulary token is a
        zero row."""
        return self.embed_rows(self.lookup(tokens))

    def embed_rows(self, rows: np.ndarray) -> Tensor:
        """The table rows as an [M, d] tensor; a -1 row reads row 0 and is
        multiplied by a zero mask row, which also stops its gradient."""
        known = rows >= 0
        if known.all():
            return T.gather_rows(self.matrix, rows)
        x = T.gather_rows(self.matrix, np.maximum(rows, 0))
        return T.mul(x, Tensor(np.repeat(known.astype(np.float64)[:, None], self.dim, axis=1)))


def load_embeddings(path) -> EmbeddingTable:
    """GloVe-style text: one "word v1 v2 ... vd" line per word, one word or
    more, read into a frozen table.  A bad line, a blank one included,
    raises ValueError naming the file and the line."""
    vocab: dict[str, int] = {}
    rows: list[list[float]] = []
    dim = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                parts = line.rstrip("\n").split(" ")
                if len(parts) < 2:
                    raise ValueError("expected word and values")
                word, vals = parts[0], parts[1:]
                if dim is None:
                    dim = len(vals)
                elif len(vals) != dim:
                    raise ValueError(f"dimension {len(vals)} != {dim}")
                if word in vocab:
                    raise ValueError(f"duplicate word {word!r}")
                vocab[word] = len(rows)
                rows.append([float(v) for v in vals])
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    return EmbeddingTable(vocab, Tensor(np.array(require_records(path, rows, "word vectors"))))


def random_embeddings(words, d: int, seed: int, scale: float = 0.1) -> EmbeddingTable:
    """A trainable table of N(0, scale^2) rows, one per word."""
    return _drawn_embeddings(words, d, np.random.default_rng(seed), scale)


def _drawn_embeddings(words, d: int, rng, scale: float) -> EmbeddingTable:
    """random_embeddings with its rows drawn from rng, a Generator or
    _NO_DRAWS."""
    words = list(words)
    mat = rng.normal(0.0, scale, size=(len(words), d))
    vocab = {w: i for i, w in enumerate(words)}
    if len(vocab) != len(words):
        raise ValueError("duplicate words in vocabulary")
    return EmbeddingTable(vocab, Tensor(mat, requires_grad=True))


class _NoDraws:
    """Stands in for the Generator of a model that a checkpoint fills:
    normal() returns an uninitialised array of the size asked, so building
    the model draws nothing that loading would overwrite."""

    @staticmethod
    def normal(loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        return np.empty(size)


_NO_DRAWS = _NoDraws()


@dataclass
class GeneralAttentionParams:
    A: Tensor  # [d_q, d_r]
    b: Tensor  # [d_q]
    weight_fn: str = "softmax"  # or "sparsemax"


@dataclass
class SelfAttentionLayer:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    n_heads: int
    d: int

    def tensors(self) -> list[Tensor]:
        """Weights in checkpoint order."""
        return [self.w_q, self.w_k, self.w_v, self.w_o]


@dataclass
class SentenceEncoderCNN:
    embeddings: EmbeddingTable
    filters: Tensor  # [w, d, F]
    attn: GeneralAttentionParams
    u: Tensor  # learned attention query, [d_q]
    dropout: float = 0.0

    def tensors(self) -> list[Tensor]:
        """Embedding table and weights in checkpoint order."""
        return [self.embeddings.matrix, self.filters, self.attn.A, self.attn.b, self.u]


@dataclass
class SelfAttentionEncoder:
    embeddings: EmbeddingTable
    positions: Tensor  # learned positions, [max_len, d]
    layers: list[SelfAttentionLayer]

    def tensors(self) -> list[Tensor]:
        """Embedding table, positions and layer weights in checkpoint order."""
        return [self.embeddings.matrix, self.positions] + [t for layer in self.layers for t in layer.tensors()]

    def encode(self, tokens: list[str]) -> Tensor:
        """The last layer's states, average-pooled."""
        return self.encode_rows(self.embeddings.lookup(tokens))

    def encode_rows(self, rows: np.ndarray) -> Tensor:
        """encode of the tokens at these table rows (-1 out of the
        vocabulary)."""
        return T.avg_pool(_attention_states(self.embeddings.embed_rows(rows), self)[0][-1])


def init_attention_params(d_q: int, d_r: int, rng, weight_fn: str = "softmax") -> GeneralAttentionParams:
    a = rng.normal(0.0, 1.0 / math.sqrt(d_r), size=(d_q, d_r))
    return GeneralAttentionParams(
        Tensor(a, requires_grad=True),
        Tensor(np.zeros(d_q), requires_grad=True),
        weight_fn,
    )


def init_self_attention_layer(d: int, n_heads: int, rng) -> SelfAttentionLayer:
    if d % n_heads != 0:
        raise ValueError(f"hidden size {d} not divisible by {n_heads} heads")
    s = 1.0 / math.sqrt(d)

    def w():
        return Tensor(rng.normal(0.0, s, size=(d, d)), requires_grad=True)

    return SelfAttentionLayer(w(), w(), w(), w(), n_heads, d)


def init_cnn_encoder(
    embeddings: EmbeddingTable,
    filters: int,
    attn_dim: int,
    rng,
    width: int = 3,
    dropout: float = 0.0,
) -> SentenceEncoderCNN:
    d = embeddings.dim
    f = Tensor(
        rng.normal(0.0, 1.0 / math.sqrt(width * d), size=(width, d, filters)),
        requires_grad=True,
    )
    attn = init_attention_params(attn_dim, filters, rng)
    u = Tensor(rng.normal(0.0, 1.0 / math.sqrt(attn_dim), size=attn_dim), requires_grad=True)
    return SentenceEncoderCNN(embeddings, f, attn, u, dropout)


def self_attention(x: Tensor, layer: SelfAttentionLayer) -> Tensor:
    """One multi-head self-attention layer with a residual connection."""
    return T.multihead_self_attention(x, layer)[0]


def encode_sentence_cnn(tokens: list[str], enc: SentenceEncoderCNN) -> Tensor:
    """embed -> conv1d + tanh -> learned-query additive attention with
    softmax weights, without dropout."""
    x = enc.embeddings.embed(tokens)
    feats = T.conv_tanh(x, enc.filters)
    return T.additive_attention(feats, enc.attn.A, enc.attn.b, enc.u, "softmax")[0]


def _check_length(enc: SelfAttentionEncoder, m: int) -> None:
    if m > enc.positions.data.shape[0]:
        raise ValueError(f"sequence length {m} exceeds positional table")


def self_attention_states(
    tokens: list[str], enc: SelfAttentionEncoder
) -> tuple[list[Tensor], list[list[np.ndarray]]]:
    """embed + learned positions -> each self-attention layer in turn.
    Returns the states, the embedded input first and then each layer's
    output, and each layer's row-stochastic attention matrices per head."""
    return _attention_states(enc.embeddings.embed(tokens), enc)


def _attention_states(x: Tensor, enc: SelfAttentionEncoder) -> tuple[list[Tensor], list[list[np.ndarray]]]:
    """self_attention_states of the embedded input x [M, d]."""
    m = x.data.shape[0]
    _check_length(enc, m)
    x = T.add(x, T.gather_rows(enc.positions, range(m)))
    states, weights = [x], []
    for layer in enc.layers:
        x, w = T.multihead_self_attention(x, layer)
        states.append(x)
        weights.append(w)
    return states, weights


def embedded_stacks(
    token_lists: list[list[str]], enc: SentenceEncoderCNN | SelfAttentionEncoder
) -> Iterator[tuple[list[int], np.ndarray]]:
    """The token lists embedded in stacks, values only: yields (members, x),
    the indices of at most STACK_CAP lists of the same token count M, and
    their [n, M, d] embedded rows.  Every list is looked up before the first
    stack, so the errors of the per-sentence path raise for the first list
    at fault."""
    return _row_stacks(*_token_rows(token_lists, enc), enc)


def _token_rows(
    token_lists: list[list[str]], enc: SentenceEncoderCNN | SelfAttentionEncoder
) -> tuple[np.ndarray, list[int]]:
    """The table rows of the token lists, concatenated, and each list's
    length.  Raises the errors of the per-sentence path for the first list
    at fault: an empty list, or one longer than a self-attention encoder's
    positional table."""
    parts = []
    for tokens in token_lists:
        parts.append(enc.embeddings.lookup(tokens))
        if isinstance(enc, SelfAttentionEncoder):
            _check_length(enc, len(tokens))
    return (np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)), [len(p) for p in parts]


def _row_stacks(
    rows: np.ndarray, lengths: list[int], enc: SentenceEncoderCNN | SelfAttentionEncoder
) -> Iterator[tuple[list[int], np.ndarray]]:
    """embedded_stacks of the sequences whose table rows are the runs of
    rows of these lengths, -1 for an out-of-vocabulary token: the stacks
    of the lists' first-seen lengths in turn, members in order, each
    gathered with one index array.  An out-of-vocabulary token reads row 0
    and is multiplied by 0.0, the mask multiply of EmbeddingTable.embed_rows.
    Checks every length against a self-attention encoder's positional table
    before the first stack."""
    by_length: dict[int, list[int]] = {}
    for i, m in enumerate(lengths):
        if isinstance(enc, SelfAttentionEncoder):
            _check_length(enc, m)
        by_length.setdefault(m, []).append(i)
    starts = np.zeros(len(lengths), dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    safe, oov = np.maximum(rows, 0), rows < 0
    any_oov = bool(oov.any())
    matrix = enc.embeddings.matrix.data
    for m, members in by_length.items():
        for start in range(0, len(members), STACK_CAP):
            group = members[start : start + STACK_CAP]
            take = starts[group][:, None] + np.arange(m)
            x = matrix[safe[take]]
            if any_oov:
                x[oov[take]] *= 0.0
            yield group, x


def self_attention_stack_states(x: np.ndarray, enc: SelfAttentionEncoder) -> list[np.ndarray]:
    """The values of self_attention_states for a stack x [n, M, d] of
    embedded inputs: the input plus positions, then each layer's output."""
    states = [x + enc.positions.data[: x.shape[1]]]
    for layer in enc.layers:
        states.append(T.multihead_self_attention_values(states[-1], layer))
    return states


def encode_statements(token_lists: list[list[str]], enc: SentenceEncoderCNN | SelfAttentionEncoder) -> np.ndarray:
    """The [S, d_out] vectors of S token lists, values only and without
    dropout: row i has the bits of encode_sentence_cnn(token_lists[i], enc),
    or of enc.encode for a self-attention encoder.  Runs the stacks of
    embedded_stacks, and raises its errors."""
    return _encode_rows(*_token_rows(token_lists, enc), enc)


def _encode_rows(rows: np.ndarray, lengths: list[int], enc: SentenceEncoderCNN | SelfAttentionEncoder) -> np.ndarray:
    """encode_statements of the sequences given as _row_stacks takes them."""
    cnn = isinstance(enc, SentenceEncoderCNN)
    out = np.empty((len(lengths), enc.filters.data.shape[2] if cnn else enc.embeddings.dim))
    if cnn:
        weights = enc.filters.data, enc.attn.A.data.T.copy(), enc.attn.b.data, enc.u.data
    for members, x in _row_stacks(rows, lengths, enc):
        if cnn:
            out[members] = _cnn_forward(x, None, *weights)[0]
        else:
            out[members] = self_attention_stack_states(x, enc)[-1].mean(axis=-2)
    return out


def encode_on_tape(
    token_lists: list[list[str]], enc: SentenceEncoderCNN | SelfAttentionEncoder, rng: np.random.Generator
) -> Tensor:
    """The [S, d_out] encodings of S token lists on the tape, for training.
    A self-attention encoder stacks enc.encode(token_lists[i]), the tape
    that TRE training also runs.  A CNN encodes them as one node: row i has
    the values of encode_sentence_cnn(token_lists[i], enc) with the CNN's
    dropout on its conv features, and every parameter gradient has the bits
    of a tape that encodes the lists one by one, list 0 first.

    The dropout masks are drawn from rng in list order before any kernel
    runs, as those encodes drew them.  Each list then runs _cnn_forward on
    its own, the forward that encode_statements runs on a stack.  The VJP
    runs each list's VJP, last list first, and adds the lists'
    contributions to each parameter in that order, as backward adds them on
    the per-sentence tape; the table gets one RowGrad part with the bits of
    the per-gather parts.  Raises the errors of the per-sentence path for
    the first list at fault."""
    return _rows_on_tape(*_token_rows(token_lists, enc), enc, rng)


def _rows_on_tape(
    rows: np.ndarray, lengths: list[int], enc: SentenceEncoderCNN | SelfAttentionEncoder, rng: np.random.Generator
) -> Tensor:
    """encode_on_tape of the sequences given as _row_stacks takes them.  A
    CNN's sequences are gathered from the table with one index array, an
    out-of-vocabulary token as in _row_stacks; its gradient rows are
    multiplied by 0.0 as EmbeddingTable.embed_rows' mask does."""
    bounds = np.cumsum(lengths)[:-1]
    if isinstance(enc, SelfAttentionEncoder):
        return T.stack_rows([enc.encode_rows(r) for r in np.split(rows, bounds)])
    table = enc.embeddings
    ids, oov = np.maximum(rows, 0), rows < 0
    any_oov = bool(oov.any())
    x_all = table.matrix.data[ids]
    if any_oov:
        x_all[oov] *= 0.0
    xs = np.split(x_all, bounds)
    member = np.repeat(np.arange(len(lengths)), lengths)
    filt, at, b, u = enc.filters.data, enc.attn.A.data.T.copy(), enc.attn.b.data, enc.u.data
    n_filters = filt.shape[2]
    drops = [None] * len(xs)
    if enc.dropout > 0.0:
        drops = [T.dropout_mask((len(x), n_filters), enc.dropout, rng) for x in xs]
    out = np.empty((len(xs), n_filters))
    saved = []
    for i, (x, drop) in enumerate(zip(xs, drops)):
        out[i], arrays = _cnn_forward(x, drop, filt, at, b, u)
        saved.append(arrays)

    def vjp(g):
        gxs, contribs = [], []
        for i in reversed(range(len(xs))):
            xp, y, feats, w, h = saved[i]
            g_vecmat, g_matmul, g_a, g_b, g_u = T._additive_vjp(g[i], feats, at, u, w, h, "softmax")
            g_feats = g_vecmat + g_matmul
            gx, g_filt = T._conv_tanh_vjp(g_feats if drops[i] is None else g_feats * drops[i], y, xp, filt)
            gxs.append(gx)
            contribs.append((g_filt, g_a, g_b, g_u))
        gx_all = np.concatenate(gxs[::-1])
        if any_oov:  # out-of-vocabulary rows take no gradient
            gx_all[oov] *= 0.0
        table_grad = T.member_row_grad(table.matrix.data.shape, ids, member, gx_all)
        return (table_grad, *map(_in_order, zip(*contribs)))

    parents = (table.matrix, enc.filters, enc.attn.A, enc.attn.b, enc.u)
    return T._out(out, parents, vjp, "encode_on_tape")


def _cnn_forward(
    x: np.ndarray, drop: np.ndarray | None, filt: np.ndarray, at: np.ndarray, b: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """The CNN's forward over the rows of x [..., M, d] under the dropout
    mask drop (None for none), with at = A^T: the pooled rows [..., F] and
    what the VJP reads, (padded input, tanh(conv), features, attention
    weights, tanh(feats at + b)).  Each entry of a stack has the bits of its
    own forward, since every product keeps one entry's matrix shapes."""
    xp, conv = T._conv_same(x, filt)
    y = np.tanh(conv)
    feats = y if drop is None else y * drop
    pooled, w, h = T._additive_forward(feats, at, b, u, "softmax")
    return pooled, (xp, y, feats, w, h)


def _in_order(parts) -> np.ndarray:
    """The parts summed left to right, the first as it is: the order in
    which backward adds a parent's contributions."""
    return functools.reduce(operator.add, parts)


def encode_paragraph(
    q: Tensor,
    sent_reps: list[Tensor],
    params: GeneralAttentionParams,
) -> tuple[Tensor, list[float]]:
    """General attention over sentence vectors; returns the pooled vector
    and the attention weights for inspection."""
    if not sent_reps:
        raise ValueError("encode_paragraph needs at least one sentence vector")
    pooled, weights = T.additive_attention(
        T.stack_rows(sent_reps), params.A, params.b, q, params.weight_fn
    )
    return pooled, weights.tolist()

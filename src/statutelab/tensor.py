"""Dense float64 tensors with tape-based reverse-mode gradients.

Every kernel the trainable models need lives here: matmul, stable softmax,
sparsemax (exact simplex projection), same-length 1-D convolution, average
pooling, the negative-sampling cross-entropy, element-wise matrix MSE and
a differentiable soft argmax.  Every tape node holds one VJP closure that
maps its output gradient to the gradients of all its parents.  The encoders
run on three fused ops, each one tape node with a hand-written VJP:
``conv_tanh``, ``additive_attention`` and ``multihead_self_attention``.
Their forward values are computed once, over any leading batch axes; the
``*_values`` functions give the values of a stack of same-length inputs
without building a tape, each entry with the bits of its own tape op.  The
forwards and VJPs of the first two are plain functions (``_conv_same``,
``_additive_forward``, ``_conv_tanh_vjp``, ``_additive_vjp``), which the
CNN's one forward (``encoders._cnn_forward``) and its training node
(``encoders.encode_on_tape``) also run.  All math is double precision and
single threaded, so repeated runs are bit-identical.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "RowGrad",
    "tensor",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "matvec",
    "vecmat",
    "transpose",
    "dot",
    "tanh",
    "softplus",
    "tsum",
    "tmean",
    "stack",
    "stack_rows",
    "concat_cols",
    "slice_cols",
    "gather_rows",
    "take_rows",
    "softmax",
    "softmax_rows",
    "sparsemax",
    "sparsemax_values",
    "conv1d",
    "conv_tanh",
    "additive_attention",
    "additive_attention_values",
    "multihead_self_attention",
    "multihead_self_attention_values",
    "avg_pool",
    "ce_negsample",
    "mse_matrix",
    "softargmax",
    "dropout_mask",
    "backward",
    "sgd_step",
    "diverging_raises",
    "train_step",
    "grad_check",
]

_ids = itertools.count()


class Tensor:
    """A node in the computation graph.

    ``data`` is a float64 ndarray.  A non-leaf tensor remembers its parents
    and its vector-Jacobian product: one closure that maps the output
    gradient to a tuple of per-parent gradients, in parent order.  Creation
    order is the tape order, so walking nodes by descending id is a reverse
    topological sweep.  After ``backward`` a leaf's ``grad`` is an array, or
    a RowGrad when the leaf was read only through ``gather_rows``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_id", "op")

    def __init__(self, data, requires_grad=False, parents=(), vjp=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.grad = None
        self._parents = tuple(parents)
        self._vjp = vjp
        self._id = next(_ids)
        self.op = op

    def zero_grad(self):
        self.grad = None


def tensor(data, requires_grad=False) -> Tensor:
    """Create a leaf tensor; rejects non-finite values."""
    t = Tensor(data, requires_grad=requires_grad)
    if not np.all(np.isfinite(t.data)):
        raise ValueError("tensor values must be finite")
    return t


def _out(data, parents, vjp, op):
    if any(p.requires_grad for p in parents):
        return Tensor(data, True, parents, vjp, op)
    return Tensor(data, op=op)


# ---------------------------------------------------------------------------
# elementwise and linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also supports adding a vector bias to matrix rows."""
    if a.data.shape == b.data.shape:
        return _out(a.data + b.data, (a, b), lambda g: (g, g), "add")
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        return _out(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)), "add")
    raise ValueError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub: incompatible shapes {a.data.shape} and {b.data.shape}")
    return _out(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")
    return _out(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data), "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _out(a.data * c, (a,), lambda g: (g * c,), "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard [m,k] @ [k,n] product."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    return _out(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g), "matmul")


def matvec(a: Tensor, x: Tensor) -> Tensor:
    """[m,n] @ [n] -> [m]."""
    if a.data.ndim != 2 or x.data.ndim != 1 or a.data.shape[1] != x.data.shape[0]:
        raise ValueError(f"matvec: incompatible shapes {a.data.shape} and {x.data.shape}")
    return _out(a.data @ x.data, (a, x), lambda g: (np.outer(g, x.data), a.data.T @ g), "matvec")


def vecmat(w: Tensor, v: Tensor) -> Tensor:
    """[n] @ [n,d] -> [d]; the weighted sum of the rows of v."""
    if w.data.ndim != 1 or v.data.ndim != 2 or w.data.shape[0] != v.data.shape[0]:
        raise ValueError(f"vecmat: incompatible shapes {w.data.shape} and {v.data.shape}")
    return _out(w.data @ v.data, (w, v), lambda g: (v.data @ g, np.outer(w.data, g)), "vecmat")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError("transpose expects a matrix")
    return _out(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ValueError(f"dot: incompatible shapes {a.data.shape} and {b.data.shape}")
    return _out(np.dot(a.data, b.data), (a, b), lambda g: (g * b.data, g * a.data), "dot")


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _out(y, (a,), lambda g: (g * (1.0 - y * y),), "tanh")


def softplus(a: Tensor) -> Tensor:
    """ln(1 + e^x) computed without overflow; gradient is the sigmoid."""
    y = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    # below about -709 e^-x is inf and the sigmoid its limit 0
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-a.data))
    return _out(y, (a,), lambda g: (g * sig,), "softplus")


def tsum(a: Tensor) -> Tensor:
    return _out(a.data.sum(), (a,), lambda g: (np.full_like(a.data, float(g)),), "sum")


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    return _out(a.data.mean(), (a,), lambda g: (np.full_like(a.data, float(g) / n),), "mean")


# ---------------------------------------------------------------------------
# shape plumbing


def stack(scalars: Sequence[Tensor]) -> Tensor:
    """Stack scalar tensors into a vector."""
    if not scalars:
        raise ValueError("stack needs at least one tensor")
    for s in scalars:
        if s.data.ndim != 0:
            raise ValueError("stack expects scalar tensors")
    return _out(np.array([s.data for s in scalars]), tuple(scalars), tuple, "stack")


def stack_rows(vecs: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one per row."""
    if not vecs:
        raise ValueError("stack_rows needs at least one vector")
    d = vecs[0].data.shape
    for v in vecs:
        if v.data.ndim != 1 or v.data.shape != d:
            raise ValueError("stack_rows expects equal-length vectors")
    return _out(np.stack([v.data for v in vecs]), tuple(vecs), tuple, "stack_rows")


def concat_cols(mats: Sequence[Tensor]) -> Tensor:
    """Concatenate matrices along columns."""
    if not mats:
        raise ValueError("concat_cols needs at least one matrix")
    data = np.concatenate([m.data for m in mats], axis=1)
    offs = np.cumsum([0] + [m.data.shape[1] for m in mats])
    return _out(data, tuple(mats), lambda g: tuple(g[:, s:e] for s, e in zip(offs, offs[1:])), "concat_cols")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError("slice_cols expects a matrix")

    def vjp(g):
        out = np.zeros_like(a.data)
        out[:, start:stop] = g
        return (out,)

    return _out(a.data[:, start:stop].copy(), (a,), vjp, "slice_cols")


def _scatter_sums(inv: np.ndarray, n: int, vals: np.ndarray) -> np.ndarray:
    """[n, d] sums: row inv[i] of vals added onto row inv[i] of 0.0, in
    order of i, as np.add.at adds.

    The scatter-add runs over the flattened arrays: np.add.at on 1-D data is
    several times faster than on rows, and visits each (row, column) pair in
    the same order."""
    d = vals.shape[1]
    sums = np.zeros((n, d))
    np.add.at(sums.reshape(-1), (inv[:, None] * d + np.arange(d)).reshape(-1), vals.reshape(-1))
    return sums


def _row_sums(idx: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids in `idx`, ascending, and for each the sum of its rows
    of `vals` in order of occurrence, added onto 0.0 as np.add.at adds."""
    rows = np.unique(idx)
    return rows, _scatter_sums(np.searchsorted(rows, idx), rows.size, vals)


def member_row_grad(shape, idx: np.ndarray, member: np.ndarray, vals: np.ndarray) -> RowGrad:
    """The gradient of a leaf table read by one gather per member, rows
    idx[i] of it taking gradient vals[i] for member member[i] (members
    numbered in creation order), as one RowGrad part with the bits of the
    parts those gathers leave.

    The first np.add.at sums each member's rows in the order they occur, as
    each gather's _row_sums does; the second adds the members' sums onto 0.0
    last member first, as backward concatenates the parts and totals adds
    them."""
    n_rows = shape[0]
    # keys ascend by member, last first, then by row
    keys, inv = np.unique((member.max() - member) * n_rows + idx, return_inverse=True)
    sums = _scatter_sums(inv.reshape(-1), keys.size, vals)
    return RowGrad(shape, (_row_sums(keys % n_rows, sums),))


class RowGrad:
    """Row-sparse gradient of a leaf table read through ``gather_rows``.

    ``parts`` holds one ``(rows, sums)`` pair per gather, in contribution
    order: the distinct row ids of that gather and each row's summed
    gradient.  Adding two RowGrads concatenates their parts; adding a dense
    array densifies.  ``totals`` and ``dense`` sum a row's parts in order,
    so they give the same bits as summing the dense per-gather gradients.
    """

    __slots__ = ("shape", "parts")
    # ndarray + RowGrad defers to RowGrad.__radd__ instead of broadcasting
    __array_ufunc__ = None

    def __init__(self, shape, parts):
        self.shape = shape
        self.parts = parts

    def __add__(self, other):
        if isinstance(other, RowGrad):
            return RowGrad(self.shape, self.parts + other.parts)
        return self.dense() + other

    __radd__ = __add__

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct row ids and each row's total gradient."""
        if len(self.parts) == 1:
            return self.parts[0]
        return _row_sums(
            np.concatenate([r for r, _ in self.parts]), np.concatenate([s for _, s in self.parts])
        )

    def dense(self) -> np.ndarray:
        """The full [|V|, d] gradient, zero on rows no gather touched."""
        out = np.zeros(self.shape)
        rows, tot = self.totals()
        out[rows] += tot
        return out


def gather_rows(table: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows of a matrix; the gradient scatter-adds back.

    A leaf table gets a RowGrad over the gathered rows only (duplicates
    summed in ``np.add.at`` order); any other table a dense gradient.
    """
    idx = np.array(indices, dtype=np.intp)
    if table.data.ndim != 2:
        raise ValueError("gather_rows expects a matrix")

    if table._parents:
        def vjp(g):
            out = np.zeros_like(table.data)
            np.add.at(out, idx, g)
            return (out,)
    else:
        def vjp(g):
            return (RowGrad(table.data.shape, (_row_sums(idx, g),)),)

    return _out(table.data[idx], (table,), vjp, "gather_rows")


def take_rows(a: Tensor, key: int | slice) -> Tensor:
    """Row a[key] (an int key) or rows a[key] (a slice) of a matrix, as a
    view; the gradient is zero outside them."""

    def vjp(g):
        out = np.zeros_like(a.data)
        out[key] = g
        return (out,)

    return _out(a.data[key], (a,), vjp, "take_rows")


# ---------------------------------------------------------------------------
# nonlinear kernels


def _softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis (max subtracted before
    exponentiation)."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a: Tensor) -> Tensor:
    """Stable softmax of a vector (max subtracted before exponentiation)."""
    if a.data.ndim != 1:
        raise ValueError("softmax expects a vector")
    s = _softmax(a.data)
    return _out(s, (a,), lambda g: (s * (g - np.dot(g, s)),), "softmax")


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise stable softmax of a matrix."""
    if a.data.ndim != 2:
        raise ValueError("softmax_rows expects a matrix")
    s = _softmax(a.data)
    return _out(s, (a,), lambda g: (s * (g - (g * s).sum(axis=1, keepdims=True)),), "softmax_rows")


def sparsemax_values(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort + threshold)
    of x, or of each vector along the last axis of a stack x.

    Support size k is the largest k with 1 + k*z_(k) > sum_{j<=k} z_(j);
    tau = (sum_{j<=k} z_(j) - 1) / k.  The max of x is subtracted first, which
    makes the computation invariant to a constant shift of the input.  A row
    of a stack gets the bits of its own projection.  Non-finite input raises
    ValueError.
    """
    z = np.asarray(x, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("sparsemax input holds non-finite values")
    z = z - z.max(axis=-1, keepdims=True)
    srt = np.sort(z, axis=-1)[..., ::-1]
    cums = np.cumsum(srt, axis=-1)
    ks = np.arange(1, z.shape[-1] + 1)
    # the last k that meets the rule (k = 1 always does), not the count of them
    k = (ks * (1.0 + ks * srt > cums)).max(axis=-1, keepdims=True)
    tau = (cums[ks == k].reshape(k.shape) - 1.0) / k
    return np.maximum(z - tau, 0.0)


def _sparsemax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """VJP of sparsemax at output p: g minus its mean on the support of p,
    zero off it (Martins & Astudillo 2016)."""
    supp = p > 0.0
    out = np.zeros_like(p)
    out[supp] = g[supp] - g[supp].sum() / supp.sum()
    return out


def sparsemax(a: Tensor) -> Tensor:
    """Sparsemax of a vector; subgradient averages over the support at ties."""
    if a.data.ndim != 1:
        raise ValueError("sparsemax expects a vector")
    p = sparsemax_values(a.data)
    return _out(p, (a,), lambda g: (_sparsemax_grad(p, g),), "sparsemax")


def _check_conv(x: Tensor, filters: Tensor) -> None:
    if x.data.ndim != 2 or filters.data.ndim != 3:
        raise ValueError("conv1d expects x [M,d] and filters [w,d,F]")
    w, d, _ = filters.data.shape
    if w % 2 == 0:
        raise ValueError("conv1d filter width must be odd")
    if x.data.shape[1] != d:
        raise ValueError(f"conv1d: input depth {x.data.shape[1]} != filter depth {d}")


def _conv_same(x: np.ndarray, filt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convolve the last two axes of x [..., M, d] with filters [w, d, F]:
    the zero-padded input and the output [..., M, F]."""
    w, d, nf = filt.shape
    m = x.shape[-2]
    pad = (w - 1) // 2
    xp = np.zeros(x.shape[:-2] + (m + w - 1, d))
    xp[..., pad : pad + m, :] = x
    out = np.zeros(x.shape[:-2] + (m, nf))
    for j in range(w):
        out += np.matmul(xp[..., j : j + m, :], filt[j])
    return xp, out


def _conv_grad_x(g: np.ndarray, xp: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """The input gradient of a same-length convolution at output gradient g
    [M, F]: tap j's g @ filt[j].T, all taps in one np.matmul, added onto the
    padded rows it read in tap order."""
    w, m = filt.shape[0], g.shape[0]
    taps = np.matmul(g, filt.swapaxes(-1, -2))
    gp = np.zeros_like(xp)
    for j in range(w):
        gp[j : j + m] += taps[j]
    pad = (w - 1) // 2
    return gp[pad : pad + m]


def _conv_grad_f(g: np.ndarray, xp: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """The filter gradient at output gradient g [M, F]: tap j's
    xp[j : j + M].T @ g, all taps in one np.matmul over a [w, d, M] view of
    the padded input xp [M + w - 1, d] whose window j is xp[j : j + M].T."""
    w, m, s = filt.shape[0], g.shape[0], xp.strides
    windows = np.ndarray((w, xp.shape[1], m), xp.dtype, xp, 0, (s[0], s[1], s[0]))
    return np.matmul(windows, g)


def _conv_tanh_vjp(g: np.ndarray, y: np.ndarray, xp: np.ndarray, filt: np.ndarray):
    """VJP of conv_tanh at output y [M, F] and padded input xp: the gradients
    of x and of the filters."""
    gc = g * (1.0 - y * y)
    return _conv_grad_x(gc, xp, filt), _conv_grad_f(gc, xp, filt)


def conv1d(x: Tensor, filters: Tensor) -> Tensor:
    """Same-length 1-D convolution over the rows of x.

    x is [M, d], filters is [w, d, F] with odd width w; the input is
    zero-padded by (w-1)/2 rows on each side and no bias is applied.
    """
    _check_conv(x, filters)
    xp, out = _conv_same(x.data, filters.data)
    return _out(
        out,
        (x, filters),
        lambda g: (_conv_grad_x(g, xp, filters.data), _conv_grad_f(g, xp, filters.data)),
        "conv1d",
    )


def conv_tanh(x: Tensor, filters: Tensor) -> Tensor:
    """tanh(conv1d(x, filters)) as one node, with the values of the two ops."""
    _check_conv(x, filters)
    xp, out = _conv_same(x.data, filters.data)
    y = np.tanh(out)
    return _out(y, (x, filters), lambda g: _conv_tanh_vjp(g, y, xp, filters.data), "conv_tanh")


def _additive_forward(r: np.ndarray, at: np.ndarray, b: np.ndarray, q: np.ndarray, weight_fn: str):
    """Additive attention over the rows (second-last axis) of r [..., n, d_r]
    with at = A^T: the pooled rows, the weights and tanh(r at + b)."""
    h = np.tanh(np.matmul(r, at) + b)
    scores = np.matmul(h, q)
    w = _softmax(scores) if weight_fn == "softmax" else sparsemax_values(scores)
    return np.matmul(w[..., None, :], r)[..., 0, :], w, h


def _additive_vjp(g, r, at, q, w, h, weight_fn):
    """VJP of additive attention over r [n, d_r] at output gradient g, given
    its forward at, q, weights w and hidden h: the gradients of the rows (for
    their vecmat use, then their matmul use), A, b and q."""
    gw = r @ g
    gs = w * (gw - np.dot(gw, w)) if weight_fn == "softmax" else _sparsemax_grad(w, gw)
    # x[:, None] * y is np.outer(x, y) without its call overhead
    gh = gs[:, None] * q * (1.0 - h * h)
    return w[:, None] * g, gh @ at.T, (r.T @ gh).T, gh.sum(axis=0), h.T @ gs


def additive_attention(
    rows: Tensor, A: Tensor, b: Tensor, q: Tensor, weight_fn: str = "softmax"
) -> tuple[Tensor, np.ndarray]:
    """Pool the rows r_i of an [n, d_r] matrix under additive attention, as
    one node: returns (sum_i w_i r_i, w) with w = softmax or sparsemax of
    a_i = q^T tanh(A r_i + b).  A is [d_q, d_r], b and q are [d_q]; w is a
    plain array.  The values are those of transpose, matmul, add, tanh,
    matvec, softmax|sparsemax and vecmat applied in turn.  rows is a parent
    twice, once per use (vecmat, then matmul), so its gradient sums in the
    order the separate ops add it.
    """
    if weight_fn not in ("softmax", "sparsemax"):
        raise ValueError(f"unknown weight_fn {weight_fn!r}")
    r = rows.data
    if r.ndim != 2 or A.data.ndim != 2 or r.shape[1] != A.data.shape[1]:
        raise ValueError(f"additive_attention: incompatible shapes {r.shape} and {A.data.shape}")
    if b.data.shape != A.data.shape[:1] or q.data.shape != A.data.shape[:1]:
        raise ValueError(f"additive_attention: b and q must have shape {A.data.shape[:1]}")
    at = A.data.T.copy()
    pooled, w, h = _additive_forward(r, at, b.data, q.data, weight_fn)

    def vjp(g):
        return _additive_vjp(g, r, at, q.data, w, h, weight_fn)

    return _out(pooled, (rows, rows, A, b, q), vjp, "additive_attention"), w


def additive_attention_values(
    rows: np.ndarray, A: np.ndarray, b: np.ndarray, q: np.ndarray, weight_fn: str = "softmax"
) -> tuple[np.ndarray, np.ndarray]:
    """The values of additive_attention for a stack rows [..., n, d_r] of
    matrices: the pooled rows [..., d_r] and the weights [..., n]."""
    return _additive_forward(rows, A.T.copy(), b, q, weight_fn)[:2]


def _merge_heads(s: np.ndarray) -> np.ndarray:
    """A [..., h, M, dh] stack of head outputs as one C-ordered [..., M, h*dh]
    array, head h in its columns: the layout the per-head column writes had,
    which the products that read it keep their bits on."""
    return np.ascontiguousarray(s.swapaxes(-3, -2)).reshape(s.shape[:-3] + (s.shape[-2], -1))


def _self_attention_forward(xd: np.ndarray, layer):
    """Multi-head self-attention over the last two axes of xd [..., M, d],
    all heads at once: the output, the head outputs concatenated and the
    [..., h, M, dh] stacks Q_h and V_h, [..., h, dh, M] K_h^T and
    [..., h, M, M] attention.  Each head's slab is contiguous, as the
    per-head copies were, so every product keeps their bits."""
    h = layer.n_heads
    dh = layer.w_q.data.shape[0] // h
    c = 1.0 / math.sqrt(dh)
    q, k, v = np.matmul(xd, layer.w_q.data), np.matmul(xd, layer.w_k.data), np.matmul(xd, layer.w_v.data)
    split = xd.shape[:-1] + (h, dh)  # [..., M, h, dh]
    qh = np.ascontiguousarray(q.reshape(split).swapaxes(-3, -2))
    vh = np.ascontiguousarray(v.reshape(split).swapaxes(-3, -2))
    kt = np.ascontiguousarray(k.reshape(split).swapaxes(-3, -2).swapaxes(-1, -2))
    a = _softmax(np.matmul(qh, kt) * c)
    z = _merge_heads(np.matmul(a, vh))
    return np.matmul(z, layer.w_o.data) + xd, z, (qh, kt, vh, a)


def multihead_self_attention(x: Tensor, layer) -> tuple[Tensor, list[np.ndarray]]:
    """One multi-head self-attention layer as one node: the Q/K/V
    projections, per-head softmax(Q_h K_h^T / sqrt(d_h)) V_h, the head
    outputs concatenated, then W_o and the residual.  ``layer`` carries
    w_q, w_k, w_v, w_o ([d, d] tensors) and n_heads.  Returns the [M, d]
    output and the [M, M] attention matrix of each head.

    The values are those of the matmul, slice_cols, transpose, scale,
    softmax_rows, concat_cols and add ops in turn.  x is a parent four
    times, once per use (the residual, then V, K and Q), so its gradient
    sums in the order the separate ops add it.
    """
    xd = x.data
    wq, wk, wv, wo = layer.w_q, layer.w_k, layer.w_v, layer.w_o
    d = wq.data.shape[0]
    if xd.ndim != 2 or xd.shape[1] != d:
        raise ValueError(f"multihead_self_attention: input shape {xd.shape} does not match width {d}")
    c = 1.0 / math.sqrt(d // layer.n_heads)
    out, z, (qh, kt, vh, a) = _self_attention_forward(xd, layer)

    def vjp(g):
        gz = g @ wo.data.T
        # go[h] views the head's columns of gz, strided as the slice gz[:, cols]
        go = gz.reshape(xd.shape[0], layer.n_heads, -1).swapaxes(0, 1)
        ga = go @ vh.swapaxes(-1, -2)
        gs = a * (ga - (ga * a).sum(axis=-1, keepdims=True)) * c
        gq = _merge_heads(gs @ kt.swapaxes(-1, -2))
        gk = _merge_heads((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))
        gv = _merge_heads(a.swapaxes(-1, -2) @ go)
        return g, gv @ wv.data.T, gk @ wk.data.T, gq @ wq.data.T, xd.T @ gq, xd.T @ gk, xd.T @ gv, z.T @ g

    return _out(out, (x, x, x, x, wq, wk, wv, wo), vjp, "multihead_self_attention"), list(a)


def multihead_self_attention_values(x: np.ndarray, layer) -> np.ndarray:
    """The output values of multihead_self_attention for a stack x [..., M, d]
    of inputs."""
    return _self_attention_forward(x, layer)[0]


def avg_pool(z: Tensor) -> Tensor:
    """Column mean of an [M, d] matrix -> [d]."""
    if z.data.ndim != 2 or z.data.shape[0] < 1:
        raise ValueError("avg_pool expects a non-empty matrix")
    m = z.data.shape[0]
    return _out(z.data.mean(axis=0), (z,), lambda g: (np.tile(g / m, (m, 1)),), "avg_pool")


def ce_negsample(y_pos: Tensor, y_negs: Tensor | Sequence[Tensor]) -> Tensor:
    """Negative-sampling cross entropy.

    p = exp(y+) / (exp(y+) + sum_j exp(y-_j)) computed with max subtraction;
    the loss is -ln p.  With no negatives p = 1 and the loss (and all
    gradients) are exactly zero.
    """
    if not isinstance(y_negs, Tensor):
        y_negs = stack(list(y_negs)) if len(y_negs) > 0 else tensor(np.zeros(0))
    if y_pos.data.ndim != 0:
        raise ValueError("ce_negsample expects a scalar positive score")
    if y_negs.data.ndim != 1:
        raise ValueError("ce_negsample expects a vector of negative scores")
    scores = np.concatenate(([float(y_pos.data)], y_negs.data))
    m = scores.max()
    e = np.exp(scores - m)
    p = e / e.sum()
    loss = m + np.log(e.sum()) - float(y_pos.data)

    def vjp(g):
        return np.asarray(float(g) * (p[0] - 1.0)), float(g) * p[1:]

    return _out(loss, (y_pos, y_negs), vjp, "ce_negsample")


def mse_matrix(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared elementwise difference of two equal-shape matrices."""
    if pred.data.shape != target.data.shape:
        raise ValueError(
            f"mse_matrix: shape mismatch {pred.data.shape} vs {target.data.shape}"
        )
    diff = pred.data - target.data
    n = diff.size
    return _out(
        (diff * diff).mean(),
        (pred, target),
        lambda g: (float(g) * 2.0 * diff / n, -float(g) * 2.0 * diff / n),
        "mse_matrix",
    )


def softargmax(x: Tensor, beta: float = 1.0) -> Tensor:
    """Differentiable argmax: sum_i softmax(beta*x)_i * i with 0-based i."""
    if beta < 1.0:
        raise ValueError("softargmax requires beta >= 1")
    if x.data.ndim != 1:
        raise ValueError("softargmax expects a vector")
    s = _softmax(beta * x.data)
    idx = np.arange(x.data.size, dtype=np.float64)
    out = float(np.dot(s, idx))
    return _out(
        np.asarray(out),
        (x,),
        lambda g: (float(g) * beta * s * (idx - out),),
        "softargmax",
    )


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """An inverted-dropout mask of the given shape, drawn from rng: 0 with
    probability rate, else 1 / (1 - rate)."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"dropout rate must be in (0, 1), got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


# ---------------------------------------------------------------------------
# reverse pass and the finite-difference oracle


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into the .grad of every leaf
    (a requires_grad tensor with no parents) that the loss depends on.

    Nodes are visited in reverse creation order, which is a reverse
    topological order of the tape by construction.  Each node's VJP runs
    once and gives the gradients of all its parents, which are added onto
    theirs in parent order; the entry of a parent that needs no gradient is
    dropped.  Intermediate gradients stay in a local dict and are never
    written to .grad.  A leaf's .grad may share memory with another gradient
    (add passes g to both parents), so nothing may update a .grad in place.

    A leaf reached only through ``gather_rows`` gets a RowGrad in .grad:
    the parts of every gather, concatenated in contribution order, with
    ``.dense()`` giving the full array.  A leaf also reached by a dense op
    gets a dense array, with the same bits as if every gather had been dense.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    nodes = {}
    stack_ = [loss]
    while stack_:
        node = stack_.pop()
        if node._id in nodes or not node.requires_grad:
            continue
        nodes[node._id] = node
        stack_.extend(node._parents)
    grads: dict[int, np.ndarray] = {loss._id: np.ones_like(loss.data)}
    for nid in sorted(nodes, reverse=True):
        node = nodes[nid]
        g = grads.pop(nid, None)
        if g is None:
            continue
        if not node._parents:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, contrib in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            if parent._id in grads:
                grads[parent._id] = grads[parent._id] + contrib
            else:
                grads[parent._id] = contrib


def sgd_step(params: Sequence[Tensor], lr: float) -> None:
    """One plain gradient-descent update; tensors without a gradient (frozen
    ones, or ones the loss did not reach) are left alone.  A RowGrad
    subtracts lr times each row's total on the gathered rows only, which
    leaves every parameter with the bits of the dense update."""
    for p in params:
        g = p.grad
        if g is None:
            continue
        if isinstance(g, RowGrad):
            rows, tot = g.totals()
            p.data[rows] -= lr * tot
        else:
            p.data -= lr * g
        p.zero_grad()


@contextmanager
def diverging_raises(where: str):
    """Overflow, 0/0 and x/0 raise inside the block instead of warning on
    stderr; that or a ValueError leaves as one ValueError naming `where`."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (ValueError, FloatingPointError) as exc:
        raise ValueError(f"training failed in {where}: {exc}") from exc


def train_step(params: Sequence[Tensor], lr: float, loss_fn: Callable[[], Tensor], where: str) -> Tensor:
    """Build the loss with loss_fn(), then backward and sgd_step, all under
    diverging_raises(where); a non-finite loss raises too, before any
    parameter moves.  Returns the loss."""
    with diverging_raises(where):
        loss = loss_fn()
        if not math.isfinite(float(loss.data)):
            raise ValueError(f"non-finite loss {float(loss.data)}")
        backward(loss)
        sgd_step(params, lr)
    return loss


def grad_check(
    f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5
) -> float:
    """Max relative error between backward() and central differences at x.

    rel err per coordinate is |g_a - g_n| / max(1e-8, |g_a| + |g_n|).
    """
    leaf = Tensor(x.data.copy(), requires_grad=True)
    out = f(leaf)
    backward(out)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
    if isinstance(analytic, RowGrad):
        analytic = analytic.dense()
    flat = leaf.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(Tensor(leaf.data.copy())).data)
        flat[i] = orig - eps
        lo = float(f(Tensor(leaf.data.copy())).data)
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)
    ga = analytic.reshape(-1)
    denom = np.maximum(1e-8, np.abs(ga) + np.abs(numeric))
    return float(np.max(np.abs(ga - numeric) / denom))

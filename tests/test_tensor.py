import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from statutelab import tensor as T
from statutelab.tensor import (
    Tensor,
    backward,
    grad_check,
    tensor,
)
from statutelab.store import load_tensor, save_tensor, tensor_from_bytes, tensor_to_bytes
from statutelab.selftest import simplex_projection_bisection

vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=16
).map(np.array)


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        tensor([1.0, float("nan")])


def test_matmul_identity_and_arithmetic():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(T.matmul(eye, a).data, a.data)
    out = T.matmul(a, Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_softmax_values():
    assert np.allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
    s = T.softmax(Tensor([1.0, 2.0, 3.0])).data
    assert np.allclose(s, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)
    # no overflow on extreme inputs
    s = T.softmax(Tensor([1000.0, 0.0])).data
    assert s[0] > 0.999999 and np.isfinite(s).all()


def test_sparsemax_examples():
    p = T.sparsemax(Tensor([1.0, 0.0, -1.0])).data
    assert np.array_equal(p, [1.0, 0.0, 0.0])
    # uniform input projects to uniform output
    p = T.sparsemax(Tensor([0.3, 0.3, 0.3, 0.3])).data
    assert np.allclose(p, 0.25)


@given(vectors)
def test_softmax_on_simplex(v):
    s = T.softmax(Tensor(v)).data
    assert abs(s.sum() - 1.0) < 1e-12
    assert (s > 0).all()


@given(vectors)
def test_sparsemax_simplex_and_oracle(v):
    p = T.sparsemax(Tensor(v)).data
    assert abs(p.sum() - 1.0) < 1e-12
    assert (p >= 0).all()
    assert np.max(np.abs(p - simplex_projection_bisection(v))) < 1e-8


@given(vectors, st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_sparsemax_translation_invariance(v, c):
    a = T.sparsemax(Tensor(v)).data
    b = T.sparsemax(Tensor(v + c)).data
    assert np.allclose(a, b, atol=1e-9)


def test_sparsemax_fixed_point_on_simplex():
    v = np.array([0.2, 0.5, 0.3])
    assert np.allclose(T.sparsemax(Tensor(v)).data, v, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sparsemax_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="non-finite"):
        T.sparsemax_values(np.array([0.5, bad, 0.1]))


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
def test_stacked_sparsemax_has_the_bits_of_each_row(m, scale):
    rng = np.random.default_rng(m)
    x = rng.normal(0.0, scale, size=(60, m))
    x[:20] = np.round(x[:20] / scale) * scale  # rounded rows: ties
    x[20:30] = x[20:30, :1]  # rows of equal values
    x[30:45] = rng.integers(-12, 1, size=(15, m)) / 10.0  # ties where the support rule is near 0
    want = np.stack([T.sparsemax_values(row) for row in x])
    assert T.sparsemax_values(x).tobytes() == want.tobytes()
    stack = x.reshape(3, 20, m)
    assert T.sparsemax_values(stack).tobytes() == want.reshape(3, 20, m).tobytes()


def test_stacked_sparsemax_takes_the_largest_k_that_meets_the_rule():
    # rounding makes the rule fail at k = 5 and hold again at k = 6, so
    # counting the k that meet it would give a support of 5
    row = np.array([-0.9, -0.9, -0.8, -0.7, -0.9, -0.2])
    z = np.sort(row - row.max())[::-1]
    ks = np.arange(1, 7)
    assert (1.0 + ks * z > np.cumsum(z)).tolist() == [True, True, True, True, False, True]
    want = np.maximum(row - row.max() - (np.cumsum(z)[5] - 1.0) / 6, 0.0)
    assert T.sparsemax_values(row).tobytes() == want.tobytes()
    stack = np.stack([row[::-1], row])
    assert T.sparsemax_values(stack)[1].tobytes() == want.tobytes()


def test_stacked_sparsemax_rejects_a_non_finite_row():
    x = np.zeros((4, 3))
    x[2] = [0.5, np.nan, 0.1]
    with pytest.raises(ValueError, match="sparsemax input holds non-finite values"):
        T.sparsemax_values(x)


def test_conv1d_shapes_and_degenerate_width():
    x = Tensor(np.arange(6.0).reshape(3, 2))
    w1 = Tensor(np.ones((1, 2, 4)))
    out = T.conv1d(x, w1)
    # width-1 filters are a per-position linear map
    assert np.allclose(out.data, x.data @ np.ones((2, 4)))
    with pytest.raises(ValueError):
        T.conv1d(x, Tensor(np.ones((2, 2, 4))))
    zero = T.conv1d(Tensor(np.zeros((4, 2))), Tensor(np.ones((3, 2, 5))))
    assert np.array_equal(zero.data, np.zeros((4, 5)))


def test_avg_pool():
    assert np.array_equal(T.avg_pool(Tensor([[1.0, 3.0], [3.0, 1.0]])).data, [2.0, 2.0])
    assert np.array_equal(T.avg_pool(Tensor([[5.0, 7.0]])).data, [5.0, 7.0])


def test_avg_pool_gradient_is_mean_broadcast():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    probe = rng.normal(size=3)
    backward(T.dot(T.avg_pool(x), Tensor(probe)))
    assert np.allclose(x.grad, np.tile(probe / 4.0, (4, 1)), atol=1e-15)


def test_matmul_gradient_tight_tolerance():
    rng = np.random.default_rng(2)
    b = Tensor(rng.normal(size=(3, 3)))
    probe = Tensor(rng.normal(size=(3, 3)))
    err = grad_check(
        lambda t: T.tsum(T.mul(T.matmul(t, b), probe)), Tensor(rng.normal(size=(3, 3)))
    )
    assert err < 1e-6


def test_ce_negsample_values():
    zero = T.ce_negsample(Tensor(np.asarray(2.0)), [])
    assert float(zero.data) == 0.0
    half = T.ce_negsample(Tensor(np.asarray(0.0)), Tensor([0.0]))
    assert abs(float(half.data) - math.log(2.0)) < 1e-12
    ex = T.ce_negsample(Tensor(np.asarray(1.0)), Tensor([0.0, -1.0]))
    expect = -math.log(math.e / (math.e + 1.0 + math.exp(-1.0)))
    assert abs(float(ex.data) - expect) < 1e-12


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=0.01, max_value=3))
def test_ce_negsample_decreases_in_positive_score(y, delta):
    negs = Tensor([0.3, -0.7, 1.1])
    lo = float(T.ce_negsample(Tensor(np.asarray(y)), negs).data)
    hi = float(T.ce_negsample(Tensor(np.asarray(y + delta)), negs).data)
    assert hi < lo


def test_mse_matrix():
    a = Tensor(np.zeros((2, 2)))
    b = Tensor(np.ones((2, 2)))
    assert float(T.mse_matrix(a, a).data) == 0.0
    assert float(T.mse_matrix(a, b).data) == 1.0
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    manual = sum((x[i, j] - y[i, j]) ** 2 for i in range(3) for j in range(3)) / 9.0
    assert abs(float(T.mse_matrix(Tensor(x), Tensor(y)).data) - manual) < 1e-12
    with pytest.raises(ValueError):
        T.mse_matrix(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3))))


def test_softargmax():
    assert abs(float(T.softargmax(Tensor([0.0, 0.0]), 1.0).data) - 0.5) < 1e-12
    val = float(T.softargmax(Tensor([0.0, 10.0]), 1.0).data)
    assert abs(val - 1.0 / (1.0 + math.exp(-10.0))) < 1e-9
    # large beta converges to the integer argmax
    val = float(T.softargmax(Tensor([0.3, 1.7, -2.0]), 200.0).data)
    assert abs(val - 1.0) < 1e-9
    with pytest.raises(ValueError):
        T.softargmax(Tensor([0.0, 1.0]), 0.5)


def test_backward_examples():
    x = Tensor(np.asarray(3.0), requires_grad=True)
    backward(T.mul(x, x))
    assert float(x.grad) == 6.0
    # constant loss gives zero gradients
    y = Tensor(np.asarray(2.0), requires_grad=True)
    backward(T.scale(T.sub(y, y), 5.0))
    assert float(y.grad) == 0.0
    with pytest.raises(ValueError):
        backward(Tensor(np.zeros(3), requires_grad=True))


def test_backward_accumulates_shared_subexpressions():
    x = Tensor(np.asarray(2.0), requires_grad=True)
    y = T.mul(x, x)
    loss = T.add(y, y)  # d/dx (2x^2) = 4x
    backward(loss)
    assert float(x.grad) == 8.0


def test_grad_check_composite_and_negative_control():
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(4, 3)))

    def f(x):
        return T.ce_negsample(
            T.dot(T.softmax(T.matvec(w, x)), Tensor([0.1, -0.2, 0.7, 0.4])),
            Tensor([0.2, -0.5]),
        )

    assert grad_check(f, Tensor(rng.normal(size=3))) < 1e-6

    def wrong(x):
        # deliberately corrupt gradient: forward ok, backward doubled
        out = T.dot(x, x)
        return Tensor(out.data, parents=(x,), vjps=(lambda g: 4.0 * g * x.data,), op="bad")

    assert grad_check(wrong, Tensor(rng.normal(size=3))) > 0.1


def test_dropout_identity_and_scaling():
    rng = np.random.default_rng(0)
    mask = T.dropout_mask((50, 4), 0.5, rng)
    assert mask.shape == (50, 4) and set(np.unique(mask)) == {0.0, 2.0}
    for rate in (0.0, 1.0):
        with pytest.raises(ValueError, match="dropout rate must be in"):
            T.dropout_mask((2, 2), rate, rng)


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    for shape in [(), (4,), (2, 3), (2, 3, 4)]:
        t = Tensor(rng.normal(size=shape))
        blob = tensor_to_bytes(t)
        assert blob[:5] == b"SLTN1"
        back = tensor_from_bytes(blob)
        assert back.data.shape == t.data.shape
        assert np.array_equal(back.data, t.data)
    path = tmp_path / "t.sltn"
    t = Tensor(rng.normal(size=(3, 2)))
    save_tensor(t, path)
    assert np.array_equal(load_tensor(path).data, t.data)


def test_kernels_bit_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=16)
    a = T.sparsemax(Tensor(x)).data.tobytes()
    b = T.sparsemax(Tensor(x.copy())).data.tobytes()
    assert a == b
    m = rng.normal(size=(5, 5))
    assert T.softmax_rows(Tensor(m)).data.tobytes() == T.softmax_rows(Tensor(m.copy())).data.tobytes()


def _dense_gather(table, indices):
    """gather_rows with a dense scatter-add gradient for every table: the
    reference for the row-gradient path."""
    idx = np.asarray(list(indices), dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(table.data)
        np.add.at(out, idx, g)
        return out

    return T._out(table.data[idx], (table,), (vjp,), "gather_rows")


def _gather_loss(t, gather, idx1, idx2, rng, dense_use):
    """Gather t three times (idx1, idx2, idx1 again), with a matmul read of
    all of t after the first when `dense_use`, so backward meets row, row,
    dense, row contributions and the order of a row's parts matters."""
    d = t.data.shape[1]
    loss = T.tsum(T.mul(T.tanh(gather(t, idx1)), Tensor(rng.normal(size=(len(idx1), d)))))
    if dense_use:
        w, probe = rng.normal(size=(d, 2)), rng.normal(size=(t.data.shape[0], 2))
        loss = T.add(loss, T.tsum(T.mul(T.matmul(t, Tensor(w)), Tensor(probe))))
    for idx in (idx2, idx1):
        loss = T.add(loss, T.tsum(T.mul(gather(t, idx), Tensor(rng.normal(size=(len(idx), d))))))
    return loss


@pytest.mark.parametrize("dense_use", [False, True])
def test_gather_rows_gradient_matches_dense_reference_bit_for_bit(dense_use):
    rng = np.random.default_rng(5)
    for case in range(30):
        v, d = int(rng.integers(3, 12)), int(rng.integers(1, 6))
        data = rng.normal(size=(v, d))
        idx1 = rng.integers(0, v, size=int(rng.integers(1, 8))).tolist() + [1, 1]
        idx2 = rng.integers(0, v, size=int(rng.integers(1, 8))).tolist() + [1]
        grads = []
        # sparse path on the leaf, the reference, and a non-leaf table
        for make, gather in ((lambda t: t, T.gather_rows), (lambda t: t, _dense_gather),
                             (lambda t: T.scale(t, 1.0), T.gather_rows)):
            t = Tensor(data.copy(), requires_grad=True)
            backward(_gather_loss(make(t), gather, idx1, idx2, np.random.default_rng(case), dense_use))
            grads.append(t.grad)
        sparse, dense, via_node = grads
        assert isinstance(dense, np.ndarray) and isinstance(via_node, np.ndarray)
        if dense_use:
            assert isinstance(sparse, np.ndarray)
        else:
            assert isinstance(sparse, T.RowGrad) and len(sparse.parts) == 3
            rows, _ = sparse.totals()
            assert rows.tolist() == sorted(set(idx1) | set(idx2))
            sparse = sparse.dense()
        assert sparse.tobytes() == dense.tobytes()
        assert via_node.tobytes() == dense.tobytes()


def test_sgd_step_on_row_gradient_changes_only_gathered_rows():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(12, 4))
    idx1, idx2 = [3, 7, 3, 3, 0], [7, 9, 0]
    tables = []
    for gather in (T.gather_rows, _dense_gather):
        t = Tensor(data.copy(), requires_grad=True)
        backward(_gather_loss(t, gather, idx1, idx2, np.random.default_rng(1), dense_use=False))
        tables.append(t)
    sparse, dense = tables
    assert isinstance(sparse.grad, T.RowGrad)
    T.sgd_step([sparse, dense], 0.3)
    assert sparse.grad is None and dense.grad is None
    assert sparse.data.tobytes() == dense.data.tobytes()
    touched = sorted(set(idx1) | set(idx2))
    untouched = [r for r in range(12) if r not in touched]
    assert sparse.data[untouched].tobytes() == data[untouched].tobytes()
    assert (sparse.data[touched] != data[touched]).all()


def test_gradcheck_suite_checks_gather_rows_with_repeated_rows():
    from statutelab.selftest import gradcheck_suite

    assert gradcheck_suite(instances=4, seed=3)["gather_rows"] < 1e-6


def test_softplus_step_on_a_very_negative_logit_does_not_raise():
    x = Tensor(np.array(-800.0), requires_grad=True)
    loss = T.train_step([x], 0.1, lambda: T.softplus(x), "softplus")
    assert float(loss.data) == 0.0
    assert float(x.data) == -800.0  # the gradient, sigmoid(-800), is 0


def test_softplus_gradient_is_bit_equal_to_the_sigmoid_where_it_is_finite():
    a = np.linspace(-700.0, 700.0, 14001)
    x = Tensor(a.copy(), requires_grad=True)
    backward(T.tsum(T.softplus(x)))
    assert x.grad.tobytes() == (1.0 / (1.0 + np.exp(-a))).tobytes()

"""Tensor substrate: forward oracles, gradient checks, Adam, RNG."""

import numpy as np
import pytest

from setvae import tensor as T
from helpers import check_op_grad, numeric_grad, rel_err


def test_matmul_identity():
    eye = T.as_tensor(np.eye(2))
    m = T.as_tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    want = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for l in range(7):
                want[i, j] += a[i, l] * b[l, j]
    got = T.matmul(T.as_tensor(a), T.as_tensor(b)).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_error_names_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.as_tensor(np.ones((2, 3))), T.as_tensor(np.ones((2, 3))))
    # (B, heads, n, d_h) operands whose head axes disagree
    with pytest.raises(T.ShapeError, match=r"\(2, 3, 4, 5\).*\(2, 2, 5, 4\)"):
        T.matmul(T.as_tensor(np.ones((2, 3, 4, 5))), T.as_tensor(np.ones((2, 2, 5, 4))))


def test_matmul_gradient():
    rng = np.random.default_rng(12)
    err = check_op_grad(T.matmul, [(4, 6), (6, 3)], rng)
    assert err < 1e-6


def test_matmul_batched_gradient():
    rng = np.random.default_rng(13)
    err = check_op_grad(T.matmul, [(2, 4, 6), (2, 6, 3)], rng)
    assert err < 1e-6
    err = check_op_grad(T.matmul, [(2, 4, 6), (6, 3)], rng)
    assert err < 1e-6


def test_softmax_symmetric():
    out = T.softmax_axis(T.as_tensor([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(6)
    for c in (-3.0, 1e-4, 4.0):
        a = T.softmax_axis(T.as_tensor(x), axis=0).data
        b = T.softmax_axis(T.as_tensor(x + c), axis=0).data
        assert np.max(np.abs(a - b)) < 1e-15
    # much larger shifts would overflow exp without max-subtraction
    big = T.softmax_axis(T.as_tensor(x + 1e4), axis=0).data
    assert np.all(np.isfinite(big))
    a = T.softmax_axis(T.as_tensor(x), axis=0).data
    assert np.max(np.abs(a - big)) < 1e-12


def test_softmax_masked_closed_form():
    out = T.softmax_axis(
        T.as_tensor([1.0, 2.0, 3.0]), axis=0, mask=np.array([True, True, False])
    )
    e = np.exp(1.0)
    assert np.allclose(out.data, [1 / (1 + e), e / (1 + e), 0.0], atol=1e-15)
    assert out.data[2] == 0.0


def test_softmax_slices_sum_to_one():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, 7)) * 5
    mask = rng.random((4, 7)) > 0.3
    mask[:, 0] = True
    out = T.softmax_axis(T.as_tensor(x), axis=1, mask=mask).data
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(out[~mask] == 0.0)


def test_softmax_empty_slice_error():
    with pytest.raises(T.DomainError, match="empty softmax slice"):
        T.softmax_axis(T.as_tensor([[1.0, 2.0]]), axis=1, mask=np.zeros((1, 2), bool))


def test_softmax_gradient():
    rng = np.random.default_rng(16)
    err = check_op_grad(lambda x: T.softmax_axis(x, axis=1), [(3, 5)], rng)
    assert err < 1e-6
    mask = np.array([[True, False, True, True], [True, True, True, False]])
    err = check_op_grad(lambda x: T.softmax_axis(x, axis=1, mask=mask), [(2, 4)], rng)
    assert err < 1e-6


def test_layer_norm_constant_row():
    x = T.as_tensor([[3.0, 3.0, 3.0]])
    out = T.layer_norm(x, T.as_tensor(np.ones(3)), T.as_tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_row_statistics():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4, 8)) * 3 + 1
    out = T.layer_norm(x, T.as_tensor(np.ones(8)), T.as_tensor(np.zeros(8))).data
    assert np.max(np.abs(out.mean(axis=1))) < 1e-12
    assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-3


def test_layer_norm_gradient():
    rng = np.random.default_rng(18)
    err = check_op_grad(T.layer_norm, [(4, 8), (8,), (8,)], rng)
    assert err < 1e-5
    err = check_op_grad(T.layer_norm, [(2, 3, 8), (8,), (8,)], rng)
    assert err < 1e-5


def test_elementwise_forward():
    assert np.array_equal(T.relu(T.as_tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert T.tanh(T.as_tensor(0.0)).data == 0.0
    x = T.as_tensor([1.0, 4.0])
    assert np.allclose(T.div(x, T.as_tensor([2.0, 8.0])).data, [0.5, 0.5])
    assert np.allclose(T.scale(x, -2.0).data, [-2.0, -8.0])


def test_log_domain_error():
    with pytest.raises(T.DomainError):
        T.log(T.as_tensor([1.0, -1.0]))


def test_elementwise_gradients():
    rng = np.random.default_rng(19)
    cases = [
        (T.add, [(3, 4), (3, 4)]),
        (T.sub, [(3, 4), (3, 4)]),
        (T.mul, [(3, 4), (3, 4)]),
        (T.div, [(3, 4), (3, 4)]),
        (T.tanh, [(3, 4)]),
        (T.exp, [(3, 4)]),
        (lambda x: T.scale(x, 2.5), [(3, 4)]),
        (lambda x, r: T.add_row(x, r), [(3, 4), (4,)]),
        (lambda a, b: T.outer_add(a, b), [(2, 3), (2, 5)]),
        (T.normalize_rows, [(3, 4)]),
        (lambda x: T.clamp(x, -0.5, 0.5), [(3, 4)]),
        (T.transpose, [(3, 4)]),
        (lambda x: T.narrow(x, 1, 1, 2), [(3, 4)]),
        (lambda a, b: T.concat([a, b], axis=1), [(3, 2), (3, 4)]),
        (lambda x: T.expand_batch(x, 3), [(2, 4)]),
        (T.affine, [(3, 4), (4, 5), (5,)]),
        (T.affine, [(2, 3, 4), (4, 5), (5,)]),
        (lambda x: T.split_heads(x, 2), [(2, 3, 4)]),
        (T.merge_heads, [(2, 2, 3, 2)]),
        # right side shared across the batch axis of (B, heads, n, d_h)
        (T.matmul, [(2, 3, 4, 5), (3, 5, 2)]),
    ]
    for op, shapes in cases:
        if op in (T.div,):
            # keep denominators away from zero
            rng2 = np.random.default_rng(20)
            a = rng2.standard_normal(shapes[0])
            b = rng2.standard_normal(shapes[1]) + 3.0
            pa, pb = T.parameter(a.copy(), "a"), T.parameter(b.copy(), "b")
            out = op(pa, pb)
            w = rng2.standard_normal(out.shape)
            T.sum_all(T.mul(out, T.as_tensor(w))).backward()
            fa = lambda x: float(np.sum((x / b) * w))
            fb = lambda x: float(np.sum((a / x) * w))
            assert rel_err(pa.grad, numeric_grad(fa, a)) < 1e-6
            assert rel_err(pb.grad, numeric_grad(fb, b)) < 1e-6
            continue
        if op is T.normalize_rows:
            rng3 = np.random.default_rng(21)
            a = rng3.random(shapes[0]) + 0.5
            p = T.parameter(a.copy(), "a")
            out = op(p)
            w = rng3.standard_normal(out.shape)
            T.sum_all(T.mul(out, T.as_tensor(w))).backward()
            f = lambda x: float(np.sum((x / x.sum(-1, keepdims=True)) * w))
            assert rel_err(p.grad, numeric_grad(f, a)) < 1e-6
            continue
        assert check_op_grad(op, shapes, rng) < 1e-6


def test_relu_gradient_off_kink():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((4, 4))
    x[np.abs(x) < 0.1] = 0.5
    p = T.parameter(x.copy(), "x")
    out = T.relu(p)
    w = rng.standard_normal(out.shape)
    T.sum_all(T.mul(out, T.as_tensor(w))).backward()
    f = lambda v: float(np.sum(np.maximum(v, 0.0) * w))
    assert rel_err(p.grad, numeric_grad(f, x)) < 1e-6


def test_reduce_forward():
    x = T.as_tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.reduce_sum(x, axis=1).data, [3.0, 7.0])
    assert np.array_equal(T.reduce_mean(x, axis=0).data, [2.0, 3.0])


def test_reduce_min_tie_break_lowest_index():
    v, idx = T.reduce_min(T.as_tensor([3.0, 1.0, 1.0]), axis=0)
    assert v.data == 1.0
    assert idx == 1


def test_reduce_min_gradient_routes_to_argmin():
    x = T.parameter([3.0, 1.0, 1.0], "x")
    v, _ = T.reduce_min(x, axis=0)
    T.sum_all(v).backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_reduce_gradients():
    rng = np.random.default_rng(23)
    assert check_op_grad(lambda x: T.reduce_sum(x, 1), [(3, 5)], rng) < 1e-6
    assert check_op_grad(lambda x: T.reduce_mean(x, 0), [(3, 5)], rng) < 1e-6
    assert check_op_grad(lambda x: T.reduce_min(x, 1)[0], [(3, 5)], rng) < 1e-6
    assert check_op_grad(T.mean_all, [(3, 5)], rng) < 1e-6


def test_reduce_empty_axis_error():
    with pytest.raises(T.ShapeError):
        T.reduce_sum(T.as_tensor(np.ones((2, 0))), axis=1)


def test_backward_sum_gives_ones():
    x = T.parameter([1.0, 2.0, 3.0], "x")
    T.sum_all(x).backward()
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_hand_derivative():
    x = T.parameter([1.0, 2.0], "x")
    T.sum_all(T.mul(x, x)).backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_two_consumers_accumulates():
    # y = sum(x*x) + 3*sum(x): dy/dx = 2x + 3
    x = T.parameter([1.0, -2.0], "x")
    y = T.add(T.sum_all(T.mul(x, x)), T.scale(T.sum_all(x), 3.0))
    y.backward()
    assert np.array_equal(x.grad, [5.0, -1.0])


def test_backward_accumulates_across_calls():
    x = T.parameter([1.0, 1.0], "x")
    T.sum_all(x).backward()
    T.sum_all(x).backward()
    assert np.array_equal(x.grad, [2.0, 2.0])
    T.zero_grads([x])
    assert x.grad is None


def test_backward_nonscalar_error():
    with pytest.raises(T.ShapeError):
        T.backward(T.as_tensor([1.0, 2.0]))


def test_mask_ops():
    x = T.parameter([[1.0, 2.0], [3.0, 4.0]], "x")
    m = np.array([[1.0, 0.0], [1.0, 1.0]])
    out = T.mask_mul(x, m)
    assert np.array_equal(out.data, [[1.0, 0.0], [3.0, 4.0]])
    T.sum_all(out).backward()
    assert np.array_equal(x.grad, m)

    y = T.mask_fill(T.as_tensor([[1.0, 2.0]]), np.array([[True, False]]), 9.0)
    assert np.array_equal(y.data, [[1.0, 9.0]])


def test_adam_zero_gradient_leaves_parameter():
    p = T.parameter([1.0, 2.0], "w")
    st = T.AdamState()
    T.adam_step({"w": p}, {"w": np.zeros(2)}, st, lr=0.1)
    assert np.array_equal(p.data, [1.0, 2.0])
    assert st.step == 1


def test_adam_first_step_magnitude():
    # with constant gradient g, the bias-corrected first step is lr*g/(|g|+~0)
    for g0 in (0.5, -2.0, 10.0):
        p = T.parameter([0.0], "w")
        T.adam_step({"w": p}, {"w": np.array([g0])}, T.AdamState(), lr=1e-3)
        assert abs(abs(p.data[0]) - 1e-3) < 1e-8
        assert np.sign(p.data[0]) == -np.sign(g0)


def test_adam_nan_gradient_error_names_parameter():
    p = T.parameter([1.0], "w_bad")
    with pytest.raises(FloatingPointError, match="w_bad"):
        T.adam_step({"w_bad": p}, {"w_bad": np.array([np.nan])}, T.AdamState(), 0.1)


def test_adam_deterministic_over_100_steps():
    def run():
        rng = T.Rng(99, "adam")
        p = T.parameter(rng.normal((4, 4)), "w")
        st = T.AdamState()
        for step in range(100):
            g = rng.fork("g", step).normal((4, 4))
            T.adam_step({"w": p}, {"w": g}, st, lr=1e-2)
        return p.data

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_clip_grads_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = T.clip_grads(grads, max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    clipped = T.global_grad_norm(grads)
    assert abs(clipped - 1.0) < 1e-12


def test_rng_streams_are_independent_and_stable():
    a = T.Rng(5, "noise", 0).normal((3,))
    b = T.Rng(5, "noise", 0).normal((3,))
    c = T.Rng(5, "noise", 1).normal((3,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(T.Rng(5).fork("noise", 1).normal((3,)), c)


def test_rng_categorical_frequencies():
    rng = T.Rng(123, "cat")
    draws = rng.categorical(np.array([2 / 3, 1 / 3]), 100_000)
    assert abs(np.mean(draws == 0) - 2 / 3) < 0.01

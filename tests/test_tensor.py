"""Tensor substrate: forward oracles, gradient checks, Adam, RNG."""

import weakref

import numpy as np
import pytest

from setvae import tensor as T
from helpers import (
    check_op_grad, head_weights_composed, merge_heads, multihead_composed,
    numeric_grad, rel_err, split_heads, tape_nodes, zero_grads,
)
from setvae.attention import AttentionParams, multihead, multihead_head_weights


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
        (lambda x: split_heads(x, 2), [(2, 3, 4)]),
        (merge_heads, [(2, 2, 3, 2)]),
        # right side shared across the batch axis of (B, heads, n, d_h)
        (T.matmul, [(2, 3, 4, 5), (3, 5, 2)]),
    ]
    for op, shapes in cases:
        if op in (T.div,):
            # keep denominators away from zero
            rng2 = np.random.default_rng(20)
            a = rng2.standard_normal(shapes[0])
            b = rng2.standard_normal(shapes[1]) + 3.0
            pa = T.Tensor(a.copy(), requires_grad=True)
            pb = T.Tensor(b.copy(), requires_grad=True)
            out = op(pa, pb)
            w = rng2.standard_normal(out.shape)
            T.backward(T.sum_all(T.mul(out, T.as_tensor(w))))
            fa = lambda x: float(np.sum((x / b) * w))
            fb = lambda x: float(np.sum((a / x) * w))
            assert rel_err(pa.grad, numeric_grad(fa, a)) < 1e-6
            assert rel_err(pb.grad, numeric_grad(fb, b)) < 1e-6
            continue
        if op is T.normalize_rows:
            rng3 = np.random.default_rng(21)
            a = rng3.random(shapes[0]) + 0.5
            p = T.Tensor(a.copy(), requires_grad=True)
            out = op(p)
            w = rng3.standard_normal(out.shape)
            T.backward(T.sum_all(T.mul(out, T.as_tensor(w))))
            f = lambda x: float(np.sum((x / x.sum(-1, keepdims=True)) * w))
            assert rel_err(p.grad, numeric_grad(f, a)) < 1e-6
            continue
        assert check_op_grad(op, shapes, rng) < 1e-6


def _attend_cases(rng, dtype=np.float64, d=8):
    """(q, k, v, key_mask, heads) for a single set and a padded batch of
    two, each without and with a key mask, at 1 and 4 heads. Nine keys:
    a sum over eight or more rows rounds by their memory layout."""
    n_q, n_v = 3, 9
    single = np.array([True, False, True, True, False, True, True, True, False])
    batch = np.array([[True] * 4 + [False] * 5, [True] * 9])
    cases = []
    for heads in (1, 4):
        for lead, mask in (((), single), ((2,), batch)):
            q, k, v = (
                rng.standard_normal(lead + (n, d)).astype(dtype)
                for n in (n_q, n_v, n_v)
            )
            cases += [(q, k, v, None, heads), (q, k, v, mask, heads)]
    return cases


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes: np.array_equal takes -0.0 for +0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_attend_matches_composition_bitwise():
    # the fused node keeps the bits of the tape ops it replaces, in f32:
    # the output, the forward-only weights and, through the projections
    # around it, every gradient (a key gradient of another memory layout
    # changes the bits of the key projection's VJP)
    rng = np.random.default_rng(51)
    cases = _attend_cases(rng, np.float32) + _attend_cases(rng, np.float32, d=64)
    for Q, V, _, mask, heads in cases:
        p = AttentionParams.init(Q.shape[-1], heads, T.Init(T.Rng(heads), np.float32))
        params = T.named_params(p, "p")
        for slot in (False, True):
            outs, grads = [], []
            for op in (multihead, multihead_composed):
                leaves = [T.Tensor(a.copy(), requires_grad=True) for a in (Q, V)]
                out = op(*leaves, p, key_mask=mask, slot=slot)
                cot = np.linspace(-1, 1, out.size, dtype=np.float32).reshape(out.shape)
                T.backward(T.sum_all(T.mul(out, T.as_tensor(cot))))
                outs.append(out.data)
                grads.append([l.grad for l in leaves] + [t.grad for t in params.values()])
                zero_grads(params)
            assert outs[0].dtype == np.float32
            assert same_bits(outs[0], outs[1])
            for g, want in zip(*grads):
                # the feed-forward and layer-norm weights are not multihead's
                assert (g is None) == (want is None)
                assert want is None or same_bits(g, want)
            q, k = T.affine(Q, p.W_q, p.b_q), T.affine(V, p.W_k, p.b_k)
            w = T.attention_weights(q, k, heads, key_mask=mask, slot=slot)
            for h in range(heads):
                want = head_weights_composed(q, k, heads, h, key_mask=mask, slot=slot)
                assert same_bits(w[..., h, :, :], want.data)
                assert same_bits(multihead_head_weights(Q, V, p, h, mask, slot), want.data)


def test_attend_gradients():
    rng = np.random.default_rng(52)
    for q, k, v, mask, heads in _attend_cases(rng):
        for slot in (False, True):
            err = check_op_grad(
                lambda *t: T.attend(*t, heads, key_mask=mask, slot=slot),
                None, rng, arrays=[q, k, v],
            )
            assert err < 1e-6, (heads, mask is not None, q.ndim, slot, err)


def test_attend_shape_errors():
    x = T.as_tensor(np.ones((2, 3, 8)))
    with pytest.raises(T.ShapeError, match="cannot split width 8 into 3 heads"):
        T.attend(x, x, x, 3)
    with pytest.raises(T.ShapeError, match="attend shapes do not agree"):
        T.attend(x, T.as_tensor(np.ones((3, 8))), T.as_tensor(np.ones((3, 8))), 2)
    with pytest.raises(T.ShapeError, match="attend shapes do not agree"):
        T.attend(x, x, T.as_tensor(np.ones((2, 4, 8))), 2)
    with pytest.raises(T.DomainError, match="all keys masked"):
        T.attend(x, x, x, 2, key_mask=np.zeros((2, 3), dtype=bool))


def test_reduce_forward():
    x = T.as_tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.reduce_sum(x, axis=1).data, [3.0, 7.0])
    assert np.array_equal(T.reduce_mean(x, axis=0).data, [2.0, 3.0])


def test_reduce_min_tie_break_lowest_index():
    v, idx = T.reduce_min(T.as_tensor([3.0, 1.0, 1.0]), axis=0)
    assert v.data == 1.0
    assert idx == 1


def test_reduce_min_gradient_routes_to_argmin():
    x = T.Tensor([3.0, 1.0, 1.0], requires_grad=True)
    v, _ = T.reduce_min(x, axis=0)
    T.backward(T.sum_all(v))
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_reduce_gradients():
    rng = np.random.default_rng(23)
    assert check_op_grad(lambda x: T.reduce_sum(x, 1), [(3, 5)], rng) < 1e-6
    assert check_op_grad(lambda x: T.reduce_mean(x, 0), [(3, 5)], rng) < 1e-6
    assert check_op_grad(lambda x: T.reduce_min(x, 1)[0], [(3, 5)], rng) < 1e-6


def test_reduce_empty_axis_error():
    with pytest.raises(T.ShapeError):
        T.reduce_sum(T.as_tensor(np.ones((2, 0))), axis=1)


def test_backward_sum_gives_ones():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(T.sum_all(x))
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_hand_derivative():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backward(T.sum_all(T.mul(x, x)))
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_two_consumers_accumulates():
    # y = sum(x*x) + 3*sum(x): dy/dx = 2x + 3
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    y = T.add(T.sum_all(T.mul(x, x)), T.scale(T.sum_all(x), 3.0))
    T.backward(y)
    assert np.array_equal(x.grad, [5.0, -1.0])


def test_backward_accumulates_across_calls():
    x = T.Tensor([1.0, 1.0], requires_grad=True)
    T.backward(T.sum_all(x))
    T.backward(T.sum_all(x))
    assert np.array_equal(x.grad, [2.0, 2.0])
    zero_grads([x])
    T.backward(T.sum_all(x))
    assert np.array_equal(x.grad, [1.0, 1.0])


def test_backward_nonscalar_error():
    with pytest.raises(T.ShapeError):
        T.backward(T.as_tensor([1.0, 2.0]))


def _released_graph(seed):
    """Leaves and an affine -> tanh -> layer_norm -> sum_all loss over them."""
    rng = np.random.default_rng(seed)
    leaves = [
        T.Tensor(rng.standard_normal(shape), requires_grad=True)
        for shape in [(4, 3), (3, 5), (5,), (5,), (5,)]
    ]
    x, w, b, gain, bias = leaves
    h1 = T.affine(x, w, b)
    h2 = T.tanh(h1)
    h3 = T.layer_norm(h2, gain, bias)
    return leaves, [h1, h2, h3], T.sum_all(h3)


def test_backward_releases_the_tape():
    leaves, mids, loss = _released_graph(31)
    arrays = [weakref.ref(t.data) for t in mids]
    value = loss.data.copy()
    del mids
    assert tape_nodes(loss) == 4
    T.backward(loss)
    # the walk dropped every edge and VJP closure, so the forward's
    # intermediates went with them; the loss and the leaves keep their arrays
    assert [r() is None for r in arrays] == [True, True, True]
    assert loss.data == value
    assert tape_nodes(loss) == 0
    fresh, _, fresh_loss = _released_graph(31)
    T.backward(fresh_loss)
    for got, want in zip(leaves, fresh):
        assert got.grad.tobytes() == want.grad.tobytes()


def test_backward_on_a_released_tape_raises():
    leaves, (_, h2, _), loss = _released_graph(32)
    T.backward(loss)
    grads = [p.grad.copy() for p in leaves]
    with pytest.raises(ValueError, match="released"):
        T.backward(loss)
    # a new op on a released output is no leaf either
    with pytest.raises(ValueError, match="released"):
        T.backward(T.sum_all(T.mul(h2, h2)))
    assert h2.grad is None
    for p, g in zip(leaves, grads):
        assert np.array_equal(p.grad, g)


def test_mask_ops():
    x = T.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    m = np.array([[1.0, 0.0], [1.0, 1.0]])
    out = T.mask_mul(x, m)
    assert np.array_equal(out.data, [[1.0, 0.0], [3.0, 4.0]])
    T.backward(T.sum_all(out))
    assert np.array_equal(x.grad, m)

    y = T.mask_fill(T.as_tensor([[1.0, 2.0]]), np.array([[True, False]]), 9.0)
    assert np.array_equal(y.data, [[1.0, 9.0]])


def flat_params(**values):
    """A ParamBuffer over one float64 parameter per keyword, with its
    gradient vector bound."""
    buf = T.ParamBuffer(
        {name: T.Tensor(v, requires_grad=True) for name, v in values.items()}
    )
    buf.fill()
    buf.zero_grad()
    return buf


def test_adam_zero_gradient_leaves_parameter():
    buf = flat_params(w=[1.0, 2.0])
    st = T.AdamState()
    T.adam_step(buf, st, lr=0.1)
    assert np.array_equal(buf.params["w"].data, [1.0, 2.0])
    assert st.step == 1


def test_adam_first_step_magnitude():
    # with constant gradient g, the bias-corrected first step is lr*g/(|g|+~0)
    for g0 in (0.5, -2.0, 10.0):
        buf = flat_params(w=[0.0])
        buf.params["w"].grad[:] = g0
        T.adam_step(buf, T.AdamState(), lr=1e-3)
        w = buf.params["w"].data
        assert abs(abs(w[0]) - 1e-3) < 1e-8
        assert np.sign(w[0]) == -np.sign(g0)


def test_adam_nan_gradient_error_names_parameter():
    buf = flat_params(w_ok=[1.0], w_bad=[1.0])
    buf.params["w_bad"].grad[:] = np.nan
    st = T.AdamState()
    with pytest.raises(FloatingPointError, match="'w_bad'"):
        T.adam_step(buf, st, 0.1)
    assert st.step == 0 and np.array_equal(buf.data, [1.0, 1.0])


def test_adam_deterministic_over_100_steps():
    def run():
        rng = T.Rng(99, "adam")
        buf = flat_params(w=rng.normal((4, 4)))
        st = T.AdamState()
        for step in range(100):
            buf.params["w"].grad[...] = rng.fork("g", step).normal((4, 4))
            T.adam_step(buf, st, lr=1e-2)
        return buf.params["w"].data

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_clip_grads_global_norm():
    buf = flat_params(a=[0.0], b=[0.0])
    buf.grad[:] = [3.0, 4.0]
    norm = T.clip_grads(buf, max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    # max_norm 0 only measures
    assert abs(T.clip_grads(buf, max_norm=0.0) - 1.0) < 1e-12
    assert np.allclose(buf.params["b"].grad, [0.8], atol=1e-12)


def test_param_buffer_layout_puts_trained_first():
    frozen = T.Tensor(np.array([7.0, 8.0]))
    buf = T.ParamBuffer(
        {
            "a": T.Tensor(np.ones((2, 3)), requires_grad=True),
            "k": frozen,
            "b": T.Tensor([5.0], requires_grad=True),
        }
    )
    assert [(s.name, s.span.start, s.shape) for s in buf.layout] == [
        ("a", 0, (2, 3)), ("b", 6, (1,)), ("k", 7, (2,)),
    ]
    assert buf.size == 9 and buf.trained == 7 and buf.data is None
    buf.fill()
    buf.zero_grad()
    assert np.array_equal(buf.data, [1, 1, 1, 1, 1, 1, 5, 7, 8])
    assert all(np.shares_memory(p.data, buf.data) for p in buf.params.values())
    assert frozen.grad is None and buf.grad.shape == (7,)
    # backward adds into the views
    T.backward(T.sum_all(T.scale(buf.params["a"], 2.0)))
    assert np.array_equal(buf.grad, [2, 2, 2, 2, 2, 2, 0])


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

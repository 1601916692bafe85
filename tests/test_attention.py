"""Attention blocks: masking, slot normalization, permutation properties."""

import numpy as np
import pytest

from helpers import multihead_per_head, slot_attention_parts, zero_grads
from setvae import tensor as T
from setvae.attention import (
    AttentionParams,
    ConfigError,
    SetBatch,
    isab,
    mab,
    multihead,
    multihead_head_weights,
)


def make_params(d=8, heads=2, seed=0):
    return AttentionParams.init(d, heads, T.Init(T.Rng(seed, "p")))


def test_params_head_divisibility():
    with pytest.raises(ConfigError):
        AttentionParams.init(6, 4, T.Init(T.Rng(0)))


def test_multihead_single_key_ignores_scores():
    rng = np.random.default_rng(30)
    p = make_params()
    v = T.as_tensor(rng.standard_normal((1, 8)))
    out1 = multihead(T.as_tensor(rng.standard_normal((5, 8))), v, p)
    out2 = multihead(T.as_tensor(rng.standard_normal((5, 8)) * 40), v, p)
    # with one key every weight is 1, so all rows equal the value projection
    assert np.max(np.abs(out1.data - out1.data[0])) < 1e-12
    assert np.max(np.abs(out1.data - out2.data)) < 1e-12


def test_multihead_invariant_to_joint_kv_permutation():
    rng = np.random.default_rng(31)
    p = make_params()
    q = T.as_tensor(rng.standard_normal((4, 8)))
    kv = rng.standard_normal((7, 8))
    base = multihead(q, T.as_tensor(kv), p).data
    for _ in range(20):
        perm = rng.permutation(7)
        out = multihead(q, T.as_tensor(kv[perm]), p).data
        assert np.max(np.abs(out - base)) < 1e-10


def test_multihead_mask_equals_dropping_key():
    rng = np.random.default_rng(32)
    p = make_params()
    q = T.as_tensor(rng.standard_normal((4, 8)))
    kv = rng.standard_normal((6, 8))
    for j in range(6):
        mask = np.ones(6, dtype=bool)
        mask[j] = False
        masked = multihead(q, T.as_tensor(kv), p, key_mask=mask)
        dropped = multihead(q, T.as_tensor(kv[mask]), p)
        assert np.max(np.abs(masked.data - dropped.data)) < 1e-10


def test_multihead_all_keys_masked_error():
    p = make_params()
    x = T.as_tensor(np.zeros((3, 8)))
    with pytest.raises(T.DomainError, match="all keys masked"):
        multihead(x, x, p, key_mask=np.zeros(3, dtype=bool))


def test_multihead_width_mismatch_error():
    p = make_params(d=8)
    with pytest.raises(T.ShapeError):
        multihead(T.as_tensor(np.ones((3, 4))), T.as_tensor(np.ones((3, 4))), p)


def _fused_vs_per_head_cases(rng, d=8, n_q=3, n_v=6):
    """(Q, K, key mask) for a single set, masked and not, and a padded batch."""
    single_mask = np.array([True, True, False, True, True, False])
    batch_mask = np.zeros((2, n_v), dtype=bool)
    batch_mask[0, :4] = True
    batch_mask[1, :] = True
    return [
        (rng.standard_normal((n_q, d)), rng.standard_normal((n_v, d)), None),
        (rng.standard_normal((n_q, d)), rng.standard_normal((n_v, d)), single_mask),
        (rng.standard_normal((2, n_q, d)), rng.standard_normal((2, n_v, d)), batch_mask),
    ]


def _grads(attend, q, kv, p, cot):
    """Gradients of <attend(q, kv), cot> for q, kv and every parameter."""
    leaves = [T.Tensor(a.copy(), requires_grad=True) for a in (q, kv)]
    T.backward(T.sum_all(T.mul(attend(*leaves), cot)))
    params = T.named_params(p, "p")
    grads = [l.grad for l in leaves] + [t.grad for t in params.values()]
    zero_grads(params)
    return grads


def test_fused_heads_match_per_head_loop():
    rng = np.random.default_rng(41)
    for heads in (1, 2, 4):
        p = make_params(d=8, heads=heads, seed=heads)
        for slot in (False, True):
            mode = "slot" if slot else "plain"
            for q, kv, mask in _fused_vs_per_head_cases(rng):
                Q, KV = T.as_tensor(q), T.as_tensor(kv)
                fused = multihead(Q, KV, p, key_mask=mask, slot=slot)
                want, head_w = multihead_per_head(
                    Q, KV, KV, p, key_mask=mask, mode=mode
                )
                assert fused.dtype == np.float64
                assert np.max(np.abs(fused.data - want.data)) < 1e-12
                for h in range(heads):
                    w = multihead_head_weights(Q, KV, p, h, key_mask=mask, slot=slot)
                    assert w.shape == head_w[h].shape
                    assert np.max(np.abs(w - head_w[h].data)) < 1e-12

                cot = T.as_tensor(rng.standard_normal(fused.shape))
                got = _grads(
                    lambda q_, kv_: multihead(q_, kv_, p, key_mask=mask, slot=slot),
                    q, kv, p, cot,
                )
                exp = _grads(
                    lambda q_, kv_: multihead_per_head(
                        q_, kv_, kv_, p, key_mask=mask, mode=mode
                    )[0],
                    q, kv, p, cot,
                )
                for g, e in zip(got, exp):
                    assert (g is None) == (e is None)
                    if e is not None:
                        assert np.max(np.abs(g - e)) < 1e-12


def test_slot_weights_single_slot_uniform():
    rng = np.random.default_rng(33)
    q = T.as_tensor(rng.standard_normal((1, 4)))
    k = T.as_tensor(rng.standard_normal((5, 4)))
    w = slot_attention_parts(q, k)[1]
    assert np.max(np.abs(w.data - 0.2)) < 1e-12
    mask = np.array([True, True, False, True, False])
    w = slot_attention_parts(q, k, key_mask=mask)[1]
    assert np.allclose(w.data[0], [1 / 3, 1 / 3, 0, 1 / 3, 0], atol=1e-12)


def test_slot_normalization_sums():
    rng = np.random.default_rng(34)
    for d_h in (2, 4, 8):
        for masked in (False, True):
            q = T.as_tensor(rng.standard_normal((3, d_h)))
            k = T.as_tensor(rng.standard_normal((9, d_h)))
            mask = None
            if masked:
                mask = rng.random(9) > 0.4
                mask[0] = True
            col, w = slot_attention_parts(q, k, key_mask=mask)
            keep = mask if mask is not None else np.ones(9, dtype=bool)
            assert np.max(np.abs(col.data[:, keep].sum(axis=0) - 1.0)) < 1e-12
            assert np.all(col.data[:, ~keep] == 0.0)
            assert np.max(np.abs(w.data.sum(axis=1) - 1.0)) < 1e-12


def test_mab_shape_and_permutations():
    rng = np.random.default_rng(35)
    p = make_params()
    for n_v in (1, 3, 9):
        q = rng.standard_normal((4, 8))
        v = rng.standard_normal((n_v, 8))
        out = mab(T.as_tensor(q), T.as_tensor(v), p)
        assert out.shape == (4, 8)
        base = out.data
        for _ in range(5):
            pq = rng.permutation(4)
            out_q = mab(T.as_tensor(q[pq]), T.as_tensor(v), p).data
            assert np.max(np.abs(out_q - base[pq])) < 1e-10
            pv = rng.permutation(n_v)
            out_v = mab(T.as_tensor(q), T.as_tensor(v[pv]), p).data
            assert np.max(np.abs(out_v - base)) < 1e-10


def test_isab_properties_across_heads_and_m():
    rng = np.random.default_rng(36)
    d = 8
    for heads in (1, 2, 4):
        for m in (1, 2, 8):
            seed = 100 * heads + m
            p_proj = AttentionParams.init(d, heads, T.Init(T.Rng(seed, "proj")))
            p_broad = AttentionParams.init(d, heads, T.Init(T.Rng(seed, "broad")))
            I = T.Tensor(T.Rng(seed, "I").normal((m, d)), requires_grad=True)
            x = rng.standard_normal((6, d))
            out, h = isab(T.as_tensor(x), I, p_proj, p_broad)
            assert out.shape == (6, d) and h.shape == (m, d)
            for _ in range(5):
                perm = rng.permutation(6)
                out_p, h_p = isab(T.as_tensor(x[perm]), I, p_proj, p_broad)
                assert np.max(np.abs(h_p.data - h.data)) < 1e-10
                assert np.max(np.abs(out_p.data - out.data[perm])) < 1e-10


def test_isab_mask_equals_dropping_elements():
    rng = np.random.default_rng(37)
    d = 8
    p_proj = AttentionParams.init(d, 2, T.Init(T.Rng(1, "proj")))
    p_broad = AttentionParams.init(d, 2, T.Init(T.Rng(1, "broad")))
    I = T.Tensor(T.Rng(1, "I").normal((4, d)), requires_grad=True)
    x = rng.standard_normal((5, d))
    padded = np.zeros((7, d))
    padded[:5] = x
    mask = np.array([True] * 5 + [False] * 2)
    out_m, h_m = isab(T.as_tensor(padded), I, p_proj, p_broad, mask=mask)
    out_d, h_d = isab(T.as_tensor(x), I, p_proj, p_broad)
    assert np.max(np.abs(h_m.data - h_d.data)) < 1e-10
    assert np.max(np.abs(out_m.data[:5] - out_d.data)) < 1e-10


def test_isab_padded_rows_get_zero_gradient():
    rng = np.random.default_rng(38)
    d = 8
    p_proj = AttentionParams.init(d, 2, T.Init(T.Rng(2, "proj")))
    p_broad = AttentionParams.init(d, 2, T.Init(T.Rng(2, "broad")))
    I = T.Tensor(T.Rng(2, "I").normal((3, d)), requires_grad=True)
    padded = np.zeros((6, d))
    padded[:4] = rng.standard_normal((4, d))
    mask = np.array([True] * 4 + [False] * 2)
    x = T.Tensor(padded, requires_grad=True)
    out, _ = isab(x, I, p_proj, p_broad, mask=mask)
    valid = T.mask_mul(out, mask[:, None].astype(float))
    T.backward(T.sum_all(T.mul(valid, valid)))
    assert np.all(x.grad[4:] == 0.0)
    assert np.any(x.grad[:4] != 0.0)


def test_isab_batched_matches_per_set():
    rng = np.random.default_rng(39)
    d = 8
    p_proj = AttentionParams.init(d, 2, T.Init(T.Rng(3, "proj")))
    p_broad = AttentionParams.init(d, 2, T.Init(T.Rng(3, "broad")))
    I = T.Tensor(T.Rng(3, "I").normal((4, d)), requires_grad=True)
    sets = [rng.standard_normal((n, d)) for n in (3, 5)]
    padded = np.zeros((2, 5, d))
    mask = np.zeros((2, 5), dtype=bool)
    for b, s in enumerate(sets):
        padded[b, : len(s)] = s
        mask[b, : len(s)] = True
    out_b, h_b = isab(T.as_tensor(padded), I, p_proj, p_broad, mask=mask)
    for b, s in enumerate(sets):
        out_s, h_s = isab(T.as_tensor(s), I, p_proj, p_broad)
        assert np.max(np.abs(h_b.data[b] - h_s.data)) < 1e-10
        assert np.max(np.abs(out_b.data[b, : len(s)] - out_s.data)) < 1e-10


def test_setbatch_invariant_checked():
    elems = T.as_tensor(np.zeros((2, 3, 2)))
    # one cardinality per set, each in [1, n_max]
    for cards in ([3], [3, 2, 1]):
        with pytest.raises(T.ShapeError, match="cardinalities for a batch of 2"):
            SetBatch(elems, cards)
    for cards in ([0, 2], [2, 4]):
        with pytest.raises(ValueError, match=r"outside \[1, 3\]"):
            SetBatch(elems, cards)
    sb = SetBatch(elems, [3, 1])
    assert sb.size == 2 and sb.n_max == 3
    assert np.array_equal(sb.mask, [[True, True, True], [True, False, False]])
    # an array is stored as a Tensor, so readers need no type check
    sb = SetBatch(np.zeros((1, 3, 2)), [2])
    assert isinstance(sb.elems, T.Tensor) and sb.elems.shape == (1, 3, 2)
    assert np.array_equal(sb.mask, [[True, True, False]])


def test_attention_gradients_flow():
    rng = np.random.default_rng(40)
    p = make_params(d=4, heads=2, seed=9)
    x = T.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    I = T.Tensor(T.Rng(9, "I").normal((2, 4)), requires_grad=True)
    p2 = make_params(d=4, heads=2, seed=10)
    out, h = isab(x, I, p, p2)
    T.backward(T.sum_all(T.mul(out, out)))
    assert x.grad is not None and np.all(np.isfinite(x.grad))
    assert I.grad is not None and np.any(I.grad != 0)
    for name, t in T.named_params(p, "p").items():
        assert t.grad is not None, name

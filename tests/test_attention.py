"""Attention blocks: masking, slot normalization, permutation properties."""

import numpy as np
import pytest

from helpers import multihead_per_head
from setvae import tensor as T
from setvae.attention import (
    AttentionParams,
    ConfigError,
    InducingPoints,
    SetBatch,
    isab,
    mab,
    multihead,
    multihead_head_weights,
    slot_attention_parts,
    slot_attention_weights,
)


def make_params(d=8, heads=2, seed=0):
    return AttentionParams.init(d, heads, T.Rng(seed, "p"))


def test_params_head_divisibility():
    with pytest.raises(ConfigError):
        AttentionParams.init(6, 4, T.Rng(0))


def test_multihead_single_key_ignores_scores():
    rng = np.random.default_rng(30)
    p = make_params()
    v = T.as_tensor(rng.standard_normal((1, 8)))
    out1 = multihead(T.as_tensor(rng.standard_normal((5, 8))), v, v, p)
    out2 = multihead(T.as_tensor(rng.standard_normal((5, 8)) * 40), v, v, p)
    # with one key every weight is 1, so all rows equal the value projection
    assert np.max(np.abs(out1.data - out1.data[0])) < 1e-12
    assert np.max(np.abs(out1.data - out2.data)) < 1e-12


def test_multihead_invariant_to_joint_kv_permutation():
    rng = np.random.default_rng(31)
    p = make_params()
    q = T.as_tensor(rng.standard_normal((4, 8)))
    kv = rng.standard_normal((7, 8))
    base = multihead(q, T.as_tensor(kv), T.as_tensor(kv), p).data
    for _ in range(20):
        perm = rng.permutation(7)
        out = multihead(q, T.as_tensor(kv[perm]), T.as_tensor(kv[perm]), p).data
        assert np.max(np.abs(out - base)) < 1e-10


def test_multihead_mask_equals_dropping_key():
    rng = np.random.default_rng(32)
    p = make_params()
    q = T.as_tensor(rng.standard_normal((4, 8)))
    kv = rng.standard_normal((6, 8))
    for j in range(6):
        mask = np.ones(6, dtype=bool)
        mask[j] = False
        masked = multihead(q, T.as_tensor(kv), T.as_tensor(kv), p, key_mask=mask)
        kept = kv[mask]
        dropped = multihead(q, T.as_tensor(kept), T.as_tensor(kept), p)
        assert np.max(np.abs(masked.data - dropped.data)) < 1e-10


def test_multihead_all_keys_masked_error():
    p = make_params()
    x = T.as_tensor(np.zeros((3, 8)))
    with pytest.raises(T.DomainError, match="all keys masked"):
        multihead(x, x, x, p, key_mask=np.zeros(3, dtype=bool))


def test_multihead_width_mismatch_error():
    p = make_params(d=8)
    with pytest.raises(T.ShapeError):
        multihead(
            T.as_tensor(np.ones((3, 4))),
            T.as_tensor(np.ones((3, 4))),
            T.as_tensor(np.ones((3, 4))),
            p,
        )


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
    """Gradients of <attend(q, kv, kv), cot> for q, kv and every parameter."""
    leaves = [T.parameter(q.copy(), "q"), T.parameter(kv.copy(), "kv")]
    T.sum_all(T.mul(attend(leaves[0], leaves[1], leaves[1]), cot)).backward()
    params = p.named("p")
    grads = [l.grad for l in leaves] + [t.grad for t in params.values()]
    T.zero_grads(params)
    return grads


def test_fused_heads_match_per_head_loop():
    rng = np.random.default_rng(41)
    for heads in (1, 2, 4):
        p = make_params(d=8, heads=heads, seed=heads)
        for mode in ("plain", "slot"):
            for q, kv, mask in _fused_vs_per_head_cases(rng):
                Q, KV = T.as_tensor(q), T.as_tensor(kv)
                fused = multihead(Q, KV, KV, p, key_mask=mask, mode=mode)
                want, head_w = multihead_per_head(
                    Q, KV, KV, p, key_mask=mask, mode=mode
                )
                assert fused.dtype == np.float64
                assert np.max(np.abs(fused.data - want.data)) < 1e-12
                for h in range(heads):
                    w = multihead_head_weights(Q, KV, p, h, key_mask=mask, mode=mode)
                    assert w.shape == head_w[h].shape
                    assert np.max(np.abs(w.data - head_w[h].data)) < 1e-12

                cot = T.as_tensor(rng.standard_normal(fused.shape))
                got = _grads(
                    lambda *a: multihead(*a, p, key_mask=mask, mode=mode),
                    q, kv, p, cot,
                )
                exp = _grads(
                    lambda *a: multihead_per_head(*a, p, key_mask=mask, mode=mode)[0],
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
    w = slot_attention_weights(q, k)
    assert np.max(np.abs(w.data - 0.2)) < 1e-12
    mask = np.array([True, True, False, True, False])
    w = slot_attention_weights(q, k, key_mask=mask)
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
            p_proj = AttentionParams.init(d, heads, T.Rng(seed, "proj"))
            p_broad = AttentionParams.init(d, heads, T.Rng(seed, "broad"))
            ind = InducingPoints.init(m, d, T.Rng(seed, "I"))
            x = rng.standard_normal((6, d))
            out, h = isab(T.as_tensor(x), ind, p_proj, p_broad)
            assert out.shape == (6, d) and h.shape == (m, d)
            for _ in range(5):
                perm = rng.permutation(6)
                out_p, h_p = isab(T.as_tensor(x[perm]), ind, p_proj, p_broad)
                assert np.max(np.abs(h_p.data - h.data)) < 1e-10
                assert np.max(np.abs(out_p.data - out.data[perm])) < 1e-10


def test_isab_mask_equals_dropping_elements():
    rng = np.random.default_rng(37)
    d = 8
    p_proj = AttentionParams.init(d, 2, T.Rng(1, "proj"))
    p_broad = AttentionParams.init(d, 2, T.Rng(1, "broad"))
    ind = InducingPoints.init(4, d, T.Rng(1, "I"))
    x = rng.standard_normal((5, d))
    padded = np.zeros((7, d))
    padded[:5] = x
    mask = np.array([True] * 5 + [False] * 2)
    out_m, h_m = isab(T.as_tensor(padded), ind, p_proj, p_broad, mask=mask)
    out_d, h_d = isab(T.as_tensor(x), ind, p_proj, p_broad)
    assert np.max(np.abs(h_m.data - h_d.data)) < 1e-10
    assert np.max(np.abs(out_m.data[:5] - out_d.data)) < 1e-10


def test_isab_padded_rows_get_zero_gradient():
    rng = np.random.default_rng(38)
    d = 8
    p_proj = AttentionParams.init(d, 2, T.Rng(2, "proj"))
    p_broad = AttentionParams.init(d, 2, T.Rng(2, "broad"))
    ind = InducingPoints.init(3, d, T.Rng(2, "I"))
    padded = np.zeros((6, d))
    padded[:4] = rng.standard_normal((4, d))
    mask = np.array([True] * 4 + [False] * 2)
    x = T.parameter(padded, "x")
    out, _ = isab(x, ind, p_proj, p_broad, mask=mask)
    valid = T.mask_mul(out, mask[:, None].astype(float))
    T.sum_all(T.mul(valid, valid)).backward()
    assert np.all(x.grad[4:] == 0.0)
    assert np.any(x.grad[:4] != 0.0)


def test_isab_batched_matches_per_set():
    rng = np.random.default_rng(39)
    d = 8
    p_proj = AttentionParams.init(d, 2, T.Rng(3, "proj"))
    p_broad = AttentionParams.init(d, 2, T.Rng(3, "broad"))
    ind = InducingPoints.init(4, d, T.Rng(3, "I"))
    sets = [rng.standard_normal((n, d)) for n in (3, 5)]
    padded = np.zeros((2, 5, d))
    mask = np.zeros((2, 5), dtype=bool)
    for b, s in enumerate(sets):
        padded[b, : len(s)] = s
        mask[b, : len(s)] = True
    out_b, h_b = isab(T.as_tensor(padded), ind, p_proj, p_broad, mask=mask)
    for b, s in enumerate(sets):
        out_s, h_s = isab(T.as_tensor(s), ind, p_proj, p_broad)
        assert np.max(np.abs(h_b.data[b] - h_s.data)) < 1e-10
        assert np.max(np.abs(out_b.data[b, : len(s)] - out_s.data)) < 1e-10


def test_setbatch_invariant_checked():
    elems = T.as_tensor(np.zeros((1, 3, 2)))
    with pytest.raises(ValueError, match="prefix"):
        SetBatch(elems, np.array([[True, False, True]]), [2])
    sb = SetBatch(elems, np.array([[True, True, False]]), [2])
    assert sb.size == 1 and sb.n_max == 3


def test_attention_gradients_flow():
    rng = np.random.default_rng(40)
    p = make_params(d=4, heads=2, seed=9)
    x = T.parameter(rng.standard_normal((5, 4)), "x")
    ind = InducingPoints.init(2, 4, T.Rng(9, "I"))
    p2 = make_params(d=4, heads=2, seed=10)
    out, h = isab(x, ind, p, p2)
    T.sum_all(T.mul(out, out)).backward()
    assert x.grad is not None and np.all(np.isfinite(x.grad))
    assert ind.I.grad is not None and np.any(ind.I.grad != 0)
    for name, t in p.named("p").items():
        assert t.grad is not None, name

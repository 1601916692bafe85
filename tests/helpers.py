"""Shared oracles for the test suite: finite differences, brute force,
sampling one set at a time, and the optimizer as a loop over named arrays."""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from setvae import tensor as T
from setvae.checkpoint import load_model


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(float(np.max(np.abs(numeric))), 1e-8)
    return float(np.max(np.abs(analytic - numeric))) / scale


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x (f64 only)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        step = h * (1.0 + abs(flat[i]))
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def check_op_grad(op, shapes, rng, arrays=None, **kwargs) -> float:
    """Max rel err of op's backward vs finite differences.

    `op` maps tensors to a tensor; the loss is a fixed random projection of
    the output so nonuniform cotangents reach every VJP. Pass `arrays` for
    ops whose inputs need a restricted support (positive, off-kink, ...).
    """
    arrs = arrays if arrays is not None else [rng.standard_normal(s) for s in shapes]
    leaves = [T.Tensor(a.copy(), requires_grad=True) for a in arrs]
    out = op(*leaves, **kwargs)
    w = rng.standard_normal(out.shape)
    T.backward(T.sum_all(T.mul(out, T.as_tensor(w))))

    worst = 0.0
    for i, a in enumerate(arrs):
        def f(x, i=i):
            args = [T.as_tensor(v) for v in arrs]
            args[i] = T.as_tensor(x)
            return float(np.sum(op(*args, **kwargs).data * w))

        worst = max(worst, rel_err(leaves[i].grad, numeric_grad(f, a)))
    return worst


def zero_grads(params) -> None:
    """Drop the gradients of ad hoc leaves (a dict's values or a list)."""
    for p in params.values() if isinstance(params, dict) else params:
        p.grad = None


@dataclass
class DictAdamState:
    """Reference Adam state: one moment array per parameter name."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def clip_grads_dict(grads: dict, max_norm: float) -> float:
    """Reference clipping over a dict of gradient arrays: each array's
    float64 sum of squares, summed in dict order; scales the arrays (by
    rebinding) when the norm exceeds max_norm > 0. Returns the norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        s = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * s
    return norm


def adam_step_dict(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam: a loop over named parameters, updating those that
    have an entry in `grads` and rebinding each one's `.data`."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (lr / c1) * m / (np.sqrt(v / c2) + eps)
        p.data = p.data - update.astype(p.data.dtype, copy=False)


def multihead_per_head(Q, K, V, p, key_mask=None, mode="plain"):
    """Reference multihead attention, one head at a time.

    Each head narrows its slice of the q/k/v projections, runs its own
    scores, softmax and weighted sum, and a concat joins the heads before
    the output projection. Returns (output, [weights of each head]).
    """
    d_h = p.W_q.shape[0] // p.heads
    q = T.add_row(T.matmul(Q, p.W_q), p.b_q)
    k = T.add_row(T.matmul(K, p.W_k), p.b_k)
    v = T.add_row(T.matmul(V, p.W_v), p.b_v)
    mask = None
    if key_mask is not None:
        mask = np.asarray(key_mask, dtype=bool)
        mask = mask[..., None, :]  # (n_v,) or (B, n_v) -> one row per query

    outs, weights = [], []
    for h in range(p.heads):
        qh = T.narrow(q, -1, h * d_h, d_h)
        kh = T.narrow(k, -1, h * d_h, d_h)
        vh = T.narrow(v, -1, h * d_h, d_h)
        scores = T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(d_h))
        if mode == "plain":
            w = T.softmax_axis(scores, axis=-1, mask=mask)
        else:
            col = T.softmax_axis(scores, axis=-2)
            if mask is not None:
                col = T.mask_mul(col, mask)
            w = T.normalize_rows(col)
        weights.append(w)
        outs.append(T.matmul(w, vh))
    merged = outs[0] if p.heads == 1 else T.concat(outs, axis=-1)
    return T.add_row(T.matmul(merged, p.W_o), p.b_o), weights


# ----------------------------------------------------------------------
# Reference attention core: the tape ops `T.attend` fuses, one node each
# ----------------------------------------------------------------------

def split_heads(x, heads: int):
    """(..., n, d) -> (..., heads, n, d / heads); head h holds features
    [h * d / heads, (h + 1) * d / heads)."""
    x = T.as_tensor(x)
    if x.ndim < 2 or heads < 1 or x.shape[-1] % heads != 0:
        raise T.ShapeError(f"cannot split shape {x.shape} into {heads} heads")
    lead, n, d = x.shape[:-2], x.shape[-2], x.shape[-1]
    out = np.swapaxes(x.data.reshape(*lead, n, heads, d // heads), -3, -2)
    return T._make(out, (x,), lambda g: (np.swapaxes(g, -3, -2).reshape(x.shape),))


def merge_heads(x):
    """(..., heads, n, d_h) -> (..., n, heads * d_h), inverse of split_heads."""
    x = T.as_tensor(x)
    if x.ndim < 3:
        raise T.ShapeError(f"merge_heads needs a head axis, got shape {x.shape}")
    lead, (heads, n, d_h) = x.shape[:-3], x.shape[-3:]
    out = np.swapaxes(x.data, -3, -2).reshape(*lead, n, heads * d_h)

    def vjp(g):
        return (np.swapaxes(g.reshape(*lead, n, heads, d_h), -3, -2),)

    return T._make(out, (x,), vjp)


def key_mask_for_scores(key_mask, scores_ndim: int):
    """View of a (n_v,) or (B, n_v) key mask that broadcasts against scores
    (n_q, n_v), (B, n_q, n_v) or, with a head axis, (…, heads, n_q, n_v)."""
    if key_mask is None:
        return None
    m = np.asarray(key_mask, dtype=bool)
    if not m.any():
        raise T.DomainError("all keys masked")
    if m.ndim == 1:
        return m
    return m.reshape(m.shape[:1] + (1,) * (scores_ndim - 2) + m.shape[1:])


def slot_parts(scores, mask):
    """Column-normalized weights and their row renormalization.

    The first output softmaxes each key column over the queries, so every
    unmasked column sums to 1 (no key is ignored) and masked columns are
    exactly 0. The second divides each row by its sum, giving the weights
    actually applied to values.
    """
    col_norm = T.softmax_axis(scores, axis=-2)
    if mask is not None:
        col_norm = T.mask_mul(col_norm, mask)
    return col_norm, T.normalize_rows(col_norm)


def scaled_scores(q, k):
    """Scaled dot products q k^T / sqrt(d_h) over the last two axes."""
    return T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(q.shape[-1]))


def attention_weights(scores, key_mask, slot: bool):
    mask = key_mask_for_scores(key_mask, scores.ndim)
    if slot:
        return slot_parts(scores, mask)[1]
    return T.softmax_axis(scores, axis=-1, mask=mask)


def attend_composed(q, k, v, heads, key_mask=None, slot=False):
    """`T.attend` as the composition of tape ops it fuses."""
    w = attention_weights(
        scaled_scores(split_heads(q, heads), split_heads(k, heads)), key_mask, slot
    )
    return merge_heads(T.matmul(w, split_heads(v, heads)))


def multihead_composed(Q, V, p, key_mask=None, slot=False):
    """`multihead` with `attend_composed` for its core."""
    q = T.affine(Q, p.W_q, p.b_q)
    k = T.affine(V, p.W_k, p.b_k)
    v = T.affine(V, p.W_v, p.b_v)
    return T.affine(attend_composed(q, k, v, p.heads, key_mask, slot), p.W_o, p.b_o)


def head_weights_composed(q, k, heads, head, key_mask=None, slot=False):
    """One head's (…, n_q, n_v) weights: that head's narrowed scores, then
    `attention_weights`, as `multihead_head_weights` computed them."""
    s = T.narrow(scaled_scores(split_heads(q, heads), split_heads(k, heads)), -3, head, 1)
    # merging a single head only drops the head axis
    return merge_heads(attention_weights(s, key_mask, slot))


def slot_attention_parts(Q, K, key_mask=None):
    """(column-normalized A', row-renormalized W') of slot attention for raw
    Q and K, through the pieces `multihead(..., slot=True)` runs."""
    s = scaled_scores(Q, K)
    return slot_parts(s, key_mask_for_scores(key_mask, s.ndim))


def tape_nodes(out) -> int:
    """Op outputs (tensors with parents) reachable from `out`, itself
    included: the size of a tape before `backward`, which consumes it."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._parents:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def sample_one_at_a_time(
    ckpt, num_samples, n=None, temperature=1.0, seed=0, fix_latents=False
) -> list:
    """Reference `sample`: one `generate([n])` per set, each from its own
    forks of Rng(seed, "sample"), on the trainable model `load_model` gives."""
    model, _, _ = load_model(ckpt)
    rng = T.Rng(seed, "sample")
    sets, fixed_z = [], None
    for i in range(num_samples):
        k = n if n is not None else model.card_dist.sample(rng.fork("card", i))
        out, lat = model.generate(
            [k], model.draw_noise([k], rng.fork("gen", i)),
            temperature=temperature, fixed_z=fixed_z,
        )
        if fix_latents and fixed_z is None:
            fixed_z = [lvl["z"][0] for lvl in lat.levels]
        sets.append(out.elems.data[0, :k].astype(np.float64))
    return sets


def brute_force_assignment(cost: np.ndarray) -> tuple[float, tuple]:
    """Exact minimum-cost assignment by enumerating all n! permutations."""
    n = cost.shape[0]
    best, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        c = sum(cost[i, perm[i]] for i in range(n))
        if c < best:
            best, best_perm = c, perm
    return float(best), best_perm


def chamfer_loops(x: np.ndarray, y: np.ndarray) -> float:
    """Double-loop Chamfer oracle: two-way squared nearest neighbors."""
    total = 0.0
    for p in x:
        total += min(float(np.sum((p - q) ** 2)) for q in y)
    for q in y:
        total += min(float(np.sum((q - p) ** 2)) for p in x)
    return total

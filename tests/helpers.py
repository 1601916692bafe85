"""Shared oracles for the test suite: finite differences, brute force, and
sampling one set at a time."""

import itertools
import math

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
    leaves = [T.parameter(a.copy(), f"arg{i}") for i, a in enumerate(arrs)]
    out = op(*leaves, **kwargs)
    w = rng.standard_normal(out.shape)
    T.sum_all(T.mul(out, T.as_tensor(w))).backward()

    worst = 0.0
    for i, a in enumerate(arrs):
        def f(x, i=i):
            args = [T.as_tensor(v) for v in arrs]
            args[i] = T.as_tensor(x)
            return float(np.sum(op(*args, **kwargs).data * w))

        worst = max(worst, rel_err(leaves[i].grad, numeric_grad(f, a)))
    return worst


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


def tape_nodes(out) -> int:
    """Op outputs (tensors with parents) reachable from `out`, itself included."""
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

"""Dense tensors with reverse-mode autodiff, Adam, and a counter-based RNG.

Everything downstream (attention blocks, the latent hierarchy, losses) is
built from the ops in this module. Tensors are immutable values: every op
returns a fresh tensor and records its inputs plus a vector-Jacobian
callback, so the tape is rebuilt on each forward pass and variable set
cardinality never invalidates a cached graph.

Shapes: weight matrices and single sets are rank 2, padded batches of sets
rank 3, and attention splits the feature axis into a head axis, so its
scores and head-wise values are rank 4, (B, heads, n, d / heads).
`split_heads` and `merge_heads` move between the two layouts. Elementwise
binary ops require equal shapes. The broadcasts are few and explicit:
`add_row` and `affine` add a row vector to every row, `matmul` broadcasts
all leading axes of its two sides against each other (numpy rules), and
`mask_mul`/`mask_fill` take any mask that broadcasts to their input.
`affine(x, W, b)` computes x @ W + b as a single tape node.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    pass


class DomainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# RNG: counter-based so every draw is a pure function of (seed, path).
# ---------------------------------------------------------------------------


class Rng:
    """Seedable, named, counter-based random stream (Philox).

    ``Rng(seed, "noise", step)`` always yields the same draw sequence for
    the same path, independent of any other stream, which is what makes
    interrupted-and-resumed training bitwise identical to an uninterrupted
    run.
    """

    def __init__(self, seed: int, *path):
        tag = f"{int(seed)}/" + "/".join(str(p) for p in path)
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        key = int.from_bytes(digest[:16], "little")
        self.seed = int(seed)
        self.path = tuple(path)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def fork(self, *path) -> "Rng":
        """Derive an independent stream keyed by the extended path."""
        return Rng(self.seed, *self.path, *path)

    def normal(self, shape=(), dtype=np.float64) -> np.ndarray:
        return self._gen.standard_normal(shape).astype(dtype, copy=False)

    def uniform(self, lo: float, hi: float, shape=(), dtype=np.float64) -> np.ndarray:
        return self._gen.uniform(lo, hi, shape).astype(dtype, copy=False)

    def random(self, shape=()) -> np.ndarray:
        return self._gen.random(shape)

    def integers(self, lo: int, hi: int, shape=()) -> np.ndarray:
        """Uniform integers in [lo, hi)."""
        return self._gen.integers(lo, hi, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def categorical(self, probs: np.ndarray, n: int) -> np.ndarray:
        """n i.i.d. indices with the given probabilities (inverse-CDF)."""
        cdf = np.cumsum(np.asarray(probs, dtype=np.float64))
        cdf[-1] = 1.0
        u = self._gen.random(n)
        return np.searchsorted(cdf, u, side="right").astype(np.int64)


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, name=None, _parents=(), _vjp=None):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"

    # Operator sugar; all routed through the module-level ops.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / other)
        return div(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        backward(self)


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr)


def parameter(data, name: str) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True, name=name)


def _tracked(*parents: Tensor) -> bool:
    return any(p.requires_grad or p._parents for p in parents)


def _make(data, parents, vjp) -> Tensor:
    """Create an op output; the tape edge is dropped for constant inputs."""
    if _tracked(*parents):
        return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over leading axes it gained through broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def backward(loss: Tensor) -> None:
    """Reverse traversal from a scalar loss; accumulates into leaf .grad."""
    if loss.ndim != 0:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")

    # Iterative topological order (tapes can be thousands of nodes deep).
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and (p.requires_grad or p._parents):
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not node._parents:
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad = node.grad + g
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not (p.requires_grad or p._parents):
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


def zero_grads(params) -> None:
    for p in params.values() if isinstance(params, dict) else params:
        p.grad = None


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes do not agree: {a.shape} @ {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul batch sizes differ: {a.shape} @ {b.shape}") from None
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(out, (a, b), vjp)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x (..., d_in), w (d_in, d_out), b (d_out,), one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine shapes do not agree: {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine expects ({w.shape[1]},) bias, got {b.shape}")
    out = x.data @ w.data + b.data

    def vjp(g):
        rows = g.reshape(-1, w.shape[1])
        # one gemm over every row of every set, not one per batch entry
        gw = x.data.reshape(-1, w.shape[0]).T @ rows
        return g @ w.data.T, gw, rows.sum(axis=0)

    return _make(out, (x, w, b), vjp)


def split_heads(x: Tensor, heads: int) -> Tensor:
    """(..., n, d) -> (..., heads, n, d / heads); head h holds features
    [h * d / heads, (h + 1) * d / heads)."""
    x = as_tensor(x)
    if x.ndim < 2 or heads < 1 or x.shape[-1] % heads != 0:
        raise ShapeError(f"cannot split shape {x.shape} into {heads} heads")
    lead, n, d = x.shape[:-2], x.shape[-2], x.shape[-1]
    out = np.swapaxes(x.data.reshape(*lead, n, heads, d // heads), -3, -2)
    return _make(out, (x,), lambda g: (np.swapaxes(g, -3, -2).reshape(x.shape),))


def merge_heads(x: Tensor) -> Tensor:
    """(..., heads, n, d_h) -> (..., n, heads * d_h), inverse of split_heads."""
    x = as_tensor(x)
    if x.ndim < 3:
        raise ShapeError(f"merge_heads needs a head axis, got shape {x.shape}")
    lead, (heads, n, d_h) = x.shape[:-3], x.shape[-3:]
    out = np.swapaxes(x.data, -3, -2).reshape(*lead, n, heads * d_h)

    def vjp(g):
        return (np.swapaxes(g.reshape(*lead, n, heads, d_h), -3, -2),)

    return _make(out, (x,), vjp)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    x = as_tensor(x)
    out = np.swapaxes(x.data, -1, -2)
    return _make(out, (x,), lambda g: (np.swapaxes(g, -1, -2),))


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------


def _require_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op} requires equal shapes, got {a.shape} and {b.shape}")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape(a, b, "add")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape(a, b, "sub")
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape(a, b, "mul")
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape(a, b, "div")
    out = a.data / b.data

    def vjp(g):
        return g / b.data, -g * a.data / (b.data * b.data)

    return _make(out, (a, b), vjp)


def scale(x, c: float) -> Tensor:
    x = as_tensor(x)
    c = float(c)
    return _make(x.data * c, (x,), lambda g: (g * c,))


def add_row(x: Tensor, row: Tensor) -> Tensor:
    """Add a row vector (d,) to every row of x (..., d)."""
    x, row = as_tensor(x), as_tensor(row)
    if row.ndim != 1 or x.shape[-1] != row.shape[0]:
        raise ShapeError(f"add_row expects ({x.shape[-1]},) row, got {row.shape}")
    out = x.data + row.data

    def vjp(g):
        return g, g.reshape(-1, row.shape[0]).sum(axis=0)

    return _make(out, (x, row), vjp)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)
    return _make(out, (x,), lambda g: (g * (x.data > 0),))


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)
    return _make(out, (x,), lambda g: (g * (1.0 - out * out),))


def exp(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.data)
    return _make(out, (x,), lambda g: (g * out,))


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0):
        raise DomainError("log of nonpositive input")
    out = np.log(x.data)
    return _make(out, (x,), lambda g: (g / x.data,))


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    x = as_tensor(x)
    out = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)
    return _make(out, (x,), lambda g: (g * inside,))


def mask_mul(x: Tensor, mask: np.ndarray) -> Tensor:
    """Multiply by a constant array (broadcastable; no gradient to it)."""
    x = as_tensor(x)
    m = np.asarray(mask).astype(x.dtype)
    return _make(x.data * m, (x,), lambda g: (g * m,))


def mask_fill(x: Tensor, keep: np.ndarray, fill: float) -> Tensor:
    """Keep entries where the mask is true, replace the rest by `fill`."""
    x = as_tensor(x)
    k = np.asarray(keep, dtype=bool)
    out = np.where(k, x.data, np.asarray(fill, dtype=x.dtype))
    return _make(out, (x,), lambda g: (g * k,))


def outer_add(a: Tensor, b: Tensor) -> Tensor:
    """out[..., i, j] = a[..., i] + b[..., j]."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"outer_add leading dims differ: {a.shape}, {b.shape}")
    out = a.data[..., :, None] + b.data[..., None, :]

    def vjp(g):
        return g.sum(axis=-1), g.sum(axis=-2)

    return _make(out, (a, b), vjp)


def expand_batch(x: Tensor, batch: int) -> Tensor:
    """Tile a (n, d) tensor to (batch, n, d)."""
    x = as_tensor(x)
    out = np.broadcast_to(x.data, (batch,) + x.shape).copy()
    return _make(out, (x,), lambda g: (g.sum(axis=0),))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.array_split(g, splits, axis=axis))

    return _make(out, tuple(tensors), vjp)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries along one axis starting at `start`."""
    x = as_tensor(x)
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = x.data[idx]

    def vjp(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return _make(out, (x,), vjp)


# ---------------------------------------------------------------------------
# Normalizations and reductions
# ---------------------------------------------------------------------------


def softmax_axis(x: Tensor, axis: int, mask: np.ndarray | None = None) -> Tensor:
    """Softmax along one axis with max-subtraction stabilization.

    Masked entries come out exactly 0 and each slice must keep at least one
    unmasked entry. The mask is a constant (no gradient flows to it).
    """
    x = as_tensor(x)
    ax = axis % x.ndim
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if np.any(~m.any(axis=ax)):
            raise DomainError("empty softmax slice")
        shifted = np.where(m, x.data, -np.inf)
        shifted = shifted - shifted.max(axis=ax, keepdims=True)
        e = np.exp(shifted)
        e = np.where(m, e, 0.0)
    else:
        shifted = x.data - x.data.max(axis=ax, keepdims=True)
        e = np.exp(shifted)
    out = e / e.sum(axis=ax, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=ax, keepdims=True)
        return ((g - inner) * out,)

    return _make(out, (x,), vjp)


def normalize_rows(x: Tensor) -> Tensor:
    """Divide each row (last axis) by its sum. Row sums must be positive."""
    x = as_tensor(x)
    s = x.data.sum(axis=-1, keepdims=True)
    out = x.data / s

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) / s,)

    return _make(out, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the last axis, then affine gain/bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if eps <= 0:
        raise DomainError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain.data * xhat + bias.data

    def vjp(g):
        d = x.shape[-1]
        gx_hat = g * gain.data
        gx = inv * (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
        )
        lead = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return _make(out, (x, gain, bias), vjp)


def _check_axis(x: Tensor, axis: int, op: str) -> int:
    ax = axis % x.ndim
    if x.shape[ax] == 0:
        raise ShapeError(f"{op} over empty axis {axis} of shape {x.shape}")
    return ax


def reduce_sum(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    ax = _check_axis(x, axis, "sum")
    out = x.data.sum(axis=ax, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _make(out, (x,), vjp)


def reduce_mean(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    ax = _check_axis(x, axis, "mean")
    n = x.shape[ax]
    out = x.data.mean(axis=ax, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g / n, x.shape).copy(),)

    return _make(out, (x,), vjp)


def reduce_min(x: Tensor, axis: int) -> tuple[Tensor, np.ndarray]:
    """Min along an axis; gradient is routed to the argmin entry only.

    Ties break toward the lowest index. Returns (values, argmin indices).
    """
    x = as_tensor(x)
    ax = _check_axis(x, axis, "min")
    idx = np.argmin(x.data, axis=ax)
    out = np.take_along_axis(x.data, np.expand_dims(idx, ax), axis=ax).squeeze(ax)

    def vjp(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(
            full, np.expand_dims(idx, ax), np.expand_dims(g, ax), axis=ax
        )
        return (full,)

    return _make(out, (x,), vjp), idx


def sum_all(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum()
    return _make(out, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


def mean_all(x: Tensor) -> Tensor:
    x = as_tensor(x)
    n = x.size
    out = x.data.mean()
    return _make(out, (x,), lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update over named parameters, in place."""
    if lr <= 0:
        raise ValueError("adam_step requires lr > 0")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match parameter "
                f"'{name}' shape {p.data.shape}"
            )
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


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


def clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm."""
    norm = global_grad_norm(grads)
    if max_norm > 0 and norm > max_norm:
        s = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * s
    return norm

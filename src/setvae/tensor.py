"""Dense tensors with reverse-mode autodiff, Adam, and a counter-based RNG.

Everything downstream (attention blocks, the latent hierarchy, losses) is
built from the ops in this module. Op outputs are immutable values: every
op returns a fresh tensor and records its inputs plus a vector-Jacobian
callback, so the tape is rebuilt on each forward pass and variable set
cardinality never invalidates a cached graph. `backward` consumes the
tape it walks, so a step's forward arrays are freed during its own
backward, even while the caller still holds the loss. A leaf is
`Tensor(a, requires_grad=True)`, and only leaves change in place:
`backward(loss)` adds into a leaf's `.grad`, and Adam writes the parameters.

Shapes: weight matrices and single sets are rank 2, padded batches of sets
rank 3. `attend` is the attention core as one node: it splits the feature
axis of its (..., n, d) inputs into a head axis as views, so its scores
and head-wise values are rank 4, (B, heads, n, d / heads), and merges the
heads back into its (..., n_q, d) output. Elementwise binary ops require
equal shapes. The broadcasts are few and explicit:
`add_row` and `affine` add a row vector to every row, `matmul` broadcasts
all leading axes of its two sides against each other (numpy rules), and
`mask_mul`/`mask_fill` take any mask that broadcasts to their input.
`affine(x, W, b)` computes x @ W + b as a single tape node.

Parameters: a model declares its parameters through `Init`, and a
`ParamBuffer` lays them out in one vector, read off their names and shapes
alone. Every parameter's `.data` is a view into that vector, and every
trained parameter's `.grad` a view into a second one, so `backward`
accumulates in place and `clip_grads` and `adam_step` run as whole-vector
ops. `AdamState` holds Adam's two moment vectors, laid out as the
gradient vector.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

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
        self.seed = int(seed)
        self.path = tuple(path)

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        # built on the first draw: a stream that only forks never pays for it
        tag = f"{self.seed}/" + "/".join(str(p) for p in self.path)
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        key = int.from_bytes(digest[:16], "little")
        return np.random.Generator(np.random.Philox(key=key))

    def fork(self, *path) -> "Rng":
        """Derive an independent stream keyed by the extended path."""
        return Rng(self.seed, *self.path, *path)

    def normal(self, shape=(), dtype=np.float64) -> np.ndarray:
        return self._gen.standard_normal(shape).astype(dtype, copy=False)

    def uniform(self, lo: float, hi: float, shape=(), dtype=np.float64) -> np.ndarray:
        return self._gen.uniform(lo, hi, shape).astype(dtype, copy=False)

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
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


class Init:
    """Declares a model's parameters while its dataclasses are built.

    Each call returns a leaf Tensor of the requested shape. With an Rng it
    holds its initial draw, keyed by the fork path as with `Rng` itself.
    Without one (`Init(None, dtype)`, for a model a checkpoint fills) it
    holds a zero-stride placeholder: the layout can then be read off a
    config and checked before anything is allocated or drawn.
    """

    def __init__(self, rng: Rng | None, dtype=np.float64):
        self.rng = rng
        self.dtype = np.dtype(dtype)

    def fork(self, *path) -> "Init":
        return Init(None if self.rng is None else self.rng.fork(*path), self.dtype)

    def _declare(self, shape, draw, trained: bool = True) -> Tensor:
        if self.rng is None:
            data = np.broadcast_to(np.zeros((), self.dtype), shape)
        else:
            data = draw(self.rng)
        return Tensor(data, requires_grad=trained)

    def uniform(self, lo: float, hi: float, shape) -> Tensor:
        return self._declare(shape, lambda r: r.uniform(lo, hi, shape, self.dtype))

    def normal(self, shape) -> Tensor:
        return self._declare(shape, lambda r: r.normal(shape, self.dtype))

    def full(self, value: float, shape, trained: bool = True) -> Tensor:
        """A constant start; `trained=False` declares a parameter that no
        loss reaches, so Adam leaves it out."""
        return self._declare(
            shape, lambda r: np.full(shape, value, self.dtype), trained
        )


def named_params(obj, prefix: str) -> dict[str, Tensor]:
    """Every Tensor under a dataclass or NamedTuple, in field order, keyed by
    its field path `prefix/field[/subfield]`. None and non-tensor fields
    (such as a head count) are skipped. These keys are the checkpoint's
    record names, so a new Tensor field is trained and saved as it stands.
    """
    if isinstance(obj, Tensor):
        return {prefix: obj}
    names = getattr(obj, "_fields", ())  # a NamedTuple's; () for None or an int
    if is_dataclass(obj):
        names = [f.name for f in fields(obj)]
    out = {}
    for name in names:
        out.update(named_params(getattr(obj, name), f"{prefix}/{name}"))
    return out


class Slot(NamedTuple):
    """Where one parameter lives in a `ParamBuffer`: entries `span` of the
    vector, viewed as `shape`."""

    name: str
    span: slice
    shape: tuple


class ParamBuffer:
    """Named parameters as views into one vector `data`.

    The layout is read off the parameters' names, shapes and
    `requires_grad` flags alone: the trained parameters first, in the
    order of `params`, then the others. Adam updates the first `trained`
    entries of `data`, which `grad` and the Adam moments cover. Nothing is
    allocated until `fill`, so a checkpoint's records can be checked
    against the layout first.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.dtype = next(iter(params.values())).dtype
        trained = [n for n, p in params.items() if p.requires_grad]
        rest = [n for n, p in params.items() if not p.requires_grad]
        self.layout, offset = [], 0
        for name in trained + rest:
            shape = tuple(params[name].shape)
            size = math.prod(shape)
            self.layout.append(Slot(name, slice(offset, offset + size), shape))
            offset += size
        self.size = offset
        self.trained_slots = self.layout[: len(trained)]
        self.trained = sum(s.span.stop - s.span.start for s in self.trained_slots)
        self.data = None
        self.grad = None

    def fill(self, values: dict | None = None) -> None:
        """Allocate `data` and make each parameter's view of it its `.data`,
        holding `values[name]`, or by default the parameter's current data."""
        self.data = np.empty(self.size, self.dtype)
        for s in self.layout:
            p = self.params[s.name]
            view = self.data[s.span].reshape(s.shape)
            view[...] = p.data if values is None else values[s.name]
            p.data = view

    def zero_grad(self) -> None:
        """Zero the gradient vector. The first call allocates it and makes
        each trained parameter's view of it its `.grad`, which `backward`
        then adds into."""
        if self.grad is not None:
            self.grad.fill(0)
            return
        self.grad = np.zeros(self.trained, self.dtype)
        for s in self.trained_slots:
            self.params[s.name].grad = self.grad[s.span].reshape(s.shape)


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


_RELEASED = object()  # the `_vjp` of an op output whose tape backward consumed


def backward(loss: Tensor) -> None:
    """Reverse traversal from a scalar loss; accumulates into leaf .grad,
    allocating it on a leaf's first gradient when it is None.

    The walk consumes the tape: each op output it passes gives up its
    parents and VJP, so the forward's arrays are freed as it goes. Every
    tensor keeps its `.data` and every leaf its `.grad`, but a second
    `backward` that reaches a released tensor raises ValueError.
    """
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
        if node._vjp is _RELEASED:
            raise ValueError(
                "backward reached a tensor whose tape an earlier backward "
                "released; run the forward pass again"
            )
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and (p.requires_grad or p._parents):
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    while order:
        node = order.pop()
        parents, vjp = node._parents, node._vjp
        if parents:
            node._parents, node._vjp = (), _RELEASED
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not parents:
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data) + g
                else:  # in place: a parameter's view of ParamBuffer.grad
                    node.grad += g
            continue
        for p, pg in zip(parents, vjp(g)):
            if pg is None or not (p.requires_grad or p._parents):
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


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


def _softmax(x: np.ndarray, ax: int, mask=None) -> np.ndarray:
    """Softmax of an array along axis `ax`, written over `x` and returned;
    masked entries come out +0."""
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if not np.broadcast_to(m, x.shape).any(axis=ax).all():
            raise DomainError("empty softmax slice")
        # masked entries become exp(-inf) = +0, so no second pass zeroes them
        np.copyto(x, -np.inf, where=~m)
    x -= x.max(axis=ax, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=ax, keepdims=True)
    return x


def _softmax_vjp(g: np.ndarray, out: np.ndarray, ax: int) -> np.ndarray:
    gx = g * out
    inner = np.add.reduce(gx, axis=ax, keepdims=True)
    np.subtract(g, inner, out=gx)
    gx *= out
    return gx


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row (last axis) divided by its sum, written over `x`; returns
    `x` and the sums."""
    s = x.sum(axis=-1, keepdims=True)
    x /= s
    return x, s


def _normalize_rows_vjp(g: np.ndarray, out: np.ndarray, s: np.ndarray) -> np.ndarray:
    gx = g * out
    inner = np.add.reduce(gx, axis=-1, keepdims=True)
    np.subtract(g, inner, out=gx)
    gx /= s
    return gx


def softmax_axis(x: Tensor, axis: int, mask: np.ndarray | None = None) -> Tensor:
    """Softmax along one axis with max-subtraction stabilization.

    Masked entries come out exactly 0 and each slice must keep at least one
    unmasked entry. The mask is a constant (no gradient flows to it).
    """
    x = as_tensor(x)
    ax = axis % x.ndim
    out = _softmax(x.data.copy(order="K"), ax, mask)
    return _make(out, (x,), lambda g: (_softmax_vjp(g, out, ax),))


def normalize_rows(x: Tensor) -> Tensor:
    """Divide each row (last axis) by its sum. Row sums must be positive."""
    x = as_tensor(x)
    out, s = _normalize_rows(x.data.copy(order="K"))
    return _make(out, (x,), lambda g: (_normalize_rows_vjp(g, out, s),))


LN_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization over the last axis, then affine gain/bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    # np.add.reduce(...) / d is what np.mean computes, without its wrapper
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    np.multiply(gain.data, xhat, out=out)
    out += bias.data

    def vjp(g):
        gx = g * gain.data
        prod = gx * xhat
        mean_g = np.add.reduce(gx, axis=-1, keepdims=True) / d
        mean_gx = np.add.reduce(prod, axis=-1, keepdims=True) / d
        gx -= mean_g
        np.multiply(xhat, mean_gx, out=prod)
        gx -= prod
        gx *= inv
        lead = tuple(range(g.ndim - 1))
        np.multiply(g, xhat, out=prod)
        return gx, prod.sum(axis=lead), g.sum(axis=lead)

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
    out = np.add.reduce(x.data, axis=ax, keepdims=keepdims) / n

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


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, d) -> (..., heads, n, d / heads) as a view; head h holds
    features [h * d / heads, (h + 1) * d / heads)."""
    *lead, n, d = x.shape
    return np.swapaxes(x.reshape(*lead, n, heads, d // heads), -3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, n, d_h) -> (..., n, heads * d_h), inverse of _split_heads."""
    *lead, heads, n, d_h = x.shape
    return np.swapaxes(x, -3, -2).reshape(*lead, n, heads * d_h)


def _key_mask_view(key_mask, scores_ndim: int):
    """View of a (n_v,) or (B, n_v) key mask that broadcasts against scores
    (…, heads, n_q, n_v)."""
    if key_mask is None:
        return None
    m = np.asarray(key_mask, dtype=bool)
    if not m.any():
        raise DomainError("all keys masked")
    if m.ndim == 1:
        return m
    return m.reshape(m.shape[:1] + (1,) * (scores_ndim - 2) + m.shape[1:])


def _check_attend(q: Tensor, k: Tensor, v: Tensor, heads: int) -> None:
    if q.ndim < 2 or q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1] \
            or v.shape != k.shape:
        raise ShapeError(
            f"attend shapes do not agree: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    if heads < 1 or q.shape[-1] % heads != 0:
        raise ShapeError(f"cannot split width {q.shape[-1]} into {heads} heads")


def _weights(qh: np.ndarray, kh: np.ndarray, key_mask, slot: bool):
    """The (..., heads, n_q, n_v) weights of split heads, the scores'
    scale, and what the slot-mode VJP reads: (column softmax, float mask
    or None, row sums); None in plain mode."""
    c = 1.0 / math.sqrt(qh.shape[-1])
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores *= c
    mask = _key_mask_view(key_mask, scores.ndim)
    if not slot:
        return _softmax(scores, scores.ndim - 1, mask), c, None
    # softmax over the queries, so no key is ignored, then renormalized
    # rows; the kernels write over their input, so two score-sized
    # arrays are alive at peak
    col = _softmax(scores, scores.ndim - 2)
    mf = None if mask is None else mask.astype(col.dtype)
    w, s = _normalize_rows(col.copy() if mf is None else col * mf)
    return w, c, (col, mf, s)


def attention_weights(q, k, heads: int, key_mask=None, slot: bool = False) -> np.ndarray:
    """The (…, heads, n_q, n_v) weights `attend` applies, forward only."""
    q, k = as_tensor(q), as_tensor(k)
    _check_attend(q, k, k, heads)
    return _weights(_split_heads(q.data, heads), _split_heads(k.data, heads),
                    key_mask, slot)[0]


def attend(q, k, v, heads: int, key_mask=None, slot: bool = False) -> Tensor:
    """Scaled dot-product attention of every head at once, as one node.

    q is (..., n_q, d), k and v (..., n_v, d): the projected queries, keys
    and values. Plain mode softmaxes each query's scores over the keys;
    slot mode softmaxes each key's column over the queries, zeroes masked
    key columns and divides each row by its sum. A (n_v,) or (B, n_v)
    `key_mask` marks the valid keys, which alone get weight. Returns the
    weighted values with the heads merged back, (..., n_q, d).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    _check_attend(q, k, v, heads)
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    w, c, slot_parts = _weights(qh, kh, key_mask, slot)
    out = _merge_heads(w @ vh)

    def vjp(g):
        # the VJPs of split, scores, scale, softmax (slot: softmax, mask,
        # row renormalization), weighted sum and merge, in tape order
        g = _split_heads(g, heads)
        gw = g @ np.swapaxes(vh, -1, -2)
        gv = np.swapaxes(w, -1, -2) @ g
        if slot_parts is None:
            gs = _softmax_vjp(gw, w, w.ndim - 1)
        else:
            col, mf, s = slot_parts
            gs = _normalize_rows_vjp(gw, w, s)
            if mf is not None:
                gs = gs * mf
            gs = _softmax_vjp(gs, col, col.ndim - 2)
        gs = gs * c
        gq = gs @ kh
        # the key gradient as the transpose of q^T g, as the unfused ops made
        # it: g^T q holds the same values in another memory layout, which
        # the key projection's VJP rounds differently
        gk = np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2)
        return _merge_heads(gq), _merge_heads(gk), _merge_heads(gv)

    return _make(out, (q, k, v), vjp)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's step count and its two moment vectors, laid out as the
    gradient vector of a `ParamBuffer`; the first step allocates them."""

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


# entries per pass of `adam_step`: the scratch and each vector's slice stay
# in cache, and the scratch stays small
ADAM_CHUNK = 16384


def adam_step(
    buf: ParamBuffer,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of the trained parameters, in place,
    from `buf.grad`. Each op is elementwise, so the chunks round exactly as
    one pass over each parameter's array would."""
    if lr <= 0:
        raise ValueError("adam_step requires lr > 0")
    grad, n = buf.grad, buf.trained
    if not np.isfinite(grad).all():
        for s in buf.trained_slots:
            if not np.isfinite(grad[s.span]).all():
                raise FloatingPointError(f"non-finite gradient for parameter '{s.name}'")
    if state.m is None:
        state.m = np.zeros(n, buf.dtype)
        state.v = np.zeros(n, buf.dtype)
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    scratch = np.empty((2, min(n, ADAM_CHUNK)), buf.dtype)
    for a in range(0, n, ADAM_CHUNK):
        b = min(a + ADAM_CHUNK, n)
        g, m, v = grad[a:b], state.m[a:b], state.v[a:b]
        tmp, update = scratch[:, : b - a]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=tmp)
        m += tmp
        v *= beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - beta2
        v += tmp
        # update = (lr / c1) * m / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.multiply(m, lr / c1, out=update)
        update /= tmp
        buf.data[a:b] -= update


def clip_grads(buf: ParamBuffer, max_norm: float) -> float:
    """The global norm of `buf.grad`, before clipping. When max_norm > 0
    and the norm exceeds it, the gradient is scaled in place to max_norm.

    Each parameter's squares are summed in float64 on their own, and those
    sums added in layout order. Clipping fires on most early steps, so that
    order reaches the parameters' bits.
    """
    grad = buf.grad
    sq = np.empty(max(math.prod(s.shape) for s in buf.trained_slots), np.float64)
    total = 0.0
    for s in buf.trained_slots:
        part = sq[: s.span.stop - s.span.start]
        part[...] = grad[s.span]
        part *= part
        total += float(np.add.reduce(part))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        grad *= max_norm / norm
    return norm

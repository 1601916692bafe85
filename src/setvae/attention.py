"""Permutation-equivariant attention blocks with cardinality masking.

The building blocks, bottom to top:

- ``multihead``: scaled dot-product attention, plain (softmax over keys)
  or slot mode (softmax over queries, then per-query renormalization so
  no key is ignored). Equivariant in Q, invariant in (K, V) jointly. The
  projections are split into a head axis, so all heads run as one batched
  (…, heads, n_q, n_v) score product and one weighted sum, and are merged
  back before the output projection.
- ``mab``: attention + residual on the query + layer norm + affine
  feed-forward + second residual + layer norm.
- ``isab``: two MABs routed through m learned inducing points. The inner
  projection ``h = mab(I, x)`` is invariant to permutations of x, the
  outer broadcast ``mab(x, h)`` is equivariant.

All ops accept a single set (n, d) or a padded batch (B, n, d) with a
boolean key mask marking valid elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ConfigError(ValueError):
    pass


@dataclass
class SetBatch:
    """Padded batch of B sets: elems (B, n_max, dim), mask (B, n_max)."""

    elems: Tensor
    mask: np.ndarray
    cards: list[int]

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.elems.shape[:2] != self.mask.shape:
            raise T.ShapeError(
                f"mask shape {self.mask.shape} does not cover elems "
                f"{self.elems.shape}"
            )
        for b, n in enumerate(self.cards):
            if not (self.mask[b, :n].all() and not self.mask[b, n:].any()):
                raise ValueError(f"mask of set {b} is not a {n}-prefix")

    @property
    def size(self) -> int:
        return self.elems.shape[0]

    @property
    def n_max(self) -> int:
        return self.elems.shape[1]


@dataclass
class AttentionParams:
    """Weights of one MAB: four projections, FF affine, two layer norms."""

    W_q: Tensor
    b_q: Tensor
    W_k: Tensor
    b_k: Tensor
    W_v: Tensor
    b_v: Tensor
    W_o: Tensor
    b_o: Tensor
    ff_w: Tensor
    ff_b: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    heads: int

    @staticmethod
    def init(d: int, heads: int, rng: T.Rng, dtype=np.float64) -> "AttentionParams":
        if d % heads != 0:
            raise ConfigError(f"width {d} not divisible by heads {heads}")
        bound = 1.0 / math.sqrt(d)

        def affine(tag):
            w = rng.fork(tag, "w").uniform(-bound, bound, (d, d), dtype)
            b = rng.fork(tag, "b").uniform(-bound, bound, (d,), dtype)
            return T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)

        W_q, b_q = affine("q")
        W_k, b_k = affine("k")
        W_v, b_v = affine("v")
        W_o, b_o = affine("o")
        ff_w, ff_b = affine("ff")
        ones = np.ones(d, dtype=dtype)
        zeros = np.zeros(d, dtype=dtype)
        return AttentionParams(
            W_q, b_q, W_k, b_k, W_v, b_v, W_o, b_o, ff_w, ff_b,
            T.Tensor(ones.copy(), requires_grad=True),
            T.Tensor(zeros.copy(), requires_grad=True),
            T.Tensor(ones.copy(), requires_grad=True),
            T.Tensor(zeros.copy(), requires_grad=True),
            heads,
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for field in (
            "W_q", "b_q", "W_k", "b_k", "W_v", "b_v", "W_o", "b_o",
            "ff_w", "ff_b", "ln1_g", "ln1_b", "ln2_g", "ln2_b",
        ):
            out[f"{prefix}/{field}"] = getattr(self, field)
        return out


@dataclass
class InducingPoints:
    """m learned seed vectors that queries project a set onto."""

    I: Tensor

    @staticmethod
    def init(m: int, d: int, rng: T.Rng, dtype=np.float64) -> "InducingPoints":
        if m < 1:
            raise ConfigError(f"inducing count must be >= 1, got {m}")
        return InducingPoints(T.Tensor(rng.normal((m, d), dtype), requires_grad=True))

    @property
    def m(self) -> int:
        return self.I.shape[0]

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}/I": self.I}


def _key_mask_for_scores(key_mask, scores_ndim: int):
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


def _slot_parts(scores: Tensor, mask) -> tuple[Tensor, Tensor]:
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


def _scores(q: Tensor, k: Tensor) -> Tensor:
    """Scaled dot products q k^T / sqrt(d_h) over the last two axes."""
    return T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(q.shape[-1]))


def slot_attention_parts(Q: Tensor, K: Tensor, key_mask=None) -> tuple[Tensor, Tensor]:
    """(column-normalized A', row-renormalized W') for raw Q, K."""
    scores = _scores(Q, K)
    return _slot_parts(scores, _key_mask_for_scores(key_mask, scores.ndim))


def slot_attention_weights(Q: Tensor, K: Tensor, key_mask=None) -> Tensor:
    """Attention weights normalized so every key gets total weight 1."""
    return slot_attention_parts(Q, K, key_mask)[1]


def _attention_weights(scores: Tensor, key_mask, mode: str) -> Tensor:
    mask = _key_mask_for_scores(key_mask, scores.ndim)
    if mode == "plain":
        return T.softmax_axis(scores, axis=-1, mask=mask)
    if mode == "slot":
        return _slot_parts(scores, mask)[1]
    raise ConfigError(f"unknown attention mode '{mode}'")


def _head_scores(Q: Tensor, K: Tensor, p: AttentionParams) -> Tensor:
    """Scores of every head at once, (…, heads, n_q, n_v)."""
    q = T.split_heads(T.affine(Q, p.W_q, p.b_q), p.heads)
    k = T.split_heads(T.affine(K, p.W_k, p.b_k), p.heads)
    return _scores(q, k)


def multihead(
    Q: Tensor,
    K: Tensor,
    V: Tensor,
    p: AttentionParams,
    key_mask=None,
    mode: str = "plain",
) -> Tensor:
    """Multihead attention; masked keys receive weight exactly 0."""
    d = p.W_q.shape[0]
    if Q.shape[-1] != d or K.shape[-1] != d or V.shape[-1] != d:
        raise T.ShapeError(
            f"attention width mismatch: Q {Q.shape}, K {K.shape}, "
            f"V {V.shape}, params width {d}"
        )
    if K.shape[:-1] != V.shape[:-1]:
        raise T.ShapeError(f"K/V shapes differ: {K.shape} vs {V.shape}")
    if d % p.heads != 0:
        raise ConfigError(f"width {d} not divisible by heads {p.heads}")

    w = _attention_weights(_head_scores(Q, K, p), key_mask, mode)
    v = T.split_heads(T.affine(V, p.W_v, p.b_v), p.heads)
    return T.affine(T.merge_heads(T.matmul(w, v)), p.W_o, p.b_o)


def multihead_head_weights(
    Q: Tensor,
    K: Tensor,
    p: AttentionParams,
    head: int,
    key_mask=None,
    mode: str = "plain",
) -> Tensor:
    """The (…, n_q, n_v) weight matrix of one head, as multihead applies it."""
    if not (0 <= head < p.heads):
        raise ConfigError(f"head {head} out of range for {p.heads} heads")
    scores = T.narrow(_head_scores(Q, K, p), -3, head, 1)
    # merging a single head only drops the head axis
    return T.merge_heads(_attention_weights(scores, key_mask, mode))


def mab(
    Q: Tensor,
    V: Tensor,
    p: AttentionParams,
    key_mask=None,
    projection_mode: str = "plain",
) -> Tensor:
    """MAB(Q, V) = LN(a + FF(a)) with a = LN(Q + Multihead(Q, V, V))."""
    att = multihead(Q, V, V, p, key_mask=key_mask, mode=projection_mode)
    a = T.layer_norm(T.add(Q, att), p.ln1_g, p.ln1_b)
    ff = T.affine(a, p.ff_w, p.ff_b)
    return T.layer_norm(T.add(a, ff), p.ln2_g, p.ln2_b)


def isab(
    x: Tensor,
    inducing: InducingPoints,
    p_proj: AttentionParams,
    p_broad: AttentionParams,
    mask=None,
) -> tuple[Tensor, Tensor]:
    """ISAB(x) = (MAB(x, h), h) with h = MAB(I, x) in slot projection mode."""
    I = inducing.I
    if x.ndim == 3:
        I = T.expand_batch(I, x.shape[0])
    h = mab(I, x, p_proj, key_mask=mask, projection_mode="slot")
    out = mab(x, h, p_broad)
    return out, h

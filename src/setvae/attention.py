"""Permutation-equivariant attention blocks with cardinality masking.

The building blocks, bottom to top:

- ``multihead(Q, V)``: scaled dot-product attention of Q over V, which
  supplies the keys and the values; plain (softmax over keys) or, with
  ``slot=True``, softmax over queries then per-query renormalization so
  no key is ignored. Equivariant in Q, invariant to permutations of V.
  Four projections around one `T.attend` node, which runs every head
  at once and merges them back before the output projection.
- ``mab(Q, V)``: attention + residual on the query + layer norm + affine
  feed-forward + second residual + layer norm.
- ``project``: the slot MAB ``h = mab(I, x, slot=True)`` that projects a set
  onto the m learned inducing points of the tensor ``I`` (m, d);
  invariant to permutations of x. Every encoder level and every
  bottleneck level projects through it.
- ``isab``: one encoder level, ``project`` then the broadcast
  ``mab(x, h)`` back to the elements, which is equivariant. The deepest
  encoder level has no broadcast block and returns x unchanged.
- ``ISAB``: the weights of one such block, ``(I, proj, broad)``. Encoder
  levels are ISABs, and every bottleneck level holds the same three
  fields, built by the same ``ISAB.init``.

All ops accept a single set (n, d) or a padded batch (B, n, d) with a
boolean key mask marking valid elements. ``SetBatch(elems, cards)`` is
such a batch, its mask derived from the cardinalities by ``card_mask``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ConfigError(ValueError):
    pass


def card_mask(cards, n_max: int) -> np.ndarray:
    """(B, n_max) mask of the valid elements: row b is a cards[b]-prefix."""
    cards = np.asarray(cards)
    if not np.all((cards >= 1) & (cards <= n_max)):
        raise ValueError(f"cardinalities {cards.tolist()} outside [1, {n_max}]")
    return np.arange(n_max) < cards[:, None]


@dataclass
class SetBatch:
    """Padded batch of B sets: elems (B, n_max, dim) and their cardinalities;
    the (B, n_max) validity mask is derived from them."""

    elems: Tensor
    cards: list[int]

    def __post_init__(self):
        self.elems = T.as_tensor(self.elems)
        if len(self.cards) != self.size:
            raise T.ShapeError(
                f"{len(self.cards)} cardinalities for a batch of {self.size} sets"
            )
        self.mask = card_mask(self.cards, self.n_max)

    @property
    def size(self) -> int:
        return self.elems.shape[0]

    @property
    def n_max(self) -> int:
        return self.elems.shape[1]


def init_affine(fan_in: int, fan_out: int, init: T.Init) -> tuple[Tensor, Tensor]:
    """Weight (fan_in, fan_out) and bias, uniform in +-1/sqrt(fan_in)."""
    bound = 1.0 / math.sqrt(fan_in)
    return (
        init.fork("w").uniform(-bound, bound, (fan_in, fan_out)),
        init.fork("b").uniform(-bound, bound, (fan_out,)),
    )


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
    def init(d: int, heads: int, init: T.Init) -> "AttentionParams":
        if d % heads != 0:
            raise ConfigError(f"width {d} not divisible by heads {heads}")
        return AttentionParams(
            *init_affine(d, d, init.fork("q")),
            *init_affine(d, d, init.fork("k")),
            *init_affine(d, d, init.fork("v")),
            *init_affine(d, d, init.fork("o")),
            *init_affine(d, d, init.fork("ff")),
            init.full(1.0, (d,)),
            init.full(0.0, (d,)),
            init.full(1.0, (d,)),
            init.full(0.0, (d,)),
            heads,
        )


class ISAB(NamedTuple):
    """One induced set attention block: m learned inducing points `I`
    (m, d), the projection MAB `proj` and the broadcast MAB `broad`
    (None where the projection h is all the level feeds onward)."""

    I: Tensor
    proj: AttentionParams
    broad: AttentionParams | None

    @staticmethod
    def init(m: int, d: int, heads: int, init: T.Init, broad: bool) -> "ISAB":
        return ISAB(
            init.fork("I").normal((m, d)),
            AttentionParams.init(d, heads, init.fork("proj")),
            AttentionParams.init(d, heads, init.fork("broad")) if broad else None,
        )


def multihead(
    Q: Tensor, V: Tensor, p: AttentionParams, key_mask=None, slot: bool = False
) -> Tensor:
    """Multihead(Q, V, V): V supplies both keys and values; masked keys
    receive weight exactly 0."""
    d = p.W_q.shape[0]
    if Q.shape[-1] != d or V.shape[-1] != d:
        raise T.ShapeError(
            f"attention width mismatch: Q {Q.shape}, V {V.shape}, params width {d}"
        )
    q = T.affine(Q, p.W_q, p.b_q)
    k = T.affine(V, p.W_k, p.b_k)
    v = T.affine(V, p.W_v, p.b_v)
    return T.affine(T.attend(q, k, v, p.heads, key_mask, slot), p.W_o, p.b_o)


def multihead_head_weights(
    Q: Tensor, V: Tensor, p: AttentionParams, head: int, key_mask=None,
    slot: bool = False,
) -> np.ndarray:
    """The (…, n_q, n_v) weight matrix of one head, as multihead applies
    it; forward only, from that head's features alone."""
    if not (0 <= head < p.heads):
        raise ConfigError(f"head {head} out of range for {p.heads} heads")
    d_h = p.W_q.shape[0] // p.heads
    cols = slice(head * d_h, (head + 1) * d_h)
    q = T.affine(Q, p.W_q, p.b_q).data[..., cols]
    k = T.affine(V, p.W_k, p.b_k).data[..., cols]
    return T.attention_weights(q, k, 1, key_mask, slot)[..., 0, :, :]


def mab(
    Q: Tensor, V: Tensor, p: AttentionParams, key_mask=None, slot: bool = False
) -> Tensor:
    """MAB(Q, V) = LN(a + FF(a)) with a = LN(Q + Multihead(Q, V, V))."""
    att = multihead(Q, V, p, key_mask=key_mask, slot=slot)
    a = T.layer_norm(T.add(Q, att), p.ln1_g, p.ln1_b)
    ff = T.affine(a, p.ff_w, p.ff_b)
    return T.layer_norm(T.add(a, ff), p.ln2_g, p.ln2_b)


def project(x: Tensor, I: Tensor, p: AttentionParams, mask=None) -> Tensor:
    """h = MAB(I, x) in slot projection mode, I tiled over a batch x."""
    if x.ndim == 3:
        I = T.expand_batch(I, x.shape[0])
    return mab(I, x, p, key_mask=mask, slot=True)


def isab(
    x: Tensor,
    I: Tensor,
    p_proj: AttentionParams,
    p_broad: AttentionParams | None,
    mask=None,
) -> tuple[Tensor, Tensor]:
    """ISAB(x) = (MAB(x, h), h) with h = project(x); (x, h) without p_broad."""
    h = project(x, I, p_proj, mask=mask)
    if p_broad is None:
        return x, h
    return mab(x, h, p_broad), h

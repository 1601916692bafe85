"""Hierarchical set VAE: initial-set prior, encoder, generator, objective.

Generation: draw a cardinality n from the stored empirical distribution,
draw n i.i.d. initial elements from a learned mixture of Gaussians,
project to model width, then run a stack of attentive bottleneck layers.
Each layer projects its input onto m inducing points, samples a per-level
latent z from a Gaussian read off that projection (level 1 uses a learned
unconditional Gaussian), and broadcasts FF(z) back to the elements.

Inference runs the encoder ISAB stack bottom-up, keeps each level's
projected set h_enc, and reuses the generator top-down with residual
corrections: z ~ N(mu + dmu, sigma * dsigma) where (dmu, log dsigma) is a
learned function of h + h_enc. The initial set is drawn from the prior
(its KL contribution is the constant -log p(n), reported separately).

Randomness enters a pass in one place: `SetVAE.draw_noise(cards, rng)`
draws a `Noise` (the mixture component and the Gaussian noise of every
initial element, one standard normal per latent entry of every level),
and `generate`, `infer` and `attn_assignments` take that `Noise` as
plain arrays. Fixed arrays give a fixed pass.

The objective is two-way squared-nearest-neighbor reconstruction plus a
beta-weighted sum of per-level KL terms.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import (
    ISAB,
    AttentionParams,
    ConfigError,
    SetBatch,
    card_mask,
    init_affine,
    isab,
    mab,
    multihead_head_weights,
    project,
)
from .tensor import Tensor

LOGSIG_LO = -7.0
LOGSIG_HI = 7.0
PAD_DISTANCE = 1e30
ACTIVATIONS = ("none", "tanh01")  # out_activation values, in checkpoint index order


@dataclass
class ModelConfig:
    """Architecture and KL schedule; the checkpoint record keeps this order."""

    d: int = 64
    d_z: int = 16
    heads: int = 4
    K: int = 4
    d0: int = 32
    out_dim: int = 2
    out_activation: str = "tanh01"
    enc_m: tuple = (32, 16, 8, 4, 2)
    gen_m: tuple = (2, 4, 8, 16, 32)
    # the schedule does not shape parameters, and travels through a
    # checkpoint as f32, so `==` compares only the architecture
    beta_max: float = field(default=0.01, compare=False)
    anneal_steps: int = field(default=1000, compare=False)

    def __post_init__(self):
        self.enc_m = tuple(int(m) for m in self.enc_m)
        self.gen_m = tuple(int(m) for m in self.gen_m)
        self.validate()

    @property
    def levels(self) -> int:
        return len(self.gen_m)

    def validate(self):
        if min(self.d, self.d_z, self.d0, self.K, self.heads) < 1:
            raise ConfigError("widths, heads and mixture size must be positive")
        if self.d % self.heads != 0:
            raise ConfigError(f"width {self.d} not divisible by heads {self.heads}")
        if self.out_dim not in (2, 3):
            raise ConfigError(f"out_dim must be 2 or 3, got {self.out_dim}")
        if self.out_activation not in ACTIVATIONS:
            raise ConfigError(f"unknown out_activation '{self.out_activation}'")
        if not self.enc_m or not self.gen_m:
            raise ConfigError("enc_m and gen_m must be nonempty")
        if any(m < 1 for m in self.enc_m + self.gen_m):
            raise ConfigError("inducing counts must be positive")
        if list(self.gen_m) != sorted(self.gen_m):
            raise ConfigError(f"gen_m must be nondecreasing, got {self.gen_m}")
        if len(self.enc_m) != len(self.gen_m):
            raise ConfigError(
                f"encoder/generator depth mismatch: {self.enc_m} vs {self.gen_m}"
            )
        for l, m in enumerate(self.gen_m):
            paired = self.enc_m[len(self.enc_m) - 1 - l]
            if m != paired and m != 1:
                raise ConfigError(
                    f"generator level {l} has m={m} but paired encoder level "
                    f"has m={paired}; cardinalities must match (m=1 pools)"
                )
        if not (0 <= self.beta_max < math.inf and self.anneal_steps >= 0):
            raise ConfigError("beta_max and anneal_steps must be finite and nonnegative")


@dataclass
class MoGPrior:
    """Learned mixture of diagonal Gaussians over initial-set elements."""

    logits: Tensor
    mu: Tensor
    logsig: Tensor

    @staticmethod
    def init(K: int, d0: int, init: T.Init) -> "MoGPrior":
        # the component draw reads the logits as plain values, so no loss
        # reaches them and the optimizer leaves them out
        return MoGPrior(
            init.full(0.0, (K,), trained=False),
            init.fork("mu").normal((K, d0)),
            init.full(0.0, (K, d0)),
        )

    def weights(self) -> np.ndarray:
        lg = self.logits.data.astype(np.float64)
        e = np.exp(lg - lg.max())
        return e / e.sum()


class CardinalityDist:
    """Empirical distribution of set cardinalities."""

    def __init__(self, counts: dict[int, int]):
        counts = {int(n): int(c) for n, c in counts.items() if c > 0}
        if not counts:
            raise ValueError("empty cardinality histogram")
        self.counts = dict(sorted(counts.items()))
        self.total = sum(self.counts.values())

    def prob(self, n: int) -> float:
        return self.counts.get(int(n), 0) / self.total

    def sample(self, rng: T.Rng) -> int:
        support = list(self.counts)
        probs = np.array([self.counts[n] for n in support], dtype=np.float64)
        probs /= probs.sum()
        return support[int(rng.categorical(probs, 1)[0])]


def initial_set_kl_constant(dist: CardinalityDist, n: int) -> float:
    """-log p(n): the constant KL of the initial set, diagnostic only."""
    p = dist.prob(n)
    if p <= 0:
        raise ValueError(f"cardinality {n} outside the stored support")
    return -math.log(p)


@dataclass
class ABLParams:
    """One attentive bottleneck level: an ISAB's fields (I, proj, broad)
    with the latent between its two MABs.

    ff_prior maps the projection h to the prior (mu, log sigma) and is
    shared between generation and inference; the first level has no
    upstream conditioning and uses the learned prior_mu/prior_logsig
    instead. ff_post maps h + h_enc to the residual correction and is
    used only in inference.
    """

    I: Tensor
    proj: AttentionParams
    broad: AttentionParams
    ff_z_w: Tensor
    ff_z_b: Tensor
    ff_post_w: Tensor
    ff_post_b: Tensor
    ff_prior_w: Tensor | None = None
    ff_prior_b: Tensor | None = None
    prior_mu: Tensor | None = None
    prior_logsig: Tensor | None = None

    @staticmethod
    def init(
        m: int, d: int, d_z: int, heads: int, init: T.Init, unconditional: bool
    ) -> "ABLParams":
        p = ABLParams(
            *ISAB.init(m, d, heads, init, broad=True),
            *init_affine(d_z, d, init.fork("ff_z")),
            *init_affine(d, 2 * d_z, init.fork("ff_post")),
        )
        if unconditional:
            p.prior_mu = init.fork("prior_mu").normal((m, d_z))
            p.prior_logsig = init.full(0.0, (m, d_z))
        else:
            p.ff_prior_w, p.ff_prior_b = init_affine(d, 2 * d_z, init.fork("ff_prior"))
        return p

    @property
    def m(self) -> int:
        return self.I.shape[0]


@dataclass
class ABLStep:
    """Everything one bottleneck level produced."""

    x_out: Tensor
    z: Tensor
    kl: Tensor | None = None


@dataclass
class LatentHierarchy:
    """Numpy snapshots of the latent path: per level, its input `x_in`
    and its latent `z`."""

    z0: np.ndarray
    assignments: np.ndarray
    levels: list = field(default_factory=list)


@dataclass
class Noise:
    """Every random draw of one pass, for B sets padded to n_max elements.

    `assign` (B, n_max) holds each initial element's mixture component,
    `z0_eps` (B, n_max, d0) its standard normal noise, and `levels` one
    (B, m_l, d_z) standard normal array per bottleneck level.
    """

    assign: np.ndarray
    z0_eps: np.ndarray
    levels: list


class NonFiniteError(ValueError):
    """A forward pass overflowed into non-finite values."""


@contextmanager
def _finite_pass(what: str = "the input sets overflow the model"):
    """Run a forward pass with numpy overflow and invalid operations
    raising NonFiniteError("<what> (<numpy's message>)"): unguarded, they
    only warn, and infinities are normalized into finite but wrong values."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise NonFiniteError(f"{what} ({e})") from None


def gaussian_kl_elems(mu_q, sigma_q, mu_p, sigma_p) -> Tensor:
    """Elementwise KL(N(mu_q, sigma_q) || N(mu_p, sigma_p)), diagonal."""
    mu_q, sigma_q = T.as_tensor(mu_q), T.as_tensor(sigma_q)
    mu_p, sigma_p = T.as_tensor(mu_p), T.as_tensor(sigma_p)
    log_ratio = T.sub(T.log(sigma_p), T.log(sigma_q))
    var_q = T.mul(sigma_q, sigma_q)
    diff = T.sub(mu_q, mu_p)
    num = T.add(var_q, T.mul(diff, diff))
    den = T.scale(T.mul(sigma_p, sigma_p), 2.0)
    return T.add(log_ratio, T.sub(T.div(num, den), T.as_tensor(
        np.full(mu_q.shape, 0.5, dtype=mu_q.dtype)
    )))


def _split_stats(stats: Tensor, d_z: int) -> tuple[Tensor, Tensor]:
    mu = T.narrow(stats, -1, 0, d_z)
    logsig = T.clamp(T.narrow(stats, -1, d_z, d_z), LOGSIG_LO, LOGSIG_HI)
    return mu, logsig


def abl_step(
    x_in: Tensor,
    p: ABLParams,
    eps: np.ndarray,
    h_enc: Tensor | None = None,
    mask: np.ndarray | None = None,
    z_override: np.ndarray | None = None,
) -> ABLStep:
    """One bottleneck level of a batch x_in (B, n, d): project, sample the
    latent z = mu + sigma * eps, broadcast back.

    Given the encoder's projection `h_enc`, z comes from the posterior
    and the step carries its KL to the prior; otherwise from the prior.
    """
    d_z = p.ff_z_w.shape[0]
    B = x_in.shape[0]
    h = project(x_in, p.I, p.proj, mask=mask)

    if p.prior_mu is not None:
        mu, logsig = p.prior_mu, T.clamp(p.prior_logsig, LOGSIG_LO, LOGSIG_HI)
        mu, logsig = T.expand_batch(mu, B), T.expand_batch(logsig, B)
    else:
        stats = T.affine(h, p.ff_prior_w, p.ff_prior_b)
        mu, logsig = _split_stats(stats, d_z)
    sigma = T.exp(logsig)

    kl = None
    mu_s, sigma_s = mu, sigma
    if h_enc is not None:
        if h_enc.shape[-2] != p.m:
            raise T.ShapeError(
                f"h_enc has {h_enc.shape[-2]} rows but level has m={p.m}"
            )
        delta = T.affine(T.add(h, h_enc), p.ff_post_w, p.ff_post_b)
        dmu, dlogsig = _split_stats(delta, d_z)
        dsigma = T.exp(dlogsig)
        mu_s = T.add(mu, dmu)
        sigma_s = T.mul(sigma, dsigma)
        elems = gaussian_kl_elems(mu_s, sigma_s, mu, sigma)
        kl = T.reduce_sum(T.reduce_sum(elems, -1), -1)

    if z_override is not None:
        z = T.as_tensor(
            np.broadcast_to(
                np.asarray(z_override, dtype=mu_s.dtype.type), mu_s.shape
            ).copy()
        )
    else:
        z = T.add(mu_s, T.mask_mul(sigma_s, eps))

    x_out = mab(x_in, T.affine(z, p.ff_z_w, p.ff_z_b), p.broad)
    return ABLStep(x_out, z, kl)


class SetVAE:
    """Full model: parameters, both directions, and the training loss."""

    def __init__(self, cfg: ModelConfig, rng: T.Rng | None, dtype=np.float64):
        """Parameters drawn from `rng`; with rng None they are declared only,
        and `self.buffer` holds their layout for a checkpoint to fill."""
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        d, h = cfg.d, cfg.heads
        init = T.Init(rng, dtype)
        self.enc_in_w, self.enc_in_b = init_affine(cfg.out_dim, d, init.fork("enc_in"))
        # the deepest level only feeds its projection h onward, so it gets
        # no broadcast block (that output would be unused)
        self.enc_levels = [
            ISAB.init(m, d, h, init.fork("enc", l), broad=l < len(cfg.enc_m) - 1)
            for l, m in enumerate(cfg.enc_m)
        ]
        self.mog = MoGPrior.init(cfg.K, cfg.d0, init.fork("mog"))
        self.gen_in_w, self.gen_in_b = init_affine(cfg.d0, d, init.fork("gen_in"))
        self.abls = [
            ABLParams.init(
                m, d, cfg.d_z, h, init.fork("abl", l), unconditional=(l == 0)
            )
            for l, m in enumerate(cfg.gen_m)
        ]
        self.out_w, self.out_b = init_affine(d, cfg.out_dim, init.fork("out"))
        self.card_dist: CardinalityDist | None = None
        self.buffer = T.ParamBuffer(self.params())
        if rng is not None:
            self.buffer.fill()

    def params(self) -> dict[str, Tensor]:
        """Every parameter tensor, keyed by its field path (`enc0/proj/W_q`);
        the order and the names are the checkpoint's."""
        out = {"enc_in/w": self.enc_in_w, "enc_in/b": self.enc_in_b}
        for l, level in enumerate(self.enc_levels):
            out.update(T.named_params(level, f"enc{l}"))
        out.update(T.named_params(self.mog, "mog"))
        out["gen_in/w"] = self.gen_in_w
        out["gen_in/b"] = self.gen_in_b
        for l, abl in enumerate(self.abls):
            out.update(T.named_params(abl, f"abl{l}"))
        out["out/w"] = self.out_w
        out["out/b"] = self.out_b
        return out

    # ------------------------------------------------------------------
    # Bottom-up encoder
    # ------------------------------------------------------------------

    def encode(self, x: SetBatch) -> tuple[list[Tensor], list[Tensor]]:
        """(hs, x_ins): the projected set h and the input of every encoder
        level, shallow to deep."""
        cur = T.affine(x.elems, self.enc_in_w, self.enc_in_b)
        hs, x_ins = [], []
        for level in self.enc_levels:
            x_ins.append(cur)
            cur, h = isab(cur, level.I, level.proj, level.broad, mask=x.mask)
            hs.append(h)
        return hs, x_ins

    # ------------------------------------------------------------------
    # Noise and the initial set
    # ------------------------------------------------------------------

    def draw_noise(self, cards: list[int], rng: T.Rng) -> Noise:
        """Every random draw of a pass over sets of the given cardinalities.

        The only reader of an Rng in the forward pass: components from
        rng/z0/assign, initial-element noise from rng/z0/eps, and level
        l's latent noise from rng/lvl/l.
        """
        cards = [int(n) for n in cards]
        if min(cards) < 1:
            raise ValueError("cardinalities must be positive")
        B, n_max = len(cards), max(cards)
        z0 = rng.fork("z0")
        assign = z0.fork("assign").categorical(self.mog.weights(), B * n_max)
        return Noise(
            assign.reshape(B, n_max),
            z0.fork("eps").normal((B, n_max, self.cfg.d0), self.dtype),
            [
                rng.fork("lvl", l).normal((B, abl.m, self.cfg.d_z), self.dtype)
                for l, abl in enumerate(self.abls)
            ],
        )

    def sample_initial_set(
        self, cards: list[int], noise: Noise
    ) -> tuple[Tensor, np.ndarray]:
        """Padded initial sets (B, n_max, d0) and their (B, n_max) mask.

        Elements are i.i.d.: component k = noise.assign, then
        z = mu_k + sigma_k * noise.z0_eps, reparameterized so mu/sigma learn.
        """
        B, n_max = len(cards), max(cards)
        mask = card_mask(cards, n_max)
        onehot = np.zeros((B, n_max, self.cfg.K), dtype=self.dtype.type)
        valid = np.where(mask)
        onehot[valid[0], valid[1], noise.assign[mask]] = 1.0
        sel = T.as_tensor(onehot)
        mu = T.matmul(sel, self.mog.mu)
        logsig = T.matmul(sel, self.mog.logsig)
        # no clamp here: log sigma is a direct parameter, not an FF output,
        # and the sigma -> 0 limit must reach the component means
        sigma = T.exp(logsig)
        # padded rows select no component, so they are exactly zero
        z0 = T.add(mu, T.mask_mul(sigma, noise.z0_eps * mask[:, :, None]))
        return z0, mask

    # ------------------------------------------------------------------
    # Top-down pass shared by generation and inference
    # ------------------------------------------------------------------

    def _top_down(
        self,
        cards: list[int],
        noise: Noise,
        level_eps: list,
        h_encs: list[Tensor] | None = None,
        fixed_z: list | None = None,
    ) -> tuple[SetBatch, list[Tensor], LatentHierarchy]:
        z0, mask = self.sample_initial_set(cards, noise)
        latents = LatentHierarchy(z0.data, noise.assign)
        cur = T.affine(z0, self.gen_in_w, self.gen_in_b)
        kls = []
        for l, abl in enumerate(self.abls):
            h_enc = None
            if h_encs is not None:
                h_enc = h_encs[len(h_encs) - 1 - l]
                if abl.m == 1 and h_enc.shape[-2] != 1:
                    h_enc = T.reduce_mean(h_enc, -2, keepdims=True)
            step = abl_step(
                cur, abl, level_eps[l], h_enc=h_enc, mask=mask,
                z_override=None if fixed_z is None else fixed_z[l],
            )
            # only what is read: `z` by `sample --fix-latents`, `x_in` by
            # `attn_assignments`; no copies, no op writes into its output
            latents.levels.append({"x_in": cur.data, "z": step.z.data})
            cur = step.x_out
            if step.kl is not None:
                kls.append(step.kl)
        out = T.affine(cur, self.out_w, self.out_b)
        if self.cfg.out_activation == "tanh01":
            one = T.as_tensor(np.ones(self.cfg.out_dim, dtype=out.dtype))
            out = T.scale(T.add_row(T.tanh(out), one), 0.5)
        return SetBatch(out, [int(n) for n in cards]), kls, latents

    # ------------------------------------------------------------------
    # Public directions
    # ------------------------------------------------------------------

    def generate(
        self,
        cards: list[int],
        noise: Noise,
        temperature: float = 1.0,
        fixed_z: list | None = None,
    ) -> tuple[SetBatch, LatentHierarchy]:
        """Sample sets of the requested cardinalities from the prior.

        The temperature scales every level's latent noise; `fixed_z` pins
        the per-level latents to given values (the initial set still
        follows `noise`).
        """
        if not math.isfinite(temperature):
            raise ValueError(f"temperature must be finite, got {temperature}")
        t = float(temperature)
        # a large finite temperature overflows into NaN points
        with _finite_pass(f"temperature {t!r} gives non-finite points"):
            out, _, latents = self._top_down(
                cards, noise, [eps * t for eps in noise.levels], fixed_z=fixed_z
            )
        return out, latents

    def infer(
        self, x: SetBatch, noise: Noise
    ) -> tuple[SetBatch, list[Tensor], LatentHierarchy]:
        """Reconstruct x; returns per-set KL (B,) for every level."""
        with _finite_pass():
            hs, _ = self.encode(x)
            return self._top_down(x.cards, noise, noise.levels, h_encs=hs)

    def attn_assignments(
        self,
        x: SetBatch,
        level: int,
        side: str,
        head: int = 0,
        noise: Noise | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Argmax inducing-point id per point at one projection.

        Returns (ids, coords), both (B, n_max[, dim]): input coordinates
        for the encoder side, reconstructed coordinates for the generator
        side (whose elements track the top-down stream, not the input).
        Ties break toward the lowest id. The generator side reconstructs x
        with `noise`, as `infer` does; the encoder side reads none.
        """
        if side not in ("encoder", "generator"):
            raise ValueError(f"unknown side '{side}', expected encoder or generator")
        levels = self.enc_levels if side == "encoder" else self.abls
        if not 0 <= level < len(levels):
            raise ValueError(f"{side} level {level} out of range [0, {len(levels)})")
        block = levels[level]
        with _finite_pass():
            if side == "encoder":
                x_in = self.encode(x)[1][level]
                coords = x.elems.data
            else:
                x_hat, _, lat = self.infer(x, noise)
                x_in = T.as_tensor(lat.levels[level]["x_in"])
                coords = x_hat.elems.data
            w = multihead_head_weights(
                T.expand_batch(block.I, x.size), x_in, block.proj, head,
                key_mask=x.mask, slot=True,
            )
        return np.argmax(w, axis=-2), coords

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------

    def elbo_loss(
        self,
        x: SetBatch,
        x_hat: SetBatch,
        kl_per_level: list[Tensor],
        beta: float,
    ) -> tuple[Tensor, Tensor, Tensor]:
        """(total, recon, kl_sum): recon + beta * summed per-level KL."""
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        recon = T.reduce_mean(masked_chamfer(x_hat.elems, x), 0)
        kl_sum = None
        for kl in kl_per_level:
            term = T.reduce_mean(kl, 0)
            kl_sum = term if kl_sum is None else T.add(kl_sum, term)
        if kl_sum is None:
            kl_sum = T.as_tensor(np.zeros((), dtype=recon.dtype))
        total = T.add(recon, T.scale(kl_sum, beta))
        return total, recon, kl_sum


def masked_chamfer(x_hat: Tensor, x: SetBatch) -> Tensor:
    """Per-set two-way squared nearest-neighbor distance, (B,) tensor.

    Padded rows and columns are excluded by filling their pairwise
    distances with a large constant before each min and zeroing their
    contributions before each sum.
    """
    ref = x.elems
    sq_r = T.reduce_sum(T.mul(ref, ref), -1)
    sq_g = T.reduce_sum(T.mul(x_hat, x_hat), -1)
    cross = T.matmul(ref, T.transpose(x_hat))
    d2 = T.sub(T.outer_add(sq_r, sq_g), T.scale(cross, 2.0))

    col_keep = np.broadcast_to(x.mask[:, None, :], d2.shape)
    mins_ref, _ = T.reduce_min(T.mask_fill(d2, col_keep, PAD_DISTANCE), -1)
    fwd = T.reduce_sum(T.mask_mul(mins_ref, x.mask), -1)

    row_keep = np.broadcast_to(x.mask[:, :, None], d2.shape)
    mins_gen, _ = T.reduce_min(T.mask_fill(d2, row_keep, PAD_DISTANCE), -2)
    bwd = T.reduce_sum(T.mask_mul(mins_gen, x.mask), -1)
    return T.add(fwd, bwd)

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

The objective is two-way squared-nearest-neighbor reconstruction plus a
beta-weighted sum of per-level KL terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import (
    AttentionParams,
    ConfigError,
    InducingPoints,
    SetBatch,
    mab,
    multihead_head_weights,
)
from .tensor import Tensor

LOGSIG_LO = -7.0
LOGSIG_HI = 7.0
PAD_DISTANCE = 1e30


@dataclass
class ModelConfig:
    d: int = 64
    d_z: int = 16
    heads: int = 4
    enc_m: tuple = (32, 16, 8, 4, 2)
    gen_m: tuple = (2, 4, 8, 16, 32)
    d0: int = 32
    K: int = 4
    out_dim: int = 2
    out_activation: str = "none"
    beta_max: float = 0.01
    anneal_steps: int = 1000

    def __post_init__(self):
        self.enc_m = tuple(int(m) for m in self.enc_m)
        self.gen_m = tuple(int(m) for m in self.gen_m)
        self.validate()

    @property
    def levels(self) -> int:
        return len(self.gen_m)

    def architecture(self) -> tuple:
        """The fields parameter shapes depend on; schedule floats are
        excluded so an f32 round trip through a checkpoint still matches."""
        return (
            self.d, self.d_z, self.heads, self.enc_m, self.gen_m,
            self.d0, self.K, self.out_dim, self.out_activation,
        )

    def validate(self):
        if min(self.d, self.d_z, self.d0, self.K, self.heads) < 1:
            raise ConfigError("widths, heads and mixture size must be positive")
        if self.d % self.heads != 0:
            raise ConfigError(f"width {self.d} not divisible by heads {self.heads}")
        if self.out_dim not in (2, 3):
            raise ConfigError(f"out_dim must be 2 or 3, got {self.out_dim}")
        if self.out_activation not in ("none", "tanh01"):
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
        if self.beta_max < 0 or self.anneal_steps < 0:
            raise ConfigError("beta_max and anneal_steps must be nonnegative")


@dataclass
class MoGPrior:
    """Learned mixture of diagonal Gaussians over initial-set elements."""

    logits: Tensor
    mu: Tensor
    logsig: Tensor

    @staticmethod
    def init(K: int, d0: int, rng: T.Rng, dtype=np.float64) -> "MoGPrior":
        return MoGPrior(
            T.Tensor(np.zeros(K, dtype=dtype), requires_grad=True),
            T.Tensor(rng.fork("mu").normal((K, d0), dtype), requires_grad=True),
            T.Tensor(np.zeros((K, d0), dtype=dtype), requires_grad=True),
        )

    def weights(self) -> np.ndarray:
        lg = self.logits.data.astype(np.float64)
        e = np.exp(lg - lg.max())
        return e / e.sum()

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}/logits": self.logits,
            f"{prefix}/mu": self.mu,
            f"{prefix}/logsig": self.logsig,
        }


class CardinalityDist:
    """Empirical distribution of set cardinalities."""

    def __init__(self, counts: dict[int, int]):
        counts = {int(n): int(c) for n, c in counts.items() if c > 0}
        if not counts:
            raise ValueError("empty cardinality histogram")
        self.counts = dict(sorted(counts.items()))
        self.total = sum(self.counts.values())

    @staticmethod
    def from_cards(cards) -> "CardinalityDist":
        counts: dict[int, int] = {}
        for n in cards:
            counts[int(n)] = counts.get(int(n), 0) + 1
        return CardinalityDist(counts)

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


def _affine(fan_in: int, fan_out: int, rng: T.Rng, dtype) -> tuple[Tensor, Tensor]:
    bound = 1.0 / math.sqrt(fan_in)
    w = rng.fork("w").uniform(-bound, bound, (fan_in, fan_out), dtype)
    b = rng.fork("b").uniform(-bound, bound, (fan_out,), dtype)
    return T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)


@dataclass
class ABLParams:
    """One attentive bottleneck level.

    ff_prior maps the projection h to the prior (mu, log sigma) and is
    shared between generation and inference; the first level has no
    upstream conditioning and uses the learned prior_mu/prior_logsig
    instead. ff_post maps h + h_enc to the residual correction and is
    used only in inference.
    """

    ind: InducingPoints
    p_proj: AttentionParams
    p_broad: AttentionParams
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
        m: int, d: int, d_z: int, heads: int, rng: T.Rng,
        unconditional: bool, dtype=np.float64,
    ) -> "ABLParams":
        ff_z_w, ff_z_b = _affine(d_z, d, rng.fork("ff_z"), dtype)
        ff_post_w, ff_post_b = _affine(d, 2 * d_z, rng.fork("ff_post"), dtype)
        p = ABLParams(
            InducingPoints.init(m, d, rng.fork("I"), dtype),
            AttentionParams.init(d, heads, rng.fork("proj"), dtype),
            AttentionParams.init(d, heads, rng.fork("broad"), dtype),
            ff_z_w, ff_z_b, ff_post_w, ff_post_b,
        )
        if unconditional:
            p.prior_mu = T.Tensor(
                rng.fork("prior_mu").normal((m, d_z), dtype), requires_grad=True
            )
            p.prior_logsig = T.Tensor(np.zeros((m, d_z), dtype=dtype), requires_grad=True)
        else:
            p.ff_prior_w, p.ff_prior_b = _affine(d, 2 * d_z, rng.fork("ff_prior"), dtype)
        return p

    @property
    def m(self) -> int:
        return self.ind.m

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = self.ind.named(prefix)
        out.update(self.p_proj.named(f"{prefix}/proj"))
        out.update(self.p_broad.named(f"{prefix}/broad"))
        out[f"{prefix}/ff_z_w"] = self.ff_z_w
        out[f"{prefix}/ff_z_b"] = self.ff_z_b
        out[f"{prefix}/ff_post_w"] = self.ff_post_w
        out[f"{prefix}/ff_post_b"] = self.ff_post_b
        if self.prior_mu is not None:
            out[f"{prefix}/prior_mu"] = self.prior_mu
            out[f"{prefix}/prior_logsig"] = self.prior_logsig
        else:
            out[f"{prefix}/ff_prior_w"] = self.ff_prior_w
            out[f"{prefix}/ff_prior_b"] = self.ff_prior_b
        return out


@dataclass
class ABLStep:
    """Everything one bottleneck level produced."""

    x_out: Tensor
    z: Tensor
    mu: Tensor
    sigma: Tensor
    kl: Tensor | None = None
    dmu: Tensor | None = None
    dsigma: Tensor | None = None
    h: Tensor | None = None


@dataclass
class LatentHierarchy:
    """Numpy snapshots of the latent path, for diagnostics and export."""

    z0: np.ndarray
    assignments: np.ndarray
    levels: list = field(default_factory=list)


def gaussian_kl_elems(mu_q, sigma_q, mu_p, sigma_p) -> Tensor:
    """Elementwise KL(N(mu_q, sigma_q) || N(mu_p, sigma_p)), diagonal."""
    for s in (sigma_q, sigma_p):
        if np.any(T.as_tensor(s).data <= 0):
            raise T.DomainError("gaussian_kl requires positive scales")
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


def gaussian_kl(mu_q, sigma_q, mu_p, sigma_p) -> Tensor:
    """Total KL between diagonal Gaussians, summed over all entries."""
    return T.sum_all(gaussian_kl_elems(mu_q, sigma_q, mu_p, sigma_p))


def _split_stats(stats: Tensor, d_z: int) -> tuple[Tensor, Tensor]:
    mu = T.narrow(stats, -1, 0, d_z)
    logsig = T.clamp(T.narrow(stats, -1, d_z, d_z), LOGSIG_LO, LOGSIG_HI)
    return mu, logsig


def abl_step(
    x_in: Tensor,
    p: ABLParams,
    mode: str,
    h_enc: Tensor | None = None,
    rng: T.Rng | None = None,
    temperature: float = 1.0,
    mask: np.ndarray | None = None,
    eps: np.ndarray | None = None,
    z_override: np.ndarray | None = None,
) -> ABLStep:
    """One bottleneck level: project, sample the latent, broadcast back."""
    if mode not in ("generate", "infer"):
        raise ConfigError(f"unknown abl mode '{mode}'")
    d_z = p.ff_z_w.shape[0]
    I = p.ind.I
    batched = x_in.ndim == 3
    if batched:
        I = T.expand_batch(I, x_in.shape[0])
    h = mab(I, x_in, p.p_proj, key_mask=mask, projection_mode="slot")

    if p.prior_mu is not None:
        mu, logsig = p.prior_mu, T.clamp(p.prior_logsig, LOGSIG_LO, LOGSIG_HI)
        if batched:
            mu = T.expand_batch(mu, x_in.shape[0])
            logsig = T.expand_batch(logsig, x_in.shape[0])
    else:
        stats = T.affine(h, p.ff_prior_w, p.ff_prior_b)
        mu, logsig = _split_stats(stats, d_z)
    sigma = T.exp(logsig)

    kl = dmu = dsigma = None
    if mode == "infer":
        if h_enc is None:
            raise ConfigError("infer mode requires h_enc")
        if h_enc.shape[-2] != p.m:
            raise T.ShapeError(
                f"h_enc has {h_enc.shape[-2]} rows but level has m={p.m}"
            )
        delta = T.affine(T.add(h, h_enc), p.ff_post_w, p.ff_post_b)
        dmu, dlogsig = _split_stats(delta, d_z)
        dsigma = T.exp(dlogsig)
        mu_q = T.add(mu, dmu)
        sigma_q = T.mul(sigma, dsigma)
        elems = gaussian_kl_elems(mu_q, sigma_q, mu, sigma)
        kl = T.reduce_sum(T.reduce_sum(elems, -1), -1)
        mu_s, sigma_s = mu_q, sigma_q
    else:
        mu_s, sigma_s = mu, sigma

    if z_override is not None:
        z = T.as_tensor(
            np.broadcast_to(
                np.asarray(z_override, dtype=mu_s.dtype.type), mu_s.shape
            ).copy()
        )
    else:
        if eps is None:
            if rng is None:
                raise ValueError("abl_step needs an rng when eps is not given")
            eps = rng.normal(mu_s.shape, dtype=mu_s.dtype)
        eps = np.broadcast_to(np.asarray(eps, dtype=mu_s.dtype.type), mu_s.shape)
        noise = T.mask_mul(sigma_s, eps * float(temperature))
        z = T.add(mu_s, noise)

    x_out = mab(x_in, T.affine(z, p.ff_z_w, p.ff_z_b), p.p_broad)
    return ABLStep(x_out, z, mu, sigma, kl, dmu, dsigma, h)


class SetVAE:
    """Full model: parameters, both directions, and the training loss."""

    def __init__(self, cfg: ModelConfig, rng: T.Rng, dtype=np.float64):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        d, h = cfg.d, cfg.heads
        self.enc_in_w, self.enc_in_b = _affine(
            cfg.out_dim, d, rng.fork("enc_in"), dtype
        )
        self.enc_levels = []
        for l, m in enumerate(cfg.enc_m):
            lr = rng.fork("enc", l)
            # the deepest level only feeds its projection h onward, so it
            # gets no broadcast block (that output would be unused)
            last = l == len(cfg.enc_m) - 1
            self.enc_levels.append(
                (
                    InducingPoints.init(m, d, lr.fork("I"), dtype),
                    AttentionParams.init(d, h, lr.fork("proj"), dtype),
                    None if last else AttentionParams.init(d, h, lr.fork("broad"), dtype),
                )
            )
        self.mog = MoGPrior.init(cfg.K, cfg.d0, rng.fork("mog"), dtype)
        self.gen_in_w, self.gen_in_b = _affine(cfg.d0, d, rng.fork("gen_in"), dtype)
        self.abls = [
            ABLParams.init(
                m, d, cfg.d_z, h, rng.fork("abl", l), unconditional=(l == 0),
                dtype=dtype,
            )
            for l, m in enumerate(cfg.gen_m)
        ]
        self.out_w, self.out_b = _affine(d, cfg.out_dim, rng.fork("out"), dtype)
        self.card_dist: CardinalityDist | None = None

    def params(self) -> dict[str, Tensor]:
        out = {"enc_in/w": self.enc_in_w, "enc_in/b": self.enc_in_b}
        for l, (ind, p_proj, p_broad) in enumerate(self.enc_levels):
            out.update(ind.named(f"enc{l}"))
            out.update(p_proj.named(f"enc{l}/proj"))
            if p_broad is not None:
                out.update(p_broad.named(f"enc{l}/broad"))
        out.update(self.mog.named("mog"))
        out["gen_in/w"] = self.gen_in_w
        out["gen_in/b"] = self.gen_in_b
        for l, abl in enumerate(self.abls):
            out.update(abl.named(f"abl{l}"))
        out["out/w"] = self.out_w
        out["out/b"] = self.out_b
        return out

    # ------------------------------------------------------------------
    # Bottom-up encoder
    # ------------------------------------------------------------------

    def _encode_trace(self, x: SetBatch) -> tuple[list[Tensor], list[Tensor]]:
        if any(n < 1 for n in x.cards):
            raise ValueError("cannot encode an empty set")
        cur = T.affine(x.elems, self.enc_in_w, self.enc_in_b)
        hs, xins = [], []
        for ind, p_proj, p_broad in self.enc_levels:
            I = ind.I
            if cur.ndim == 3:
                I = T.expand_batch(I, cur.shape[0])
            xins.append(cur)
            h = mab(I, cur, p_proj, key_mask=x.mask, projection_mode="slot")
            if p_broad is not None:
                cur = mab(cur, h, p_broad)
            hs.append(h)
        return hs, xins

    def encode(self, x: SetBatch) -> list[Tensor]:
        """Projected sets h at every encoder level, shallow to deep."""
        return self._encode_trace(x)[0]

    # ------------------------------------------------------------------
    # Initial set
    # ------------------------------------------------------------------

    def sample_initial_set(
        self,
        cards: list[int],
        rng: T.Rng | None = None,
        assignments: np.ndarray | None = None,
        eps: np.ndarray | None = None,
    ) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """Padded initial sets (B, n_max, d0) plus component assignments.

        Elements are i.i.d.: component k ~ Categorical(softmax(logits)),
        then z = mu_k + sigma_k * eps, reparameterized so mu/sigma learn.
        """
        B, n_max = len(cards), max(cards)
        if min(cards) < 1:
            raise ValueError("cardinalities must be positive")
        if rng is None and (assignments is None or eps is None):
            raise ValueError("sample_initial_set needs an rng or frozen draws")
        if assignments is None:
            assignments = rng.fork("assign").categorical(
                self.mog.weights(), B * n_max
            ).reshape(B, n_max)
        if eps is None:
            eps = rng.fork("eps").normal((B, n_max, self.cfg.d0), self.dtype)
        eps = np.asarray(eps, dtype=self.dtype.type)
        mask = np.zeros((B, n_max), dtype=bool)
        for b, n in enumerate(cards):
            mask[b, :n] = True

        onehot = np.zeros((B, n_max, self.cfg.K), dtype=self.dtype.type)
        valid = np.where(mask)
        onehot[valid[0], valid[1], assignments[mask]] = 1.0
        sel = T.as_tensor(onehot)
        mu = T.matmul(sel, T.expand_batch(self.mog.mu, B))
        logsig = T.matmul(sel, T.expand_batch(self.mog.logsig, B))
        # no clamp here: log sigma is a direct parameter, not an FF output,
        # and the sigma -> 0 limit must reach the component means
        sigma = T.exp(logsig)
        z0 = T.add(mu, T.mask_mul(sigma, eps * mask[:, :, None]))
        z0 = T.mask_mul(z0, mask[:, :, None])
        return z0, assignments, mask

    # ------------------------------------------------------------------
    # Top-down pass shared by generation and inference
    # ------------------------------------------------------------------

    def _top_down(
        self,
        z0: Tensor,
        mask: np.ndarray,
        mode: str,
        h_encs: list[Tensor] | None,
        rng: T.Rng | None,
        temperature: float,
        level_eps: list | None,
        latents: LatentHierarchy,
        fixed_z: list | None = None,
    ) -> tuple[Tensor, list[Tensor]]:
        cur = T.affine(z0, self.gen_in_w, self.gen_in_b)
        kls = []
        for l, abl in enumerate(self.abls):
            h_enc = None
            if mode == "infer":
                h_enc = h_encs[len(h_encs) - 1 - l]
                if abl.m == 1 and h_enc.shape[-2] != 1:
                    h_enc = T.reduce_mean(h_enc, -2, keepdims=True)
            eps = level_eps[l] if level_eps is not None else None
            step = abl_step(
                cur, abl, mode, h_enc=h_enc,
                rng=rng.fork("lvl", l) if rng is not None else None,
                temperature=temperature, mask=mask, eps=eps,
                z_override=None if fixed_z is None else fixed_z[l],
            )
            # no copies: no op writes into its output after returning it
            latents.levels.append(
                {
                    "x_in": cur.data,
                    "z": step.z.data,
                    "mu": step.mu.data,
                    "sigma": step.sigma.data,
                    "h": step.h.data,
                    "dmu": None if step.dmu is None else step.dmu.data,
                    "dsigma": None if step.dsigma is None else step.dsigma.data,
                }
            )
            cur = step.x_out
            if step.kl is not None:
                kls.append(step.kl)
        out = T.affine(cur, self.out_w, self.out_b)
        if self.cfg.out_activation == "tanh01":
            one = T.as_tensor(np.ones(self.cfg.out_dim, dtype=out.dtype))
            out = T.scale(T.add_row(T.tanh(out), one), 0.5)
        return out, kls

    # ------------------------------------------------------------------
    # Public directions
    # ------------------------------------------------------------------

    def generate(
        self,
        cards: list[int],
        rng: T.Rng | None = None,
        temperature: float = 1.0,
        z0: Tensor | np.ndarray | None = None,
        level_eps: list | None = None,
        fixed_z: list | None = None,
    ) -> tuple[SetBatch, LatentHierarchy]:
        """Sample sets of the requested cardinalities from the prior.

        `fixed_z` pins the per-level latents to given values (the
        initial set is still sampled), `level_eps` pins only the noise.
        """
        cards = [int(n) for n in cards]
        mask = np.zeros((len(cards), max(cards)), dtype=bool)
        for b, n in enumerate(cards):
            mask[b, :n] = True
        if z0 is None:
            z0_t, assign, mask = self.sample_initial_set(cards, rng=rng.fork("z0"))
        else:
            z0_t = T.as_tensor(np.asarray(z0, dtype=self.dtype.type))
            if z0_t.ndim == 2:
                z0_t = T.Tensor(z0_t.data[None])
            assign = np.zeros(mask.shape, dtype=np.int64)
        latents = LatentHierarchy(z0_t.data.copy(), assign)
        out, _ = self._top_down(
            z0_t, mask, "generate", None, rng, temperature, level_eps, latents,
            fixed_z=fixed_z,
        )
        return SetBatch(out, mask, cards), latents

    def infer(
        self,
        x: SetBatch,
        rng: T.Rng | None = None,
        z0_assignments: np.ndarray | None = None,
        z0_eps: np.ndarray | None = None,
        level_eps: list | None = None,
    ) -> tuple[SetBatch, list[Tensor], LatentHierarchy]:
        """Reconstruct x; returns per-set KL (B,) for every level."""
        h_encs = self.encode(x)
        z0_t, assign, _ = self.sample_initial_set(
            x.cards,
            rng=rng.fork("z0") if rng is not None else None,
            assignments=z0_assignments,
            eps=z0_eps,
        )
        latents = LatentHierarchy(z0_t.data.copy(), assign)
        out, kls = self._top_down(
            z0_t, x.mask, "infer", h_encs, rng, 1.0, level_eps, latents
        )
        return SetBatch(out, x.mask, list(x.cards)), kls, latents

    def attn_assignments(
        self,
        x: SetBatch,
        level: int,
        side: str,
        head: int = 0,
        rng: T.Rng | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Argmax inducing-point id per point at one projection.

        Returns (ids, coords), both (B, n_max[, dim]): input coordinates
        for the encoder side, reconstructed coordinates for the generator
        side (whose elements track the top-down stream, not the input).
        Ties break toward the lowest id.
        """
        if side == "encoder":
            if not 0 <= level < len(self.enc_levels):
                raise ValueError(
                    f"encoder level {level} out of range [0, {len(self.enc_levels)})"
                )
            _, xins = self._encode_trace(x)
            ind, p_proj, _ = self.enc_levels[level]
            x_in = xins[level]
            coords = x.elems.data
        elif side == "generator":
            if not 0 <= level < len(self.abls):
                raise ValueError(
                    f"generator level {level} out of range [0, {len(self.abls)})"
                )
            x_hat, _, lat = self.infer(x, rng)
            abl = self.abls[level]
            ind, p_proj = abl.ind, abl.p_proj
            x_in = T.as_tensor(lat.levels[level]["x_in"])
            coords = x_hat.elems.data
        else:
            raise ValueError(f"unknown side '{side}', expected encoder or generator")
        I = ind.I
        if x_in.ndim == 3:
            I = T.expand_batch(I, x_in.shape[0])
        w = multihead_head_weights(
            I, x_in, p_proj, head, key_mask=x.mask, mode="slot"
        )
        return np.argmax(w.data, axis=-2), coords

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
    ref = x.elems if isinstance(x.elems, Tensor) else T.as_tensor(x.elems)
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

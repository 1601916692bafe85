"""Tests for the hierarchical model: priors, bottleneck levels, ELBO."""

import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import setvae.tensor as T
import setvae.metrics as M
from helpers import tape_nodes
from setvae.attention import ConfigError, SetBatch
from setvae.config import TrainConfig
from setvae.data import batch_pad, gen_synthetic
from setvae.model import (
    ABLParams,
    CardinalityDist,
    ModelConfig,
    MoGPrior,
    Noise,
    SetVAE,
    abl_step,
    gaussian_kl_elems,
    initial_set_kl_constant,
    masked_chamfer,
)
from setvae.tensor import DomainError, ShapeError


def small_config(**kw):
    base = dict(
        d=16,
        d_z=4,
        heads=2,
        enc_m=(4, 2),
        gen_m=(2, 4),
        d0=8,
        K=2,
        out_dim=2,
        beta_max=0.01,
        anneal_steps=10,
    )
    base.update(kw)
    return ModelConfig(**base)


def batch_from(points_list, dtype=np.float64):
    cards = [len(p) for p in points_list]
    n_max = max(cards)
    dim = len(points_list[0][0])
    elems = np.zeros((len(cards), n_max, dim))
    for b, pts in enumerate(points_list):
        elems[b, : len(pts)] = pts
    return SetBatch(T.Tensor(elems.astype(dtype)), cards)


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------

def test_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        small_config(d=15).validate()  # not divisible by heads
    with pytest.raises(ConfigError):
        small_config(out_dim=4).validate()
    with pytest.raises(ConfigError):
        small_config(gen_m=(4, 2)).validate()  # must not shrink
    with pytest.raises(ConfigError):
        small_config(enc_m=(4, 2, 2), gen_m=(2, 4)).validate()
    with pytest.raises(ConfigError):
        small_config(K=0).validate()
    with pytest.raises(ConfigError):
        small_config(heads=0)  # not a ZeroDivisionError
    with pytest.raises(ConfigError):
        small_config(out_activation="sigmoid").validate()


def test_config_pairing_rule():
    # gen_m[l] must equal enc_m[L-1-l] unless it is 1
    with pytest.raises(ConfigError):
        small_config(enc_m=(4, 2), gen_m=(3, 4)).validate()
    small_config(enc_m=(4, 2), gen_m=(1, 4)).validate()
    small_config(enc_m=(4, 2), gen_m=(1, 1)).validate()


# ----------------------------------------------------------------------
# Cardinality distribution
# ----------------------------------------------------------------------

def test_cardinality_point_mass():
    dist = CardinalityDist({7: 3})
    assert dist.prob(7) == 1.0
    assert initial_set_kl_constant(dist, 7) == 0.0
    rng = T.Rng(0, "card")
    assert all(dist.sample(rng.fork(i)) == 7 for i in range(50))


def test_cardinality_frequencies():
    dist = CardinalityDist(Counter([3, 3, 5]))
    assert dist.prob(3) == 2 / 3
    rng = T.Rng(11, "freq")
    draws = [dist.sample(rng.fork(i)) for i in range(100_000)]
    freq = draws.count(3) / len(draws)
    assert abs(freq - 2 / 3) < 0.01


def test_initial_set_kl_values():
    uniform = CardinalityDist({n: 1 for n in range(1, 98)})
    assert abs(initial_set_kl_constant(uniform, 10) - math.log(97)) < 1e-12
    dist = CardinalityDist(Counter([3, 3, 5]))
    assert abs(initial_set_kl_constant(dist, 3) - math.log(1.5)) < 1e-12
    with pytest.raises(ValueError):
        initial_set_kl_constant(dist, 4)


# ----------------------------------------------------------------------
# Gaussian KL
# ----------------------------------------------------------------------

def test_gaussian_kl_closed_forms():
    one = T.Tensor(np.ones((1, 1)))
    zero = T.Tensor(np.zeros((1, 1)))
    kl = T.sum_all(gaussian_kl_elems(one, one, zero, one))
    assert kl.data == 0.5  # KL(N(1,1) || N(0,1))
    same = T.sum_all(gaussian_kl_elems(one, T.Tensor(np.full((1, 1), 0.7)),
                                       one, T.Tensor(np.full((1, 1), 0.7))))
    assert same.data == 0.0


def test_gaussian_kl_monte_carlo():
    mu_q, sig_q, mu_p, sig_p = 0.3, 0.8, -0.5, 1.7
    closed = T.sum_all(gaussian_kl_elems(
        T.Tensor(np.array([[mu_q]])), T.Tensor(np.array([[sig_q]])),
        T.Tensor(np.array([[mu_p]])), T.Tensor(np.array([[sig_p]])),
    )).data

    rng = T.Rng(5, "kl-mc")
    z = mu_q + sig_q * rng.normal((1_000_000,))

    def logpdf(x, mu, sig):
        return -0.5 * ((x - mu) / sig) ** 2 - math.log(sig) - 0.5 * math.log(2 * math.pi)

    mc = np.mean(logpdf(z, mu_q, sig_q) - logpdf(z, mu_p, sig_p))
    assert abs(mc - closed) < 0.01


def test_gaussian_kl_rejects_nonpositive_sigma():
    one = T.Tensor(np.ones((1, 1)))
    bad = T.Tensor(np.array([[-0.1]]))
    with pytest.raises(DomainError):
        gaussian_kl_elems(one, bad, one, one)


# ----------------------------------------------------------------------
# Initial set sampling
# ----------------------------------------------------------------------

def test_initial_set_single_component_mean():
    model = SetVAE(small_config(K=1, d0=1), T.Rng(2, "init"))
    model.mog = MoGPrior(
        T.Tensor(np.zeros(1), requires_grad=True),
        T.Tensor(np.zeros((1, 1)), requires_grad=True),
        T.Tensor(np.zeros((1, 1)), requires_grad=True),
    )
    noise = model.draw_noise([100_000], T.Rng(3, "draws"))
    z0, _ = model.sample_initial_set([100_000], noise)
    assert abs(z0.data.mean()) < 0.02


def test_initial_set_degenerate_weights():
    model = SetVAE(small_config(K=2, d0=1), T.Rng(2, "init"))
    model.mog = MoGPrior(
        T.Tensor(np.array([20.0, -20.0]), requires_grad=True),
        T.Tensor(np.array([[1.0], [-1.0]]), requires_grad=True),
        T.Tensor(np.zeros((2, 1)), requires_grad=True),
    )
    noise = model.draw_noise([10_000], T.Rng(4, "draws"))
    assert np.all(noise.assign == 0)


def test_initial_set_sigma_zero_limit():
    model = SetVAE(small_config(K=2, d0=2), T.Rng(2, "init"))
    model.mog = MoGPrior(
        T.Tensor(np.zeros(2), requires_grad=True),
        T.Tensor(np.array([[1.0, 2.0], [-3.0, 0.5]]), requires_grad=True),
        T.Tensor(np.full((2, 2), -20.0), requires_grad=True),
    )
    noise = model.draw_noise([10_000], T.Rng(6, "draws"))
    z0, _ = model.sample_initial_set([10_000], noise)
    means = model.mog.mu.data[noise.assign[0]]
    assert np.max(np.abs(z0.data[0] - means)) < 1e-8


def test_initial_set_padding_and_grads():
    model = SetVAE(small_config(), T.Rng(2, "init"))
    noise = model.draw_noise([3, 5], T.Rng(7, "draws"))
    z0, mask = model.sample_initial_set([3, 5], noise)
    assert z0.shape == (2, 5, model.cfg.d0)
    assert mask.tolist() == [[True] * 3 + [False] * 2, [True] * 5]
    assert np.all(z0.data[0, 3:] == 0.0)
    T.backward(T.sum_all(T.mul(z0, z0)))
    assert model.mog.mu.grad is not None and np.any(model.mog.mu.grad != 0)
    assert model.mog.logsig.grad is not None


def test_draw_noise_paths():
    model = SetVAE(small_config(K=3), T.Rng(2, "init"))
    model.mog.logits.data = np.array([0.5, -1.0, 2.0])
    rng = T.Rng(11, "pass")
    noise = model.draw_noise([3, 5], rng)
    assign = rng.fork("z0").fork("assign").categorical(model.mog.weights(), 10)
    assert np.array_equal(noise.assign, assign.reshape(2, 5))
    assert np.array_equal(
        noise.z0_eps, rng.fork("z0").fork("eps").normal((2, 5, model.cfg.d0))
    )
    assert len(noise.levels) == len(model.abls)
    for l, m in enumerate(model.cfg.gen_m):
        expect = rng.fork("lvl", l).normal((2, m, model.cfg.d_z))
        assert np.array_equal(noise.levels[l], expect)
    for cards in ([0], [3, -1]):
        with pytest.raises(ValueError, match="cardinalities must be positive"):
            model.draw_noise(cards, rng)


# ----------------------------------------------------------------------
# Bottleneck level
# ----------------------------------------------------------------------

def test_abl_zeroed_posterior_matches_prior():
    model = SetVAE(small_config(), T.Rng(9, "init"))
    abl = model.abls[1]
    abl.ff_post_w = T.Tensor(np.zeros_like(abl.ff_post_w.data), requires_grad=True)
    abl.ff_post_b = T.Tensor(np.zeros_like(abl.ff_post_b.data), requires_grad=True)

    rng = T.Rng(1, "x")
    x_in = T.Tensor(rng.normal((1, 6, model.cfg.d)))
    h_enc = T.Tensor(rng.fork("enc").normal((1, abl.m, model.cfg.d)))
    eps = rng.fork("eps").normal((1, abl.m, model.cfg.d_z))

    inf = abl_step(x_in, abl, eps, h_enc=h_enc)
    gen = abl_step(x_in, abl, eps)
    assert np.all(inf.kl.data == 0.0)
    assert np.array_equal(inf.z.data, gen.z.data)
    assert np.array_equal(inf.x_out.data, gen.x_out.data)


def test_abl_temperature_zero_is_deterministic():
    model = SetVAE(small_config(), T.Rng(9, "init"))
    abl = model.abls[0]
    x_in = T.Tensor(T.Rng(1, "x").normal((1, 5, model.cfg.d)))
    shape = (1, abl.m, model.cfg.d_z)
    # generate scales the drawn noise by the temperature before the level
    a = abl_step(x_in, abl, T.Rng(10, "a").normal(shape) * 0.0)
    b = abl_step(x_in, abl, T.Rng(99, "b").normal(shape) * 0.0)
    assert np.array_equal(a.z.data, b.z.data)
    assert np.array_equal(a.z.data, np.broadcast_to(abl.prior_mu.data, a.z.shape))


def test_abl_infer_checks_h_enc_rows():
    model = SetVAE(small_config(), T.Rng(9, "init"))
    abl = model.abls[1]
    x_in = T.Tensor(T.Rng(1, "x").normal((1, 5, model.cfg.d)))
    bad = T.Tensor(np.zeros((1, abl.m + 1, model.cfg.d)))
    eps = T.Rng(0, "e").normal((1, abl.m, model.cfg.d_z))
    with pytest.raises(ShapeError):
        abl_step(x_in, abl, eps, h_enc=bad)


def test_abl_equivariance():
    model = SetVAE(small_config(), T.Rng(9, "init"))
    abl = model.abls[0]
    rng = T.Rng(1, "x")
    x = rng.normal((1, 7, model.cfg.d))
    eps = rng.fork("eps").normal((1, abl.m, model.cfg.d_z))
    base = abl_step(T.Tensor(x), abl, eps)
    for i in range(5):
        perm = T.Rng(20, "perm", i).permutation(7)
        out = abl_step(T.Tensor(x[:, perm]), abl, eps)
        assert np.max(np.abs(out.x_out.data - base.x_out.data[:, perm])) < 1e-10
        assert np.max(np.abs(out.z.data - base.z.data)) < 1e-10


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------

def test_encode_shapes_and_invariance():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    pts = T.Rng(8, "pts").normal((6, 2))
    x = batch_from([pts])
    hs, x_ins = model.encode(x)
    assert len(hs) == 2 and len(x_ins) == 2
    assert x_ins[0].shape == x_ins[1].shape == (1, 6, model.cfg.d)
    assert hs[0].shape == (1, 4, model.cfg.d)
    assert hs[1].shape == (1, 2, model.cfg.d)
    for i in range(5):
        perm = T.Rng(30, "perm", i).permutation(6)
        hs_p, _ = model.encode(batch_from([pts[perm]]))
        for a, b in zip(hs, hs_p):
            assert np.max(np.abs(a.data - b.data)) < 1e-10


def test_encode_distinguishes_sets():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    a, _ = model.encode(batch_from([T.Rng(1, "a").normal((5, 2))]))
    b, _ = model.encode(batch_from([T.Rng(2, "b").normal((5, 2))]))
    assert np.max(np.abs(a[-1].data - b[-1].data)) > 1e-4


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------

def test_generate_cardinalities():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    out, lat = model.generate([137], model.draw_noise([137], T.Rng(5, "gen")))
    assert out.elems.shape == (1, 137, 2)
    assert out.mask.all() and out.cards == [137]
    out2, _ = model.generate([5, 9], model.draw_noise([5, 9], T.Rng(5, "gen")))
    assert out2.elems.shape == (2, 9, 2)
    assert out2.mask.sum() == 14
    assert len(lat.levels) == 2


def test_generate_temperature_zero_repeatable():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    noise = model.draw_noise([12], T.Rng(5, "gen"))
    other = model.draw_noise([12], T.Rng(99, "other"))
    a, _ = model.generate([12], noise, temperature=0.0)
    # at temperature 0 the level noise has no effect
    b, _ = model.generate(
        [12], Noise(noise.assign, noise.z0_eps, other.levels), temperature=0.0
    )
    assert np.array_equal(a.elems.data, b.elems.data)


def test_generate_exchangeable_under_z0_permutation():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    n = 9
    noise = model.draw_noise([n], T.Rng(4, "gen"))
    base, _ = model.generate([n], noise)
    for i in range(5):
        perm = T.Rng(40, "perm", i).permutation(n)
        permuted = Noise(noise.assign[:, perm], noise.z0_eps[:, perm], noise.levels)
        out, _ = model.generate([n], permuted)
        assert np.max(np.abs(out.elems.data - base.elems.data[:, perm])) < 1e-10


def test_generate_fixed_z_reproduces_levels():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    noise = model.draw_noise([8], T.Rng(6, "gen"))
    first, lat = model.generate([8], noise)
    fixed = [lvl["z"] for lvl in lat.levels]
    # the initial set follows the same draws, the level noise does not
    other = model.draw_noise([8], T.Rng(999, "other"))
    again, lat2 = model.generate(
        [8], Noise(noise.assign, noise.z0_eps, other.levels), fixed_z=fixed
    )
    assert np.array_equal(again.elems.data, first.elems.data)
    for a, b in zip(lat.levels, lat2.levels):
        assert np.array_equal(a["z"], b["z"])


# ----------------------------------------------------------------------
# Inference and the ELBO
# ----------------------------------------------------------------------

def test_infer_kl_contract():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    x = batch_from([T.Rng(1, "a").normal((6, 2)), T.Rng(2, "b").normal((4, 2))])
    x_hat, kls, lat = model.infer(x, model.draw_noise(x.cards, T.Rng(7, "inf")))
    assert x_hat.elems.shape == x.elems.shape
    assert x_hat.cards == x.cards
    assert len(kls) == 2
    for kl in kls:
        assert kl.shape == (2,)
        assert np.all(kl.data > -1e-9)


def test_infer_kl_permutation_invariant():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    pts = T.Rng(1, "a").normal((6, 2))
    eps0 = T.Rng(2, "e0").normal((1, 6, model.cfg.d0))
    assign = np.zeros((1, 6), dtype=np.int64)
    eps = [
        T.Rng(2, "lvl", l).normal((1, m, model.cfg.d_z))
        for l, m in enumerate(model.cfg.gen_m)
    ]
    noise = Noise(assign, eps0, eps)
    _, base, _ = model.infer(batch_from([pts]), noise)
    perm = T.Rng(3, "perm").permutation(6)
    _, kls, _ = model.infer(batch_from([pts[perm]]), noise)
    for a, b in zip(base, kls):
        assert np.max(np.abs(a.data - b.data)) < 1e-9


def test_elbo_identities():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    x = batch_from([T.Rng(1, "a").normal((5, 2)), T.Rng(2, "b").normal((3, 2))])
    x_hat, kls, _ = model.infer(x, model.draw_noise(x.cards, T.Rng(7, "inf")))

    total, recon, kl_sum = model.elbo_loss(x, x_hat, kls, beta=0.25)
    expect = float(recon.data) + 0.25 * float(kl_sum.data)
    assert abs(float(total.data) - expect) < 1e-12 * max(1.0, abs(expect))

    total0, recon0, _ = model.elbo_loss(x, x_hat, kls, beta=0.0)
    assert float(total0.data) == float(recon0.data)

    perfect, rec_perfect, _ = model.elbo_loss(x, x, kls, beta=0.0)
    assert float(rec_perfect.data) == 0.0

    with pytest.raises(ValueError):
        model.elbo_loss(x, x_hat, kls, beta=-0.1)


def test_elbo_gradients_reach_every_trained_parameter():
    # Adam updates the layout's trained prefix on every step, so each
    # parameter in it must get a gradient from every ELBO
    x = batch_from([T.Rng(1, "a").normal((5, 2)), T.Rng(2, "a").normal((3, 2))])
    for cfg in (ModelConfig(), small_config(), ModelConfig(K=1)):
        model = SetVAE(cfg, T.Rng(3, "init"))
        x_hat, kls, _ = model.infer(x, model.draw_noise(x.cards, T.Rng(7, "inf")))
        total, _, _ = model.elbo_loss(x, x_hat, kls, beta=0.5)
        T.backward(total)
        buf = model.buffer
        trained = [s.name for s in buf.trained_slots]
        assert trained == [name for name in model.params() if name != "mog/logits"]
        assert [p.grad is not None for p in model.params().values()] == [
            name in trained for name in model.params()
        ]
        # component choice is a discrete draw, so the mixture weights get
        # no gradient from the ELBO, and the layout leaves them out of Adam
        assert [s.name for s in buf.layout[len(trained):]] == ["mog/logits"]
        assert buf.trained == buf.size - cfg.K


def test_tape_node_budget():
    # the default architecture as training builds it, on a desk-shaped batch
    cfg = TrainConfig()
    model = SetVAE(cfg.model_config(), T.Rng(0, "init"), dtype=cfg.np_dtype)
    sets = [
        s
        for kind in ("circle", "cross")
        for s in gen_synthetic(kind, 8, (32, 64), 0.01, T.Rng(0, kind)).sets
    ]
    x = batch_pad(sets, dtype=cfg.np_dtype)
    assert x.size == 16 and 32 <= min(x.cards) and max(x.cards) <= 64
    x_hat, kls, _ = model.infer(x, model.draw_noise(x.cards, T.Rng(0, "noise", 0)))
    loss, _, _ = model.elbo_loss(x, x_hat, kls, beta=0.005)
    # one `attend` node per attention core (its split, score, softmax,
    # weighted-sum and merge ops built 560 nodes per step and 223 per set;
    # one narrow/matmul/softmax chain per head built 1191 and 522), and two
    # `add_norm` nodes per MAB (their `affine`, `add` and `layer_norm`
    # nodes built 388 and 143)
    assert tape_nodes(loss) == 312
    out, _ = model.generate([48], model.draw_noise([48], T.Rng(0, "gen")))
    assert tape_nodes(out.elems) == 107


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
def test_training_step_peak_memory(tmp_path):
    # three default-config steps on the budget test's batch, at one BLAS
    # thread, in a hand-written loop and through `training.train`; the
    # child reads its own peak, VmHWM, before and after each step. Both
    # loops keep a step's loss bound while the next step runs. When the
    # tape outlived its backward, step 2 built its tape beside step 1's:
    # the loop grew the peak by 49,188 KiB in step 1 and by 92,208 KiB
    # over three steps, `train` by 52,352 and 95,368. With `backward`
    # consuming the tape, the loop reads 43,692 and 48,968 KiB, `train`
    # 46,824 and 52,472. With the MAB's residual sublayers as `add_norm`
    # nodes, which hold neither their affine outputs nor their sums, the
    # loop reads 33,008 and 38,308 KiB, `train` 36,168 and 41,740 (Linux,
    # numpy with OpenBLAS)
    script = """
import sys
from setvae import tensor as T
from setvae.config import TrainConfig
from setvae.data import Dataset, batch_pad, gen_synthetic
from setvae.model import SetVAE
from setvae.training import train
def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM"))
cfg = TrainConfig(steps=3, batch_size=16)
sets = [
    s
    for kind in ("circle", "cross")
    for s in gen_synthetic(kind, 8, (32, 64), 0.01, T.Rng(0, kind)).sets
]
peaks = []
if sys.argv[1] == "loop":
    model = SetVAE(cfg.model_config(), T.Rng(0, "init"), dtype=cfg.np_dtype)
    x = batch_pad(sets, dtype=cfg.np_dtype)
    opt = T.AdamState()
    peaks.append(peak())
    for step in range(3):
        x_hat, kls, _ = model.infer(x, model.draw_noise(x.cards, T.Rng(0, "noise", step)))
        loss, _, _ = model.elbo_loss(x, x_hat, kls, beta=0.005)
        model.buffer.zero_grad()
        T.backward(loss)
        T.clip_grads(model.buffer, cfg.grad_clip)
        T.adam_step(model.buffer, opt, cfg.lr)
        peaks.append(peak())
else:
    peaks.append(peak())
    train(cfg, Dataset(sets), sys.argv[2], log_fn=lambda line: peaks.append(peak()))
print(*(p - peaks[0] for p in peaks[1:]))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    for case in ("loop", "train"):
        res = subprocess.run(
            [sys.executable, "-c", script, case, str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        first, _, third = map(int, res.stdout.split())  # peak RSS growth in KiB
        assert third <= 46 * 1024, case
        # steps 2-3 reuse step 1's memory: with the tape outliving its
        # backward they added 87% and 82% of step 1's growth, now 16% and 15%
        assert third - first <= first / 4, case


def test_masked_chamfer_matches_metric():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    a = T.Rng(1, "a").normal((5, 2))
    b = T.Rng(2, "b").normal((3, 2))
    x = batch_from([a, b])
    gen = T.Rng(3, "g").normal((2, 5, 2))
    per_set = masked_chamfer(T.Tensor(gen), x)
    assert abs(per_set.data[0] - M.chamfer(a, gen[0])) < 1e-9
    assert abs(per_set.data[1] - M.chamfer(b, gen[1, :3])) < 1e-9


def test_masked_chamfer_padding_gets_no_gradient():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    x = batch_from([T.Rng(1, "a").normal((3, 2)), T.Rng(2, "b").normal((5, 2))])
    gen = T.Tensor(T.Rng(3, "g").normal((2, 5, 2)), requires_grad=True)
    T.backward(T.sum_all(masked_chamfer(gen, x)))
    assert np.all(gen.grad[0, 3:] == 0.0)
    assert np.any(gen.grad[0, :3] != 0.0)


# ----------------------------------------------------------------------
# Mean-pooled pairing (single-slot generator levels)
# ----------------------------------------------------------------------

def test_vanilla_single_slot_levels_train():
    cfg = small_config(enc_m=(4, 2), gen_m=(1, 1))
    model = SetVAE(cfg, T.Rng(3, "init"))
    rng = T.Rng(5, "data")
    sets = [rng.fork(i).normal((4, 2)) * 0.1 + 0.5 for i in range(8)]
    x = batch_from(sets)

    state = T.AdamState()
    first = last = None
    for step in range(25):
        noise = model.draw_noise(x.cards, T.Rng(6, "noise", step))
        x_hat, kls, _ = model.infer(x, noise)
        total, recon, _ = model.elbo_loss(x, x_hat, kls, beta=0.01)
        assert np.isfinite(total.data)
        if first is None:
            first = float(recon.data)
        last = float(recon.data)
        model.buffer.zero_grad()
        T.backward(total)
        T.clip_grads(model.buffer, 5.0)
        T.adam_step(model.buffer, state, lr=3e-3)
    assert last < first


# ----------------------------------------------------------------------
# Attention assignments
# ----------------------------------------------------------------------

def test_attn_assignments_encoder():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    pts = T.Rng(1, "pts").normal((6, 2))
    x = batch_from([pts])
    ids, coords = model.attn_assignments(x, level=0, side="encoder", head=1)
    assert ids.shape == (1, 6)
    assert np.all((ids >= 0) & (ids < 4))
    assert np.array_equal(coords, x.elems.data)
    perm = T.Rng(2, "perm").permutation(6)
    ids_p, _ = model.attn_assignments(
        batch_from([pts[perm]]), level=0, side="encoder", head=1
    )
    assert np.array_equal(ids_p[0], ids[0][perm])


def test_attn_assignments_generator_and_errors():
    model = SetVAE(small_config(), T.Rng(3, "init"))
    x = batch_from([T.Rng(1, "pts").normal((5, 2))])
    ids, coords = model.attn_assignments(
        x, level=1, side="generator", noise=model.draw_noise(x.cards, T.Rng(4, "r"))
    )
    assert ids.shape == (1, 5)
    assert np.all((ids >= 0) & (ids < model.cfg.gen_m[1]))
    assert coords.shape == (1, 5, 2)
    with pytest.raises(ValueError):
        model.attn_assignments(x, level=7, side="encoder")
    with pytest.raises(ValueError):
        model.attn_assignments(x, level=0, side="sideways")

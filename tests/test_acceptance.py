"""Acceptance checklist. One test per shipping criterion, tolerances pinned.

The desk-scale runs train through the real command line (which pins BLAS
to one thread) and are shared session fixtures, so the expensive part
happens once. Everything else is self-contained and fast.
"""

import csv
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import setvae.tensor as T
from helpers import (
    check_op_grad, merge_heads, rel_err, slot_attention_parts, split_heads, zero_grads,
)
from setvae.attention import AttentionParams, isab
from setvae.attention import multihead_head_weights
from setvae.data import Dataset, batch_pad, gen_synthetic, load_jsonl, save_jsonl
from setvae.metrics import chamfer, hungarian, emd, report
from setvae.model import CardinalityDist, ModelConfig, SetVAE
from setvae.model import Noise, abl_step, initial_set_kl_constant
from setvae.training import parse_log_line
from test_metrics import exact_chamfer_oracle, np_perm_cost


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "setvae.cli", *map(str, args)],
        capture_output=True, text=True,
    )


# ----------------------------------------------------------------------
# Criterion: equivariance suite
# (1e-10 at f64, 20 random permutations x 5 random inits, < 30 s)
# ----------------------------------------------------------------------

def test_criterion_equivariance_suite():
    t0 = time.monotonic()
    d, n, m = 16, 8, 4
    tol = 1e-10
    for init in range(5):
        heads = (1, 2, 4, 2, 4)[init]
        rng = T.Rng(100 + init, "equi")
        p_proj = AttentionParams.init(d, heads, T.Init(rng.fork("pp")))
        p_broad = AttentionParams.init(d, heads, T.Init(rng.fork("pb")))
        I = T.Tensor(rng.fork("I").normal((m, d)), requires_grad=True)
        x = rng.fork("x").normal((n, d))
        out0, h0 = isab(T.Tensor(x), I, p_proj, p_broad)

        cfg = ModelConfig(
            d=d, d_z=4, heads=heads, enc_m=(4, 2), gen_m=(2, 4), d0=8, K=2,
        )
        model = SetVAE(cfg, rng.fork("model"))
        abl = model.abls[0]
        xa = rng.fork("xa").normal((1, n, d))
        eps = rng.fork("eps").normal((1, abl.m, cfg.d_z))
        abl0 = abl_step(T.Tensor(xa), abl, eps)

        noise = model.draw_noise([n], rng.fork("noise"))
        gen0, _ = model.generate([n], noise)

        for t in range(20):
            perm = rng.fork("perm", t).permutation(n)
            out_p, h_p = isab(T.Tensor(x[perm]), I, p_proj, p_broad)
            assert np.max(np.abs(h_p.data - h0.data)) < tol  # invariant
            assert np.max(np.abs(out_p.data - out0.data[perm])) < tol

            abl_p = abl_step(T.Tensor(xa[:, perm]), abl, eps)
            assert np.max(np.abs(abl_p.z.data - abl0.z.data)) < tol
            assert np.max(np.abs(abl_p.x_out.data - abl0.x_out.data[:, perm])) < tol

            permuted = Noise(
                noise.assign[:, perm], noise.z0_eps[:, perm], noise.levels
            )
            gen_p, _ = model.generate([n], permuted)
            assert (
                np.max(np.abs(gen_p.elems.data - gen0.elems.data[:, perm])) < tol
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"PASS equivariance suite ({elapsed:.1f}s)")


# ----------------------------------------------------------------------
# Criterion: gradient suite
# (op-level rel err < 1e-5 on 20 inputs each, end-to-end < 1e-3, < 2 min)
# ----------------------------------------------------------------------

def op_sweep_cases():
    mask = np.array([[True, True, False, True], [True, False, True, True]])
    keep = np.array([[True, False, True, True], [False, True, True, True],
                     [True, True, False, True]])
    return [
        ("matmul", T.matmul, [(3, 4), (4, 2)], None),
        ("matmul_batched", T.matmul, [(2, 3, 4), (2, 4, 2)], None),
        ("matmul_heads_broadcast", T.matmul, [(2, 3, 4, 5), (3, 5, 2)], None),
        ("affine", T.affine, [(3, 4), (4, 2), (2,)], None),
        ("affine_batched", T.affine, [(2, 3, 4), (4, 2), (2,)], None),
        ("split_heads", lambda x: split_heads(x, 2), [(2, 3, 4)], None),
        ("merge_heads", merge_heads, [(2, 2, 3, 2)], None),
        ("transpose", T.transpose, [(3, 4)], None),
        ("attend", lambda q, k, v: T.attend(q, k, v, 2, key_mask=mask),
         [(2, 3, 4), (2, 4, 4), (2, 4, 4)], None),
        ("attend_slot",
         lambda q, k, v: T.attend(q, k, v, 2, key_mask=mask, slot=True),
         [(2, 3, 4), (2, 4, 4), (2, 4, 4)], None),
        ("add", T.add, [(3, 4), (3, 4)], None),
        ("sub", T.sub, [(3, 4), (3, 4)], None),
        ("mul", T.mul, [(3, 4), (3, 4)], None),
        ("div", T.div, [(3, 4), (3, 4)],
         lambda r: [r.standard_normal((3, 4)), r.standard_normal((3, 4)) + 3.0]),
        ("scale", lambda x: T.scale(x, -1.7), [(3, 4)], None),
        ("add_row", T.add_row, [(3, 4), (4,)], None),
        ("tanh", T.tanh, [(3, 4)], None),
        ("exp", T.exp, [(3, 4)], None),
        ("log", T.log, [(3, 4)],
         lambda r: [np.abs(r.standard_normal((3, 4))) + 0.5]),
        ("clamp", lambda x: T.clamp(x, -1.0, 1.0), [(3, 4)],
         lambda r: [r.standard_normal((3, 4)) * 0.4]),
        ("mask_mul", lambda x: T.mask_mul(x, keep.astype(float)), [(3, 4)], None),
        ("mask_fill", lambda x: T.mask_fill(x, keep, 9.0), [(3, 4)], None),
        ("outer_add", T.outer_add, [(2, 3), (2, 4)], None),
        ("expand_batch", lambda x: T.expand_batch(x, 3), [(2, 4)], None),
        ("concat", lambda a, b: T.concat([a, b], axis=1), [(3, 2), (3, 4)], None),
        ("narrow", lambda x: T.narrow(x, 1, 1, 2), [(3, 4)], None),
        ("softmax", lambda x: T.softmax_axis(x, axis=1), [(3, 5)], None),
        ("softmax_masked",
         lambda x: T.softmax_axis(x, axis=1, mask=mask), [(2, 4)], None),
        ("normalize_rows", T.normalize_rows, [(3, 4)],
         lambda r: [r.random((3, 4)) + 0.5]),
        ("layer_norm", T.layer_norm, [(4, 8), (8,), (8,)], None),
        ("reduce_sum", lambda x: T.reduce_sum(x, 1), [(3, 5)], None),
        ("reduce_mean", lambda x: T.reduce_mean(x, 0), [(3, 5)], None),
        ("reduce_min", lambda x: T.reduce_min(x, 1)[0], [(3, 5)], None),
        ("sum_all", T.sum_all, [(3, 5)], None),
    ]


def test_criterion_gradient_suite():
    t0 = time.monotonic()

    for name, op, shapes, sampler in op_sweep_cases():
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(hash(name) % 2**32 + trial)
            arrays = sampler(rng) if sampler is not None else None
            worst = max(worst, check_op_grad(op, shapes, rng, arrays=arrays))
        assert worst < 1e-5, f"{name}: rel err {worst:.2e}"

    # end to end: the full per-step loss with frozen noise
    cfg = ModelConfig(
        d=16, d_z=4, heads=2, enc_m=(4, 2), gen_m=(2, 4), d0=8, K=2,
    )
    model = SetVAE(cfg, T.Rng(7, "init"))
    sets = [T.Rng(8, "a").normal((4, 2)), T.Rng(8, "b").normal((3, 2))]
    x = batch_pad(sets)
    assign = T.Rng(9, "assign").integers(0, cfg.K, (2, 4)).astype(np.int64)
    z0_eps = T.Rng(9, "z0").normal((2, 4, cfg.d0))
    leps = [
        T.Rng(9, "lvl", l).normal((2, m, cfg.d_z))
        for l, m in enumerate(cfg.gen_m)
    ]
    # one set of draws for every evaluation: a bumped logit moves no component
    noise = Noise(assign, z0_eps, leps)

    def loss_and_model():
        x_hat, kls, _ = model.infer(x, noise)
        return model.elbo_loss(x, x_hat, kls, beta=0.5)[0]

    T.backward(loss_and_model())
    params = model.params()
    grads = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
    zero_grads(params)

    picker = np.random.default_rng(123)
    names = sorted(grads)
    worst = 0.0
    for _ in range(10):
        name = names[picker.integers(len(names))]
        p = params[name]
        idx = int(picker.integers(p.data.size))
        orig = p.data.copy()
        h = 1e-5 * (1.0 + abs(orig.flat[idx]))

        bumped = orig.copy()
        bumped.flat[idx] = orig.flat[idx] + h
        p.data = bumped
        up = float(loss_and_model().data)
        bumped = orig.copy()
        bumped.flat[idx] = orig.flat[idx] - h
        p.data = bumped
        down = float(loss_and_model().data)
        p.data = orig

        numeric = (up - down) / (2.0 * h)
        analytic = grads[name].flat[idx]
        err = abs(analytic - numeric) / max(abs(numeric), 1e-6)
        worst = max(worst, err)
        assert err < 1e-3, f"{name}[{idx}]: {analytic} vs {numeric}"

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"PASS gradient suite (worst end-to-end {worst:.2e}, {elapsed:.1f}s)")


# ----------------------------------------------------------------------
# Criterion: matching oracle
# (Hungarian == brute force on 200 instances n <= 6; EMD/CD equal their
#  double-loop oracles exactly on 100 set pairs; < 1 min)
# ----------------------------------------------------------------------

def test_criterion_matching_oracle():
    t0 = time.monotonic()

    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        cost = rng.normal(size=(n, n))
        perm = hungarian(cost)
        best = np.inf
        for cand in itertools.permutations(range(n)):
            best = min(best, sum(cost[i, cand[i]] for i in range(n)))
        assert sum(cost[i, perm[i]] for i in range(n)) == best

    for trial in range(100):
        x = rng.normal(size=(int(rng.integers(1, 16)), 2))
        y = rng.normal(size=(int(rng.integers(1, 16)), 2))
        assert chamfer(x, y) == exact_chamfer_oracle(x, y)

    for trial in range(100):
        n = int(rng.integers(1, 7))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2))
        cost = np.sqrt(np.sum((x[:, None] - y[None]) ** 2, axis=-1))
        best = min(
            np_perm_cost(cost, cand)
            for cand in itertools.permutations(range(n))
        )
        assert emd(x, y) == best

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS matching oracle ({elapsed:.1f}s)")


# ----------------------------------------------------------------------
# Criterion: metric fixture
# (duplicated -> (mmd, cov, 1-nna) = (0, 1, 0) exactly; separated -> 1)
# ----------------------------------------------------------------------

def test_criterion_metric_fixture():
    rng = np.random.default_rng(17)
    Sr = [rng.normal(size=(int(rng.integers(4, 9)), 2)) for _ in range(10)]
    Sg = [s.copy() for s in Sr]
    rep = report(Sg, Sr)
    assert (rep.mmd, rep.cov, rep.one_nna) == (0.0, 1.0, 0.0)

    far = [s + 1000.0 for s in Sr]
    assert report(far, Sr).one_nna == 1.0
    print("PASS metric fixture")


# ----------------------------------------------------------------------
# Criterion: KL constant
# (-log p(n) against closed form for 10 histograms, exact to 1e-12)
# ----------------------------------------------------------------------

def test_criterion_kl_constant():
    rng = np.random.default_rng(23)
    histograms = [
        {5: 1},
        {7: 4},
        {n: 1 for n in range(1, 3)},
        {n: 1 for n in range(1, 6)},
        {n: 1 for n in range(1, 98)},
        {3: 2, 5: 1},
        {1: 1, 2: 2, 3: 3},
        {10: 5, 20: 5},
        {n: 2 ** (10 - n) for n in range(1, 11)},
        {int(n): int(c) for n, c in zip(rng.integers(1, 50, 6),
                                        rng.integers(1, 9, 6))},
    ]
    assert len(histograms) == 10
    for counts in histograms:
        dist = CardinalityDist(counts)
        total = sum(dist.counts.values())
        for n, c in dist.counts.items():
            expect = -math.log(c / total)
            assert abs(initial_set_kl_constant(dist, n) - expect) < 1e-12
    print("PASS KL constant")


# ----------------------------------------------------------------------
# Criterion: slot attention normalization
# (column sums of A' = 1, row sums of W' = 1, within 1e-12,
#  for all head counts and masks)
# ----------------------------------------------------------------------

def test_criterion_slot_attention_normalization():
    n, m, d = 6, 3, 16
    rng = T.Rng(31, "slot")
    masks = [
        None,
        np.array([True] * 4 + [False] * 2),
        np.array([True, False, True, False, True, False]),
        np.array([True] * 6),
    ]
    for d_h in (2, 4, 8, 16):
        Q = T.Tensor(rng.fork("q", d_h).normal((m, d_h)))
        K = T.Tensor(rng.fork("k", d_h).normal((n, d_h)))
        for mask in masks:
            A, W = slot_attention_parts(Q, K, key_mask=mask)
            cols = A.data.sum(axis=0)
            rows = W.data.sum(axis=1)
            valid = np.ones(n, dtype=bool) if mask is None else mask
            assert np.max(np.abs(cols[valid] - 1.0)) < 1e-12
            assert np.all(A.data[:, ~valid] == 0.0)
            assert np.max(np.abs(rows - 1.0)) < 1e-12

    x = T.Tensor(rng.fork("x").normal((n, d)))
    for heads in (1, 2, 4, 8):
        p = AttentionParams.init(d, heads, T.Init(rng.fork("p", heads)))
        I = T.Tensor(rng.fork("i", heads).normal((m, d)), requires_grad=True)
        for mask in masks:
            for h in range(heads):
                W = multihead_head_weights(I, x, p, h, key_mask=mask, slot=True)
                assert np.max(np.abs(W.sum(axis=-1) - 1.0)) < 1e-12
                if mask is not None:
                    assert np.all(W[:, ~mask] == 0.0)
    print("PASS slot attention normalization")


# ----------------------------------------------------------------------
# Desk-scale fixtures: the real CLI, the default architecture
# ----------------------------------------------------------------------

DESK_CONFIG = "steps = 2000\nseed = 0\n"  # everything else is the default


@pytest.fixture(scope="session")
def desk_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    circle = gen_synthetic("circle", 250, (32, 64), 0.01, T.Rng(0, "circle"))
    cross = gen_synthetic("cross", 250, (32, 64), 0.01, T.Rng(0, "cross"))
    ds = Dataset(circle.sets + cross.sets, circle.labels + cross.labels)
    data = root / "train.jsonl"
    save_jsonl(ds, data)
    return {"root": root, "data": data}


@pytest.fixture(scope="session")
def desk_run(desk_corpus):
    root = desk_corpus["root"]
    cfg = root / "default.cfg"
    cfg.write_text(DESK_CONFIG)
    out = root / "run"
    t0 = time.monotonic()
    res = run_cli(
        "train", "--config", cfg, "--data", desk_corpus["data"], "--out", out
    )
    elapsed = time.monotonic() - t0
    assert res.returncode == 0, res.stderr[-2000:]
    return {
        "out": out,
        "ckpt": out / "final.svae",
        "elapsed": elapsed,
        "data": desk_corpus["data"],
        "root": root,
    }


# ----------------------------------------------------------------------
# Criterion: desk-scale training
# (500 sets, n in [32,64], 2D, default config, 2000 steps, single thread,
#  < 15 min; last-50 mean recon < 0.3 x mean over steps 10-60)
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_desk_scale_training(desk_run):
    assert desk_run["elapsed"] < 900.0
    lines = (desk_run["out"] / "train_log.txt").read_text().strip().splitlines()
    assert len(lines) == 2000
    recs = [parse_log_line(l) for l in lines]
    assert all(np.isfinite(r["total"]) for r in recs)
    early = [r["recon"] for r in recs if 10 <= r["step"] <= 60]
    late = [r["recon"] for r in recs[-50:]]
    assert len(early) == 51 and len(late) == 50
    ratio = np.mean(late) / np.mean(early)
    assert ratio < 0.3, f"late/early recon ratio {ratio:.3f}"
    print(
        f"PASS desk-scale training ({desk_run['elapsed']:.0f}s, "
        f"recon ratio {ratio:.3f})"
    )


# ----------------------------------------------------------------------
# Criterion: reconstruction beats prior samples
# (median CD(x, x_hat) < median CD(x, random prior sample))
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_reconstruction_beats_prior(desk_run):
    root = desk_run["root"]
    full = load_jsonl(desk_run["data"])
    eval_sets = full.sets[:25] + full.sets[250:275]  # both shapes
    eval_path = root / "eval.jsonl"
    save_jsonl(Dataset(eval_sets), eval_path)

    recon_path = root / "recon.jsonl"
    res = run_cli(
        "reconstruct", "--ckpt", desk_run["ckpt"], "--data", eval_path,
        "--out", recon_path,
    )
    assert res.returncode == 0, res.stderr
    with open(str(recon_path) + ".metrics.csv") as f:
        rows = list(csv.reader(f))
    recon_cd = [float(r[1]) for r in rows[1:]]
    assert len(recon_cd) == 50

    prior_path = root / "prior.jsonl"
    res = run_cli(
        "sample", "--ckpt", desk_run["ckpt"], "--num-samples", 50,
        "--seed", 500, "--out", prior_path,
    )
    assert res.returncode == 0, res.stderr
    prior = load_jsonl(prior_path)
    prior_cd = [chamfer(x, p) for x, p in zip(eval_sets, prior.sets)]

    med_recon = float(np.median(recon_cd))
    med_prior = float(np.median(prior_cd))
    assert med_recon < med_prior, f"{med_recon} vs {med_prior}"
    print(
        f"PASS reconstruction beats prior "
        f"(median CD {med_recon:.4f} < {med_prior:.4f})"
    )


# ----------------------------------------------------------------------
# Criterion: K=1 ablation completes and its loss curve is logged
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_unimodal_ablation(desk_corpus):
    root = desk_corpus["root"]
    cfg = root / "ablation.cfg"
    cfg.write_text(DESK_CONFIG + "K = 1\n")
    out = root / "ablation"
    res = run_cli(
        "train", "--config", cfg, "--data", desk_corpus["data"], "--out", out
    )
    assert res.returncode == 0, res.stderr[-2000:]
    lines = (out / "train_log.txt").read_text().strip().splitlines()
    assert len(lines) == 2000
    recs = [parse_log_line(l) for l in lines]
    assert all(np.isfinite(r["recon"]) and np.isfinite(r["kl"]) for r in recs)
    assert (out / "final.svae").exists()
    print("PASS unimodal ablation completes and logs")


# ----------------------------------------------------------------------
# Criterion: cardinality generalization
# (trained on n in [32,64]; samples n in {8, 1024}, finite, exact count)
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_cardinality_generalization(desk_run):
    root = desk_run["root"]
    for n, count in ((8, 3), (1024, 2)):
        out = root / f"gen_{n}.jsonl"
        res = run_cli(
            "sample", "--ckpt", desk_run["ckpt"], "--num-samples", count,
            "--n", n, "--out", out,
        )
        assert res.returncode == 0, res.stderr
        ds = load_jsonl(out)
        assert len(ds) == count
        assert all(len(s) == n for s in ds.sets)
        assert all(np.all(np.isfinite(s)) for s in ds.sets)
    print("PASS cardinality generalization (n=8 and n=1024)")


# ----------------------------------------------------------------------
# Criterion: determinism
# (same seeds -> bitwise-identical checkpoints and sample files,
#  including after resume)
# ----------------------------------------------------------------------

SMALL_CONFIG = """
d = 8
d_z = 2
heads = 2
enc_m = 2
gen_m = 2
d0 = 4
K = 2
steps = 40
batch_size = 8
ckpt_interval = 20
anneal_steps = 10
seed = 5
"""


def test_criterion_determinism(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CONFIG)
    data = tmp_path / "data.jsonl"
    save_jsonl(gen_synthetic("circle", 60, (4, 8), 0.01, T.Rng(2, "d")), data)

    finals = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = run_cli("train", "--config", cfg, "--data", data, "--out", out)
        assert res.returncode == 0, res.stderr
        finals.append((out / "final.svae").read_bytes())
        if name == "a":
            assert (out / "ckpt_000020.svae").exists()
    assert finals[0] == finals[1]
    assert (
        (tmp_path / "a" / "train_log.txt").read_bytes()
        == (tmp_path / "b" / "train_log.txt").read_bytes()
    )

    # resume from the midpoint checkpoint and land on the same bytes
    out = tmp_path / "resumed"
    res = run_cli(
        "train", "--config", cfg, "--data", data, "--out", out,
        "--resume", tmp_path / "a" / "ckpt_000020.svae",
    )
    assert res.returncode == 0, res.stderr
    assert (out / "final.svae").read_bytes() == finals[0]

    samples = []
    for source in ("a", "resumed"):
        for rep in range(2):
            sp = tmp_path / f"s_{source}_{rep}.jsonl"
            res = run_cli(
                "sample", "--ckpt", tmp_path / source / "final.svae",
                "--num-samples", 6, "--seed", 9, "--out", sp,
            )
            assert res.returncode == 0, res.stderr
            samples.append(sp.read_bytes())
    assert len(set(samples)) == 1
    print("PASS determinism (checkpoints, logs, samples, resume)")

"""Tests for schedules, log lines, and the training loop itself."""

import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

import setvae.tensor as T
import setvae.training as training
from helpers import DictAdamState, adam_step_dict, clip_grads_dict, zero_grads
from setvae.checkpoint import load_model
from setvae.cli import _frozen_model
from setvae.config import TrainConfig
from setvae.data import batch_pad, gen_synthetic
from setvae.model import SetVAE
from setvae.training import (
    TrainingAborted,
    beta_schedule,
    format_log_line,
    lr_schedule,
    parse_log_line,
    total_step_count,
    train,
)


def toy_dataset(seed=0, count=24):
    return gen_synthetic("circle", count, (4, 6), 0.01, T.Rng(seed, "data"))


def toy_config(**kw):
    base = dict(
        d=8, d_z=2, heads=2, enc_m=(2,), gen_m=(2,), d0=4, K=2,
        steps=10, batch_size=6, seed=3, lr=1e-3, ckpt_interval=5,
        anneal_steps=4, dtype="f32",
    )
    base.update(kw)
    return TrainConfig(**base)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------

def test_beta_schedule_values():
    assert beta_schedule(0, 1000, 0.01) == 0.0
    assert beta_schedule(500, 1000, 0.01) == 0.005
    assert beta_schedule(1000, 1000, 0.01) == 0.01
    assert beta_schedule(5000, 1000, 0.01) == 0.01
    assert beta_schedule(0, 0, 0.01) == 0.01  # no annealing
    with pytest.raises(ValueError):
        beta_schedule(1, -1, 0.01)


def test_lr_schedule_values():
    assert lr_schedule(0, 100, 1e-3, 0.5) == 1e-3
    assert lr_schedule(50, 100, 1e-3, 0.5) == 1e-3
    assert lr_schedule(75, 100, 1e-3, 0.5) == pytest.approx(5e-4)
    assert lr_schedule(100, 100, 1e-3, 0.5) == 0.0
    assert lr_schedule(99, 100, 1e-3, 1.0) == 1e-3  # decay disabled
    assert lr_schedule(7, 0, 1e-3, 0.5) == 1e-3


def test_total_step_count():
    assert total_step_count(toy_config(steps=0, epochs=3), 24) == 12
    assert total_step_count(toy_config(steps=7), 24) == 7


# ----------------------------------------------------------------------
# Log lines
# ----------------------------------------------------------------------

def test_log_line_identity_survives_parsing():
    line = format_log_line(17, 0.1234567890123, 81.5, 0.0075, 2.5e-4)
    rec = parse_log_line(line)
    assert rec["step"] == 17
    assert rec["total"] == rec["recon"] + rec["beta"] * rec["kl"]


def test_log_line_roundtrips_full_precision():
    recon, kl = 1 / 3, 7 / 11
    rec = parse_log_line(format_log_line(1, recon, kl, 0.01, 1e-3))
    assert rec["recon"] == recon and rec["kl"] == kl


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------

def test_train_writes_logs_and_checkpoints(tmp_path):
    out = tmp_path / "run"
    final = train(toy_config(), toy_dataset(), out)
    assert os.path.basename(final) == "final.svae"

    lines = (out / "train_log.txt").read_text().strip().splitlines()
    assert len(lines) == 10
    steps = [parse_log_line(l)["step"] for l in lines]
    assert steps == list(range(1, 11))
    for l in lines:
        rec = parse_log_line(l)
        assert rec["total"] == rec["recon"] + rec["beta"] * rec["kl"]
        assert np.isfinite(rec["total"])
    # interval checkpoint at 5 but not at the final step
    assert (out / "ckpt_000005.svae").exists()
    assert not (out / "ckpt_000010.svae").exists()

    model, opt, step = load_model(final)
    assert step == 10 and opt.step == 10
    assert model.card_dist is not None


def test_train_is_deterministic(tmp_path):
    a = train(toy_config(), toy_dataset(), tmp_path / "a")
    b = train(toy_config(), toy_dataset(), tmp_path / "b")
    assert open(a, "rb").read() == open(b, "rb").read()
    log_a = (tmp_path / "a" / "train_log.txt").read_bytes()
    log_b = (tmp_path / "b" / "train_log.txt").read_bytes()
    assert log_a == log_b


def test_resume_matches_uninterrupted_run(tmp_path):
    # 24 sets in batches of 6 make 4-step epochs: the checkpoint at step 5
    # resumes mid-epoch, the one at step 8 on an epoch boundary
    cfg = toy_config(ckpt_interval=1)
    ds = toy_dataset()
    straight = train(cfg, ds, tmp_path / "full")
    full_log = (tmp_path / "full" / "train_log.txt").read_bytes()

    for step in (5, 8):
        resumed = train(
            cfg, ds, tmp_path / f"resumed{step}",
            resume=str(tmp_path / "full" / f"ckpt_{step:06d}.svae"),
        )
        assert open(straight, "rb").read() == open(resumed, "rb").read()

        log = tmp_path / f"resumed{step}" / "train_log.txt"
        lines = log.read_text().splitlines()
        assert [parse_log_line(l)["step"] for l in lines] == list(range(step + 1, 11))
        assert full_log.decode().splitlines()[step:] == lines

    # resuming into the run's own directory replaces the replayed steps
    straight_bytes = open(straight, "rb").read()
    again = train(
        cfg, ds, tmp_path / "full",
        resume=str(tmp_path / "full" / "ckpt_000005.svae"),
    )
    assert open(again, "rb").read() == straight_bytes
    assert (tmp_path / "full" / "train_log.txt").read_bytes() == full_log


# a resume from step 5 that dies at step 7, before any checkpoint
CRASHED_RESUME = """
import os, sys
sys.path.insert(0, sys.argv[1])
from test_training import toy_config, toy_dataset
from setvae.training import parse_log_line, train

def crash(line):
    if parse_log_line(line)["step"] == 7:
        os._exit(3)

train(toy_config(), toy_dataset(), sys.argv[2], resume=sys.argv[3], log_fn=crash)
"""


def test_crashed_resume_keeps_the_log(tmp_path):
    cfg, ds = toy_config(), toy_dataset()
    full = tmp_path / "full"
    straight = train(cfg, ds, full)
    full_log = (full / "train_log.txt").read_bytes()
    run = tmp_path / "run"
    train(cfg, ds, run)
    ckpt = str(run / "ckpt_000005.svae")

    tests = os.path.dirname(os.path.abspath(__file__))
    res = subprocess.run(
        [sys.executable, "-c", CRASHED_RESUME, tests, str(run), ckpt],
        capture_output=True, text=True,
    )
    assert res.returncode == 3, res.stderr
    kept = b"".join(full_log.splitlines(keepends=True)[:5])
    assert (run / "train_log.txt").read_bytes().startswith(kept)

    resumed = train(cfg, ds, run, resume=ckpt)
    assert open(resumed, "rb").read() == open(straight, "rb").read()
    assert (run / "train_log.txt").read_bytes() == full_log


def test_interrupt_saves_a_resumable_checkpoint(tmp_path):
    cfg = toy_config()
    ds = toy_dataset()
    straight = train(cfg, ds, tmp_path / "full")

    def interrupt_at_step_3(line):
        if parse_log_line(line)["step"] == 3:
            os.kill(os.getpid(), signal.SIGINT)

    before = signal.getsignal(signal.SIGINT)
    run = tmp_path / "run"
    with pytest.raises(TrainingAborted, match="interrupted after step 3"):
        train(cfg, ds, run, log_fn=interrupt_at_step_3)
    assert signal.getsignal(signal.SIGINT) is before
    assert not (run / "final.svae").exists()

    resumed = train(cfg, ds, run, resume=str(run / "ckpt_000003.svae"))
    assert open(resumed, "rb").read() == open(straight, "rb").read()
    assert (run / "train_log.txt").read_bytes() == (
        tmp_path / "full" / "train_log.txt"
    ).read_bytes()


def test_resume_rejects_architecture_change(tmp_path):
    cfg = toy_config()
    ds = toy_dataset()
    train(cfg, ds, tmp_path / "base")
    other = toy_config(d=16)
    with pytest.raises(ValueError, match="architecture"):
        train(other, ds, tmp_path / "other",
              resume=str(tmp_path / "base" / "final.svae"))
    assert not (tmp_path / "other").exists()


def test_train_rejects_dimension_mismatch(tmp_path):
    cfg = toy_config(out_dim=3)
    with pytest.raises(ValueError, match="dimension"):
        train(cfg, toy_dataset(), tmp_path / "bad")


def test_divergence_aborts_and_keeps_checkpoint(tmp_path):
    out = tmp_path / "explode"
    cfg = toy_config(lr=1e4, steps=30, ckpt_interval=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingAborted, match="last checkpoint kept"):
            train(cfg, toy_dataset(), out)
    assert (out / "ckpt_000001.svae").exists()
    assert not (out / "final.svae").exists()


def test_loss_decreases_on_toy_data(tmp_path):
    out = tmp_path / "learn"
    train(toy_config(steps=60, lr=3e-3, seed=1), toy_dataset(count=30), out)
    lines = (out / "train_log.txt").read_text().strip().splitlines()
    recons = [parse_log_line(l)["recon"] for l in lines]
    assert np.mean(recons[-10:]) < np.mean(recons[:10])


def assert_one_buffer(model):
    """Every parameter's data is its view of the model's one vector, and
    every trained one's gradient, once bound, its view of the other."""
    buf = model.buffer
    assert buf.params == model.params()
    assert buf.data.shape == (buf.size,)
    for s in buf.layout:
        p = buf.params[s.name]
        assert p.data.shape == s.shape and np.shares_memory(p.data, buf.data[s.span])
        if buf.grad is not None and s.span.stop <= buf.trained:
            assert np.shares_memory(p.grad, buf.grad[s.span])


def test_parameters_stay_views_of_one_buffer(tmp_path, monkeypatch):
    cfg, ds = toy_config(), toy_dataset()
    saved = []
    save_model = training.save_model

    def checked_save(path, model, opt, step):
        assert_one_buffer(model)
        assert model.buffer.grad is not None and opt.m.shape == (model.buffer.trained,)
        saved.append(step)
        save_model(path, model, opt, step)

    monkeypatch.setattr(training, "save_model", checked_save)
    train(cfg, ds, tmp_path / "a")
    train(cfg, ds, tmp_path / "b", resume=str(tmp_path / "a" / "ckpt_000005.svae"))
    assert saved == [5, 10, 10]  # after steps, and after steps of a resume

    assert_one_buffer(SetVAE(cfg.model_config(), T.Rng(0, "init"), dtype=np.float32))
    model, opt, _ = load_model(tmp_path / "b" / "final.svae")
    assert_one_buffer(model)
    assert model.buffer.grad is None and opt.m is not None
    frozen = _frozen_model(tmp_path / "b" / "final.svae")
    assert_one_buffer(frozen)
    assert frozen.buffer.grad is None
    assert load_model(tmp_path / "b" / "final.svae", frozen=True)[1].m is None


@pytest.mark.parametrize("grad_clip", [1.0, 0.0], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_flat_optimizer_matches_dict_reference(dtype, grad_clip):
    # the whole-vector clip and Adam against the loop over named arrays,
    # bit for bit, on the digest tool's small architecture
    cfg = TrainConfig(d=16, d_z=4, heads=2, K=3, d0=8, enc_m=(8, 4), gen_m=(4, 8))
    flat = SetVAE(cfg.model_config(), T.Rng(5, "init"), dtype=dtype)
    ref = SetVAE(cfg.model_config(), T.Rng(5, "init"), dtype=dtype)
    ref_params = ref.params()
    sets = toy_dataset(seed=1, count=8).sets
    x = batch_pad(sets, dtype=dtype)
    flat_state, ref_state = T.AdamState(), DictAdamState()
    clipped = 0
    for step in range(5):
        norms = []
        for model in (flat, ref):
            noise = model.draw_noise(x.cards, T.Rng(5, "noise", step))
            x_hat, kls, _ = model.infer(x, noise)
            loss = model.elbo_loss(x, x_hat, kls, beta=0.01)[0]
            if model is flat:
                flat.buffer.zero_grad()
                T.backward(loss)
                norms.append(T.clip_grads(flat.buffer, grad_clip))
                T.adam_step(flat.buffer, flat_state, 1e-2)
            else:
                zero_grads(ref_params)
                T.backward(loss)
                grads = {k: p.grad for k, p in ref_params.items() if p.grad is not None}
                norms.append(clip_grads_dict(grads, grad_clip))
                adam_step_dict(ref_params, grads, ref_state, 1e-2)
        assert norms[0] == norms[1]
        clipped += grad_clip > 0 and norms[0] > grad_clip
        for s in flat.buffer.layout:
            got, want = flat.params()[s.name].data, ref_params[s.name].data
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), s.name
        assert list(ref_state.m) == [s.name for s in flat.buffer.trained_slots]
        for s in flat.buffer.trained_slots:
            assert flat_state.m[s.span].tobytes() == ref_state.m[s.name].tobytes()
            assert flat_state.v[s.span].tobytes() == ref_state.v[s.name].tobytes()
    assert clipped == (5 if grad_clip else 0)

"""Tests for schedules, log lines, and the training loop itself."""

import os
import signal
import warnings

import numpy as np
import pytest

import setvae.tensor as T
from setvae.checkpoint import load_model
from setvae.config import TrainConfig
from setvae.data import gen_synthetic
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

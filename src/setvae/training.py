"""Training loop: schedules, per-step logging, checkpoints, exact resume.

Randomness is keyed, not streamed: minibatch order comes from
Rng(seed, "shuffle", epoch) and all per-step noise from
Rng(seed, "noise", step), so a run resumed from step k replays steps
k+1.. with exactly the bits an uninterrupted run would have used.

Each step appends one log line. A fresh run refuses a directory that
holds checkpoints, and a resume truncates the log to the lines up to the
checkpoint's step, in place, and appends from there:

    step=N recon=R kl=K beta=B lr=L total=T

with full-precision reprs and total computed as R + B*K in float64 from
the logged values themselves, so a log parser can re-check the identity
exactly.

An interrupt (SIGINT) ends the run after the step in progress, with a
checkpoint of that step to resume from.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from contextlib import contextmanager

import numpy as np

from . import tensor as T
from .checkpoint import load_model, save_model
from .config import TrainConfig
from .data import Dataset, batch_pad, cardinality_histogram
from .model import NonFiniteError, SetVAE


class TrainingAborted(RuntimeError):
    """Raised when the run goes non-finite, or on an interrupt; the last
    checkpoint survives."""


def beta_schedule(step: int, anneal_steps: int, beta_max: float) -> float:
    """Linear ramp 0 -> beta_max over anneal_steps (beta_max when 0)."""
    if anneal_steps < 0:
        raise ValueError("anneal_steps must be nonnegative")
    if anneal_steps == 0:
        return beta_max
    return beta_max * min(1.0, step / anneal_steps)


def lr_schedule(step: int, total_steps: int, lr: float, decay_start: float) -> float:
    """Constant until decay_start of training, then linear toward zero."""
    if total_steps <= 0:
        return lr
    frac = step / total_steps
    if frac <= decay_start:
        return lr
    if decay_start >= 1.0:
        return lr
    return lr * max(0.0, (1.0 - frac) / (1.0 - decay_start))


def total_step_count(cfg: TrainConfig, dataset_size: int) -> int:
    per_epoch = math.ceil(dataset_size / cfg.batch_size)
    if cfg.steps > 0:
        return cfg.steps
    return cfg.epochs * per_epoch


def format_log_line(step: int, recon: float, kl: float, beta: float, lr: float) -> str:
    total = recon + beta * kl
    return (
        f"step={step} recon={recon!r} kl={kl!r} beta={beta!r} "
        f"lr={lr!r} total={total!r}"
    )


def parse_log_line(line: str) -> dict:
    """The fields of a `format_log_line` line; ValueError names any other."""
    toks = [tok.partition("=") for tok in line.split()]
    if [t[0] for t in toks] == ["step", "recon", "kl", "beta", "lr", "total"]:
        try:
            return {k: int(v) if k == "step" else float(v) for k, _, v in toks}
        except ValueError:
            pass
    raise ValueError(f"malformed training log line {line.rstrip()!r}")


@contextmanager
def _interrupt_flag():
    """A list that SIGINT appends to in place of raising KeyboardInterrupt,
    on the main thread (the only one that may set a handler)."""
    flag = []
    main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGINT, lambda *_: flag.append(1)) if main else None
    try:
        yield flag
    finally:
        if main:
            signal.signal(signal.SIGINT, previous)


def train(
    cfg: TrainConfig,
    ds: Dataset,
    out_dir,
    resume: str | None = None,
    log_fn=None,
) -> str:
    """Run training; returns the final checkpoint path."""
    if ds.dim != cfg.out_dim:
        raise ValueError(
            f"dataset dimension {ds.dim} does not match out_dim {cfg.out_dim}"
        )
    if resume is None and os.path.isdir(out_dir) and any(
        name.endswith(".svae") for name in os.listdir(out_dir)
    ):
        # a fresh run would truncate the log beside another run's checkpoints
        raise ValueError(
            f"{out_dir} holds checkpoints of an earlier run; resume from one "
            "of them or train into another directory"
        )
    dtype = cfg.np_dtype

    if resume is not None:
        model, opt, start_step = load_model(resume, dtype=dtype)
        if model.cfg != cfg.model_config():
            raise ValueError("resume checkpoint architecture differs from config")
        if opt is None:
            opt = T.AdamState()
    else:
        model = SetVAE(cfg.model_config(), T.Rng(cfg.seed, "init"), dtype=dtype)
        opt = T.AdamState()
        start_step = 0
    model.card_dist = cardinality_histogram(ds)

    buf = model.buffer
    per_epoch = math.ceil(len(ds) / cfg.batch_size)
    total = total_step_count(cfg, len(ds))

    # made only once the data, the checkpoint and the model are in hand, so
    # a run rejected before its first step leaves no directory behind
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train_log.txt")
    final_path = os.path.join(out_dir, "final.svae")
    kept = 0  # bytes of the log a resume keeps
    if resume is not None and os.path.exists(log_path):
        # steps after the checkpoint are replayed; a line with no newline
        # was cut short by a crash
        with open(log_path, "rb") as f:
            for l in f:
                if not l.endswith(b"\n") or parse_log_line(l.decode())["step"] > start_step:
                    break
                kept += len(l)
    done = start_step
    with _interrupt_flag() as interrupted, open(log_path, "a", encoding="utf-8") as log:
        # the kept lines are never rewritten, so a crash from here on can
        # lose only lines past the checkpoint
        log.truncate(kept)
        for g in range(start_step, total):  # g: 0-based index of this step
            epoch, b = divmod(g, per_epoch)
            if b == 0 or g == start_step:
                order = T.Rng(cfg.seed, "shuffle", epoch).permutation(len(ds))
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            batch = batch_pad([ds.sets[i] for i in idx], dtype=dtype)

            beta = beta_schedule(g, cfg.anneal_steps, cfg.beta_max)
            lr = lr_schedule(g, total, cfg.lr, cfg.lr_decay_start)
            rng = T.Rng(cfg.seed, "noise", g)
            try:
                x_hat, kls, _ = model.infer(batch, model.draw_noise(batch.cards, rng))
                loss, recon, kl_sum = model.elbo_loss(batch, x_hat, kls, beta)
                if not np.isfinite(loss.data):
                    raise FloatingPointError("non-finite loss")
                buf.zero_grad()
                T.backward(loss)
                T.clip_grads(buf, cfg.grad_clip)
                T.adam_step(
                    buf, opt, lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2
                )
            except (NonFiniteError, FloatingPointError) as e:
                raise TrainingAborted(
                    f"{e} at step {g + 1}; last checkpoint kept in {out_dir}"
                ) from None

            done = g + 1
            line = format_log_line(
                done, float(recon.data), float(kl_sum.data), beta, lr
            )
            log.write(line + "\n")
            if log_fn is not None:
                log_fn(line)

            stop = bool(interrupted)  # read once: SIGINT may land in between
            if stop or (done % cfg.ckpt_interval == 0 and done < total):
                log.flush()  # the log on disk covers every checkpoint
                ckpt = os.path.join(out_dir, f"ckpt_{done:06d}.svae")
                save_model(ckpt, model, opt, done)
            if stop:
                raise TrainingAborted(
                    f"interrupted after step {done}; checkpoint kept in {ckpt}"
                )
        log.flush()
    save_model(final_path, model, opt, done)
    return final_path

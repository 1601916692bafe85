"""Operator command line: train, sample, eval, reconstruct, attn-export.

Every command exits nonzero on failure with a single `error: ...` line on
stderr. Training is bitwise-reproducible per seed at one BLAS thread,
which is pinned below before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import json
import sys

import numpy as np

from . import tensor as T
from .attention import ConfigError
from .checkpoint import CheckpointError, load_model
from .config import load_config
from .data import Dataset, batch_pad, load_jsonl, save_jsonl, unpad
from .metrics import chamfer, report
from .model import Noise
from .training import TrainingAborted, train

RECONSTRUCT_BATCH = 16
# element rows per `generate` call of `sample`: peak memory stays bounded
# however many sets are asked for
SAMPLE_ROWS = 4096


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = int(args.seed)
        cfg.validate()
    ds = load_jsonl(args.data)
    final = train(cfg, ds, args.out, resume=args.resume, log_fn=print)
    print(f"final checkpoint: {final}")
    return 0


def _frozen_model(path):
    """A checkpoint's model for inference: no parameter requires a
    gradient, so no op records a tape edge and each intermediate array is
    freed once the next op has read it."""
    model, _, _ = load_model(path)
    for p in model.params().values():
        p.requires_grad = False
    return model


def _stacked_noise(parts):
    """One Noise for the sets of `parts`, in order along axis 0."""
    return Noise(
        np.concatenate([p.assign for p in parts]),
        np.concatenate([p.z0_eps for p in parts]),
        [np.concatenate(level) for level in zip(*(p.levels for p in parts))],
    )


def cmd_sample(args) -> int:
    model = _frozen_model(args.ckpt)
    if args.n is None and model.card_dist is None:
        raise ValueError(
            "checkpoint stores no cardinality distribution; pass --n"
        )
    rng = T.Rng(args.seed, "sample")
    cards = [
        args.n if args.n is not None else model.card_dist.sample(rng.fork("card", i))
        for i in range(args.num_samples)
    ]
    # set i draws from forks (seed, i) only, and shares a `generate` call
    # with sets of its own size alone: padding would change the BLAS sums,
    # so its bits would depend on its neighbours. Sample 0 runs first and
    # alone when its latents pin the rest.
    chunks = [[0]] if args.fix_latents and cards else []
    by_size = {}
    for i in range(len(chunks), len(cards)):
        by_size.setdefault(cards[i], []).append(i)
    for n, idx in by_size.items():
        k = max(1, SAMPLE_ROWS // max(n, 1))  # draw_noise rejects n < 1
        chunks += [idx[s : s + k] for s in range(0, len(idx), k)]
    sets, fixed_z = [None] * len(cards), None
    for idx in chunks:
        n = cards[idx[0]]
        noise = _stacked_noise([model.draw_noise([n], rng.fork("gen", i)) for i in idx])
        out, lat = model.generate(
            [n] * len(idx), noise, temperature=args.temperature, fixed_z=fixed_z
        )
        if args.fix_latents and fixed_z is None:
            fixed_z = [lvl["z"][0] for lvl in lat.levels]
        for i, x in zip(idx, out.elems.data):
            sets[i] = x.astype(np.float64)
    save_jsonl(Dataset(sets), args.out)
    print(f"wrote {len(sets)} sets to {args.out}")
    return 0


def cmd_eval(args) -> int:
    gen = load_jsonl(args.gen)
    ref = load_jsonl(args.ref)
    rep = report(gen.sets, ref.sets, args.distance)
    scale = 1e3 if rep.distance == "cd" else 1e2
    print(
        json.dumps(
            {
                "distance": rep.distance,
                "mmd": rep.mmd,
                "cov": rep.cov,
                "one_nna": rep.one_nna,
                "display": {
                    f"mmd_x{int(scale)}": rep.mmd * scale,
                },
            }
        )
    )
    return 0


def _batches(ds, model, seed, tag):
    """(start, chunk, batch, rng) per chunk of RECONSTRUCT_BATCH sets; the
    chunk's noise comes from Rng(seed, tag, start)."""
    for start in range(0, len(ds), RECONSTRUCT_BATCH):
        chunk = ds.sets[start : start + RECONSTRUCT_BATCH]
        batch = batch_pad(chunk, dtype=model.dtype)
        yield start, chunk, batch, T.Rng(seed, tag, start)


def cmd_reconstruct(args) -> int:
    model = _frozen_model(args.ckpt)
    ds = load_jsonl(args.data)
    csv_path = args.out + ".metrics.csv"
    recons = []
    rows = []
    for start, chunk, batch, rng in _batches(ds, model, args.seed, "reconstruct"):
        x_hat, kls, _ = model.infer(batch, model.draw_noise(batch.cards, rng))
        outs = unpad(x_hat)
        for b, (x, xh) in enumerate(zip(chunk, outs)):
            recons.append(xh.astype(np.float64))
            rows.append(
                [start + b, chamfer(x, xh)]
                + [float(kl.data[b]) for kl in kls]
            )
    save_jsonl(Dataset(recons), args.out)
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["set_id", "cd"] + [f"kl{l}" for l in range(len(model.abls))])
        w.writerows(rows)
    print(f"wrote {len(recons)} reconstructions to {args.out} (metrics: {csv_path})")
    return 0


def cmd_attn_export(args) -> int:
    model = _frozen_model(args.ckpt)
    ds = load_jsonl(args.data)
    coord_cols = ["px", "py"] + (["pz"] if ds.dim == 3 else [])
    rows = []
    for start, _, batch, rng in _batches(ds, model, args.seed, "attn"):
        ids, coords = model.attn_assignments(
            batch, args.level, args.side, head=args.head, rng=rng
        )
        for b, n in enumerate(batch.cards):
            for j in range(n):
                rows.append(
                    [start + b]
                    + [repr(float(v)) for v in coords[b, j]]
                    + [int(ids[b, j])]
                )
    # every row exists before the file does, so a failure leaves no file
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["set_id"] + coord_cols + ["assignment"])
        w.writerows(rows)
    print(f"wrote assignments to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="setvae",
        description="Hierarchical set VAE: training, sampling, evaluation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model on a JSON-lines dataset")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--resume", default=None)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sample", help="sample sets from a checkpoint")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--num-samples", type=int, required=True)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--temperature", type=float, default=1.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--fix-latents", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample)

    e = sub.add_parser("eval", help="population metrics between two files")
    e.add_argument("--gen", required=True)
    e.add_argument("--ref", required=True)
    e.add_argument("--distance", choices=("cd", "emd"), default="cd")
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("reconstruct", help="reconstruct sets + per-set metrics")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(func=cmd_reconstruct)

    a = sub.add_parser("attn-export", help="per-point inducing assignments CSV")
    a.add_argument("--ckpt", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--level", type=int, required=True)
    a.add_argument("--side", choices=("encoder", "generator"), required=True)
    a.add_argument("--head", type=int, default=0)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_attn_export)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        CheckpointError,
        TrainingAborted,
        ValueError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import functools
import json
import sys

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError, load_model
from .config import load_config
from .data import Dataset, batch_pad, load_jsonl, save_jsonl
from .metrics import chamfer, report
from .model import Noise
from .training import TrainingAborted, train

# element rows per model call of an inference command: peak memory stays
# bounded however many sets there are
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
    freed once the next op has read it, and no gradient or moment vector
    is allocated."""
    return load_model(path, frozen=True)[0]


def _stacked_noise(parts):
    """One Noise for the sets of `parts`, in order along axis 0."""
    return Noise(
        np.concatenate([p.assign for p in parts]),
        np.concatenate([p.z0_eps for p in parts]),
        [np.concatenate(level) for level in zip(*(p.levels for p in parts))],
    )


def _chunks(model, cards, rng, first_alone=False):
    """(idx, noise) per model call over items of cardinalities `cards`.

    Item i draws its noise from rng's fork ("gen", i) only, and shares a
    call with items of its own size alone, at most SAMPLE_ROWS element
    rows: padding would change the BLAS sums, so its bits would depend on
    its neighbours. With `first_alone`, item 0 runs first and alone. With
    no rng, for a pass that reads no noise, the noise is None.
    """
    chunks = [[0]] if first_alone and cards else []
    by_size = {}
    for i in range(len(chunks), len(cards)):
        by_size.setdefault(cards[i], []).append(i)
    for n, idx in by_size.items():
        k = max(1, SAMPLE_ROWS // max(n, 1))  # draw_noise rejects n < 1
        chunks += [idx[s : s + k] for s in range(0, len(idx), k)]
    for idx in chunks:
        n = cards[idx[0]]
        if rng is None:
            yield idx, None
        else:
            yield idx, _stacked_noise([model.draw_noise([n], rng.fork("gen", i)) for i in idx])


def cmd_sample(args) -> int:
    if args.num_samples < 1:
        raise ValueError(f"--num-samples must be at least 1, got {args.num_samples}")
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
    # sample 0 runs first and alone when its latents pin the rest
    sets, fixed_z = [None] * len(cards), None
    for idx, noise in _chunks(model, cards, rng, first_alone=args.fix_latents):
        out, lat = model.generate(
            [cards[idx[0]]] * len(idx), noise,
            temperature=args.temperature, fixed_z=fixed_z,
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


def cmd_reconstruct(args) -> int:
    model = _frozen_model(args.ckpt)
    ds = load_jsonl(args.data)
    csv_path = args.out + ".metrics.csv"
    recons, rows = [None] * len(ds), [None] * len(ds)
    for idx, noise in _chunks(model, ds.cards, T.Rng(args.seed, "reconstruct")):
        batch = batch_pad([ds.sets[i] for i in idx], dtype=model.dtype)  # one size
        x_hat, kls, _ = model.infer(batch, noise)
        for b, i in enumerate(idx):
            xh = x_hat.elems.data[b]
            recons[i] = xh.astype(np.float64)
            rows[i] = [i, chamfer(ds.sets[i], xh)] + [float(kl.data[b]) for kl in kls]
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
    per_set = [None] * len(ds)
    rng = T.Rng(args.seed, "attn") if args.side == "generator" else None
    for idx, noise in _chunks(model, ds.cards, rng):
        batch = batch_pad([ds.sets[i] for i in idx], dtype=model.dtype)  # one size
        ids, coords = model.attn_assignments(
            batch, args.level, args.side, head=args.head, noise=noise
        )
        for b, i in enumerate(idx):
            per_set[i] = [
                [i] + [repr(float(v)) for v in c] + [int(a)]
                for c, a in zip(coords[b], ids[b])
            ]
    # every row exists before the file does, so a failure leaves no file
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["set_id"] + coord_cols + ["assignment"])
        for rows in per_set:
            w.writerows(rows)
    print(f"wrote assignments to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call only: a build
    takes about a millisecond and leaves a reference cycle behind."""
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

    s = sub.add_parser("sample", help="sample sets from a checkpoint")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--num-samples", type=int, required=True)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--temperature", type=float, default=1.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--fix-latents", action="store_true")
    s.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="population metrics between two files")
    e.add_argument("--gen", required=True)
    e.add_argument("--ref", required=True)
    e.add_argument("--distance", choices=("cd", "emd"), default="cd")

    r = sub.add_parser("reconstruct", help="reconstruct sets + per-set metrics")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--seed", type=int, default=0)

    a = sub.add_parser("attn-export", help="per-point inducing assignments CSV")
    a.add_argument("--ckpt", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--level", type=int, required=True)
    a.add_argument("--side", choices=("encoder", "generator"), required=True)
    a.add_argument("--head", type=int, default=0)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a patched module attribute is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (CheckpointError, TrainingAborted, ValueError, OSError, MemoryError) as e:
        # a bare MemoryError carries no message
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

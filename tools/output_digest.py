"""SHA-256 digest of every output a fixed set of commands writes.

    python3 tools/output_digest.py OUT_DIR

Runs, at one BLAS thread, on the `setvae` package in this checkout's
`src/`:

- a small f32 model (d=16, two levels) trained for 6 steps on 30 sets of
  6-12 points, with a checkpoint at step 3, and a resume from that
  checkpoint into a second directory;
- 3 default-config training steps at batch size 16;
- `sample` from the stored histogram, and `sample --n 20 --fix-latents
  --temperature 0.5`, on the small model; on the default-config model,
  `sample` of 40 sets from its histogram (sizes repeat, so sets share a
  `generate` call) and `sample --n 300 --num-samples 20` (more rows than
  one call takes);
- `reconstruct`, and `attn-export` on the encoder and the generator side;
- `eval --distance cd` on 16 vs 16 and on 60 vs 60 sets of 32-64
  points (the 120 pooled sets span several chunks of Chamfer rows), and
  `eval --distance emd` on 8 vs 8 sets of 16 points (`eval` prints
  full-precision floats, so a last-bit change shows);
- `save_model` of the default config initialised at seed 0.

It prints `<file> <sha256>` for every file under OUT_DIR, sorted, with
each command's stdout kept as `<name>.stdout` (OUT_DIR replaced by `OUT`).
Run it on two checkouts into two empty directories and diff the output:
a change that keeps the arithmetic prints the same lines.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from setvae import data  # noqa: E402
from setvae import tensor as T  # noqa: E402
from setvae.checkpoint import save_model  # noqa: E402
from setvae.config import TrainConfig  # noqa: E402
from setvae.model import SetVAE  # noqa: E402

SMALL_CONFIG = """\
d = 16
d_z = 4
heads = 2
K = 3
d0 = 8
enc_m = 8, 4
gen_m = 4, 8
batch_size = 8
steps = 6
ckpt_interval = 3
seed = 5
dtype = f32
"""

DEFAULT_CONFIG = """\
steps = 3
seed = 0
"""


def corpus(path: Path, count: int, n_range: tuple, seed: int) -> None:
    sets, labels = [], []
    for kind in ("circle", "cross"):
        ds = data.gen_synthetic(kind, count // 2, n_range, 0.01, T.Rng(seed, kind))
        sets += ds.sets
        labels += ds.labels
    data.save_jsonl(data.Dataset(sets, labels), path)


def main(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def cli(name: str, *args) -> None:
        res = subprocess.run(
            [sys.executable, "-m", "setvae.cli", *map(str, args)],
            env=env, capture_output=True, text=True,
        )
        if res.returncode != 0:
            raise SystemExit(f"error: {name} failed:\n{res.stderr}")
        (out / f"{name}.stdout").write_text(res.stdout.replace(str(out), "OUT"))

    small_data, desk_data = out / "small.jsonl", out / "desk.jsonl"
    corpus(small_data, 30, (6, 12), 1)
    corpus(desk_data, 32, (32, 64), 2)
    (out / "small.cfg").write_text(SMALL_CONFIG)
    (out / "default.cfg").write_text(DEFAULT_CONFIG)

    small, final = out / "small", out / "small" / "final.svae"
    cli("train_small", "train", "--config", out / "small.cfg",
        "--data", small_data, "--out", small)
    cli("train_resume", "train", "--config", out / "small.cfg",
        "--data", small_data, "--out", out / "resume",
        "--resume", small / "ckpt_000003.svae")
    cli("train_default", "train", "--config", out / "default.cfg",
        "--data", desk_data, "--out", out / "default")
    cli("sample_hist", "sample", "--ckpt", final, "--num-samples", 8,
        "--seed", 3, "--out", out / "sample_hist.jsonl")
    cli("sample_fixed", "sample", "--ckpt", final, "--num-samples", 4,
        "--n", 20, "--fix-latents", "--temperature", 0.5, "--seed", 4,
        "--out", out / "sample_fixed.jsonl")
    default_final = out / "default" / "final.svae"
    cli("sample_desk", "sample", "--ckpt", default_final, "--num-samples", 40,
        "--seed", 5, "--out", out / "sample_desk.jsonl")
    cli("sample_rows", "sample", "--ckpt", default_final, "--num-samples", 20,
        "--n", 300, "--seed", 6, "--out", out / "sample_rows.jsonl")
    cli("reconstruct", "reconstruct", "--ckpt", final, "--data", small_data,
        "--out", out / "recon.jsonl")
    for side, level in (("encoder", 0), ("generator", 1)):
        cli(f"attn_{side}", "attn-export", "--ckpt", final, "--data", small_data,
            "--level", level, "--side", side, "--head", 1,
            "--out", out / f"attn_{side}.csv")

    for name, distance, count, n_range in (
        ("cd", "cd", 16, (32, 64)),
        ("cd_chunks", "cd", 60, (32, 64)),
        ("emd", "emd", 8, (16, 16)),
    ):
        gen, ref = out / f"eval_{name}_gen.jsonl", out / f"eval_{name}_ref.jsonl"
        corpus(gen, count, n_range, 6)
        corpus(ref, count, n_range, 7)
        cli(f"eval_{name}", "eval", "--gen", gen, "--ref", ref, "--distance", distance)

    cfg = TrainConfig()
    model = SetVAE(cfg.model_config(), T.Rng(0, "init"), dtype=np.float32)
    save_model(out / "default_init.svae", model)

    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{path.relative_to(out)} {digest}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: output_digest.py OUT_DIR")
    sys.exit(main(Path(sys.argv[1])))

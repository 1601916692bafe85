"""Bit-exact binary checkpoints.

Layout, all integers little-endian:

    magic   4 bytes  b"SVAE"
    version u32      1
    model section:   count u32, then per tensor:
                     name_len u32, name utf-8, rank u32, dims u32 each,
                     payload f32 little-endian, row-major
    optimizer section: same layout
    checksum u64     first 8 bytes of SHA-256 over everything above

Payloads are pinned to f32, which makes save -> load -> save byte-stable
and keeps f32 training runs exactly resumable. Model metadata that is not
a parameter (architecture vector, cardinality histogram, step counter)
travels as ordinary named tensors; integers below 2^24 are exact in f32.

Errors are distinct per failure: bad magic, bad version, bad checksum
(truncation included). An architecture vector of the wrong length, or with
an integer field that is fractional or out of range, is a CheckpointError.
Saves are atomic: a failed save leaves the earlier file at that path
intact.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np

from . import tensor as T
from .model import CardinalityDist, ModelConfig, SetVAE

MAGIC = b"SVAE"
VERSION = 1

ACTIVATIONS = ("none", "tanh01")


class CheckpointError(Exception):
    """A file that does not hold a readable checkpoint."""


class CheckpointMagicError(CheckpointError):
    """The file does not start with the checkpoint magic."""


class CheckpointVersionError(CheckpointError):
    """The file has a format version this reader does not know."""


class CheckpointChecksumError(CheckpointError):
    """The body does not match its checksum, truncation included."""


def _pack_section(tensors: dict[str, np.ndarray]) -> bytes:
    out = [struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        nb = name.encode("utf-8")
        out.append(struct.pack("<I", len(nb)))
        out.append(nb)
        out.append(struct.pack("<I", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.tobytes())
    return b"".join(out)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointChecksumError("checkpoint body shorter than declared")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _unpack_section(r: _Reader) -> dict[str, np.ndarray]:
    count = r.u32()
    out = {}
    for _ in range(count):
        name = r.take(r.u32()).decode("utf-8")
        rank = r.u32()
        dims = [r.u32() for _ in range(rank)]
        size = int(np.prod(dims)) if dims else 1
        arr = np.frombuffer(r.take(4 * size), dtype="<f4").reshape(dims)
        if name in out:
            raise CheckpointError(f"duplicate tensor name '{name}'")
        out[name] = arr.copy()
    return out


def save_checkpoint(
    path, model_tensors: dict[str, np.ndarray], opt_tensors: dict[str, np.ndarray]
) -> None:
    body = (
        MAGIC
        + struct.pack("<I", VERSION)
        + _pack_section(model_tensors)
        + _pack_section(opt_tensors)
    )
    checksum = hashlib.sha256(body).digest()[:8]
    # the file at `path` is replaced only once the new bytes are on disk
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(body + checksum)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only after a failure
            os.remove(tmp)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 4 + 8:
        raise CheckpointChecksumError(f"file too short ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise CheckpointMagicError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != VERSION:
        raise CheckpointVersionError(f"version {version}, expected {VERSION}")
    body, checksum = raw[:-8], raw[-8:]
    if hashlib.sha256(body).digest()[:8] != checksum:
        raise CheckpointChecksumError("checksum mismatch (file corrupt or truncated)")
    r = _Reader(body)
    r.take(8)  # magic + version already validated
    model = _unpack_section(r)
    opt = _unpack_section(r)
    if r.pos != len(body):
        raise CheckpointError(f"{len(body) - r.pos} trailing bytes after sections")
    return model, opt


# ---------------------------------------------------------------------------
# Model-level packing
# ---------------------------------------------------------------------------


def encode_config(cfg: ModelConfig) -> np.ndarray:
    vec = [
        cfg.d, cfg.d_z, cfg.heads, cfg.K, cfg.d0, cfg.out_dim,
        ACTIVATIONS.index(cfg.out_activation),
        len(cfg.enc_m), *cfg.enc_m, len(cfg.gen_m), *cfg.gen_m,
        cfg.beta_max, cfg.anneal_steps,
    ]
    return np.array(vec, dtype=np.float32)


def decode_config(vec: np.ndarray) -> ModelConfig:
    vals = [float(v) for v in np.ravel(vec)]

    def field(pos: int, hi: int | None = None) -> int:
        if pos >= len(vals):
            raise CheckpointError(f"config record too short ({len(vals)} entries)")
        v = vals[pos]
        if not (v.is_integer() and v >= 0 and (hi is None or v < hi)):
            bound = "a nonnegative integer" if hi is None else f"an integer in [0, {hi})"
            raise CheckpointError(f"config record entry {pos} is {v!r}, expected {bound}")
        return int(v)

    d, d_z, heads, K, d0, out_dim = (field(i) for i in range(6))
    act = field(6, len(ACTIVATIONS))
    n_enc = field(7)
    enc_m = tuple(field(8 + i) for i in range(n_enc))
    pos = 8 + n_enc
    n_gen = field(pos)
    gen_m = tuple(field(pos + 1 + i) for i in range(n_gen))
    pos += 1 + n_gen
    if len(vals) != pos + 2:
        raise CheckpointError(
            f"config record has {len(vals)} entries, expected {pos + 2}"
        )
    beta_max, anneal = vals[pos], field(pos + 1)
    return ModelConfig(
        d=d, d_z=d_z, heads=heads, enc_m=enc_m, gen_m=gen_m, d0=d0, K=K,
        out_dim=out_dim, out_activation=ACTIVATIONS[act],
        beta_max=beta_max, anneal_steps=anneal,
    )


def save_model(
    path,
    model: SetVAE,
    opt_state: T.AdamState | None = None,
    step: int = 0,
) -> None:
    tensors = {name: p.data for name, p in model.params().items()}
    tensors["meta/config"] = encode_config(model.cfg)
    if model.card_dist is not None:
        support = np.array(list(model.card_dist.counts), dtype=np.float32)
        counts = np.array(
            [model.card_dist.counts[int(n)] for n in support], dtype=np.float32
        )
        tensors["meta/pn_support"] = support
        tensors["meta/pn_counts"] = counts
    opt: dict[str, np.ndarray] = {"train/step": np.array([step], dtype=np.float32)}
    if opt_state is not None:
        opt["adam/step"] = np.array([opt_state.step], dtype=np.float32)
        for name, m in opt_state.m.items():
            opt[f"adam/m/{name}"] = m
        for name, v in opt_state.v.items():
            opt[f"adam/v/{name}"] = v
    save_checkpoint(path, tensors, opt)


def load_model(path, dtype=np.float32) -> tuple[SetVAE, T.AdamState | None, int]:
    tensors, opt = load_checkpoint(path)
    if "meta/config" not in tensors:
        raise CheckpointError("checkpoint has no architecture record")
    cfg = decode_config(tensors["meta/config"])
    model = SetVAE(cfg, T.Rng(0, "load"), dtype=dtype)
    params = model.params()
    missing = sorted(set(params) - set(tensors))
    if missing:
        raise CheckpointError(f"checkpoint is missing parameters: {missing[:5]}")
    for name, p in params.items():
        arr = tensors[name].astype(dtype, copy=True)
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"parameter '{name}' has shape {arr.shape}, expected {p.data.shape}"
            )
        p.data = arr
    if "meta/pn_support" in tensors:
        support = tensors["meta/pn_support"]
        counts = tensors["meta/pn_counts"]
        model.card_dist = CardinalityDist(
            {int(n): int(c) for n, c in zip(support, counts)}
        )
    step = int(opt.get("train/step", np.zeros(1))[0])
    state = None
    if "adam/step" in opt:
        state = T.AdamState(step=int(opt["adam/step"][0]))
        for name in params:
            if f"adam/m/{name}" in opt:
                state.m[name] = opt[f"adam/m/{name}"].astype(dtype, copy=True)
                state.v[name] = opt[f"adam/v/{name}"].astype(dtype, copy=True)
    return model, state, step

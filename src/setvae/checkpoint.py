"""Bit-exact binary checkpoints.

Layout, all integers little-endian:

    magic   4 bytes  b"SVAE"
    version u32      1 (f32 payloads) or 2 (f64 payloads)
    model section:   count u32, then per tensor:
                     name_len u32, name utf-8, rank u32, dims u32 each,
                     payload little-endian, row-major
    optimizer section: same layout
    checksum u64     first 8 bytes of SHA-256 over everything above

Payloads are written at the model's dtype: an f32 model writes version 1,
an f64 model version 2. That makes save -> load -> save byte-stable and
keeps training runs exactly resumable at either dtype. Model metadata that
is not a parameter (config record, cardinality histogram, step counter)
travels as ordinary named tensors; integers below 2^24 are exact in f32.

The config record `meta/config` is `ModelConfig`'s fields in declaration
order: an int field is one entry, `out_activation` its index in
`ACTIVATIONS`, a tuple its length and then its entries, a float one entry.

Errors are distinct per failure: bad magic, bad version, bad checksum
(truncation included). A config record of the wrong length, and an
integer entry of any metadata that is fractional, negative or out of
range, are CheckpointErrors, as is a histogram or Adam moment missing its
other half, and a parameter or moment record whose shape is not the one
the config's layout gives it; those shapes are checked before the model's
parameter vector is allocated. Saves are atomic: a failed save leaves the
earlier file at that path intact.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import fields

import numpy as np

from . import tensor as T
from .model import ACTIVATIONS, CardinalityDist, ModelConfig, SetVAE

MAGIC = b"SVAE"
VERSION = 1  # the f32 format
PAYLOADS = {VERSION: np.dtype("<f4"), 2: np.dtype("<f8")}  # version -> payload


class CheckpointError(Exception):
    """A file that does not hold a readable checkpoint."""


class CheckpointMagicError(CheckpointError):
    """The file does not start with the checkpoint magic."""


class CheckpointVersionError(CheckpointError):
    """The file has a format version this reader does not know."""


class CheckpointChecksumError(CheckpointError):
    """The body does not match its checksum, truncation included."""


def _pack_section(tensors: dict[str, np.ndarray], payload: np.dtype) -> bytes:
    out = [struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=payload)
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


def _unpack_section(r: _Reader, payload: np.dtype) -> dict[str, np.ndarray]:
    count = r.u32()
    out = {}
    for _ in range(count):
        name = r.take(r.u32()).decode("utf-8")
        rank = r.u32()
        dims = [r.u32() for _ in range(rank)]
        # exact, where np.prod wraps in int64 and could size a record negative
        size = payload.itemsize * math.prod(dims)
        arr = np.frombuffer(r.take(size), dtype=payload).reshape(dims)
        if name in out:
            raise CheckpointError(f"duplicate tensor name '{name}'")
        out[name] = arr.copy()
    return out


def save_checkpoint(
    path,
    model_tensors: dict[str, np.ndarray],
    opt_tensors: dict[str, np.ndarray],
    version: int = VERSION,
) -> None:
    payload = PAYLOADS[version]
    body = (
        MAGIC
        + struct.pack("<I", version)
        + _pack_section(model_tensors, payload)
        + _pack_section(opt_tensors, payload)
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
    if version not in PAYLOADS:
        raise CheckpointVersionError(
            f"version {version}, expected one of {sorted(PAYLOADS)}"
        )
    body, checksum = raw[:-8], raw[-8:]
    if hashlib.sha256(body).digest()[:8] != checksum:
        raise CheckpointChecksumError("checksum mismatch (file corrupt or truncated)")
    r = _Reader(body)
    r.take(8)  # magic + version already validated
    model = _unpack_section(r, PAYLOADS[version])
    opt = _unpack_section(r, PAYLOADS[version])
    if r.pos != len(body):
        raise CheckpointError(f"{len(body) - r.pos} trailing bytes after sections")
    return model, opt


# ---------------------------------------------------------------------------
# Model-level packing
# ---------------------------------------------------------------------------


def _whole(v: float, what: str, hi: int | None = None) -> int:
    if not (v.is_integer() and v >= 0 and (hi is None or v < hi)):
        bound = "a nonnegative integer" if hi is None else f"an integer in [0, {hi})"
        raise CheckpointError(f"{what} is {v!r}, expected {bound}")
    return int(v)


def _ints(tensors: dict[str, np.ndarray], name: str, size: int | None = None) -> list[int]:
    if name not in tensors:
        raise CheckpointError(f"checkpoint has no '{name}'")
    vals = np.ravel(tensors[name])
    if size is not None and vals.size != size:
        raise CheckpointError(f"'{name}' has {vals.size} entries, expected {size}")
    return [_whole(float(v), f"'{name}' entry {i}") for i, v in enumerate(vals)]


def encode_config(cfg: ModelConfig) -> np.ndarray:
    vec = []
    for f in fields(ModelConfig):
        v = getattr(cfg, f.name)
        if f.type == "str":
            vec.append(ACTIVATIONS.index(v))
        elif f.type == "tuple":
            vec += [len(v), *v]
        else:
            vec.append(v)
    return np.array(vec, dtype=np.float32)


def decode_config(vec: np.ndarray) -> ModelConfig:
    vals = [float(v) for v in np.ravel(vec)]
    pos = 0

    def take(hi: int | None = None, raw: bool = False):
        nonlocal pos
        if pos >= len(vals):
            raise CheckpointError(f"config record too short ({len(vals)} entries)")
        pos += 1
        v = vals[pos - 1]
        return v if raw else _whole(v, f"config record entry {pos - 1}", hi)

    out = {}
    for f in fields(ModelConfig):
        if f.type == "str":
            out[f.name] = ACTIVATIONS[take(len(ACTIVATIONS))]
        elif f.type == "tuple":
            n = take()
            out[f.name] = tuple(take() for _ in range(n))
        else:
            out[f.name] = take(raw=f.type == "float")
    if pos != len(vals):
        raise CheckpointError(f"config record has {len(vals)} entries, expected {pos}")
    return ModelConfig(**out)


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
        if opt_state.m is not None:
            for key, vec in (("m", opt_state.m), ("v", opt_state.v)):
                for s in model.buffer.trained_slots:
                    opt[f"adam/{key}/{s.name}"] = vec[s.span].reshape(s.shape)
    save_checkpoint(path, tensors, opt, 2 if model.dtype == np.float64 else VERSION)


def load_model(
    path, dtype=np.float32, frozen: bool = False
) -> tuple[SetVAE, T.AdamState | None, int]:
    """The model, its Adam state (None if the file has none) and its step.

    Every record is checked against the layout the config describes before
    the parameter vector is allocated, so a config that claims a larger
    model than the file holds fails without allocating it. A `frozen`
    model, for inference, requires no gradient, and its Adam state gets no
    moment vectors.
    """
    tensors, opt = load_checkpoint(path)
    if "meta/config" not in tensors:
        raise CheckpointError("checkpoint has no architecture record")
    cfg = decode_config(tensors["meta/config"])
    model = SetVAE(cfg, None, dtype=dtype)
    buf = model.buffer
    missing = sorted(set(buf.params) - set(tensors))
    if missing:
        raise CheckpointError(f"checkpoint is missing parameters: {missing[:5]}")
    held = sum(tensors[s.name].size for s in buf.layout)
    if held != buf.size:
        raise CheckpointError(
            f"checkpoint holds {held} parameter entries, "
            f"its config describes {buf.size}"
        )
    for s in buf.layout:
        if tensors[s.name].shape != s.shape:
            raise CheckpointError(
                f"parameter '{s.name}' has shape {tensors[s.name].shape}, "
                f"expected {s.shape}"
            )
    buf.fill(tensors)
    if "meta/pn_support" in tensors or "meta/pn_counts" in tensors:
        support = _ints(tensors, "meta/pn_support")
        counts = _ints(tensors, "meta/pn_counts")
        if len(support) != len(counts):
            raise CheckpointError(
                f"cardinality histogram has {len(support)} sizes "
                f"but {len(counts)} counts"
            )
        if len(set(support)) != len(support):
            raise CheckpointError(f"cardinality histogram repeats a size: {support}")
        model.card_dist = CardinalityDist(dict(zip(support, counts)))
    step = _ints(opt, "train/step", 1)[0] if "train/step" in opt else 0
    state = None
    if "adam/step" in opt:
        state = T.AdamState(step=_ints(opt, "adam/step", 1)[0])
        moments = []
        for s in buf.trained_slots:
            m, v = opt.get(f"adam/m/{s.name}"), opt.get(f"adam/v/{s.name}")
            if (m is None) != (v is None):
                raise CheckpointError(f"Adam state for '{s.name}' lacks m or v")
            if m is not None:
                if not m.shape == v.shape == s.shape:
                    raise CheckpointError(
                        f"Adam state for '{s.name}' has shapes {m.shape} and "
                        f"{v.shape}, expected {s.shape}"
                    )
                moments.append((s.span, m, v))
        if moments and not frozen:
            # a parameter without moment records starts from zero moments,
            # as on a first step
            state.m = np.zeros(buf.trained, dtype)
            state.v = np.zeros(buf.trained, dtype)
            for span, m, v in moments:
                state.m[span] = m.ravel()
                state.v[span] = v.ravel()
    if frozen:
        for p in buf.params.values():
            p.requires_grad = False
    return model, state, step

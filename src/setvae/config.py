"""Training configuration and the flat key=value config file format.

Files are plain text: one `key = value` per line, `#` starts a comment,
blank lines ignored. Unknown keys are errors so typos fail loudly.
Integer lists (enc_m, gen_m) are comma-separated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .attention import ConfigError
from .model import ModelConfig


@dataclass
class TrainConfig(ModelConfig):
    """`ModelConfig`'s fields, then the optimisation settings."""

    lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    epochs: int = 10
    steps: int = 0  # total optimizer steps; 0 means run the full epochs
    batch_size: int = 16
    seed: int = 0
    lr_decay_start: float = 0.5
    grad_clip: float = 5.0
    ckpt_interval: int = 500
    dtype: str = "f32"

    def validate(self):
        super().validate()
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be finite and positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ConfigError("adam betas must lie in (0, 1)")
        if self.epochs < 0 or self.steps < 0:
            raise ConfigError("epochs and steps must be nonnegative")
        if self.epochs < 1 and self.steps < 1:
            raise ConfigError("either epochs or steps must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not (0.0 <= self.lr_decay_start <= 1.0):
            raise ConfigError("lr_decay_start must lie in [0, 1]")
        if not 0 <= self.grad_clip < math.inf:
            raise ConfigError("grad_clip must be finite and nonnegative")
        if self.ckpt_interval < 1:
            raise ConfigError("ckpt_interval must be positive")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be f32 or f64, got '{self.dtype}'")

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64


def _convert(key: str, raw: str, target_type):
    if target_type is int:
        return int(raw)
    if target_type is float:
        return float(raw)
    if target_type is str:
        return raw
    if target_type is tuple:
        return tuple(int(v.strip()) for v in raw.split(",") if v.strip())
    raise ConfigError(f"unsupported config field type for '{key}'")


def parse_config(text: str, source: str = "<config>") -> TrainConfig:
    known = {f.name: f.type for f in fields(TrainConfig)}
    typemap = {"int": int, "float": float, "str": str, "tuple": tuple}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in known:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        try:
            values[key] = _convert(key, raw, typemap[known[key]])
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: bad value '{raw}' for '{key}'"
            ) from None
    return TrainConfig(**values)


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read(), source=str(path))

"""Tests for the key=value config format."""

from dataclasses import asdict, fields

import numpy as np
import pytest

from setvae.attention import ConfigError
from setvae.config import TrainConfig, load_config, parse_config
from setvae.model import ModelConfig


def test_defaults_match_documented_values():
    cfg = TrainConfig()
    assert cfg.d == 64
    assert cfg.d_z == 16
    assert cfg.heads == 4
    assert cfg.enc_m == (32, 16, 8, 4, 2)
    assert cfg.gen_m == (2, 4, 8, 16, 32)
    assert cfg.K == 4
    assert cfg.d0 == 32
    assert cfg.beta_max == 0.01
    assert cfg.lr == 1e-3
    assert cfg.adam_beta1 == 0.9
    assert cfg.adam_beta2 == 0.999
    assert cfg.lr_decay_start == 0.5
    assert cfg.grad_clip == 5.0
    assert cfg.dtype == "f32"
    assert cfg.np_dtype == np.float32


def test_train_defaults_are_the_model_defaults():
    assert TrainConfig().model_config() == ModelConfig()
    assert asdict(TrainConfig().model_config()) == asdict(ModelConfig())


def test_every_default_survives_the_file_format():
    cfg = TrainConfig()
    lines = []
    for f in fields(TrainConfig):
        v = getattr(cfg, f.name)
        text = ", ".join(map(str, v)) if isinstance(v, tuple) else str(v)
        lines.append(f"{f.name} = {text}")
    back = parse_config("\n".join(lines))
    assert asdict(back) == asdict(cfg)
    assert len(lines) == 22


def test_parse_basic_file():
    cfg = parse_config(
        """
        # toy run
        d = 8
        heads = 2          # trailing comment
        d_z = 2
        enc_m = 4, 2
        gen_m = 2, 4
        d0 = 4
        steps = 25
        lr = 0.002
        dtype = f64
        """
    )
    assert cfg.d == 8 and cfg.heads == 2
    assert cfg.enc_m == (4, 2) and cfg.gen_m == (2, 4)
    assert cfg.steps == 25 and cfg.lr == 0.002
    assert cfg.np_dtype == np.float64


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'dd'"):
        parse_config("d = 8\ndd = 9\n")
    with pytest.raises(ConfigError, match=r":3: duplicate key 'lr'"):
        parse_config("lr = 0.1\n\nlr = 0.2\n")
    with pytest.raises(ConfigError, match=r":1: bad value 'fast'"):
        parse_config("lr = fast\n")
    with pytest.raises(ConfigError, match=r":2: expected key = value"):
        parse_config("d = 8\njust words\n")


def test_validation_errors():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(adam_beta1=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_decay_start=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(dtype="f16")
    with pytest.raises(ConfigError):
        TrainConfig(ckpt_interval=0)
    with pytest.raises(ConfigError):  # would run the full epochs
        TrainConfig(steps=-5)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-2, steps=3)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            TrainConfig(beta_max=bad)
        with pytest.raises(ConfigError):
            TrainConfig(lr=bad)
        with pytest.raises(ConfigError):
            TrainConfig(grad_clip=bad)
    with pytest.raises(ConfigError):  # architecture invariants also checked
        TrainConfig(d=10, heads=4)


def test_load_config_names_the_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d = 8\nbogus = 1\n")
    with pytest.raises(ConfigError, match="run.cfg:2"):
        load_config(path)
    path.write_text("seed = 4\n")
    assert load_config(path).seed == 4

"""Tests for the binary checkpoint format and its failure modes."""

import hashlib
import io
import os

import numpy as np
import pytest

import setvae.checkpoint as checkpoint
import setvae.cli as cli
import setvae.tensor as T
from setvae.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointChecksumError,
    CheckpointError,
    CheckpointMagicError,
    CheckpointVersionError,
    decode_config,
    encode_config,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from setvae.model import CardinalityDist, ModelConfig, SetVAE


def tiny_model(dtype=np.float32):
    cfg = ModelConfig(
        d=8, d_z=2, heads=2, enc_m=(2,), gen_m=(2,), d0=4, K=2,
        out_dim=2, beta_max=0.01, anneal_steps=5,
    )
    return SetVAE(cfg, T.Rng(1, "init"), dtype=dtype)


def test_round_trip_is_byte_identical(tmp_path):
    model = tiny_model()
    model.card_dist = CardinalityDist({4: 3, 7: 1})
    p1, p2 = tmp_path / "a.svae", tmp_path / "b.svae"
    save_model(p1, model, step=12)

    loaded, state, step = load_model(p1)
    assert step == 12
    assert state is None
    assert loaded.card_dist.counts == {4: 3, 7: 1}
    for name, p in model.params().items():
        assert np.array_equal(p.data, loaded.params()[name].data), name

    save_model(p2, loaded, step=12)
    assert p1.read_bytes() == p2.read_bytes()


def test_adam_state_round_trip(tmp_path):
    model = tiny_model()
    params = model.params()
    state = T.AdamState(step=9)
    for name, p in params.items():
        state.m[name] = np.full_like(p.data, 0.25)
        state.v[name] = np.full_like(p.data, 0.5)
    path = tmp_path / "opt.svae"
    save_model(path, model, opt_state=state, step=9)
    _, back, step = load_model(path)
    assert step == 9 and back.step == 9
    for name in params:
        assert np.array_equal(back.m[name], state.m[name])
        assert np.array_equal(back.v[name], state.v[name])


def test_config_vector_round_trip():
    cfg = ModelConfig(
        d=32, d_z=8, heads=4, enc_m=(16, 8, 4), gen_m=(4, 8, 16), d0=16,
        K=3, out_dim=3, out_activation="tanh01", beta_max=0.02,
        anneal_steps=700,
    )
    back = decode_config(encode_config(cfg))
    assert back.architecture() == cfg.architecture()
    # schedule floats travel as f32, exact only up to that precision
    assert abs(back.beta_max - cfg.beta_max) < 1e-8
    assert back.anneal_steps == cfg.anneal_steps


@pytest.mark.parametrize("act", [5.0, 2.5, -1.0])
def test_malformed_activation_index_rejected(tmp_path, act):
    # a well-formed file (valid checksum) whose config vector is not
    model = tiny_model()
    tensors = {name: p.data for name, p in model.params().items()}
    tensors["meta/config"] = encode_config(model.cfg)
    tensors["meta/config"][6] = act
    path = tmp_path / "bad_config.svae"
    save_checkpoint(path, tensors, {})
    with pytest.raises(CheckpointError, match="entry 6"):
        load_model(path)
    argv = ["sample", "--ckpt", str(path), "--num-samples", "1",
            "--out", str(tmp_path / "out.jsonl")]
    assert cli.main(argv) == 1


def test_config_vector_length_checked():
    vec = encode_config(tiny_model().cfg)
    long_enc = vec.copy()
    long_enc[7] = 40.0  # more encoder levels than the record holds
    for bad in (vec[:-1], np.append(vec, 0.0), vec[:3], long_enc):
        with pytest.raises(CheckpointError, match="config record"):
            decode_config(bad)


def test_header_layout(tmp_path):
    path = tmp_path / "raw.svae"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)}, {})
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert int.from_bytes(blob[4:8], "little") == VERSION
    assert blob[-8:] == hashlib.sha256(blob[:-8]).digest()[:8]


def test_truncated_file_fails_checksum(tmp_path):
    path = tmp_path / "cut.svae"
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float32)}, {})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 3])
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(path)
    path.write_bytes(blob[:6])
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(path)


def test_failed_save_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "keep.svae"
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float32)}, {})
    before = path.read_bytes()

    class HalfWrite(io.FileIO):
        def write(self, b):
            super().write(bytes(b)[: len(b) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"w": np.ones(6, dtype=np.float32)}, {})
    monkeypatch.undo()

    assert path.read_bytes() == before
    model, _ = load_checkpoint(path)
    assert np.array_equal(model["w"], np.arange(6, dtype=np.float32))
    assert os.listdir(tmp_path) == ["keep.svae"]


def test_corrupted_payload_fails_checksum(tmp_path):
    path = tmp_path / "flip.svae"
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float32)}, {})
    blob = bytearray(path.read_bytes())
    blob[12] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(path)


def test_bad_magic_and_version_are_distinct(tmp_path):
    path = tmp_path / "not.svae"
    save_checkpoint(path, {"w": np.zeros(1, dtype=np.float32)}, {})
    blob = bytearray(path.read_bytes())

    wrong_magic = bytearray(blob)
    wrong_magic[:4] = b"XXXX"
    body = bytes(wrong_magic[:-8])
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    with pytest.raises(CheckpointMagicError):
        load_checkpoint(path)

    wrong_version = bytearray(blob)
    wrong_version[4:8] = (99).to_bytes(4, "little")
    body = bytes(wrong_version[:-8])
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    with pytest.raises(CheckpointVersionError, match="99"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "extra.svae"
    save_checkpoint(path, {"w": np.zeros(1, dtype=np.float32)}, {})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_load_model_missing_parameter(tmp_path):
    model = tiny_model()
    tensors = {name: p.data for name, p in model.params().items()}
    tensors["meta/config"] = encode_config(model.cfg)
    del tensors["out/w"]
    path = tmp_path / "partial.svae"
    save_checkpoint(path, tensors, {})
    with pytest.raises(CheckpointError, match="out/w"):
        load_model(path)


def test_load_model_without_config_record(tmp_path):
    path = tmp_path / "bare.svae"
    save_checkpoint(path, {"w": np.zeros(1, dtype=np.float32)}, {})
    with pytest.raises(CheckpointError, match="architecture"):
        load_model(path)


def test_f32_training_state_survives_exactly(tmp_path):
    # the on-disk payload is f32, so an f32 model round-trips losslessly
    model = tiny_model(dtype=np.float32)
    path = tmp_path / "exact.svae"
    save_model(path, model, step=1)
    loaded, _, _ = load_model(path, dtype=np.float32)
    for name, p in model.params().items():
        got = loaded.params()[name].data
        assert got.dtype == np.float32
        assert np.array_equal(p.data, got)

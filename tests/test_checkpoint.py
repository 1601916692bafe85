"""Tests for the binary checkpoint format and its failure modes."""

import hashlib
import io
import os
import struct

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
    buf = model.buffer
    rng = T.Rng(4, "moments")
    state = T.AdamState(
        step=9,
        m=rng.fork("m").normal((buf.trained,), np.float32),
        v=rng.fork("v").uniform(0.0, 1.0, (buf.trained,), np.float32),
    )
    path = tmp_path / "opt.svae"
    save_model(path, model, opt_state=state, step=9)
    _, opt = load_checkpoint(path)
    for s in buf.trained_slots:
        assert np.array_equal(opt[f"adam/m/{s.name}"].ravel(), state.m[s.span]), s.name
        assert np.array_equal(opt[f"adam/v/{s.name}"].ravel(), state.v[s.span]), s.name
    loaded, back, step = load_model(path)
    assert step == 9 and back.step == 9
    assert np.array_equal(back.m, state.m) and np.array_equal(back.v, state.v)
    save_model(tmp_path / "again.svae", loaded, opt_state=back, step=9)
    assert (tmp_path / "again.svae").read_bytes() == path.read_bytes()


def test_adam_records_cover_the_trained_parameters(tmp_path):
    # the mixture logits get no gradient, so Adam keeps no moments for them
    model = tiny_model()
    model.buffer.zero_grad()
    model.buffer.grad[:] = 1.0
    state = T.AdamState()
    T.adam_step(model.buffer, state, lr=1e-3)
    path = tmp_path / "opt.svae"
    save_model(path, model, opt_state=state, step=1)
    _, opt = load_checkpoint(path)
    names = [n for n in model.params() if n != "mog/logits"]
    assert list(opt) == (
        ["train/step", "adam/step"]
        + [f"adam/m/{n}" for n in names]
        + [f"adam/v/{n}" for n in names]
    )
    # a fresh state has no moments to save
    save_model(path, model, opt_state=T.AdamState(), step=0)
    assert list(load_checkpoint(path)[1]) == ["train/step", "adam/step"]
    assert load_model(path)[1].m is None


def test_config_vector_round_trip():
    cfg = ModelConfig(
        d=32, d_z=8, heads=4, enc_m=(16, 8, 4), gen_m=(4, 8, 16), d0=16,
        K=3, out_dim=3, out_activation="tanh01", beta_max=0.02,
        anneal_steps=700,
    )
    back = decode_config(encode_config(cfg))
    assert back == cfg
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


def test_default_config_record_literal():
    # ModelConfig's fields in declaration order: ints, the activation
    # index, each tuple as its length then its entries, the f32 float
    assert encode_config(ModelConfig()).tolist() == [
        64, 16, 4, 4, 32, 2, 1, 5, 32, 16, 8, 4, 2, 5, 2, 4, 8, 16, 32,
        float(np.float32(0.01)), 1000,
    ]


def test_default_parameter_names_pinned():
    # record names and shapes are the file format: a renamed or reordered
    # field changes every checkpoint
    model = SetVAE(ModelConfig(), T.Rng(0, "init"), dtype=np.float32)
    params = model.params()
    assert len(params) == 315
    assert sum(p.data.size for p in params.values()) == 434918
    lines = "".join(f"{name}:{tuple(p.shape)}\n" for name, p in params.items())
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "cdc44fe8c1f491a9c23a21ea5b402b016fcb734699d27f64fb07dc35b25394bc"
    )


def _drop(name):
    return lambda model, tensors, opt: tensors.pop(name)


def _set(name, value):
    def apply(model, tensors, opt):
        (opt if name in opt else tensors)[name] = np.array(value, dtype=np.float32)
    return apply


def _drop_adam_v(model, tensors, opt):
    del opt[f"adam/v/{next(iter(model.params()))}"]


def _misshape_adam_m(model, tensors, opt):
    opt[f"adam/m/{next(iter(model.params()))}"] = np.zeros((3, 3), np.float32)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop("meta/pn_counts"), "no 'meta/pn_counts'"),
        (_drop("meta/pn_support"), "no 'meta/pn_support'"),
        (_set("meta/pn_counts", [3.0, 1.0, 2.0]), "2 sizes but 3 counts"),
        (_set("meta/pn_support", [4.5, 7.0]), "'meta/pn_support' entry 0"),
        (_set("meta/pn_counts", [3.0, -1.0]), "'meta/pn_counts' entry 1"),
        (_set("meta/pn_support", [4.0, 4.0]), "repeats a size"),
        (_drop_adam_v, "lacks m or v"),
        (_misshape_adam_m, "has shapes \\(3, 3\\)"),
        (_set("train/step", [2.5]), "'train/step' entry 0"),
        (_set("adam/step", [2.0, 3.0]), "'adam/step' has 2 entries"),
    ],
    ids=["support_without_counts", "counts_without_support", "length_mismatch",
         "fractional_size", "negative_count", "repeated_size",
         "adam_m_without_v", "adam_m_shape",
         "fractional_step", "adam_step_length"],
)
def test_malformed_metadata_rejected(tmp_path, corrupt, message):
    # a well-formed file (valid checksum) whose metadata is not
    model = tiny_model()
    model.card_dist = CardinalityDist({4: 3, 7: 1})
    tensors = {name: p.data for name, p in model.params().items()}
    tensors["meta/config"] = encode_config(model.cfg)
    tensors["meta/pn_support"] = np.array([4.0, 7.0], dtype=np.float32)
    tensors["meta/pn_counts"] = np.array([3.0, 1.0], dtype=np.float32)
    opt = {"train/step": np.array([2.0], dtype=np.float32),
           "adam/step": np.array([2.0], dtype=np.float32)}
    for name, p in model.params().items():
        opt[f"adam/m/{name}"] = np.zeros_like(p.data)
        opt[f"adam/v/{name}"] = np.ones_like(p.data)
    corrupt(model, tensors, opt)
    path = tmp_path / "bad_meta.svae"
    save_checkpoint(path, tensors, opt)
    with pytest.raises(CheckpointError, match=message):
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


def test_record_size_past_int64_fails_checksum(tmp_path, capsys):
    # dims (2^32 - 1, 2^32 - 1) under a recomputed checksum: an int64 product
    # wraps to a negative record size, which the reader would accept
    path = tmp_path / "huge_record.svae"
    rank = struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1)
    model = struct.pack("<2I", 1, 1) + b"w" + rank
    body = MAGIC + struct.pack("<I", VERSION) + model + struct.pack("<I", 0)
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    with pytest.raises(CheckpointChecksumError, match="shorter than declared"):
        load_checkpoint(path)
    out = tmp_path / "out.jsonl"
    argv = ["sample", "--ckpt", str(path), "--num-samples", "1", "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_oversized_config_record_fails_before_allocating(tmp_path, capsys):
    # a valid checksum over records of a d=8 model, with a config record
    # claiming d = 2^23: the layout would need about 2^48 entries
    model = tiny_model()
    tensors = {name: p.data for name, p in model.params().items()}
    tensors["meta/config"] = encode_config(model.cfg)
    tensors["meta/config"][0] = 2.0**23
    path = tmp_path / "huge.svae"
    save_checkpoint(path, tensors, {})
    with pytest.raises(CheckpointError, match="config describes"):
        load_model(path)
    out = tmp_path / "out.jsonl"
    argv = ["sample", "--ckpt", str(path), "--num-samples", "1", "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_parameter_record_shape_checked_against_layout(tmp_path):
    model = tiny_model()
    tensors = {name: p.data for name, p in model.params().items()}
    tensors["meta/config"] = encode_config(model.cfg)
    tensors["out/w"] = tensors["out/w"].T.copy()  # same entry count
    path = tmp_path / "transposed.svae"
    save_checkpoint(path, tensors, {})
    with pytest.raises(CheckpointError, match="'out/w' has shape \\(2, 8\\)"):
        load_model(path)


def test_load_model_draws_no_initialisation(tmp_path, monkeypatch):
    # every parameter is overwritten from the file, so no Rng is built
    model = tiny_model()
    path = tmp_path / "m.svae"
    save_model(path, model, step=3)

    def no_rng(self, *args):
        raise AssertionError("load_model built a T.Rng")

    monkeypatch.setattr(T.Rng, "__init__", no_rng)
    loaded, _, step = load_model(path)
    assert step == 3
    for name, p in model.params().items():
        assert np.array_equal(p.data, loaded.params()[name].data), name


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

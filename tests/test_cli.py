"""End-to-end tests of the command line, run as real subprocesses."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import setvae.tensor as T
from setvae.checkpoint import save_model
from setvae.data import gen_synthetic, load_jsonl, save_jsonl
from setvae.model import ModelConfig, SetVAE
from setvae.training import parse_log_line

TOY_CONFIG = """
d = 8
d_z = 2
heads = 2
enc_m = 2
gen_m = 2
d0 = 4
K = 2
steps = 12
batch_size = 6
ckpt_interval = 6
anneal_steps = 4
seed = 3
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "setvae.cli", *map(str, args)],
        capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "toy.cfg"
    cfg.write_text(TOY_CONFIG)
    data = root / "train.jsonl"
    save_jsonl(gen_synthetic("circle", 24, (4, 6), 0.01, T.Rng(0, "data")), data)

    out = root / "run"
    res = run_cli("train", "--config", cfg, "--data", data, "--out", out)
    assert res.returncode == 0, res.stderr
    assert "final checkpoint:" in res.stdout
    return {
        "root": root,
        "config": cfg,
        "data": data,
        "run": out,
        "ckpt": out / "final.svae",
    }


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------

def test_train_log_lines(workspace):
    lines = (workspace["run"] / "train_log.txt").read_text().strip().splitlines()
    assert len(lines) == 12
    for line in lines:
        rec = parse_log_line(line)
        assert rec["total"] == rec["recon"] + rec["beta"] * rec["kl"]
    assert (workspace["run"] / "ckpt_000006.svae").exists()


def test_train_seed_flag_changes_the_run(workspace):
    root = workspace["root"]
    outs = []
    for seed in (7, 8):
        out = root / f"seed{seed}"
        res = run_cli(
            "train", "--config", workspace["config"], "--data",
            workspace["data"], "--out", out, "--seed", seed,
        )
        assert res.returncode == 0, res.stderr
        outs.append((out / "final.svae").read_bytes())
    assert outs[0] != outs[1]


def test_train_rejects_bad_config(workspace, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("d = 8\nwat = 1\n")
    res = run_cli(
        "train", "--config", bad, "--data", workspace["data"],
        "--out", tmp_path / "x",
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "bad.cfg:2" in res.stderr


# ----------------------------------------------------------------------
# sample
# ----------------------------------------------------------------------

def test_sample_fixed_cardinality(workspace, tmp_path):
    out = tmp_path / "samples.jsonl"
    res = run_cli(
        "sample", "--ckpt", workspace["ckpt"], "--num-samples", 5,
        "--n", 7, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    ds = load_jsonl(out)
    assert len(ds) == 5
    assert all(n == 7 for n in ds.cards)
    assert all(np.all(np.isfinite(s)) for s in ds.sets)


def test_sample_uses_stored_cardinalities(workspace, tmp_path):
    out = tmp_path / "samples.jsonl"
    res = run_cli(
        "sample", "--ckpt", workspace["ckpt"], "--num-samples", 20,
        "--out", out,
    )
    assert res.returncode == 0, res.stderr
    cards = load_jsonl(out).cards
    assert all(4 <= n <= 6 for n in cards)  # the training support
    assert len(set(cards)) > 1


def test_sample_determinism(workspace, tmp_path):
    files = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        res = run_cli(
            "sample", "--ckpt", workspace["ckpt"], "--num-samples", 4,
            "--n", 5, "--seed", 11, "--out", out,
        )
        assert res.returncode == 0, res.stderr
        files.append(out.read_bytes())
    assert files[0] == files[1]

    other = tmp_path / "c.jsonl"
    run_cli(
        "sample", "--ckpt", workspace["ckpt"], "--num-samples", 4,
        "--n", 5, "--seed", 12, "--out", other,
    )
    assert other.read_bytes() != files[0]


def test_sample_fix_latents(workspace, tmp_path):
    out = tmp_path / "fixed.jsonl"
    res = run_cli(
        "sample", "--ckpt", workspace["ckpt"], "--num-samples", 3,
        "--n", 6, "--fix-latents", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    ds = load_jsonl(out)
    assert len(ds) == 3 and all(n == 6 for n in ds.cards)
    # latents are shared but the initial sets differ
    assert not np.array_equal(ds.sets[0], ds.sets[1])


def test_sample_requires_n_without_stored_distribution(tmp_path):
    cfg = ModelConfig(d=8, d_z=2, heads=2, enc_m=(2,), gen_m=(2,), d0=4, K=2)
    bare = tmp_path / "bare.svae"
    save_model(bare, SetVAE(cfg, T.Rng(0, "i"), dtype=np.float32))
    res = run_cli(
        "sample", "--ckpt", bare, "--num-samples", 2,
        "--out", tmp_path / "x.jsonl",
    )
    assert res.returncode == 1
    assert "pass --n" in res.stderr


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def test_eval_duplicate_populations(workspace, tmp_path):
    res = run_cli(
        "eval", "--gen", workspace["data"], "--ref", workspace["data"],
    )
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["distance"] == "cd"
    assert (rep["mmd"], rep["cov"], rep["one_nna"]) == (0.0, 1.0, 0.0)
    assert rep["display"]["mmd_x1000"] == 0.0


def test_eval_emd_display_scale(workspace, tmp_path):
    # the one-to-one matching needs equal cardinalities across the files
    fixed = tmp_path / "fixed.jsonl"
    save_jsonl(gen_synthetic("circle", 6, (5, 5), 0.01, T.Rng(1, "d")), fixed)
    res = run_cli(
        "eval", "--gen", fixed, "--ref", fixed,
        "--distance", "emd",
    )
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["distance"] == "emd"
    assert "mmd_x100" in rep["display"]
    assert rep["mmd"] == 0.0


def test_eval_emd_rejects_mixed_cardinalities(workspace):
    res = run_cli(
        "eval", "--gen", workspace["data"], "--ref", workspace["data"],
        "--distance", "emd",
    )
    assert res.returncode == 1
    assert "equal-size sets" in res.stderr


def test_eval_separated_populations(workspace, tmp_path):
    ds = load_jsonl(workspace["data"])
    far = tmp_path / "far.jsonl"
    save_jsonl(
        type(ds)([s + 50.0 for s in ds.sets]), far
    )
    res = run_cli("eval", "--gen", far, "--ref", workspace["data"])
    rep = json.loads(res.stdout)
    assert rep["one_nna"] == 1.0
    assert rep["mmd"] > 100.0


# ----------------------------------------------------------------------
# reconstruct
# ----------------------------------------------------------------------

def test_reconstruct_outputs(workspace, tmp_path):
    out = tmp_path / "recon.jsonl"
    res = run_cli(
        "reconstruct", "--ckpt", workspace["ckpt"], "--data",
        workspace["data"], "--out", out,
    )
    assert res.returncode == 0, res.stderr
    data = load_jsonl(workspace["data"])
    recon = load_jsonl(out)
    assert len(recon) == len(data)
    assert recon.cards == data.cards

    with open(str(out) + ".metrics.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["set_id", "cd", "kl0"]
    assert len(rows) == len(data) + 1
    ids = [int(r[0]) for r in rows[1:]]
    assert ids == list(range(len(data)))
    for r in rows[1:]:
        assert float(r[1]) >= 0.0 and np.isfinite(float(r[1]))
        assert np.isfinite(float(r[2]))


# ----------------------------------------------------------------------
# attn-export
# ----------------------------------------------------------------------

def test_attn_export_csv(workspace, tmp_path):
    out = tmp_path / "attn.csv"
    res = run_cli(
        "attn-export", "--ckpt", workspace["ckpt"], "--data",
        workspace["data"], "--level", 0, "--side", "encoder",
        "--head", 1, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["set_id", "px", "py", "assignment"]
    data = load_jsonl(workspace["data"])
    assert len(rows) == sum(data.cards) + 1
    for row in rows[1:]:
        assert int(row[3]) in (0, 1)  # level 0 has two inducing points
    # encoder side reports the input coordinates (to model precision)
    first = data.sets[0][0]
    assert abs(float(rows[1][1]) - first[0]) < 1e-6
    assert abs(float(rows[1][2]) - first[1]) < 1e-6


def test_attn_export_generator_side(workspace, tmp_path):
    out = tmp_path / "attn_gen.csv"
    res = run_cli(
        "attn-export", "--ckpt", workspace["ckpt"], "--data",
        workspace["data"], "--level", 0, "--side", "generator", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    with open(out) as f:
        rows = list(csv.reader(f))
    assert len(rows) == sum(load_jsonl(workspace["data"]).cards) + 1


def test_attn_export_level_out_of_range(workspace, tmp_path):
    res = run_cli(
        "attn-export", "--ckpt", workspace["ckpt"], "--data",
        workspace["data"], "--level", 9, "--side", "encoder",
        "--out", tmp_path / "x.csv",
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "out of range" in res.stderr


# ----------------------------------------------------------------------
# shared error handling
# ----------------------------------------------------------------------

def test_missing_files_are_reported(workspace, tmp_path):
    res = run_cli(
        "sample", "--ckpt", tmp_path / "nope.svae", "--num-samples", 1,
        "--n", 4, "--out", tmp_path / "x.jsonl",
    )
    assert res.returncode == 1 and res.stderr.startswith("error:")

    res = run_cli("eval", "--gen", tmp_path / "a.jsonl", "--ref", tmp_path / "b.jsonl")
    assert res.returncode == 1 and res.stderr.startswith("error:")


def test_malformed_data_is_reported(workspace, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"points": [[0.1, 0.2]]}\nnot json\n')
    res = run_cli(
        "reconstruct", "--ckpt", workspace["ckpt"], "--data", bad,
        "--out", tmp_path / "x.jsonl",
    )
    assert res.returncode == 1
    assert "line 2" in res.stderr

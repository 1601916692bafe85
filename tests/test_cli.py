"""End-to-end tests of the command line, run as real subprocesses."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import setvae.tensor as T
from helpers import tape_nodes
from setvae import cli
from setvae.checkpoint import load_model, save_model
from setvae.config import TrainConfig
from setvae.data import batch_pad, cardinality_histogram, gen_synthetic, load_jsonl, save_jsonl
from setvae.model import ModelConfig, SetVAE
from setvae.training import parse_log_line

TESTS = os.path.dirname(os.path.abspath(__file__))

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


@pytest.fixture(scope="module")
def desk_ckpt(tmp_path_factory):
    """The default f32 architecture with a desk-corpus histogram: 40 sets of
    32-64 points, so sizes repeat."""
    path = tmp_path_factory.mktemp("desk") / "desk.svae"
    model = SetVAE(TrainConfig().model_config(), T.Rng(0, "init"), dtype=np.float32)
    corpus = gen_synthetic("circle", 40, (32, 64), 0.01, T.Rng(0, "corpus"))
    model.card_dist = cardinality_histogram(corpus)
    save_model(path, model)
    return path


# imports the CLI first, which pins one BLAS thread before numpy loads
REFERENCE = """
import json, sys
import setvae.cli
from helpers import sample_one_at_a_time
from setvae.data import Dataset, save_jsonl
kw = json.loads(sys.argv[2])
save_jsonl(Dataset(sample_one_at_a_time(sys.argv[1], **kw)), sys.argv[3])
"""


def reference_sample(ckpt, out, **kw) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([TESTS, os.environ["PYTHONPATH"]]))
    res = subprocess.run(
        [sys.executable, "-c", REFERENCE, str(ckpt), json.dumps(kw), str(out)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    return out.read_bytes()


@pytest.mark.parametrize(
    "flags, kw",
    [
        ([], {}),
        (["--n", 300], {"n": 300}),  # 20 x 300 rows: two `generate` calls
        (["--fix-latents"], {"fix_latents": True}),
        (["--temperature", 0.5], {"temperature": 0.5}),
    ],
    ids=["histogram", "row-cap", "fix-latents", "temperature"],
)
def test_batched_sample_equals_one_set_at_a_time(desk_ckpt, tmp_path, flags, kw):
    assert 20 * 300 > cli.SAMPLE_ROWS
    out = tmp_path / "batched.jsonl"
    res = run_cli(
        "sample", "--ckpt", desk_ckpt, "--num-samples", 20, "--seed", 5,
        *flags, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    ref = reference_sample(
        desk_ckpt, tmp_path / "ref.jsonl", num_samples=20, seed=5, **kw
    )
    assert out.read_bytes() == ref
    cards = load_jsonl(out).cards
    assert len(set(cards)) < len(cards)  # equal sizes share a call


def test_sample_prefix_property(desk_ckpt, tmp_path):
    # set i depends on the seed and i alone, not on how many follow it
    lines = {}
    for k in (1, 7, 12):
        out = tmp_path / f"first{k}.jsonl"
        res = run_cli(
            "sample", "--ckpt", desk_ckpt, "--num-samples", k, "--seed", 9,
            "--out", out,
        )
        assert res.returncode == 0, res.stderr
        lines[k] = out.read_bytes().splitlines()
    assert len(lines[12]) == 12
    assert lines[12][:1] == lines[1] and lines[12][:7] == lines[7]


@pytest.mark.parametrize(
    "flags, batches",
    [
        (["--n", 4], [2, 2, 2, 1]),
        (["--n", 4, "--fix-latents"], [1, 2, 2, 2]),
        (["--n", 20], [1] * 7),  # a set wider than the cap runs alone
    ],
    ids=["cap", "fix-latents", "wide"],
)
def test_sample_batches_by_cardinality(
    workspace, tmp_path, monkeypatch, flags, batches
):
    monkeypatch.setattr(cli, "SAMPLE_ROWS", 8)
    seen = []
    generate = SetVAE.generate

    def counting(self, cards, *args, **kw):
        assert len(set(cards)) == 1  # never padded
        seen.append(len(cards))
        return generate(self, cards, *args, **kw)

    monkeypatch.setattr(SetVAE, "generate", counting)
    out = tmp_path / "s.jsonl"
    assert cli.main(["sample", "--ckpt", str(workspace["ckpt"]), "--num-samples", "7",
                     *map(str, flags), "--out", str(out)]) == 0
    assert seen == batches
    assert len(load_jsonl(out)) == 7


def test_frozen_model_builds_no_tape(workspace):
    data = load_jsonl(workspace["data"])
    x = batch_pad(data.sets[:4], dtype=np.float32)
    model = cli._frozen_model(workspace["ckpt"])
    params = model.params()
    assert not any(p.requires_grad for p in params.values())
    out, _ = model.generate([5, 5], model.draw_noise([5, 5], T.Rng(0, "gen")))
    x_hat, kls, _ = model.infer(x, model.draw_noise(x.cards, T.Rng(0, "infer")))
    for t in [out.elems, x_hat.elems, *kls]:
        assert t._parents == () and not t.requires_grad
    T.sum_all(x_hat.elems).backward()
    assert all(p.grad is None for p in params.values())

    # the training path loads trainable parameters, as before
    trainable, _, _ = load_model(workspace["ckpt"])
    x_hat, kls, _ = trainable.infer(x, trainable.draw_noise(x.cards, T.Rng(0, "infer")))
    assert tape_nodes(x_hat.elems) > 0
    T.sum_all(x_hat.elems).backward()
    assert any(p.grad is not None for p in trainable.params().values())


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


@pytest.mark.parametrize(
    "temperature, message",
    [
        ("nan", "error: temperature must be finite"),
        ("inf", "error: temperature must be finite"),
        # finite, but the scaled noise overflows into NaN points
        ("1e308", "error: temperature 1e+308 gives non-finite points"),
    ],
    ids=["nan", "inf", "1e308"],
)
def test_sample_rejects_non_finite_temperature(
    workspace, tmp_path, temperature, message
):
    out = tmp_path / "hot.jsonl"
    res = run_cli(
        "sample", "--ckpt", workspace["ckpt"], "--num-samples", 2,
        "--temperature", temperature, "--out", out,
    )
    assert res.returncode == 1
    assert res.stderr.startswith(message)
    assert len(res.stderr.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sample_rejects_nonpositive_n(workspace, tmp_path, n):
    out = tmp_path / "empty.jsonl"
    res = run_cli(
        "sample", "--ckpt", workspace["ckpt"], "--num-samples", 2,
        "--n", n, "--out", out,
    )
    assert res.returncode == 1
    assert res.stderr == "error: cardinalities must be positive\n"
    assert not out.exists()


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


def test_eval_rejects_mixed_dimensions(tmp_path):
    flat = tmp_path / "flat.jsonl"
    deep = tmp_path / "deep.jsonl"
    flat.write_text(json.dumps({"points": [[0.0, 1.0], [1.0, 0.0]]}) + "\n")
    deep.write_text(json.dumps({"points": [[0.0, 1.0, 2.0]]}) + "\n")
    res = run_cli("eval", "--gen", flat, "--ref", deep)
    assert res.returncode == 1
    assert res.stderr == "error: dim mismatch: 2 vs 3\n"


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


@pytest.mark.parametrize(
    "command",
    [["reconstruct"], ["attn-export", "--level", 0, "--side", "encoder"]],
    ids=["reconstruct", "attn-export"],
)
def test_overflowing_input_is_rejected(workspace, tmp_path, command):
    data = tmp_path / "huge.jsonl"
    data.write_text('{"points": [[1e30, 0.5]]}\n')
    out = tmp_path / "out"
    res = run_cli(
        command[0], "--ckpt", workspace["ckpt"], "--data", data, *command[1:],
        "--out", out,
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error: the input sets overflow the model")
    assert len(res.stderr.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == [data]


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
    out = tmp_path / "x.csv"
    for bad in (["--level", 9, "--side", "encoder"],
                ["--level", 0, "--side", "generator", "--head", 9]):
        res = run_cli(
            "attn-export", "--ckpt", workspace["ckpt"], "--data",
            workspace["data"], *bad, "--out", out,
        )
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "out of range" in res.stderr
        assert not out.exists()


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

"""The benchmark tracer patches program names; a deletion it depends on
must fail here, not first in a traced benchmark run."""

import os
import sys

import setvae.tensor as T
import setvae.training as training
from setvae.config import TrainConfig
from setvae.data import batch_pad, gen_synthetic
from setvae.model import ModelConfig, SetVAE

BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


def _tracer():
    sys.path.insert(0, BENCHMARKS)
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(BENCHMARKS)
    return Tracer()


def test_tracer_installs_and_restores():
    original = T.matmul
    cfg = ModelConfig(d=8, d_z=2, heads=2, enc_m=(4, 2), gen_m=(2, 4), d0=4, K=2)
    model = SetVAE(cfg, T.Rng(0, "init"))
    x = batch_pad([T.Rng(0, "x", n).normal((n, 2)) for n in (3, 5)])
    tracer = _tracer()
    tracer.install()
    try:
        model.generate([5], model.draw_noise([5], T.Rng(0, "gen")))
        # the encoder levels are attributed through `enc_levels`' entries
        model.infer(x, model.draw_noise(x.cards, T.Rng(0, "infer")))
    finally:
        tracer.close()
    assert T.matmul is original
    assert tracer.counts["tensor.nodes"] > 0
    assert tracer.counts["model.latent_snapshots"] > 0
    assert tracer.total["model.enc.0"] > 0 and tracer.total["model.enc.1"] > 0


def test_tracer_sees_every_stage_of_a_training_step(tmp_path):
    # the step reaches the tape and the optimizer through `T.<name>`, so a
    # name bound at import would bypass the patch and read 0 without error
    cfg = TrainConfig(
        d=8, d_z=2, heads=2, enc_m=(2,), gen_m=(2,), d0=4, K=2, steps=1, batch_size=4
    )
    ds = gen_synthetic("circle", 4, (4, 6), 0.01, T.Rng(0, "data"))
    tracer = _tracer()
    tracer.install()
    try:
        training.train(cfg, ds, tmp_path / "run")
    finally:
        tracer.close()
    for name in ("tensor.backward", "tensor.clip", "tensor.adam", "checkpoint.save"):
        assert tracer.calls[name] >= 1, name

"""The benchmark tracer patches program names; a deletion it depends on
must fail here, not first in a traced benchmark run."""

import os
import sys

import setvae.tensor as T
from setvae.data import batch_pad
from setvae.model import ModelConfig, SetVAE

BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


def test_tracer_installs_and_restores():
    sys.path.insert(0, BENCHMARKS)
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(BENCHMARKS)
    original = T.matmul
    cfg = ModelConfig(d=8, d_z=2, heads=2, enc_m=(4, 2), gen_m=(2, 4), d0=4, K=2)
    model = SetVAE(cfg, T.Rng(0, "init"))
    x = batch_pad([T.Rng(0, "x", n).normal((n, 2)) for n in (3, 5)])
    tracer = Tracer()
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

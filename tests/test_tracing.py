"""The benchmark tracer patches program names; a deletion it depends on
must fail here, not first in a traced benchmark run."""

import os
import sys

import setvae.tensor as T
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
    cfg = ModelConfig(d=8, d_z=2, heads=2, enc_m=(2,), gen_m=(2,), d0=4, K=2)
    model = SetVAE(cfg, T.Rng(0, "init"))
    tracer = Tracer()
    tracer.install()
    try:
        model.generate([5], model.draw_noise([5], T.Rng(0, "gen")))
    finally:
        tracer.close()
    assert T.matmul is original
    assert tracer.counts["tensor.nodes"] > 0
    assert tracer.counts["model.latent_snapshots"] > 0

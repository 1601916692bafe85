"""The benchmark's workloads: inputs, one timed operation, output checks.

Each workload builds its inputs from the seed in `setup`, then runs
operations the way a user would: `training.train` with a log callback,
or in-process `cli.main` commands that only see the generated JSON-lines
files and checkpoint. Every operation's output is checked after its timer
stops; a check that fails marks the operation's items as failed.

The untimed warm-up operation of `train` and `sample*` runs on inputs
built from REF_SEED and is compared with the values committed in
reference.json, so a change that alters the arithmetic fails the run on
every seed. `python3 benchmarks/reference.py` rewrites that file; doing so
changes the check and must be stated as such.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from setvae import checkpoint, cli, data, training
from setvae import tensor as T
from setvae.config import TrainConfig
from setvae.model import SetVAE

CARDS = (32, 64)  # desk corpus cardinality range
NOISE_SD = 0.01
CORPUS_SETS = 256
TRAIN_STEPS = 24  # per training run; the log must repeat byte for byte
TRAIN_CKPT_EVERY = 8  # writes ckpt_000008, ckpt_000016 and final.svae
SAMPLE_SETS = 32  # sets per `sample` command at histogram cardinalities
LARGE_N = 1024
LARGE_SETS = 8  # sets per `sample --n 1024` command
CD_SETS = 50  # sets per population for `eval --distance cd` (ROADMAP's 50 vs 50)
EMD_SETS = 8  # sets per population for `eval --distance emd`
EMD_CARDS = (32, 32)  # EMD needs equal set sizes
REL_TOL = 1e-9  # report values against the scipy re-derivation
REF_SEED = 0  # inputs of the warm-up that is compared with reference.json
REF_TRAIN_STEPS = 8  # later steps amplify rounding differences past REF_LOG_RTOL
# Tolerances against reference.json. Computing every matmul in f64 moved
# the logged values by at most 2.3e-5 relative over 8 steps and the set
# means by 4e-8; a layer-norm eps of 1e-4 instead of 1e-5 moved them by up
# to 2e-2 and 6e-6.
REF_LOG_RTOL = 1e-4  # each logged recon, kl and total
REF_MEAN_ATOL = 1e-6  # each sampled set's mean coordinate
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass
class OpResult:
    """One timed operation: its items, wall time and per-item latencies."""

    items: int
    wall_s: float
    latencies_ms: list = field(default_factory=list)
    failed: int = 0


def _quiet_cli(argv) -> tuple[int, str]:
    """Run one in-process command; return (exit code, captured stdout).

    An exception the CLI does not turn into an exit code is reported and
    returned as exit code -1, so it counts as a failed operation.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        _report_error(f"setvae {argv[0]}")
        code = -1
    return code, out.getvalue()


def _report_error(where: str) -> None:
    print(f"benchmark: {where} failed", file=sys.stderr)
    traceback.print_exc()


def _corpus(seed: int, kind: str, count: int, cards, tag: str) -> data.Dataset:
    return data.gen_synthetic(kind, count, cards, NOISE_SD, T.Rng(seed, "bench", tag))


def _train_corpus(seed: int, path) -> data.Dataset:
    """The training corpus, written to `path` and read back as a user would."""
    data.save_jsonl(_corpus(seed, "circle", CORPUS_SETS, CARDS, "corpus"), path)
    return data.load_jsonl(path)


def load_reference(workload: str):
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)[workload]


def _read_sets(path) -> list:
    """Parse a JSON-lines set file without the program's loader."""
    with open(path, encoding="utf-8") as f:
        return [np.array(json.loads(line)["points"], dtype=np.float64) for line in f]


class Workload:
    """Interface: `setup`, `warm_up`, `run_op`; `item` names the unit.

    `setup` rebuilds the same inputs from the seed each time it runs, so a
    run can repeat it between operations; the state the checks compare
    against lives in the constructor.
    """

    item = "item"  # unit that throughput and per-layer numbers count
    trace_ops = 7  # traced operations (and as many untraced) per traced run

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> OpResult:
        """One untimed operation; its items and failures are counted."""
        return self.run_op(None)

    def run_op(self, on_progress=None) -> OpResult:
        """Run and check one operation; call `on_progress` after each
        training step, or after the command."""
        raise NotImplementedError

    def verify(self, ops) -> int:
        """Failed items among `ops` found by checks run after timing."""
        return 0


class Train(Workload):
    """`training.train` on a circle corpus: forward, backward and Adam."""

    item = "step"
    trace_ops = 2

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cfg = TrainConfig(
            steps=TRAIN_STEPS, ckpt_interval=TRAIN_CKPT_EVERY, seed=seed
        )
        self.ref_log = self.ref_final = None
        self.recon_final = float("nan")
        self.runs = 0

    def setup(self):
        self.ds = _train_corpus(self.seed, os.path.join(self.work, "corpus.jsonl"))

    def warm_up(self):
        """Train on REF_SEED's corpus; a step off reference.json fails."""
        start = time.perf_counter()
        try:
            got = self.reference_log(self.work)
        except Exception:
            _report_error("reference training run")
            got = []
        wall = time.perf_counter() - start
        ref = load_reference("train")
        good = sum(
            all(math.isclose(a, b, rel_tol=REF_LOG_RTOL) for a, b in zip(row, ref_row))
            for row, ref_row in zip(got, ref)
        )
        return OpResult(REF_TRAIN_STEPS, wall, failed=REF_TRAIN_STEPS - good)

    @staticmethod
    def reference_log(work) -> list:
        """[recon, kl, total] per logged step of a REF_SEED training run."""
        ds = _train_corpus(REF_SEED, os.path.join(work, "ref_corpus.jsonl"))
        out = os.path.join(work, "train_ref")
        cfg = TrainConfig(steps=REF_TRAIN_STEPS, ckpt_interval=TRAIN_CKPT_EVERY, seed=REF_SEED)
        lines = []
        training.train(cfg, ds, out, log_fn=lines.append)
        shutil.rmtree(out)
        recs = [training.parse_log_line(line) for line in lines]
        return [[r["recon"], r["kl"], r["total"]] for r in recs]

    def run_op(self, on_progress=None):
        self.runs += 1
        out = os.path.join(self.work, f"train_{self.runs}")
        stamps = []

        def log_fn(line):
            stamps.append(time.perf_counter())
            if on_progress is not None:
                on_progress()

        start = time.perf_counter()
        try:
            training.train(self.cfg, self.ds, out, log_fn=log_fn)
            ok = True
        except Exception:
            _report_error("training run")
            ok = False
        wall = time.perf_counter() - start
        failed = self._check(out) if ok else TRAIN_STEPS
        shutil.rmtree(out, ignore_errors=True)
        latencies = list(np.diff(stamps) * 1e3)  # the first step has no start stamp
        return OpResult(TRAIN_STEPS, wall, latencies, failed)

    def _check(self, out) -> int:
        """Failed steps: bad log lines, or every step if the run is bad."""
        try:
            with open(os.path.join(out, "train_log.txt"), "rb") as f:
                log = f.read()
            with open(os.path.join(out, "final.svae"), "rb") as f:
                final = f.read()
        except OSError:
            _report_error("reading the training run's outputs")
            return TRAIN_STEPS
        if self.ref_log is None:
            self.ref_log, self.ref_final = log, final
        lines = log.decode("utf-8").splitlines()
        ref_lines = self.ref_log.decode("utf-8").splitlines()
        bad = 0
        recons = []
        for i in range(TRAIN_STEPS):
            try:
                rec = training.parse_log_line(lines[i])
                good = (
                    rec["step"] == i + 1
                    and all(math.isfinite(v) for v in rec.values())
                    and rec["total"] == rec["recon"] + rec["beta"] * rec["kl"]
                    and lines[i] == ref_lines[i]
                )
                recons.append(rec["recon"])
            except (IndexError, KeyError, ValueError):
                good = False
            bad += not good
        run_ok = len(lines) == TRAIN_STEPS and final == self.ref_final
        # training from a random init must lower the reconstruction loss
        run_ok = run_ok and len(recons) == TRAIN_STEPS and recons[-1] < recons[0]
        try:
            _, _, step = checkpoint.load_model(os.path.join(out, "final.svae"))
            run_ok = run_ok and step == TRAIN_STEPS
        except Exception:
            _report_error("loading final.svae")
            run_ok = False
        if recons:
            self.recon_final = recons[-1]
        return TRAIN_STEPS if not run_ok else bad


class Sample(Workload):
    """`setvae sample` from a checkpoint: generator forward passes only."""

    item = "set"

    def __init__(self, seed, work, n=None, name="sample"):
        super().__init__(seed, work)
        self.n = n
        self.name = name  # key in reference.json
        self.sets = SAMPLE_SETS if n is None else LARGE_SETS
        self.ckpt = os.path.join(work, "model.svae")
        self.out = os.path.join(work, "samples.jsonl")
        self.argv = self._argv(self.ckpt, seed, self.out)
        self.ref_lines = None

    def _argv(self, ckpt, seed, out) -> list:
        return [
            "sample", "--ckpt", ckpt, "--num-samples", str(self.sets),
            "--seed", str(seed), "--out", out,
        ] + ([] if self.n is None else ["--n", str(self.n)])

    @staticmethod
    def _checkpoint(seed, path) -> set:
        """Write an initialized model with the seed corpus' histogram to
        `path`; return the histogram's support."""
        corpus = _corpus(seed, "circle", CORPUS_SETS, CARDS, "corpus")
        model = SetVAE(
            TrainConfig().model_config(), T.Rng(seed, "init"), dtype=np.float32
        )
        model.card_dist = data.cardinality_histogram(corpus)
        checkpoint.save_model(path, model)
        return set(corpus.cards)

    def setup(self):
        support = self._checkpoint(self.seed, self.ckpt)
        self.support = {self.n} if self.n is not None else support

    def warm_up(self):
        """Sample from REF_SEED's model; a set off reference.json fails."""
        start = time.perf_counter()
        got = self.reference_sets(self.work)
        wall = time.perf_counter() - start
        if got is None:
            return OpResult(self.sets, wall, failed=self.sets)
        ref = load_reference(self.name)
        good = sum(
            row[0] == ref_row[0]
            and all(abs(a - b) <= REF_MEAN_ATOL for a, b in zip(row[1:], ref_row[1:]))
            for row, ref_row in zip(got, ref)
        )
        return OpResult(self.sets, wall, failed=self.sets - good)

    def reference_sets(self, work):
        """[n, mean x, mean y] per set sampled from REF_SEED's model, or
        None if the command fails."""
        ckpt = os.path.join(work, "ref_model.svae")
        out = os.path.join(work, "ref_samples.jsonl")
        self._checkpoint(REF_SEED, ckpt)
        code, _ = _quiet_cli(self._argv(ckpt, REF_SEED, out))
        if code != 0:
            return None
        return [[len(pts), *map(float, pts.mean(axis=0))] for pts in _read_sets(out)]

    def run_op(self, on_progress=None):
        start = time.perf_counter()
        code, _ = _quiet_cli(self.argv)
        wall = time.perf_counter() - start
        if on_progress is not None:
            on_progress()
        failed = self._check() if code == 0 else self.sets
        return OpResult(self.sets, wall, [wall * 1e3 / self.sets], failed)

    def _check(self) -> int:
        """Failed sets: wrong count, size, range, or bytes differing."""
        try:
            with open(self.out, "rb") as f:
                lines = f.read().splitlines()
        except OSError:
            _report_error("reading the sample file")
            return self.sets
        if self.ref_lines is None:
            self.ref_lines = lines
        if len(lines) != self.sets:
            return self.sets
        bad = 0
        for line, ref in zip(lines, self.ref_lines):
            try:
                pts = np.array(json.loads(line)["points"], dtype=np.float64)
            except (ValueError, KeyError, TypeError):
                bad += 1
                continue
            good = (
                line == ref
                and pts.ndim == 2
                and pts.shape[1] == 2
                and pts.shape[0] in self.support
                and bool(np.all(np.isfinite(pts)))
                and bool(np.all((pts >= 0.0) & (pts <= 1.0)))
            )
            bad += not good
        return bad


class Eval(Workload):
    """`setvae eval` on a population of circles against one of crosses."""

    item = "command"
    trace_ops = 3

    def __init__(self, seed, work, distance, sets, cards):
        super().__init__(seed, work)
        self.distance, self.sets, self.cards = distance, sets, cards
        self.gen = os.path.join(work, "gen.jsonl")
        self.ref = os.path.join(work, "ref.jsonl")
        self.argv = ["eval", "--gen", self.gen, "--ref", self.ref, "--distance", distance]
        self.ref_text = None

    def setup(self):
        data.save_jsonl(_corpus(self.seed, "circle", self.sets, self.cards, "gen"), self.gen)
        data.save_jsonl(_corpus(self.seed, "cross", self.sets, self.cards, "ref"), self.ref)

    def run_op(self, on_progress=None):
        start = time.perf_counter()
        code, text = _quiet_cli(self.argv)
        wall = time.perf_counter() - start
        if on_progress is not None:
            on_progress()
        if code == 0 and self.ref_text is None:
            self.ref_text = text
        # the report must repeat byte for byte; `verify` then checks the
        # first one against scipy
        same = code == 0 and text == self.ref_text
        return OpResult(1, wall, [wall * 1e3], 0 if same else 1)

    def verify(self, ops) -> int:
        """Re-derive the report with scipy; a mismatch fails every command."""
        if self.ref_text is None:
            return 0  # every command failed already
        # scipy is imported here, after the peak RSS reading
        exp = reference_report(_read_sets(self.gen), _read_sets(self.ref), self.distance)
        try:
            rep = json.loads(self.ref_text.strip().splitlines()[-1])
            ok = (
                rep["distance"] == self.distance
                and math.isclose(rep["mmd"], exp["mmd"], rel_tol=REL_TOL)
                and rep["cov"] == exp["cov"]
                and rep["one_nna"] == exp["one_nna"]
            )
        except (ValueError, IndexError, KeyError):
            ok = False
        return 0 if ok else sum(1 for op in ops if not op.failed)


def reference_report(gen: list, ref: list, distance: str) -> dict:
    """MMD, COV and 1-NNA recomputed with scipy: Chamfer from `cdist`, EMD
    from `linear_sum_assignment` on Euclidean costs."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    def dist(x, y):
        if distance == "emd":
            cost = cdist(x, y)
            rows, cols = linear_sum_assignment(cost)
            return cost[rows, cols].sum()
        d2 = cdist(x, y, "sqeuclidean")
        return d2.min(axis=1).sum() + d2.min(axis=0).sum()

    pooled = gen + ref
    d = np.array([[dist(x, y) for y in pooled] for x in pooled])
    ng = len(gen)
    cross = d[:ng, ng:]
    np.fill_diagonal(d, np.inf)
    labels = np.array([0] * ng + [1] * len(ref))
    return {
        "mmd": float(cross.min(axis=0).mean()),
        "cov": float(len(np.unique(cross.argmin(axis=1))) / len(ref)),
        "one_nna": float(np.mean(labels[d.argmin(axis=1)] == labels)),
    }


WORKLOADS = {
    "train": Train,
    "sample": Sample,
    "sample_large": lambda seed, work: Sample(seed, work, LARGE_N, "sample_large"),
    "eval": lambda seed, work: Eval(seed, work, "cd", CD_SETS, CARDS),
    "eval_emd": lambda seed, work: Eval(seed, work, "emd", EMD_SETS, EMD_CARDS),
}

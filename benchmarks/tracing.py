"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced function with a timing wrapper at
every name the program looks it up through (a module global, a name
imported into another module, or a class attribute), and `close` puts the
originals back. Nothing under `src/` is edited.

Every wrapper records a span: calls, total time and self time (total minus
the time of the spans it directly caused). Spans nest through a stack, so
`cli.cmd_sample` self time excludes the `generate` calls it makes, and the
training loop's self time excludes the model, tape and optimizer spans.
Tensor ops also count tape nodes (outputs that carry parents).
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from setvae import attention, cli, metrics, training
from setvae import model as model_mod
from setvae import tensor as T
from setvae.model import SetVAE

# Public tape ops reached by the train and sample paths. Ops nothing calls
# (relu, sum_all, mean_all) are left out of the metric list.
TENSOR_OPS = (
    "matmul", "transpose", "add", "sub", "mul", "div", "scale", "add_row",
    "tanh", "exp", "log", "clamp", "mask_mul", "mask_fill", "outer_add",
    "expand_batch", "concat", "narrow", "softmax_axis", "normalize_rows",
    "layer_norm", "reduce_sum", "reduce_mean", "reduce_min",
)
LEVELS = 5  # default TrainConfig depth (enc_m and gen_m have 5 entries)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "frac"
    if name == "bench.trace_overhead":
        return "x"
    return "count"


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # seconds
        self.self_time = defaultdict(float)  # seconds
        self.counts = defaultdict(int)
        self._stack = []  # one [child_seconds, start] per open span
        self._undo = []
        self._enc_ids = {}  # id(AttentionParams) -> encoder level
        self._abl_ids = {}  # id(ABLParams) -> generator level
        self._model = None  # keeps the ids above from being reused
        self._pairs_seen = set()

    # -- span machinery ------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stack, calls, total, self_time = (
            self._stack, self.calls, self.total, self.self_time
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0, clock()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, result, dur)
            return result

        return wrapper

    def _patch(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, before, after))
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._model = None

    # -- hooks -----------------------------------------------------------

    def _count_node(self, args, result, dur):
        out = result[0] if isinstance(result, tuple) else result
        if out._parents:
            self.counts["tensor.nodes"] += 1

    def _register_encoder(self, args):
        model = args[0]
        self._model = model
        self._enc_ids = {
            id(p): l
            for l, (_, p_proj, p_broad) in enumerate(model.enc_levels)
            for p in (p_proj, p_broad)
            if p is not None
        }

    def _register_generator(self, args):
        model = args[0]
        self._model = model
        self._abl_ids = {id(abl): l for l, abl in enumerate(model.abls)}

    def _attribute_mab(self, args, result, dur):
        level = self._enc_ids.get(id(args[2]))
        if level is not None:
            self.total[f"model.enc.{level}"] += dur

    def _attribute_abl(self, args, result, dur):
        level = self._abl_ids.get(id(args[1]))
        if level is not None:
            self.total[f"model.abl.{level}"] += dur

    def _snapshot_bytes(self, lat):
        nbytes = lat.z0.nbytes + lat.assignments.nbytes
        for level in lat.levels:
            nbytes += sum(a.nbytes for a in level.values() if a is not None)
        self.counts["model.latent_snapshots"] += 1
        self.counts["model.latent_snapshot_bytes"] += nbytes

    def _count_pairs(self, args, result, dur):
        A, B = args[0], args[1]
        self.counts["metrics.distance_evals"] += len(A) * len(B)
        seen = self._pairs_seen
        for x in A:
            for y in B:
                key = (id(x), id(y))
                if key in seen:
                    self.counts["metrics.distance_repeats"] += 1
                else:
                    seen.add(key)

    def _count_ckpt_bytes(self, args, result, dur):
        self.counts["checkpoint.bytes"] += os.path.getsize(args[0])

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch every traced name; `close` undoes it."""
        p = self._patch
        for op in TENSOR_OPS:
            p(T, op, f"tensor.op.{op}", after=self._count_node)
        p(T, "backward", "tensor.backward")
        p(T, "clip_grads", "tensor.clip")
        p(T, "adam_step", "tensor.adam")

        # model.py imports mab by name; attention.isab uses the global
        p(model_mod, "mab", "attention.mab", after=self._attribute_mab)
        p(attention, "mab", "attention.mab", after=self._attribute_mab)
        p(attention, "multihead", "attention.multihead")

        p(SetVAE, "encode", "model.encode", before=self._register_encoder)
        p(SetVAE, "infer", "model.infer", before=self._register_generator,
          after=lambda a, r, d: self._snapshot_bytes(r[2]))
        p(SetVAE, "generate", "model.generate", before=self._register_generator,
          after=lambda a, r, d: self._snapshot_bytes(r[1]))
        p(SetVAE, "sample_initial_set", "model.initial_set")
        p(SetVAE, "elbo_loss", "model.loss")
        p(model_mod, "abl_step", "model.abl_step", after=self._attribute_abl)

        # metrics._DISTANCES holds chamfer/emd by value, so distance
        # evaluations are counted from pairwise_dists' arguments
        p(metrics, "pairwise_dists", "metrics.pairwise", after=self._count_pairs)
        p(metrics, "hungarian", "metrics.hungarian")

        p(training, "batch_pad", "data.batch_pad")
        p(cli, "save_jsonl", "data.save_jsonl")
        p(cli, "load_jsonl", "data.load_jsonl")

        p(training, "save_model", "checkpoint.save", after=self._count_ckpt_bytes)
        p(cli, "load_model", "checkpoint.load")

        p(training, "train", "training.train")

        p(cli, "cmd_sample", "cli.sample")
        p(cli, "cmd_eval", "cli.eval")
        p(cli, "report", "metrics.report",
          before=lambda a: self._pairs_seen.clear())

    # -- read-out --------------------------------------------------------

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for identical work."""
        return {
            "tensor.nodes": self.counts["tensor.nodes"],
            "tensor.op.matmul.calls": self.calls["tensor.op.matmul"],
            "model.generate.calls": self.calls["model.generate"],
            "metrics.distance_evals": self.counts["metrics.distance_evals"],
            "metrics.hungarian_calls": self.calls["metrics.hungarian"],
        }

    def per_layer(self, items: int, kind: str) -> dict:
        """Per-layer metrics, normalized per workload item.

        `kind` is "step", "set" or "command".
        """
        ms = lambda name: 1e3 * self.total[name] / items  # noqa: E731
        per = lambda v: v / items  # noqa: E731
        c, n = self.calls, self.counts
        out = {
            "tensor.nodes_per_step": per(n["tensor.nodes"]) if kind == "step" else 0,
            "tensor.nodes_per_set": per(n["tensor.nodes"]) if kind == "set" else 0,
        }
        for op in TENSOR_OPS:
            out[f"tensor.op.{op}.calls"] = per(c[f"tensor.op.{op}"])
            out[f"tensor.op.{op}.fwd_ms"] = ms(f"tensor.op.{op}")
        out["tensor.backward_ms"] = ms("tensor.backward")
        out["tensor.clip_ms"] = ms("tensor.clip")
        out["tensor.adam_ms"] = ms("tensor.adam")
        out["attention.mab.calls"] = per(c["attention.mab"])
        out["attention.mab_ms"] = ms("attention.mab")
        out["attention.multihead_ms"] = ms("attention.multihead")
        for l in range(LEVELS):
            out[f"model.enc.{l}.ms"] = ms(f"model.enc.{l}")
        for l in range(LEVELS):
            out[f"model.abl.{l}.ms"] = ms(f"model.abl.{l}")
        out["model.encode_ms"] = ms("model.encode")
        out["model.infer_ms"] = ms("model.infer")
        out["model.initial_set_ms"] = ms("model.initial_set")
        out["model.generate_ms"] = ms("model.generate")
        out["model.loss_ms"] = ms("model.loss")
        snaps = n["model.latent_snapshots"]
        out["model.latent_snapshot_bytes"] = (
            n["model.latent_snapshot_bytes"] / snaps if snaps else 0
        )
        evals = n["metrics.distance_evals"]
        out["metrics.pairwise_calls"] = per(c["metrics.pairwise"])
        out["metrics.pairwise_ms"] = ms("metrics.pairwise")
        out["metrics.distance_evals"] = per(evals)
        out["metrics.distance_repeat_frac"] = (
            n["metrics.distance_repeats"] / evals if evals else 0
        )
        out["metrics.hungarian_calls"] = per(c["metrics.hungarian"])
        out["metrics.hungarian_ms"] = ms("metrics.hungarian")
        out["data.batch_pad_ms"] = ms("data.batch_pad")
        out["data.save_jsonl_ms"] = ms("data.save_jsonl")
        out["data.load_jsonl_ms"] = ms("data.load_jsonl")
        saves = c["checkpoint.save"]
        out["checkpoint.save_ms"] = ms("checkpoint.save")
        out["checkpoint.bytes"] = n["checkpoint.bytes"] / saves if saves else 0
        out["checkpoint.load_ms"] = ms("checkpoint.load")
        # includes the model's initialization inside `train`: about 16 ms
        # per run, 0.7 ms per step of a 24-step run
        out["training.loop_self_ms"] = 1e3 * self.self_time["training.train"] / items
        commands = c["cli.sample"]
        out["cli.generate_calls"] = (
            c["model.generate"] / commands if commands else 0
        )
        out["cli.sample_self_ms"] = 1e3 * self.self_time["cli.sample"] / items
        out["cli.eval_self_ms"] = 1e3 * self.self_time["cli.eval"] / items
        return out

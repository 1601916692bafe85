"""SetVAE benchmark: one workload per invocation, result as a JSON line.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/` of the
same checkout; without it the run stops with exit code 1 and no result.

With `--trace 0` the run sets up its inputs several times (the median is
`setup_s`), runs one untimed warm-up operation, then times whole
operations until `--seconds` are used up and reports the end-to-end
metrics. With `--trace 1` it runs a fixed number of operations, taking
turns untraced and under `tracing.Tracer`, and reports per-layer metrics
per workload item plus the tracing overhead. Outputs are checked in both
modes; the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Earlier lines carry the environment block and the metrics under the names
the README maps them to.
"""

import os

# pinned before numpy loads, as the program's CLI does
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 11
SETUP_MIN_S = 0.25  # one set-up sample repeats the set-up for at least this long
MIN_OPS = 2  # determinism needs at least two identical operations

# Throughput and the median latency are printed on the headline line only:
# a shared virtual machine can switch between speed modes about 25% apart,
# and both follow the share of a run spent in each (README.md, Noise).
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p90": "ms",
}
# the headline metrics under their workload-specific names:
# name -> (measured value, scale)
HEADLINES = {
    "train": {
        "train_steps_per_s": ("ops_per_s", 1.0),
        "train_step_ms_p50": ("op_ms_p50", 1.0),
        "train_step_ms_p90": ("op_ms_p90", 1.0),
    },
    "sample": {"sample_sets_per_s": ("ops_per_s", 1.0)},
    "sample_large": {"sample_large_sets_per_s": ("ops_per_s", 1.0)},
    "eval": {"eval_cd_s": ("op_ms_p50", 1e-3)},
    "eval_emd": {"eval_emd_s": ("op_ms_p50", 1e-3)},
}


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "setvae", "__init__.py")):
        sys.exit(f"error: the program is missing: no setvae package under {SRC}")
    sys.path.insert(0, SRC)  # ahead of any installed copy
    sys.path.insert(0, HERE)


def _git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "dtype": "float32",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float) -> tuple[dict, int, int]:
    """Untraced run: set-up repeats, warm-up, then timed operations."""
    import numpy as np

    setup_times = []

    def timed_setup():
        # set-ups take 5 to 150 ms; a sample is the mean over repeats, so
        # that a few milliseconds of scheduling noise do not dominate it
        count, start = 0, time.perf_counter()
        while not count or time.perf_counter() - start < SETUP_MIN_S:
            wl.setup()
            count += 1
        setup_times.append((time.perf_counter() - start) / count)

    timed_setup()
    warm = wl.warm_up()
    # the remaining set-ups are spread over the timed window, so their
    # median does not hang on the machine's speed in one moment
    ops, elapsed = [], 0.0
    while len(ops) < MIN_OPS or elapsed + elapsed / len(ops) <= seconds:
        ops.append(wl.run_op())
        elapsed += ops[-1].wall_s
        if len(setup_times) < SETUP_REPEATS * min(1.0, elapsed / seconds):
            timed_setup()
    while len(setup_times) < SETUP_REPEATS:
        timed_setup()
    # read before the deferred checks import scipy, which would add to it
    rss = _peak_rss_mb()
    failed = sum(op.failed for op in ops) + warm.failed + wl.verify(ops + [warm])
    items = sum(op.items for op in ops)
    latencies = np.concatenate([op.latencies_ms for op in ops])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
        "ops_per_s": items / elapsed,
        "op_ms_p50": float(np.percentile(latencies, 50)),
        "op_ms_p90": float(np.percentile(latencies, 90)),
    }
    print(f"timed {len(ops)} operations, {items} {wl.item}s, "
          f"{len(latencies)} latency samples, {elapsed:.2f} s")
    return metrics, items + warm.items, failed


def trace(wl) -> tuple[dict, int, int]:
    """Traced run: a fixed number of operations, alternately untraced and
    traced, so the overhead ratio does not hang on the machine's drift."""
    from tracing import Tracer

    wl.setup()
    warm = wl.warm_up()
    tracer = Tracer()
    untraced, traced, snapshots = [], [], []
    for _ in range(wl.trace_ops):
        untraced.append(wl.run_op())
        tracer.install()
        try:
            traced.append(wl.run_op(lambda: snapshots.append(tracer.exact_counts())))
        finally:
            tracer.close()

    items = sum(op.items for op in traced)
    metrics = tracer.per_layer(items, wl.item)
    metrics["bench.trace_overhead"] = (
        sum(op.wall_s for op in traced) / sum(op.wall_s for op in untraced)
    )

    # each operation or step must add exactly the same counts
    diffs = [
        {k: b[k] - a.get(k, 0) for k in b}
        for a, b in zip([{}] + snapshots[:-1], snapshots)
    ]
    repeat_failed = int(any(d != diffs[0] for d in diffs))
    boundary = "step" if wl.item == "step" else "command"
    print(f"exact counts per {boundary}: {json.dumps(diffs[0])}")

    ops = untraced + traced + [warm]
    attempted = sum(op.items for op in ops) + 1
    failed = sum(op.failed for op in ops) + wl.verify(ops) + repeat_failed
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    print(f"setvae benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed)))

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        run = trace if args.trace else lambda wl: measure(wl, args.seconds)
        values, attempted, failed = run(wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        from tracing import unit_of
        out = {k: {"value": float(v), "unit": unit_of(k)} for k, v in values.items()}
    else:
        out = {
            k: {"value": float(values[k]), "unit": u}
            for k, u in END_TO_END_UNITS.items()
        }
        named = dict(values)  # the bounded metrics, ops_per_s and op_ms_p50
        for name, (key, scale) in HEADLINES[args.workload].items():
            named[name] = values[key] * scale
        if args.workload == "train":
            named["train_recon_final"] = wl.recon_final
        named["ops_failed_frac"] = failed / attempted
        print("headline " + json.dumps(named))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

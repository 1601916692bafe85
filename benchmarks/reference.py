"""Rewrite reference.json: the outputs the warm-ups are compared with.

    python3 benchmarks/reference.py

Run from the repository root, at a commit whose arithmetic is known good.
The file holds, for inputs built from `workloads.REF_SEED`, the logged
[recon, kl, total] of each `train` step and [n, mean x, mean y] of each
set the `sample` and `sample_large` commands write. Rewriting it changes
the benchmark's correctness check, so a change that does so says why.
"""

import json
import os
import shutil
import sys

import run

if __name__ == "__main__":
    run._import_program()
    from workloads import REFERENCE, WORKLOADS, Train

    work = os.path.join(run.ROOT, ".bench_work", f"reference-{os.getpid()}")
    os.makedirs(work)
    try:
        ref = {"train": Train.reference_log(work)}
        for name in ("sample", "sample_large"):
            ref[name] = WORKLOADS[name](0, work).reference_sets(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if any(v is None for v in ref.values()):
        sys.exit("error: a reference command failed")
    with open(REFERENCE, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(
            f' "{name}": [\n  ' + ",\n  ".join(json.dumps(row) for row in rows) + "\n ]"
            for name, rows in ref.items()
        ) + "\n}\n")
    print(f"wrote {REFERENCE}")

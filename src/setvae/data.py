"""Synthetic set corpora, the JSON-lines set format, and batching.

A dataset is a list of (n, dim) point arrays with optional string labels.
On disk it is one JSON object per line: {"points": [[x, y], ...]} plus an
optional "label". Batching pads to the largest cardinality in the batch
into a `SetBatch(elems, cards)`, whose mask follows from the cardinalities,
so downstream attention never mixes padding into real elements.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import SetBatch
from .model import CardinalityDist

KINDS = ("circle", "cross", "two_blobs")


@dataclass
class Dataset:
    sets: list
    labels: list | None = None

    def __post_init__(self):
        if not self.sets:
            raise ValueError("dataset must contain at least one set")
        dims = {s.shape[1] for s in self.sets}
        if len(dims) != 1:
            raise ValueError(f"inconsistent point dimensions: {sorted(dims)}")
        if self.labels is not None and len(self.labels) != len(self.sets):
            raise ValueError("labels length does not match sets")

    def __len__(self) -> int:
        return len(self.sets)

    @property
    def dim(self) -> int:
        return self.sets[0].shape[1]

    @property
    def cards(self) -> list[int]:
        return [len(s) for s in self.sets]


def gen_synthetic(
    kind: str,
    count: int,
    n_range: tuple[int, int],
    noise_sd: float,
    rng: T.Rng,
) -> Dataset:
    """Synthetic 2D sets: noisy circles, crosses, or separated blob pairs."""
    n_min, n_max = int(n_range[0]), int(n_range[1])
    if not (1 <= n_min <= n_max):
        raise ValueError(f"invalid cardinality range [{n_min}, {n_max}]")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    if kind not in KINDS:
        raise ValueError(f"unknown kind '{kind}', expected one of {KINDS}")
    if count < 1:
        raise ValueError("count must be positive")

    sets, labels = [], []
    for i in range(count):
        r = rng.fork(kind, i)
        n = int(r.fork("n").integers(n_min, n_max + 1))
        noise = r.fork("noise").normal((n, 2)) * noise_sd
        if kind == "circle":
            center = r.fork("c").uniform(0.4, 0.6, (2,))
            radius = float(r.fork("r").uniform(0.15, 0.3))
            theta = r.fork("theta").uniform(0.0, 2.0 * np.pi, (n,))
            pts = center + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        elif kind == "cross":
            center = r.fork("c").uniform(0.4, 0.6, (2,))
            phi = float(r.fork("phi").uniform(0.0, np.pi))
            axes = np.array(
                [[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]]
            )
            half = float(r.fork("len").uniform(0.15, 0.3))
            offsets = r.fork("t").uniform(-half, half, (n,))
            arm = r.fork("arm").integers(0, 2, (n,))
            pts = center + offsets[:, None] * axes[arm]
        else:  # two_blobs
            # first-quadrant offset keeps both centers inside the unit box
            c1 = r.fork("c1").uniform(0.25, 0.4, (2,))
            angle = float(r.fork("dir").uniform(0.0, np.pi / 2))
            gap = max(0.35, 10.0 * noise_sd)
            c2 = c1 + gap * np.array([np.cos(angle), np.sin(angle)])
            which = r.fork("which").integers(0, 2, (n,))
            if n >= 2:  # keep both blobs populated
                which[0], which[1] = 0, 1
            pts = np.where(which[:, None] == 0, c1, c2)
        sets.append(pts + noise)
        labels.append(kind)
    return Dataset(sets, labels)


def save_jsonl(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for i, s in enumerate(ds.sets):
            rec = {"points": [[float(v) for v in p] for p in s]}
            if ds.labels is not None:
                rec["label"] = ds.labels[i]
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def load_jsonl(path) -> Dataset:
    sets, labels, dim = [], [], None
    any_label = False
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                points = rec["points"]
                if not isinstance(points, list) or not points:
                    raise ValueError("empty or non-list points")
                arr = np.array(points)
                # JSON strings and booleans would convert silently
                if arr.dtype.kind not in "iuf":
                    raise ValueError(f"coordinates must be numbers, got {arr.dtype}")
                arr = arr.astype(np.float64, copy=False)
                if arr.ndim != 2 or arr.shape[1] not in (2, 3):
                    raise ValueError(f"points must be (n, 2|3), got {arr.shape}")
                # numpy reads a boolean among numbers as 0 or 1
                if ("true" in line or "false" in line) and any(
                    type(v) is bool for p in points for v in p
                ):
                    raise ValueError("coordinates must be numbers, got a boolean")
                if not np.all(np.isfinite(arr)):
                    raise ValueError("non-finite coordinates")
            except (ValueError, KeyError, TypeError) as e:
                raise ValueError(f"{path}: malformed record at line {lineno}: {e}")
            if dim is None:
                dim = arr.shape[1]
            elif arr.shape[1] != dim:
                raise ValueError(
                    f"{path}: line {lineno} has dim {arr.shape[1]}, expected {dim}"
                )
            sets.append(arr)
            label = rec.get("label")
            any_label = any_label or label is not None
            labels.append("" if label is None else str(label))
    if not sets:
        raise ValueError(f"{path}: no records")
    return Dataset(sets, labels if any_label else None)


def batch_pad(sets: list, dtype=np.float64) -> SetBatch:
    """Pad sets to the batch maximum; padding rows are zero and masked."""
    if not sets:
        raise ValueError("cannot batch an empty list of sets")
    cards = [len(s) for s in sets]
    n_max = max(cards)
    dim = sets[0].shape[1]
    elems = np.zeros((len(sets), n_max, dim), dtype=dtype)
    for b, s in enumerate(sets):
        elems[b, : len(s)] = s
    return SetBatch(elems, cards)


def cardinality_histogram(ds: Dataset) -> CardinalityDist:
    return CardinalityDist(Counter(ds.cards))

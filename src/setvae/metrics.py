"""Point-set distances and population-level generative metrics.

Set distances: Chamfer (two-way squared nearest neighbors) and EMD, the
optimal matching over Euclidean costs through an exact O(n^3) Hungarian
assignment. Population metrics: MMD (average distance from each
reference set to its closest generated set), COV (fraction of reference
sets that are some generated set's nearest neighbor), and 1-NNA
(leave-one-out nearest-neighbor classification accuracy on the pooled
populations, 0.5 ideal).

`report` computes one pooled matrix of (|Sg| + |Sr|)^2 set distances: its
Sg x Sr block gives MMD and COV, the whole gives 1-NNA, so the cost grows
quadratically with population size. Nearest-neighbor ties break toward
the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EMD_MAX_POINTS = 512


@dataclass
class MetricReport:
    mmd: float
    cov: float
    one_nna: float
    distance: str


def _check_pointset(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"{name} must be a nonempty (n, dim) array")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # explicit differences keep the diagonal of identical sets exactly 0
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def chamfer(x, y) -> float:
    """Two-way sum of squared nearest-neighbor distances."""
    x, y = _check_pointset(x, "x"), _check_pointset(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dim mismatch: {x.shape[1]} vs {y.shape[1]}")
    d2 = _sq_dists(x, y)
    return float(d2.min(axis=1).sum() + d2.min(axis=0).sum())


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Permutation perm minimizing sum(cost[i, perm[i]]), O(n^3).

    Shortest-augmenting-path formulation with row/column potentials.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite values")
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=np.int64)  # column -> row, 1-based, 0 = free
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            free = ~used[1:]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            j1 = int(np.argmin(np.where(free, minv[1:], np.inf))) + 1
            delta = minv[j1]
            u[match[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    perm = np.zeros(n, dtype=np.int64)
    for j in range(1, n + 1):
        perm[match[j] - 1] = j - 1
    return perm


def emd(x, y) -> float:
    """Optimal-assignment distance over non-squared Euclidean costs."""
    x, y = _check_pointset(x, "x"), _check_pointset(y, "y")
    if x.shape != y.shape:
        raise ValueError(
            f"matching distance needs equal-size sets, got {x.shape} and {y.shape}"
        )
    if x.shape[0] > EMD_MAX_POINTS:
        raise ValueError(
            f"set size {x.shape[0]} exceeds the exact-matching cap "
            f"{EMD_MAX_POINTS}"
        )
    cost = np.sqrt(_sq_dists(x, y))
    perm = hungarian(cost)
    return float(cost[np.arange(len(perm)), perm].sum())


_DISTANCES = {"cd": chamfer, "emd": emd}


def _distance_fn(tag: str):
    try:
        return _DISTANCES[tag.lower()]
    except KeyError:
        raise ValueError(f"unknown distance '{tag}', expected cd or emd") from None


def pairwise_dists(A: list, B: list, distance: str = "cd") -> np.ndarray:
    """(|A|, |B|) distance matrix, row by row."""
    if not A or not B:
        raise ValueError("empty population")
    fn = _distance_fn(distance)
    return np.array([[fn(x, y) for y in B] for x in A], dtype=np.float64)


def _mmd(d: np.ndarray) -> float:
    return float(d.min(axis=0).mean())


def _cov(d: np.ndarray) -> float:
    return float(len(np.unique(d.argmin(axis=1))) / d.shape[1])


def mmd(Sg: list, Sr: list, distance: str = "cd") -> float:
    """Mean over references of the distance to the closest generated set."""
    return _mmd(pairwise_dists(Sg, Sr, distance))


def cov(Sg: list, Sr: list, distance: str = "cd") -> float:
    """Fraction of references that are some generated set's argmin."""
    return _cov(pairwise_dists(Sg, Sr, distance))


def one_nna(Sg: list, Sr: list, distance: str = "cd") -> float:
    """Nearest-neighbor two-sample accuracy on the pooled populations."""
    return report(Sg, Sr, distance).one_nna


def report(Sg: list, Sr: list, distance: str = "cd") -> MetricReport:
    """All three scores from one pooled matrix of (|Sg| + |Sr|)^2 distances."""
    if len(Sg) != len(Sr):
        raise ValueError(f"1-NNA needs equal sizes, got {len(Sg)} and {len(Sr)}")
    pooled = list(Sg) + list(Sr)
    d = pairwise_dists(pooled, pooled, distance)
    cross = d[: len(Sg), len(Sg) :]  # Sg x Sr, which holds no diagonal entry
    np.fill_diagonal(d, np.inf)
    labels = np.arange(len(pooled)) >= len(Sg)
    return MetricReport(
        mmd=_mmd(cross),
        cov=_cov(cross),
        one_nna=float(np.mean(labels[d.argmin(axis=1)] == labels)),
        distance=distance.lower(),
    )

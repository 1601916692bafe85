"""Point-set distances and population-level generative metrics.

Set distances: Chamfer (two-way squared nearest neighbors) and EMD, the
optimal matching over Euclidean costs through an exact O(n^3) Hungarian
assignment. Population metrics: MMD (average distance from each
reference set to its closest generated set), COV (fraction of reference
sets that are some generated set's nearest neighbor), and 1-NNA
(leave-one-out nearest-neighbor classification accuracy on the pooled
populations, 0.5 ideal).

Squared distances come from explicit differences, one coordinate's
squared difference added at a time in coordinate order, so identical sets
are exactly 0 apart and no (n, m, dim) array is built. Chamfer runs one
set against a block of whole sets at once: the block's points are the
columns of one coordinate-major (dim, m) array, each set's row minima come
from `np.minimum.reduceat`, and each set's minima are summed contiguously,
as for a single pair, so a block entry equals `chamfer` of that pair bit
for bit. A block holds about BLOCK_ENTRIES squared distances, so its
temporaries do not grow with the population; a set too large for that is
a block of its own.

`report` computes one pooled matrix of (|Sg| + |Sr|)^2 set distances: its
Sg x Sr block gives MMD and COV, the whole gives 1-NNA. Chamfer is bitwise
symmetric, so each unordered pair is computed once and mirrored. EMD is
not (its matching's bits depend on the order), so it runs every ordered
pair off the diagonal. The pair count grows quadratically with population
size. Nearest-neighbor ties break toward the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EMD_MAX_POINTS = 512
BLOCK_ENTRIES = 1 << 15  # squared distances in one Chamfer block


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


def _check_dims(dim: int, sets: list) -> None:
    for x in sets:
        if x.shape[1] != dim:
            raise ValueError(f"dim mismatch: {dim} vs {x.shape[1]}")


def _sq_dists(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(n, m) squared distances from the rows of x to the columns of cols."""
    # explicit differences keep identical points exactly 0 apart, and the
    # coordinates add in order
    diff = x[:, :1] - cols[0]
    d2 = diff * diff
    for k in range(1, x.shape[1]):
        np.subtract(x[:, k : k + 1], cols[k], out=diff)
        np.multiply(diff, diff, out=diff)
        d2 += diff
    return d2


def _chamfer_row(x: np.ndarray, cols: np.ndarray, starts) -> np.ndarray:
    """Chamfer from x to each set of a block: cols is (dim, m), and set j
    holds the columns from starts[j] to the next start."""
    d2 = _sq_dists(x, cols)
    # each set's minima summed as one contiguous row, as for a single pair
    fwd = np.minimum.reduceat(d2, starts, axis=1).T.copy().sum(axis=1)
    bwd = d2.min(axis=0)
    ends = [*starts[1:], cols.shape[1]]
    return fwd + np.array([bwd[s:e].sum() for s, e in zip(starts, ends)])


def chamfer(x, y) -> float:
    """Two-way sum of squared nearest-neighbor distances."""
    x, y = _check_pointset(x, "x"), _check_pointset(y, "y")
    _check_dims(x.shape[1], [y])
    return float(_chamfer_row(x, y.T, [0])[0])


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
    cost = np.sqrt(_sq_dists(x, y.T))
    perm = hungarian(cost)
    return float(cost[np.arange(len(perm)), perm].sum())


def _chamfer_matrix(A: list, B: list, same: bool) -> np.ndarray:
    cols = np.concatenate([y.T for y in B], axis=1)
    bounds = np.cumsum([0] + [len(y) for y in B])
    d = np.empty((len(A), len(B)))
    for i, x in enumerate(A):
        width = max(1, BLOCK_ENTRIES // len(x))  # columns per block
        j = i if same else 0
        while j < len(B):
            # whole sets up to the width; a wider set is a block of its own
            k = int(np.searchsorted(bounds, bounds[j] + width, side="right")) - 1
            k = max(k, j + 1)
            s, e = bounds[j], bounds[k]
            d[i, j:k] = _chamfer_row(x, cols[:, s:e], bounds[j:k] - s)
            j = k
    if same:
        lower = np.tril_indices(len(A), -1)
        d[lower] = d.T[lower]
    return d


def _emd_matrix(A: list, B: list, same: bool) -> np.ndarray:
    d = np.zeros((len(A), len(B)))
    for i, x in enumerate(A):
        for j, y in enumerate(B):
            if not (same and i == j):
                d[i, j] = emd(x, y)
    return d


_PAIRWISE = {"cd": _chamfer_matrix, "emd": _emd_matrix}


def pairwise_dists(A: list, B: list, distance: str = "cd") -> np.ndarray:
    """(|A|, |B|) distance matrix; each set is checked once.

    Passing one list as both A and B asks for a population against itself:
    Chamfer then computes each unordered pair once and mirrors it, and EMD
    leaves the diagonal at 0, a set's distance to itself, with no matching.
    """
    if not A or not B:
        raise ValueError("empty population")
    try:
        matrix = _PAIRWISE[distance.lower()]
    except KeyError:
        raise ValueError(f"unknown distance '{distance}', expected cd or emd") from None
    same = B is A
    A = [_check_pointset(x, "x") for x in A]
    B = A if same else [_check_pointset(y, "y") for y in B]
    _check_dims(A[0].shape[1], A if same else A + B)
    return matrix(A, B, same)


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

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
are exactly 0 apart and no (n, m, dim) array is built. Chamfer runs a set
of n points against BLOCK_ENTRIES // n whole sets at once (at least one):
the group's points are the columns of one coordinate-major (dim, m) array,
each set's row minima come from `np.minimum.reduceat`, and the group's
forward minima fit one buffer. Within a group the set runs a tile of rows
at a time, each tile about BLOCK_ENTRIES squared distances, so memory
stays flat in the size of a set. A row's minimum always runs over the
whole group, each set's minima are summed contiguously, and column minima
combine across tiles with `np.minimum`, which is exact. One workspace and
one forward buffer, sized in closed form to the largest tile and group,
serve every group, so a matrix allocates its large arrays once. The column
minima of a chunk of rows, about CHUNK_ENTRIES of them, go into one
buffer, and each column set's minima are summed once per chunk, one
contiguous row per pair. Every entry is therefore summed as for a single
pair, in the same order, and `chamfer` is the one-pair case of the matrix.

EMD checks the whole population once (equal set sizes, at most
EMD_MAX_POINTS points) and then solves its matchings a block at a time:
one (k, n, n) stack of Euclidean costs, about EMD_BLOCK_ENTRIES entries,
goes to `hungarian`, which runs the k problems in lockstep so each numpy
call serves the whole block. A problem takes the same floating-point steps
as when solved alone, so its permutation and distance are bitwise those of
the single pair.

`report` computes one pooled matrix of (|Sg| + |Sr|)^2 set distances: its
Sg x Sr block gives MMD and COV, the whole gives 1-NNA. For either
distance, a population against itself computes each unordered pair i < j
once and mirrors it, d[j, i] = d[i, j]. The pair count grows
quadratically with population size. Nearest-neighbor ties break toward
the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EMD_MAX_POINTS = 512
BLOCK_ENTRIES = 1 << 15  # squared distances in one Chamfer tile
CHUNK_ENTRIES = 1 << 17  # column minima held for one chunk of Chamfer rows
EMD_BLOCK_ENTRIES = 1 << 17  # cost entries in one block of EMD matchings


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


def _sq_dists(x: np.ndarray, cols: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(n, m) squared distances from the rows of x to the columns of cols,
    written into work, a flat buffer of at least 2 n m entries."""
    size = x.shape[0] * cols.shape[1]
    diff = work[:size].reshape(x.shape[0], cols.shape[1])
    d2 = work[size : 2 * size].reshape(diff.shape)
    # explicit differences keep identical points exactly 0 apart, and the
    # coordinates add in order
    np.subtract(x[:, :1], cols[0], out=diff)
    np.multiply(diff, diff, out=d2)
    for k in range(1, x.shape[1]):
        np.subtract(x[:, k : k + 1], cols[k], out=diff)
        np.multiply(diff, diff, out=diff)
        d2 += diff
    return d2


def chamfer(x, y) -> float:
    """Two-way sum of squared nearest-neighbor distances."""
    return float(pairwise_dists([x], [y])[0, 0])


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Permutations perm minimizing sum(cost[..., i, perm[..., i]]), O(n^3).

    cost is one (n, n) matrix or a stack (k, n, n), solved in lockstep: a
    single matrix is a stack of one. Shortest-augmenting-path formulation
    with row/column potentials; each problem takes the same floating-point
    steps as when solved alone, and one that has found its free column
    waits untouched while the rest of the stack searches.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim not in (2, 3) or cost.shape[-1] != cost.shape[-2]:
        raise ValueError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite values")
    stack = cost if cost.ndim == 3 else cost[None]
    k, n = stack.shape[:2]
    ks = np.arange(k)
    u = np.zeros((k, n + 1))
    v = np.zeros((k, n + 1))
    match = np.zeros((k, n + 1), dtype=np.int64)  # column -> row, 1-based, 0 = free
    way = np.zeros((k, n + 1), dtype=np.int64)
    for i in range(1, n + 1):
        match[:, 0] = i
        j0 = np.zeros(k, dtype=np.int64)
        minv = np.full((k, n), np.inf)  # columns 1..n
        used = np.zeros((k, n + 1), dtype=bool)
        rows = np.zeros((k, n + 1), dtype=bool)  # rows matched to a used column
        search = np.ones((k, 1), dtype=bool)  # problems still without a free column
        while True:
            used[ks, j0] |= search[:, 0]
            i0 = match[ks, j0]
            rows[ks, i0] |= search[:, 0]
            free = ~used[:, 1:]
            cur = stack[ks, i0 - 1] - u[ks, i0][:, None] - v[:, 1:]
            better = free & (cur < minv) & search
            np.copyto(minv, cur, where=better)
            np.copyto(way[:, 1:], j0[:, None], where=better)
            j1 = np.argmin(np.where(free, minv, np.inf), axis=1)
            delta = minv[ks, j1][:, None]
            np.add(u, delta, out=u, where=rows & search)
            np.subtract(v, delta, out=v, where=used & search)
            np.subtract(minv, delta, out=minv, where=free & search)
            j0 = np.where(search[:, 0], j1 + 1, j0)
            search &= (match[ks, j0] != 0)[:, None]
            if not search.any():
                break
        while True:
            walk = j0 != 0
            if not walk.any():
                break
            j1 = way[ks, j0]
            match[ks, j0] = np.where(walk, match[ks, j1], match[ks, j0])
            j0 = np.where(walk, j1, j0)
    perm = np.empty((k, n), dtype=np.int64)
    np.put_along_axis(perm, match[:, 1:] - 1, np.arange(n), axis=1)
    return perm if cost.ndim == 3 else perm[0]


def emd(x, y) -> float:
    """Optimal-assignment distance over non-squared Euclidean costs."""
    return float(pairwise_dists([x], [y], "emd")[0, 0])


def _chamfer_matrix(A: list, B: list, same: bool) -> np.ndarray:
    cols = np.concatenate([y.T for y in B], axis=1)
    bounds = np.cumsum([0] + [len(y) for y in B])
    total, n = cols.shape[1], max(map(len, A))
    # one workspace for every tile and one forward buffer for every group,
    # each sized to the largest: a tile is at most BLOCK_ENTRIES entries or
    # one row, which may span every column, and a group's forward minima
    # are at most BLOCK_ENTRIES or one row set
    work = np.empty(2 * min(n * total, max(BLOCK_ENTRIES, total)))
    fwd_buf = np.empty(min(n * len(B), max(BLOCK_ENTRIES, n)))
    chunk = max(1, CHUNK_ENTRIES // total)  # rows per chunk
    mins = np.zeros((chunk, total))  # column minima of a chunk's rows
    d = np.empty((len(A), len(B)))
    for r0 in range(0, len(A), chunk):
        r1 = min(r0 + chunk, len(A))
        for i in range(r0, r1):
            x = A[i]
            size = max(1, BLOCK_ENTRIES // len(x))  # column sets per group
            for j in range(i if same else 0, len(B), size):
                k = min(j + size, len(B))
                s, e = bounds[j], bounds[k]
                fwd = fwd_buf[: (k - j) * len(x)].reshape(k - j, len(x))
                col_min = mins[i - r0, s:e]
                step = max(1, BLOCK_ENTRIES // (e - s))  # rows per tile
                for t in range(0, len(x), step):
                    d2 = _sq_dists(x[t : t + step], cols[:, s:e], work)
                    # a row's minimum runs over the whole group
                    fwd[:, t : t + step] = np.minimum.reduceat(d2, bounds[j:k] - s, 1).T
                    if t == 0:
                        np.minimum.reduce(d2, axis=0, out=col_min)
                    else:  # exact, so the tiles combine in any order
                        np.minimum(col_min, d2.min(axis=0), out=col_min)
                # each set's minima summed as one contiguous row, as for one pair
                d[i, j:k] = fwd.sum(axis=1)
        # each row of mins[:h, s:e] is contiguous, so its sum is a single pair's
        for j in range(r0 if same else 0, len(B)):
            h = (min(r1, j + 1) if same else r1) - r0  # the chunk's rows that ran j
            d[r0 : r0 + h, j] += mins[:h, bounds[j] : bounds[j + 1]].sum(axis=1)
    return d


def _emd_matrix(A: list, B: list, same: bool) -> np.ndarray:
    n = A[0].shape[0]
    for x in A if same else A + B:
        if x.shape != A[0].shape:
            raise ValueError(
                "matching distance needs equal-size sets, "
                f"got {A[0].shape} and {x.shape}"
            )
    if n > EMD_MAX_POINTS:
        raise ValueError(
            f"set size {n} exceeds the exact-matching cap {EMD_MAX_POINTS}"
        )
    pairs = np.ones((len(A), len(B)), dtype=bool)
    if same:
        pairs = np.triu(pairs, 1)  # a set is 0 from itself
    rows, cols = np.nonzero(pairs)
    size = max(1, min(len(rows), EMD_BLOCK_ENTRIES // (n * n)))  # pairs per block
    cost = np.empty((size, n, n))
    work = np.empty(2 * n * n)
    d = np.zeros((len(A), len(B)))
    for s in range(0, len(rows), size):
        r, c = rows[s : s + size], cols[s : s + size]
        for b, (i, j) in enumerate(zip(r, c)):
            np.sqrt(_sq_dists(A[i], B[j].T, work), out=cost[b])
        block = cost[: len(r)]
        perm = hungarian(block)
        d[r, c] = block[np.arange(len(r))[:, None], np.arange(n), perm].sum(axis=1)
    return d


_PAIRWISE = {"cd": _chamfer_matrix, "emd": _emd_matrix}


def pairwise_dists(A: list, B: list, distance: str = "cd") -> np.ndarray:
    """(|A|, |B|) distance matrix; each set is checked once.

    Passing one list as both A and B asks for a population against itself:
    each unordered pair i < j is then computed once and mirrored to d[j, i].
    EMD leaves the diagonal at 0, a set's distance to itself, with no
    matching.
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
    d = matrix(A, B, same)
    if same:
        lower = np.tril_indices(len(A), -1)
        d[lower] = d.T[lower]
    return d


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
        mmd=float(cross.min(axis=0).mean()),
        cov=float(len(np.unique(cross.argmin(axis=1))) / cross.shape[1]),
        one_nna=float(np.mean(labels[d.argmin(axis=1)] == labels)),
        distance=distance.lower(),
    )

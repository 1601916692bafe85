"""Tests for set distances and population metrics against brute force."""

import itertools
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import setvae.metrics as metrics
from helpers import brute_force_assignment, chamfer_loops
from setvae.metrics import (
    EMD_MAX_POINTS,
    chamfer,
    emd,
    hungarian,
    pairwise_dists,
    report,
)


def np_perm_cost(cost: np.ndarray, perm) -> float:
    return float(cost[np.arange(len(perm)), list(perm)].sum())


def exact_chamfer_oracle(x: np.ndarray, y: np.ndarray) -> float:
    fwd = np.sum(np.array([min(float(np.sum((p - q) ** 2)) for q in y) for p in x]))
    bwd = np.sum(np.array([min(float(np.sum((q - p) ** 2)) for p in x) for q in y]))
    return float(fwd + bwd)


# ----------------------------------------------------------------------
# Chamfer
# ----------------------------------------------------------------------

def test_chamfer_hand_values():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert chamfer(a, b) == 50.0  # 25 each way, squared
    assert chamfer(a, a) == 0.0


def test_chamfer_identical_sets_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=(rng.integers(1, 30), 2))
        assert chamfer(x, x.copy()) == 0.0


def test_chamfer_permutation_invariant():
    # reordering points reorders the float summation, so equality holds
    # to rounding, not bitwise
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, 2))
    y = rng.normal(size=(13, 2))
    base = chamfer(x, y)
    for _ in range(10):
        got = chamfer(x[rng.permutation(9)], y[rng.permutation(13)])
        assert abs(got - base) < 1e-12 * abs(base)


def test_chamfer_matches_double_loop():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.normal(size=(rng.integers(1, 20), 2))
        y = rng.normal(size=(rng.integers(1, 20), 2))
        assert chamfer(x, y) == exact_chamfer_oracle(x, y)
        assert abs(chamfer(x, y) - chamfer_loops(x, y)) < 1e-12


def test_chamfer_rejects_bad_inputs():
    with pytest.raises(ValueError):
        chamfer(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        chamfer(np.zeros((2, 2)), np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        chamfer(np.zeros(4), np.zeros((2, 2)))


# ----------------------------------------------------------------------
# Hungarian assignment
# ----------------------------------------------------------------------

def test_hungarian_identity_on_zero_diagonal():
    cost = np.ones((5, 5)) - np.eye(5)
    assert hungarian(cost).tolist() == [0, 1, 2, 3, 4]


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(1, 7))
        cost = rng.normal(size=(n, n))
        perm = hungarian(cost)
        assert sorted(perm.tolist()) == list(range(n))
        best, _ = brute_force_assignment(cost)
        got = sum(cost[i, perm[i]] for i in range(n))
        assert got == best


def test_hungarian_row_shift_invariance():
    rng = np.random.default_rng(4)
    cost = rng.normal(size=(6, 6))
    base = hungarian(cost)
    shifted = cost + rng.normal(size=(6, 1))  # constant per row
    assert np.array_equal(hungarian(shifted), base)


def test_hungarian_rejects_bad_matrices():
    with pytest.raises(ValueError):
        hungarian(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        hungarian(np.array([[0.0, np.inf], [1.0, 0.0]]))
    for shape in ((3,), (2, 2, 3, 3), (2, 3, 4)):
        with pytest.raises(ValueError, match="square"):
            hungarian(np.zeros(shape))
    stack = np.zeros((3, 4, 4))
    stack[1, 2, 3] = np.nan  # one entry of one matrix
    with pytest.raises(ValueError, match="non-finite"):
        hungarian(stack)


def test_hungarian_stack_matches_each_matrix_alone():
    rng = np.random.default_rng(20)
    n = 7
    easy = np.ones((n, n)) - np.eye(n)  # each row's search ends in one round
    crowded = np.outer(np.arange(1.0, n + 1), np.arange(n))  # all want column 0
    noisy = rng.normal(size=(n, n))
    tied = np.round(rng.normal(size=(n, n)))  # exact ties, and -0.0 entries
    stacks = [
        rng.normal(size=(3, 1, 1)),
        np.round(rng.normal(size=(6, n, n))),
        np.stack([noisy, noisy, tied, noisy, tied]),
        np.stack([easy, crowded, noisy, tied, easy]),
    ]
    for stack in stacks:
        perms = hungarian(stack)
        assert perms.shape == stack.shape[:2]
        for cost, perm in zip(stack, perms):
            assert np.array_equal(perm, hungarian(cost))


def test_hungarian_large_instance_is_fast():
    rng = np.random.default_rng(5)
    import time

    cost = rng.normal(size=(512, 512))
    t0 = time.monotonic()
    perm = hungarian(cost)
    elapsed = time.monotonic() - t0
    assert sorted(perm.tolist()) == list(range(512))
    assert elapsed < 5.0


# ----------------------------------------------------------------------
# Matching distances
# ----------------------------------------------------------------------

def test_emd_hand_values():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert emd(a, b) == 5.0


def test_emd_zero_on_permuted_copy():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 2))
    assert emd(x, x[rng.permutation(10)]) == 0.0


def test_emd_matches_factorial_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(20):
        x = rng.normal(size=(8, 2))
        y = rng.normal(size=(8, 2))
        d2 = np.sum((x[:, None] - y[None]) ** 2, axis=-1)
        cost = np.sqrt(d2)
        best = min(
            np_perm_cost(cost, perm)
            for perm in itertools.permutations(range(8))
        )
        assert emd(x, y) == best


def test_matching_upper_bound_over_random_permutations():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=(12, 2))
    cost = np.sqrt(np.sum((x[:, None] - y[None]) ** 2, axis=-1))
    opt = emd(x, y)
    for _ in range(50):
        perm = rng.permutation(12)
        assert opt <= np_perm_cost(cost, perm) + 1e-12


def test_matching_rejects_mismatch_and_cap():
    with pytest.raises(ValueError):
        emd(np.zeros((3, 2)), np.zeros((4, 2)))
    # a population is checked as a whole, past its first pair
    sets = [np.zeros((3, 2)), np.ones((3, 2)), np.zeros((4, 2))]
    for A, B in ((sets, sets), (sets[:2], sets[1:])):
        with pytest.raises(ValueError, match="equal-size sets"):
            pairwise_dists(A, B, "emd")
    big = np.zeros((EMD_MAX_POINTS + 1, 2))
    with pytest.raises(ValueError, match="512"):
        emd(big, big)
    with pytest.raises(ValueError, match="512"):
        pairwise_dists([big, big], [big], "emd")


# ----------------------------------------------------------------------
# Population metrics
# ----------------------------------------------------------------------

def make_population(seed, count, spread=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return [
        offset + spread * rng.normal(size=(int(rng.integers(4, 9)), 2))
        for _ in range(count)
    ]


def cross_scores(Sg, Sr, distance="cd"):
    """(MMD, COV) off the unmirrored Sg x Sr matrix, reduced as `report`
    reduces the Sg x Sr block of its pooled matrix."""
    d = pairwise_dists(Sg, Sr, distance)
    mmd = float(d.min(axis=0).mean())
    return mmd, float(len(np.unique(d.argmin(axis=1))) / d.shape[1])


def test_metrics_on_duplicated_population():
    Sr = make_population(9, 8)
    Sg = [s.copy() for s in Sr]
    assert cross_scores(Sg, Sr) == (0.0, 1.0)
    r = report(Sg, Sr)
    assert (r.mmd, r.cov, r.one_nna) == (0.0, 1.0, 0.0)
    assert r.distance == "cd"


def test_metrics_on_separated_populations():
    Sr = make_population(10, 6, offset=0.0)
    Sg = make_population(11, 6, offset=100.0)
    r = report(Sg, Sr)
    assert r.one_nna == 1.0
    assert r.mmd > 100.0
    assert cross_scores(Sg, Sr)[0] > 100.0


def test_cov_collapses_for_identical_generated_sets():
    Sr = make_population(12, 5)
    g = make_population(13, 1)[0]
    Sg = [g.copy() for _ in range(5)]
    assert report(Sg, Sr).cov == 1.0 / 5.0
    assert cross_scores(Sg, Sr)[1] == 1.0 / 5.0


def test_mmd_singletons():
    g = np.array([[0.0, 0.0]])
    r = np.array([[3.0, 4.0]])
    assert cross_scores([g], [r]) == (chamfer(g, r), 1.0)
    rep = report([g], [r])
    assert (rep.mmd, rep.cov) == (chamfer(g, r), 1.0)


def test_metrics_match_double_loop_oracle():
    Sg = make_population(14, 5)
    Sr = make_population(15, 5)
    d = np.array([[chamfer(g, r) for r in Sr] for g in Sg])
    mmd = float(d.min(axis=0).mean())
    cov = len({int(np.argmin(row)) for row in d}) / 5
    assert cross_scores(Sg, Sr) == (mmd, cov)

    pooled = Sg + Sr
    big = np.array([[chamfer(a, b) for b in pooled] for a in pooled])
    np.fill_diagonal(big, np.inf)
    labels = np.array([0] * 5 + [1] * 5)
    acc = float(np.mean(labels[big.argmin(axis=1)] == labels))
    r = report(Sg, Sr)
    assert (r.mmd, r.cov, r.one_nna) == (mmd, cov, acc)


def test_metrics_with_emd_distance():
    Sr = [np.random.default_rng(s).normal(size=(6, 2)) for s in range(4)]
    Sg = [s.copy() for s in Sr]
    r = report(Sg, Sr, distance="emd")
    assert (r.mmd, r.cov, r.one_nna) == (0.0, 1.0, 0.0)
    assert r.distance == "emd"


def test_report_evaluates_each_pair_at_most_once(monkeypatch):
    # repeated arrays tie exactly, within and across the populations
    base = make_population(16, 3)
    Sg = [base[0], base[0], base[1], base[0] + 1.0, base[2], base[1]]
    Sr = [base[1], base[0] - 1.0, base[0], base[2], base[2], base[0] + 1.0]
    pooled = 2 * len(Sg)

    computed = []
    sq_dists = metrics._sq_dists

    def counted_sq_dists(x, cols, work):
        d2 = sq_dists(x, cols, work)
        computed.append(d2.size)
        return d2

    monkeypatch.setattr(metrics, "_sq_dists", counted_sq_dists)
    r = report(Sg, Sr)
    monkeypatch.undo()
    # each unordered Chamfer pair once, the zero diagonal included
    sizes = [len(s) for s in Sg + Sr]
    assert sum(computed) == sum(
        sizes[i] * sizes[j] for i in range(pooled) for j in range(i, pooled)
    )
    assert (r.mmd, r.cov) == cross_scores(Sg, Sr)

    Eg = [s[:4] for s in Sg]
    Er = [s[:4] for s in Sr]
    matchings = []
    solve = metrics.hungarian

    def counted_hungarian(cost):
        matchings.append(len(cost))  # the stack's leading dimension
        return solve(cost)

    monkeypatch.setattr(metrics, "hungarian", counted_hungarian)
    r = report(Eg, Er, "emd")
    # each unordered pair off the diagonal once, mirrored as for Chamfer
    assert sum(matchings) == pooled * (pooled - 1) // 2
    assert (r.mmd, r.cov) == cross_scores(Eg, Er, "emd")


@pytest.fixture(scope="module")
def chamfer_cases():
    """(P, Q, oracle matrix) for populations with 1-point sets, a 200-point
    set and exact ties, in 2D and 3D; the oracle runs once per ordered pair
    of the pooled sets."""
    rng = np.random.default_rng(19)
    cases = []
    for dim in (2, 3):
        A = [rng.normal(size=(n, dim)) for n in (1, 1, 3, 7, 12, 30)]
        B = [rng.normal(size=(n, dim)) for n in (5, 1, 2, 19)]
        # exact ties: repeated sets, and integer points at equal distances
        grid = rng.integers(-2, 3, size=(6, dim)).astype(np.float64)
        A += [grid, grid.copy(), grid[::-1].copy()]
        B += [grid, grid + 1.0]
        # 200 x 200 distances outgrow a default block: a pair of its own
        A.append(rng.normal(size=(200, dim)))
        B.insert(2, rng.normal(size=(200, dim)))

        pooled = A + B
        oracle = np.array(
            [[exact_chamfer_oracle(p, q) for q in pooled] for p in pooled]
        )
        a, b = np.arange(len(A)), len(A) + np.arange(len(B))
        for P, Q, rows, cols in (
            (A, B, a, b),
            (B, A, b, a),
            (A, A[::-1], a, a[::-1]),
            (A, A, a, a),
            (B, B, b, b),
        ):
            cases.append((P, Q, oracle[np.ix_(rows, cols)]))
    return cases


# below the default, a set too large for a block runs a few rows at a time:
# 700 gives the 200-point sets 3-row tiles and a 2-row remainder
@pytest.mark.parametrize("block", [metrics.BLOCK_ENTRIES, 700, 64, 1])
def test_block_path_matches_chamfer_pairs(monkeypatch, chamfer_cases, block):
    monkeypatch.setattr(metrics, "BLOCK_ENTRIES", block)
    # a population against itself, with most rows of the column minima unused
    P, Q, want = chamfer_cases[3]
    with np.errstate(all="raise"):
        assert np.array_equal(pairwise_dists(P, Q), want)
    for rows in (None, 2, 1):  # the default row chunk, then 2 rows and 1 row
        for P, Q, want in chamfer_cases:
            if rows is not None:
                monkeypatch.setattr(metrics, "CHUNK_ENTRIES", rows * sum(map(len, Q)))
            assert np.array_equal(pairwise_dists(P, Q), want)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts glibc heap trims through Linux page faults",
)
def test_chamfer_matrix_reuses_its_memory():
    # glibc's default trim threshold, set explicitly, turns off its dynamic
    # threshold: an array allocated and freed per block then faults its
    # pages in anew for every block
    script = """
import resource
import numpy as np
from setvae.metrics import pairwise_dists
rng = np.random.default_rng(0)
P = [rng.normal(size=(int(rng.integers(32, 65)), 2)) for _ in range(100)]
pairwise_dists(P, P)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pairwise_dists(P, P)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ, MALLOC_TRIM_THRESHOLD_="131072", OPENBLAS_NUM_THREADS="1")
    res = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) <= 5000  # minor page faults over one 100-set matrix


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
def test_chamfer_pair_memory_flat_in_set_size():
    # row tiles keep the workspace to about BLOCK_ENTRIES squared distances;
    # a whole-set workspace peaked at 278 MB for a 4,000-point pair, and
    # would need about 6.4 GB for this one. A large set among small ones
    # runs against them in groups: one forward buffer for all 100 column
    # sets would hold 16 MB for it. The child reads its own peak, VmHWM:
    # ru_maxrss keeps the peak of the process that started it across exec
    script = """
import numpy as np
from setvae.metrics import chamfer, pairwise_dists
def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM"))
rng = np.random.default_rng(0)
P = [rng.normal(size=(int(rng.integers(32, 65)), 2)) for _ in range(99)]
P.insert(40, rng.normal(size=(20000, 2)))
before = peak()
pairwise_dists(P, P)
print(peak() - before)
del P
chamfer(rng.normal(size=(20000, 2)), rng.normal(size=(20000, 2)))
print(peak())
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    res = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    mixed, peak = map(int, res.stdout.split())
    assert mixed <= 8 * 1024  # peak RSS growth in KiB over the mixed population
    assert peak <= 100 * 1024  # peak RSS in KiB; about 36 MB here


@pytest.mark.parametrize("block", [metrics.EMD_BLOCK_ENTRIES, 200, 1])
def test_block_path_matches_emd_pairs(monkeypatch, block):
    # 200 entries hold five 6 x 6 matchings; 1 gives each pair its own block
    monkeypatch.setattr(metrics, "EMD_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(21)

    def loops(A, B):
        return np.array([[emd(a, b) for b in B] for a in A])

    A = [rng.normal(size=(6, 2)) for _ in range(5)]
    B = [rng.normal(size=(6, 2)) for _ in range(3)]
    # exact ties: repeated sets, and integer points at equal distances
    grid = rng.integers(-2, 3, size=(6, 2)).astype(np.float64)
    A += [grid, grid.copy(), grid[::-1].copy()]
    B += [grid + 1.0]
    for P, Q in ((A, B), (B, A), (A, A[::-1])):
        assert np.array_equal(pairwise_dists(P, Q, "emd"), loops(P, Q))
    # tie-heavy: integer points in [-1, 1] and a permuted copy of one set,
    # where a matching's cost summed in another order moves the last bits
    ties = []
    for n in range(2, 9):
        sets = [rng.integers(-1, 2, size=(n, 2)).astype(np.float64) for _ in range(5)]
        ties.append(sets + [sets[0][rng.permutation(n)]])
    # a population against itself solves each pair i < j and mirrors it
    for P in [A, B] + ties:
        d = pairwise_dists(P, P, "emd")
        upper = np.triu(loops(P, P), 1)
        assert np.array_equal(d, d.T)
        assert np.array_equal(d, upper + upper.T)


def test_population_error_cases():
    Sr = make_population(18, 3)
    with pytest.raises(ValueError):
        pairwise_dists([], Sr)
    with pytest.raises(ValueError):
        pairwise_dists(Sr, Sr, distance="hausdorff")
    with pytest.raises(ValueError):
        report(Sr, Sr[:2])

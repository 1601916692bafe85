"""Tests for set distances and population metrics against brute force."""

import itertools

import numpy as np
import pytest

import setvae.metrics as metrics
from helpers import brute_force_assignment, chamfer_loops
from setvae.metrics import (
    EMD_MAX_POINTS,
    chamfer,
    cov,
    emd,
    hungarian,
    mmd,
    one_nna,
    optimal_matching_sq,
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
    assert optimal_matching_sq(a, b) == 25.0


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
    big = np.zeros((EMD_MAX_POINTS + 1, 2))
    with pytest.raises(ValueError, match="512"):
        emd(big, big)


# ----------------------------------------------------------------------
# Population metrics
# ----------------------------------------------------------------------

def make_population(seed, count, spread=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return [
        offset + spread * rng.normal(size=(int(rng.integers(4, 9)), 2))
        for _ in range(count)
    ]


def test_metrics_on_duplicated_population():
    Sr = make_population(9, 8)
    Sg = [s.copy() for s in Sr]
    assert mmd(Sg, Sr) == 0.0
    assert cov(Sg, Sr) == 1.0
    assert one_nna(Sg, Sr) == 0.0
    r = report(Sg, Sr)
    assert (r.mmd, r.cov, r.one_nna) == (0.0, 1.0, 0.0)
    assert r.distance == "cd"


def test_metrics_on_separated_populations():
    Sr = make_population(10, 6, offset=0.0)
    Sg = make_population(11, 6, offset=100.0)
    assert one_nna(Sg, Sr) == 1.0
    assert mmd(Sg, Sr) > 100.0


def test_cov_collapses_for_identical_generated_sets():
    Sr = make_population(12, 5)
    g = make_population(13, 1)[0]
    Sg = [g.copy() for _ in range(5)]
    assert cov(Sg, Sr) == 1.0 / 5.0


def test_mmd_singletons():
    g = np.array([[0.0, 0.0]])
    r = np.array([[3.0, 4.0]])
    assert mmd([g], [r]) == chamfer(g, r)
    assert cov([g], [r]) == 1.0


def test_metrics_match_double_loop_oracle():
    Sg = make_population(14, 5)
    Sr = make_population(15, 5)
    d = np.array([[chamfer(g, r) for r in Sr] for g in Sg])

    assert mmd(Sg, Sr) == float(d.min(axis=0).mean())
    assert cov(Sg, Sr) == len({int(np.argmin(row)) for row in d}) / 5

    pooled = Sg + Sr
    big = np.array([[chamfer(a, b) for b in pooled] for a in pooled])
    np.fill_diagonal(big, np.inf)
    labels = np.array([0] * 5 + [1] * 5)
    acc = float(np.mean(labels[big.argmin(axis=1)] == labels))
    assert one_nna(Sg, Sr) == acc


def test_metrics_with_emd_distance():
    Sr = [np.random.default_rng(s).normal(size=(6, 2)) for s in range(4)]
    Sg = [s.copy() for s in Sr]
    r = report(Sg, Sr, distance="emd")
    assert (r.mmd, r.cov, r.one_nna) == (0.0, 1.0, 0.0)
    assert r.distance == "emd"


def test_report_evaluates_each_pair_at_most_once(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append(1)
        return chamfer(x, y)

    monkeypatch.setitem(metrics._DISTANCES, "cd", counted)
    n = 6
    # repeated arrays tie exactly, within and across the populations
    base = make_population(16, 3)
    Sg = [base[0], base[0], base[1], base[0] + 1.0, base[2], base[1]]
    Sr = [base[1], base[0] - 1.0, base[0], base[2], base[2], base[0] + 1.0]

    r = report(Sg, Sr)
    assert len(calls) <= (2 * n) ** 2
    assert (r.mmd, r.cov, r.one_nna) == (
        mmd(Sg, Sr), cov(Sg, Sr), one_nna(Sg, Sr)
    )


def test_population_error_cases():
    Sr = make_population(18, 3)
    with pytest.raises(ValueError):
        pairwise_dists([], Sr)
    with pytest.raises(ValueError):
        pairwise_dists(Sr, Sr, distance="hausdorff")
    with pytest.raises(ValueError):
        one_nna(Sr, Sr[:2])

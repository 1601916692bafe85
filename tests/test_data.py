"""Tests for synthetic corpora, JSON-lines IO, and batch padding."""

import json

import numpy as np
import pytest

import setvae.tensor as T
from setvae.data import (
    Dataset,
    batch_pad,
    cardinality_histogram,
    gen_synthetic,
    load_jsonl,
    save_jsonl,
)


def single_linkage_two_clusters(pts: np.ndarray) -> np.ndarray:
    """O(n^3) agglomerative clustering down to two clusters."""
    clusters = [[i] for i in range(len(pts))]
    d = np.sqrt(np.sum((pts[:, None] - pts[None]) ** 2, axis=-1))
    while len(clusters) > 2:
        best = (np.inf, None, None)
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                link = min(d[i, j] for i in clusters[a] for j in clusters[b])
                if link < best[0]:
                    best = (link, a, b)
        _, a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    labels = np.zeros(len(pts), dtype=int)
    labels[clusters[1]] = 1
    return labels


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def circumcenter(p1, p2, p3):
    A = 2.0 * np.stack([p2 - p1, p3 - p1])
    b = np.array([p2 @ p2 - p1 @ p1, p3 @ p3 - p1 @ p1])
    return np.linalg.solve(A, b)


def test_circle_noiseless_radius():
    ds = gen_synthetic("circle", 10, (8, 16), 0.0, T.Rng(0, "gen"))
    for s in ds.sets:
        c = circumcenter(s[0], s[1], s[2])
        radii = np.sqrt(np.sum((s - c) ** 2, axis=1))
        assert radii.max() - radii.min() < 1e-12
        assert 0.15 - 1e-9 <= radii[0] <= 0.3 + 1e-9


def test_count_and_cardinality_contract():
    ds = gen_synthetic("cross", 25, (5, 9), 0.01, T.Rng(1, "gen"))
    assert len(ds) == 25
    assert ds.dim == 2
    assert all(5 <= n <= 9 for n in ds.cards)
    assert ds.labels == ["cross"] * 25
    assert min(ds.cards) < max(ds.cards)  # the range is actually exercised


def test_two_blobs_single_linkage_recovery():
    ds = gen_synthetic("two_blobs", 8, (8, 14), 0.01, T.Rng(2, "gen"))
    for s in ds.sets:
        labels = single_linkage_two_clusters(s)
        assert 0 < labels.sum() < len(s)
        m0 = s[labels == 0].mean(axis=0)
        m1 = s[labels == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) > 0.3
        for p, lab in zip(s, labels):
            own, other = (m0, m1) if lab == 0 else (m1, m0)
            assert np.linalg.norm(p - own) < np.linalg.norm(p - other)


def test_generator_stays_near_unit_box():
    for kind in ("circle", "cross", "two_blobs"):
        ds = gen_synthetic(kind, 30, (4, 10), 0.01, T.Rng(3, kind))
        allpts = np.concatenate(ds.sets)
        assert allpts.min() > -0.2 and allpts.max() < 1.2


def test_generator_determinism():
    a = gen_synthetic("circle", 5, (4, 8), 0.02, T.Rng(7, "gen"))
    b = gen_synthetic("circle", 5, (4, 8), 0.02, T.Rng(7, "gen"))
    for s, t in zip(a.sets, b.sets):
        assert np.array_equal(s, t)
    c = gen_synthetic("circle", 5, (4, 8), 0.02, T.Rng(8, "gen"))
    assert not np.array_equal(a.sets[0], c.sets[0])


def test_generator_rejects_bad_arguments():
    rng = T.Rng(0, "gen")
    with pytest.raises(ValueError):
        gen_synthetic("triangle", 5, (4, 8), 0.0, rng)
    with pytest.raises(ValueError):
        gen_synthetic("circle", 0, (4, 8), 0.0, rng)
    with pytest.raises(ValueError):
        gen_synthetic("circle", 5, (8, 4), 0.0, rng)
    with pytest.raises(ValueError):
        gen_synthetic("circle", 5, (4, 8), -0.1, rng)


# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    ds = gen_synthetic("cross", 12, (3, 7), 0.01, T.Rng(4, "gen"))
    path = tmp_path / "sets.jsonl"
    save_jsonl(ds, path)
    back = load_jsonl(path)
    assert len(back) == 12
    assert back.labels == ds.labels
    for s, t in zip(ds.sets, back.sets):
        assert np.array_equal(s, t)


def test_jsonl_files_are_byte_stable(tmp_path):
    ds = gen_synthetic("circle", 6, (3, 5), 0.0, T.Rng(5, "gen"))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_jsonl(ds, p1)
    save_jsonl(gen_synthetic("circle", 6, (3, 5), 0.0, T.Rng(5, "gen")), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_jsonl_error_reporting(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"points": [[0.0, 1.0]]})

    path.write_text(good + "\nnot json\n")
    with pytest.raises(ValueError, match="line 2"):
        load_jsonl(path)

    path.write_text(good + "\n" + json.dumps({"points": [[1.0, 2.0, 3.0]]}) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        load_jsonl(path)

    path.write_text(json.dumps({"points": []}) + "\n")
    with pytest.raises(ValueError, match="line 1"):
        load_jsonl(path)

    # numpy would read the strings and booleans as numbers
    for points in (
        [[None, 1.0]], [["0.1", "0.2"]], [[True, False]], [[True, 0.5], [0.25, 0.75]]
    ):
        path.write_text(json.dumps({"points": points}) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            load_jsonl(path)

    path.write_text("")
    with pytest.raises(ValueError, match="no records"):
        load_jsonl(path)


def test_jsonl_labels_optional(tmp_path):
    path = tmp_path / "plain.jsonl"
    path.write_text(json.dumps({"points": [[0.1, 0.2], [0.3, 0.4]]}) + "\n")
    ds = load_jsonl(path)
    assert ds.labels is None
    assert ds.sets[0].shape == (2, 2)


# ----------------------------------------------------------------------
# Batching
# ----------------------------------------------------------------------

def test_batch_pad_masks_and_round_trip():
    sets = [np.arange(4.0).reshape(2, 2), np.arange(9.0, 15.0).reshape(3, 2)]
    batch = batch_pad(sets)
    assert batch.elems.shape == (2, 3, 2)
    assert batch.mask.tolist() == [[True, True, False], [True, True, True]]
    assert np.all(batch.elems.data[0, 2] == 0.0)
    for b, (s, n) in enumerate(zip(sets, batch.cards)):
        assert np.array_equal(s, batch.elems.data[b, :n])


def test_batch_pad_dtype_and_errors():
    batch = batch_pad([np.zeros((2, 2))], dtype=np.float32)
    assert batch.elems.data.dtype == np.float32
    with pytest.raises(ValueError):
        batch_pad([])


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([])
    with pytest.raises(ValueError):
        Dataset([np.zeros((2, 2)), np.zeros((2, 3))])
    with pytest.raises(ValueError):
        Dataset([np.zeros((2, 2))], labels=["a", "b"])


def test_cardinality_histogram():
    ds = Dataset([np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((5, 2))])
    hist = cardinality_histogram(ds)
    assert hist.prob(3) == 2 / 3
    assert hist.prob(5) == 1 / 3
    assert hist.prob(4) == 0.0

"""Rank, kernel and graph utilities against exact rational references."""

import tracemalloc

import numpy as np
import pytest

from orthofold import actions, kernels, numerics
from orthofold.errors import InputError

from oracles import exact_nullspace, exact_rank


def test_rank_on_handpicked_matrices():
    assert numerics.rank(np.zeros((3, 3))) == 0
    assert numerics.rank(np.eye(5)) == 5
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert numerics.rank(a) == 1
    # rank drop hidden behind large entries
    b = np.array([[1e8, 2e8, 3e8], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    assert numerics.rank(b) == 2


def test_rank_matches_exact_elimination():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a = rng.integers(-6, 7, size=(m, n))
        if rng.random() < 0.5 and min(m, n) > 1:
            # force a dependent row
            a[m - 1] = a[0] * int(rng.integers(-3, 4))
        assert numerics.rank(a.astype(float)) == exact_rank(a)


def test_kernel_basis_properties():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        a = rng.integers(-4, 5, size=(m, n)).astype(float)
        k = numerics.kernel_basis(a)
        r = exact_rank(a)
        assert k.shape == (n, n - r)
        if k.shape[1]:
            assert np.abs(a @ k).max() < 1e-8
            assert np.allclose(k.T @ k, np.eye(k.shape[1]), atol=1e-10)


def test_kernel_spans_exact_nullspace():
    a = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    exact = exact_nullspace(a)
    k = numerics.kernel_basis(a.astype(float))
    ref = np.array([[float(c) for c in v] for v in exact]).T
    assert k.shape[1] == len(exact) == 2
    assert numerics.spans_equal(k, ref)


def test_orthonormalize_and_complement():
    v = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    q = numerics.orthonormalize(v)
    assert q.shape == (3, 1)
    r, k, c = numerics.svd_split(v)
    assert (r, k.shape, c.shape) == (1, (2, 1), (3, 2))
    assert np.abs(c.T @ q).max() < 1e-12
    assert np.abs(v @ k).max() < 1e-12
    # a fixed point: no columns, or a zero matrix, leaves the whole space
    assert np.array_equal(numerics.svd_split(np.zeros((3, 0)))[2], np.eye(3))
    assert np.array_equal(numerics.svd_split(np.zeros((3, 2)))[2], np.eye(3))


def test_spans_equal_detects_difference():
    e1 = np.eye(3)[:, :1]
    e2 = np.eye(3)[:, 1:2]
    assert numerics.spans_equal(e1, e1 * -2.0)
    assert not numerics.spans_equal(e1, e2)
    assert not numerics.spans_equal(np.eye(3)[:, :2], e1)


def test_as_small_matrix_rejects_bad_input():
    with pytest.raises(InputError):
        numerics.as_small_matrix(np.zeros((65, 2)))
    with pytest.raises(InputError):
        numerics.as_small_matrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(InputError):
        numerics.as_small_matrix(np.zeros((2, 2, 2)))
    assert numerics.as_small_matrix([1.0, 2.0]).shape == (2, 1)


def test_epsilon_components_two_clusters():
    pts = np.array([[0.0], [0.01], [0.02], [5.0], [5.01]])

    def metric(p, lo, hi):
        return np.abs(p[lo:hi, None, 0] - p[None, :, 0])

    # twice the median nearest-neighbour distance keeps the two clusters apart
    eps = 2.0 * numerics.median_nn_distance(pts, metric)
    assert numerics.epsilon_components(pts, metric, eps) == [[0, 1, 2], [3, 4]]
    # a large threshold glues everything together
    assert numerics.epsilon_components(pts, metric, 10.0) == [[0, 1, 2, 3, 4]]


def test_median_nn_distance():
    d = np.array(
        [
            [0.0, 1.0, 4.0],
            [1.0, 0.0, 2.0],
            [4.0, 2.0, 0.0],
        ]
    )
    assert numerics.median_nn_distance(np.zeros((3, 1)), lambda p, lo, hi: d[lo:hi].copy()) == 1.0


def test_nearest_other_matches_masked_diagonal(monkeypatch):
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(41, 3))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    ref = (d + np.diag(np.full(41, np.inf))).min(axis=1)

    def rows(lo, hi):
        return d[lo:hi].copy()

    assert np.array_equal(numerics._nearest_other(rows, 41), ref)
    # blocks of 3 rows: the diagonal offset must follow the block start
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 3 * 8 * 41)
    assert np.array_equal(numerics._nearest_other(rows, 41), ref)
    assert numerics.median_nn_distance(pts, lambda p, lo, hi: rows(lo, hi)) == float(
        np.median(ref)
    )


def test_epsilon_components_never_hold_a_square_matrix():
    s2 = actions.sphere(2)
    pts = actions.sample_points(s2, 6000, np.random.default_rng(12))

    def metric(p, lo, hi):
        return actions.pairwise_distances(s2, p, lo, hi)

    tracemalloc.start()
    try:
        eps = 2.0 * numerics.median_nn_distance(pts, metric)
        comps = numerics.epsilon_components(pts, metric, eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(i for c in comps for i in c) == list(range(6000))
    assert peak < 6000 * 6000 * 8 / 8

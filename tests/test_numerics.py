"""Rank, kernel and graph utilities against exact rational references."""

import itertools
import tracemalloc

import numpy as np
import pytest

from orthofold import actions, kernels, numerics
from orthofold.errors import InputError

from oracles import CountingNumpy, dense_components, exact_nullspace, exact_rank, orthonormalize


def _split(a):
    """(r, K, C) of one matrix: svd_splits of a batch of one, at its exact rank."""
    a = np.asarray(a, dtype=np.float64)
    r, K, C = numerics.svd_splits(a[None], [exact_rank(a)])
    return int(r[0]), K[0], C[0]


def _rank(a):
    """The rank the relative cut keeps: the trace of the span projector."""
    return int(round(float(np.trace(numerics.projectors(a)))))


def test_rank_on_handpicked_matrices():
    assert _rank(np.zeros((3, 3))) == 0
    assert _rank(np.eye(5)) == 5
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert _rank(a) == 1
    # rank drop hidden behind large entries
    b = np.array([[1e8, 2e8, 3e8], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    assert _rank(b) == 2


def test_rank_matches_exact_elimination():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a = rng.integers(-6, 7, size=(m, n))
        if rng.random() < 0.5 and min(m, n) > 1:
            # force a dependent row
            a[m - 1] = a[0] * int(rng.integers(-3, 4))
        assert _rank(a.astype(float)) == exact_rank(a)


def test_kernel_basis_properties():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        a = rng.integers(-4, 5, size=(m, n)).astype(float)
        k = _split(a)[1]
        r = exact_rank(a)
        assert k.shape == (n, n - r)
        if k.shape[1]:
            assert np.abs(a @ k).max() < 1e-8
            assert np.allclose(k.T @ k, np.eye(k.shape[1]), atol=1e-10)


def test_kernel_spans_exact_nullspace():
    a = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    exact = exact_nullspace(a)
    k = _split(a.astype(float))[1]
    ref = np.array([[float(c) for c in v] for v in exact]).T
    assert k.shape[1] == len(exact) == 2
    assert np.abs(numerics.projectors(k) - numerics.projectors(ref)).max() < 1e-12


def test_orthonormalize_and_complement():
    v = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    q = orthonormalize(v)
    assert q.shape == (3, 1)
    r, k, c = _split(v)
    assert (r, k.shape, c.shape) == (1, (2, 1), (3, 2))
    assert np.abs(c.T @ q).max() < 1e-12
    assert np.abs(v @ k).max() < 1e-12
    # a fixed point: no columns, or a zero matrix, leaves the whole space
    assert np.array_equal(_split(np.zeros((3, 0)))[2], np.eye(3))
    assert np.array_equal(_split(np.zeros((3, 2)))[2], np.eye(3))


def test_as_small_matrix_rejects_bad_input():
    with pytest.raises(InputError):
        numerics.as_small_matrix(np.zeros((65, 2)))
    with pytest.raises(InputError):
        numerics.as_small_matrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(InputError):
        numerics.as_small_matrix(np.zeros((2, 2, 2)))
    assert numerics.as_small_matrix([1.0, 2.0]).shape == (2, 1)


def _components(labels):
    comps = {}
    for i, lab in enumerate(labels):
        comps.setdefault(int(lab), []).append(i)
    return sorted(comps.values())


def test_epsilon_components_two_clusters():
    pts = np.array([[0.0], [0.01], [0.02], [5.0], [5.01]])

    assert _components(numerics.epsilon_components(pts, 0.02)) == [[0, 1, 2], [3, 4]]
    # a large threshold glues everything together
    assert _components(numerics.epsilon_components(pts, 10.0)) == [[0, 1, 2, 3, 4]]
    # a threshold below every gap leaves each point alone
    assert _components(numerics.epsilon_components(pts, 0.001)) == [[0], [1], [2], [3], [4]]
    # equal rows are one component even at eps = 0, where the window has no slack
    assert _components(numerics.epsilon_components(np.zeros((4, 3)), 0.0)) == [[0, 1, 2, 3]]


def test_epsilon_components_never_hold_a_square_matrix():
    pts = np.random.default_rng(12).normal(size=(6000, 3))

    tracemalloc.start()
    try:
        labels = numerics.epsilon_components(pts, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == (6000,) and np.all(labels <= np.arange(6000))
    assert peak < 6000 * 6000 * 8 / 8


def test_band_scan_rejects_an_empty_sample():
    with pytest.raises(InputError):
        numerics.epsilon_components(np.zeros((0, 3)), 0.1)


def _chebyshev(pts):
    """The dense Chebyshev distance matrix, by brute force over pairs."""
    n = len(pts)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.abs(pts[i] - pts[j]).max()
    return out


def _recorded_edges(monkeypatch):
    """Route the join's edges through a recorder: a set of (i, j) pairs that
    is refilled by every epsilon_components call."""
    edges = set()
    merge = kernels.graph_components

    def recording(batches, n):
        edges.clear()
        batches = list(batches)
        for i, j in batches:
            edges.update(zip(i.tolist(), j.tolist()))
        return merge(iter(batches), n)

    monkeypatch.setattr(kernels, "graph_components", recording)
    return edges


def _dense_edges(full, eps):
    return set(zip(*(t.tolist() for t in np.nonzero(full <= eps))))


def test_epsilon_components_match_brute_force_chebyshev(monkeypatch):
    pts = np.random.default_rng(11).normal(size=(23, 5))
    full = _chebyshev(pts)
    edges = _recorded_edges(monkeypatch)
    off = np.sort(full[~np.eye(23, dtype=bool)])
    for block_bytes in (numerics.BLOCK_BYTES, 8 * 5 * 7, 1):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", block_bytes)
        for eps in (0.0, off[0], off[40], off[200], off[-1]):
            labels = numerics.epsilon_components(pts, eps)
            # every pair within eps is an edge, and no other pair is
            assert edges == _dense_edges(full, eps)
            assert _components(labels) == dense_components(full, eps)


def test_epsilon_components_agree_across_block_sizes(monkeypatch):
    # blocks of one row, of a few rows, of the 64-row cap, and of the
    # whole sample find the same edges, so the distances of a pair do not
    # depend on the block it is computed in
    pts = np.random.default_rng(10).normal(size=(301, 6))
    full = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    assert np.array_equal(full[:40, :40], _chebyshev(pts[:40]))
    edges = _recorded_edges(monkeypatch)
    for eps in (0.3, 0.8, 1.5):
        want = _dense_edges(full, eps)
        for block_bytes in (8, 8 * 7 * 301, 8 * 64 * 301, 8 * 301 * 301):
            monkeypatch.setattr(numerics, "BLOCK_BYTES", block_bytes)
            labels = numerics.epsilon_components(pts, eps)
            assert edges == want
            assert _components(labels) == dense_components(full, eps)
def _mirrors(x):
    """x with one coordinate negated, for each coordinate: every mirror
    image ties x on all the other coordinates, whichever one keys it."""
    out = []
    for c in range(x.shape[1]):
        y = x.copy()
        y[:, c] = -y[:, c]
        out.append(y)
    return np.vstack(out)


def _fibonacci_sphere(n):
    """n points spread evenly over S^2: farther apart than random ones."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = np.pi * (1.0 + 5.0**0.5) * i
    rho = np.sqrt(1.0 - z * z)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _band_clouds():
    """(id, rows): sample points of every manifold kind, as plain rows, with
    the cases a band window could get wrong."""
    rng = np.random.default_rng(21)
    s2 = actions.sphere(2)
    prod = actions.product_spheres(2, 2)
    rp2 = actions.real_projective(2)
    cp2 = actions.complex_projective(2)
    r4 = actions.euclidean(4)
    base = {m.kind: actions.sample_points(m, 100, rng) for m in (s2, prod, rp2, cp2, r4)}
    # near duplicates at d ~ 1e-9
    near_rp = actions.normalize(rp2, base[rp2.kind][:20] + 1e-9 * rng.normal(size=(20, 3)))
    near_cp = actions.normalize(cp2, base[cp2.kind][:20] + 1e-9 * rng.normal(size=(20, 6)))
    turns = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(30, 1)))
    turned = actions.from_complex(actions.to_complex(base[cp2.kind][:30]) * turns)
    quarter = [1.0, 1j, -1.0, -1j]
    quarters = [[1.0, p, q] for p in quarter for q in quarter]
    sphere, prod_pts, euclid, rp, cp = (base[m.kind] for m in (s2, prod, r4, rp2, cp2))
    return [
        # exact duplicates and tied keys
        ("sphere", np.vstack([sphere, sphere[:10], _mirrors(sphere[:40])])),
        ("product", np.vstack([prod_pts, _mirrors(prod_pts[:30])])),
        ("euclidean", np.vstack([euclid, _mirrors(euclid[:30])])),
        # sign-flipped representatives, near duplicates and mirrors
        ("rp", np.vstack([rp, -rp[:30], near_rp, _mirrors(rp[:20])])),
        # phase-turned representatives and near duplicates
        ("cp", np.vstack([cp, turned, near_cp])),
        # few key values, each shared by many rows, all pairs far apart or
        # at one of a few equal distances
        ("rp-equal-keys", np.array(list(itertools.product((1.0, -1.0), repeat=3))) / 3**0.5),
        ("cp-equal-keys", actions.from_complex(np.array(quarters)) / 3**0.5),
        # evenly spread: few pairs share a window at the smaller radii
        ("sphere-even", _fibonacci_sphere(150)),
    ]


@pytest.mark.parametrize("name, pts", [pytest.param(*c, id=c[0]) for c in _band_clouds()])
def test_band_windows_are_complete(monkeypatch, name, pts):
    # the join's windows hold every pair within epsilon, whatever the block
    # size: its edges are exactly the pairs of the dense Chebyshev matrix at
    # or below epsilon, and its components are that matrix's
    n = len(pts)
    full = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    keys = pts[:, np.argmax(np.ptp(pts, axis=0))]
    if name.endswith("equal-keys"):
        # every key value is shared by at least four rows
        assert min(np.unique(keys, return_counts=True)[1]) >= 4
    ref_nn = (full + np.diag(np.full(n, np.inf))).min(axis=1)
    off = np.sort(full[~np.eye(n, dtype=bool)])
    edges = _recorded_edges(monkeypatch)
    counting = CountingNumpy()
    monkeypatch.setattr(numerics, "np", counting)
    for block_bytes in (numerics.BLOCK_BYTES, 3 * 8 * n, 1):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", block_bytes)
        # thresholds that are entries: pairs lie exactly at epsilon
        for eps in (0.0, off[n // 2], off[4 * n], 2.0 * np.median(ref_nn), off[len(off) // 10]):
            counting.shapes.clear()
            labels = numerics.epsilon_components(pts, eps)
            # no pair at or below epsilon falls outside every window
            assert edges == _dense_edges(full, eps)
            assert _components(labels) == dense_components(full, eps)
            # a block holds at most 64 rows and BLOCK_BYTES of distances,
            # or a single row
            assert all(r <= 64 and (r == 1 or 8 * r * c <= block_bytes) for r, c in counting.shapes)
            assert sum(r for r, _ in counting.shapes) == n

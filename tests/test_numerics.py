"""Rank, kernel and graph utilities against exact rational references."""

import itertools
import tracemalloc

import numpy as np
import pytest

from orthofold import actions, kernels, numerics
from orthofold.errors import InputError

from oracles import aligned_residual, dense_components, exact_nullspace, exact_rank


def test_rank_on_handpicked_matrices():
    assert numerics.svd_split(np.zeros((3, 3)))[0] == 0
    assert numerics.svd_split(np.eye(5))[0] == 5
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert numerics.svd_split(a)[0] == 1
    # rank drop hidden behind large entries
    b = np.array([[1e8, 2e8, 3e8], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    assert numerics.svd_split(b)[0] == 2


def test_rank_matches_exact_elimination():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a = rng.integers(-6, 7, size=(m, n))
        if rng.random() < 0.5 and min(m, n) > 1:
            # force a dependent row
            a[m - 1] = a[0] * int(rng.integers(-3, 4))
        assert numerics.svd_split(a.astype(float))[0] == exact_rank(a)


def test_kernel_basis_properties():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        a = rng.integers(-4, 5, size=(m, n)).astype(float)
        k = numerics.svd_split(a)[1]
        r = exact_rank(a)
        assert k.shape == (n, n - r)
        if k.shape[1]:
            assert np.abs(a @ k).max() < 1e-8
            assert np.allclose(k.T @ k, np.eye(k.shape[1]), atol=1e-10)


def test_kernel_spans_exact_nullspace():
    a = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    exact = exact_nullspace(a)
    k = numerics.svd_split(a.astype(float))[1]
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


def _components(labels):
    comps = {}
    for i, lab in enumerate(labels):
        comps.setdefault(int(lab), []).append(i)
    return sorted(comps.values())


def _abs_difference(p, lo, hi, clo, chi, out):
    return np.abs(p[lo:hi, None, 0] - p[None, clo:chi, 0])


def test_epsilon_components_two_clusters():
    pts = np.array([[0.0], [0.01], [0.02], [5.0], [5.01]])
    band = numerics.BandScan(pts, pts[:, 0], _abs_difference)

    assert _components(band.epsilon_components(0.02)) == [[0, 1, 2], [3, 4]]
    # a large threshold glues everything together
    assert _components(band.epsilon_components(10.0)) == [[0, 1, 2, 3, 4]]
    # a threshold below every gap leaves each point alone
    assert _components(band.epsilon_components(0.001)) == [[0], [1], [2], [3], [4]]


def test_epsilon_components_never_hold_a_square_matrix():
    pts = np.random.default_rng(12).normal(size=(6000, 3))

    tracemalloc.start()
    try:
        band = numerics.BandScan(pts, numerics.widest_coordinate(pts), kernels.pairwise_chebyshev)
        labels = band.epsilon_components(0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == (6000,) and np.all(labels <= np.arange(6000))
    assert peak < 6000 * 6000 * 8 / 8


def test_band_scan_rejects_an_empty_sample():
    with pytest.raises(InputError):
        numerics.BandScan(np.zeros((0, 3)), np.zeros(0), kernels.pairwise_chebyshev)


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
    """(id, manifold, points): every manifold kind, with the cases a band
    window could get wrong."""
    rng = np.random.default_rng(21)
    s2 = actions.sphere(2)
    prod = actions.product_spheres(2, 2)
    rp2 = actions.real_projective(2)
    cp2 = actions.complex_projective(2)
    r4 = actions.euclidean(4)
    base = {m.kind: actions.sample_points(m, 100, rng) for m in (s2, prod, rp2, cp2, r4)}
    # near duplicates at d ~ 1e-9, where the Gram form errs by about 1e-8
    near_rp = actions.normalize(rp2, base[rp2.kind][:20] + 1e-9 * rng.normal(size=(20, 3)))
    near_cp = actions.normalize(cp2, base[cp2.kind][:20] + 1e-9 * rng.normal(size=(20, 6)))
    turns = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(30, 1)))
    turned = actions.from_complex(actions.to_complex(base[cp2.kind][:30]) * turns)
    quarter = [1.0, 1j, -1.0, -1j]
    quarters = [[1.0, p, q] for p in quarter for q in quarter]
    sphere, prod_pts, euclid, rp, cp = (base[m.kind] for m in (s2, prod, r4, rp2, cp2))
    return [
        # exact duplicates and tied keys
        ("sphere", s2, np.vstack([sphere, sphere[:10], _mirrors(sphere[:40])])),
        ("product", prod, np.vstack([prod_pts, _mirrors(prod_pts[:30])])),
        ("euclidean", r4, np.vstack([euclid, _mirrors(euclid[:30])])),
        # sign-flipped representatives: distance 0, equal keys
        ("rp", rp2, np.vstack([rp, -rp[:30], near_rp, _mirrors(rp[:20])])),
        # phase-turned representatives
        ("cp", cp2, np.vstack([cp, turned, near_cp])),
        # every key equal: the window is the whole sample
        ("rp-equal-keys", rp2, np.array(list(itertools.product((1.0, -1.0), repeat=3))) / 3**0.5),
        ("cp-equal-keys", cp2, actions.from_complex(np.array(quarters)) / 3**0.5),
        # evenly spread: few pairs share a window at the smaller radii
        ("sphere-even", s2, _fibonacci_sphere(150)),
    ]


def _sort_key(m, pts):
    """A 1-Lipschitz coordinate of the manifold distance: of the raw
    coordinates (spheres, products, euclidean), the |x_a| (RP^n, as
    ||x_a| - |y_a|| <= min(|x - y|, |x + y|)) or the |z_a| (CP^n, as
    ||z_a| - |w_a|| <= min over t of |z - e^{it} w|), the one whose values
    spread widest."""
    if m.kind == "real_projective":
        return numerics.widest_coordinate(np.abs(pts))
    if m.kind == "complex_projective":
        return numerics.widest_coordinate(np.hypot(pts[:, 0::2], pts[:, 1::2]))
    return numerics.widest_coordinate(pts)


@pytest.mark.parametrize("name, m, pts", [pytest.param(*c, id=c[0]) for c in _band_clouds()])
def test_band_windows_are_complete(monkeypatch, name, m, pts):
    # the scan's windows hold every pair within epsilon for any metric with
    # a 1-Lipschitz key: here manifold distances between representatives
    # aligned by sign or phase, which tie or nearly tie their keys
    n = len(pts)
    keys = _sort_key(m, pts)
    full = np.stack([np.linalg.norm(aligned_residual(m, pts, x), axis=1) for x in pts])
    assert np.all(np.abs(keys[:, None] - keys[None, :]) <= full + 1e-12)
    if name.endswith("equal-keys"):
        assert np.ptp(keys) == 0.0
    ref_nn = (full + np.diag(np.full(n, np.inf))).min(axis=1)
    off = np.sort(full[~np.eye(n, dtype=bool)])
    # the scan hands the metric its points in key order
    order = np.argsort(keys, kind="stable")
    in_order = full[np.ix_(order, order)]
    calls = []

    def metric(p, lo, hi, clo, chi, out):
        calls.append((lo, hi, clo, chi))
        return in_order[lo:hi, clo:chi]

    for block_bytes in (numerics.BLOCK_BYTES, 3 * 8 * n, 1):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", block_bytes)
        band = numerics.BandScan(pts, keys, metric)
        assert np.array_equal(band.order, order)
        # thresholds that are entries: pairs lie exactly at epsilon
        for eps in (0.0, off[n // 2], off[4 * n], 2.0 * np.median(ref_nn), off[len(off) // 10]):
            calls.clear()
            labels = band.epsilon_components(eps)
            seen = np.zeros((n, n), dtype=bool)
            for lo, hi, clo, chi in calls:
                seen[lo:hi, clo:chi] = True
            # no pair at or below epsilon falls outside every window
            assert not np.any((in_order <= eps) & ~seen)
            if name.endswith("equal-keys"):
                assert all(clo == 0 and chi == n for _, _, clo, chi in calls)
            assert _components(labels) == dense_components(full, eps)

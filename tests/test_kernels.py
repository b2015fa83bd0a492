"""Both kernel backends satisfy the same contracts and agree numerically."""

import numpy as np
import pytest

from orthofold import actions, groups, kernels

BACKENDS = ["numpy"] + (["numba"] if kernels.HAS_NUMBA else [])


@pytest.fixture(params=BACKENDS)
def backend(request):
    previous = kernels.get_backend()
    kernels.set_backend(request.param)
    yield request.param
    kernels.set_backend(previous)


def _brute_pairwise(pts, dist):
    n = pts.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = dist(pts[i], pts[j])
    return out


def test_pairwise_euclidean(backend):
    pts = np.random.default_rng(0).normal(size=(17, 5))
    got = kernels.pairwise_euclidean(pts)
    ref = _brute_pairwise(pts, lambda a, b: np.linalg.norm(a - b))
    assert np.abs(got - ref).max() < 1e-10


def test_pairwise_sign_aligned(backend):
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(15, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    got = kernels.pairwise_sign_aligned(pts)
    ref = _brute_pairwise(
        pts, lambda a, b: min(np.linalg.norm(a - b), np.linalg.norm(a + b))
    )
    assert np.abs(got - ref).max() < 1e-10
    # antipodal representatives are the same projective point; the gram
    # form loses half the digits near zero distance, which is still far
    # below every matching threshold in the pipeline
    two = np.stack([pts[0], -pts[0]])
    assert kernels.pairwise_sign_aligned(two)[0, 1] < 1e-7


def test_pairwise_phase_aligned(backend):
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(12, 6))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)

    def phase_dist(a, b):
        za, zb = actions.to_complex(a), actions.to_complex(b)
        inner = np.vdot(zb, za)
        phase = inner / abs(inner) if abs(inner) > 0 else 1.0
        return np.linalg.norm(za - phase * zb)

    got = kernels.pairwise_phase_aligned(pts)
    ref = _brute_pairwise(pts, phase_dist)
    assert np.abs(got - ref).max() < 1e-10


def test_graph_components(backend):
    d = np.array(
        [
            [0.0, 0.1, 9.0, 9.0],
            [0.1, 0.0, 9.0, 9.0],
            [9.0, 9.0, 0.0, 0.2],
            [9.0, 9.0, 0.2, 0.0],
        ]
    )
    labels = kernels.graph_components(d, 0.5)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]
    one = kernels.graph_components(d, 100.0)
    assert len(set(one.tolist())) == 1


def test_pairwise_euclidean_matches_scipy_bitwise():
    cdist = pytest.importorskip("scipy.spatial.distance").cdist
    rng = np.random.default_rng(5)
    for d in range(2, 13):
        pts = rng.normal(size=(60, d))
        assert np.array_equal(kernels._pairwise_euclidean_np(pts), cdist(pts, pts))


def test_pairwise_euclidean_chunks_rows(monkeypatch):
    pts = np.random.default_rng(6).normal(size=(37, 4))
    whole = kernels._pairwise_euclidean_np(pts)
    monkeypatch.setattr(kernels, "_ROW_CHUNK_BYTES", 5 * 8 * 37)
    assert np.array_equal(kernels._pairwise_euclidean_np(pts), whole)


def _partition(labels):
    blocks = {}
    for i, lab in enumerate(labels):
        blocks.setdefault(int(lab), []).append(i)
    return sorted(blocks.values())


def test_graph_components_match_scipy():
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng(8)
    for n, scale in ((1, 1.0), (40, 0.15), (120, 0.07), (120, 0.1), (120, 0.3)):
        pts = rng.uniform(size=(n, 2))
        dist = kernels._pairwise_euclidean_np(pts)
        _, ref = csgraph.connected_components(dist <= scale, directed=False)
        assert _partition(kernels._graph_components_np(dist, scale)) == _partition(ref)


def test_rodrigues_batch_matches_exp(backend):
    g = groups.so3()
    rng = np.random.default_rng(3)
    W = rng.normal(size=(9, 3))
    W = np.vstack([W, np.zeros(3)])  # zero vector maps to the identity
    Q = kernels.rodrigues_batch(W)
    for w, q in zip(W, Q):
        assert np.allclose(q, groups.exp_coeffs(g, w), atol=1e-12)


def test_so3_refine_reaches_the_target(backend):
    a = actions.get_action("s2xs2-so3")
    rng = np.random.default_rng(4)
    x = actions.sample_points(a.manifold, 1, rng)[0]
    true = groups.sample_elements(a.group, 1, rng)[0]
    y = actions.act(a, true, x)
    # start nearby and polish onto the fixer of y
    bump = kernels.rodrigues_batch(rng.normal(scale=3e-2, size=(1, 3)))[0]
    start = (bump @ true)[None]
    tx = a.tx_tensor(x)
    refined, d2 = kernels.so3_refine(tx, y, start, a.manifold.align_mode, max_iter=60)
    assert float(d2[0]) < 1e-16
    assert np.allclose(refined[0] @ refined[0].T, np.eye(3), atol=1e-10)


def test_backend_switch_guard():
    with pytest.raises(ValueError):
        kernels.set_backend("fortran")

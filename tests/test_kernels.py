"""The numpy kernels against brute-force, scipy and interleaved einsum references."""

import numpy as np
import pytest

from orthofold import actions, groups, isotropy, kernels


def _brute_pairwise(pts, dist):
    n = pts.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = dist(pts[i], pts[j])
    return out


def test_pairwise_euclidean():
    pts = np.random.default_rng(0).normal(size=(17, 5))
    got = kernels.pairwise_euclidean(pts)
    ref = _brute_pairwise(pts, lambda a, b: np.linalg.norm(a - b))
    assert np.abs(got - ref).max() < 1e-10


def test_pairwise_sign_aligned():
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


def test_pairwise_phase_aligned():
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


def test_graph_components():
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
        assert np.array_equal(kernels.pairwise_euclidean(pts), cdist(pts, pts))


def test_pairwise_euclidean_chunks_rows(monkeypatch):
    pts = np.random.default_rng(6).normal(size=(37, 4))
    whole = kernels.pairwise_euclidean(pts)
    monkeypatch.setattr(kernels, "_ROW_CHUNK_BYTES", 5 * 8 * 37)
    assert np.array_equal(kernels.pairwise_euclidean(pts), whole)


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
        dist = kernels.pairwise_euclidean(pts)
        _, ref = csgraph.connected_components(dist <= scale, directed=False)
        assert _partition(kernels.graph_components(dist, scale)) == _partition(ref)


def test_rodrigues_batch_matches_exp():
    g = groups.so3()
    rng = np.random.default_rng(3)
    W = rng.normal(size=(9, 3))
    W = np.vstack([W, np.zeros(3)])  # zero vector maps to the identity
    Q = kernels.rodrigues_batch(W)
    for w, q in zip(W, Q):
        assert np.allclose(q, groups.exp_coeffs(g, w), atol=1e-12)


def test_so3_refine_reaches_the_target():
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


# ---------------------------------------------------------------------------
# SO(3) search path against its interleaved einsum reference
# ---------------------------------------------------------------------------


def _ref_phase_inner(Y, x):
    xr, xi = x[0::2], x[1::2]
    yr, yi = Y[:, 0::2], Y[:, 1::2]
    return yr @ xr + yi @ xi, yr @ xi - yi @ xr


def _ref_factors_mag(Y, x, mode):
    if mode == kernels.ALIGN_SIGN:
        a = np.where(Y @ x >= 0.0, 1.0, -1.0)
        return a, np.zeros_like(a), np.ones_like(a)
    if mode == kernels.ALIGN_PHASE:
        re, im = _ref_phase_inner(Y, x)
        mag = np.hypot(re, im)
        bad = mag < 1e-12
        safe = np.where(bad, 1.0, mag)
        return np.where(bad, 1.0, re / safe), np.where(bad, 0.0, im / safe), safe
    ones = np.ones(Y.shape[0])
    return ones, np.zeros_like(ones), np.ones_like(ones)


def _ref_apply_factors(Y, a, b, mode):
    if mode == kernels.ALIGN_PHASE:
        out = np.empty_like(Y)
        out[:, 0::2] = a[:, None] * Y[:, 0::2] - b[:, None] * Y[:, 1::2]
        out[:, 1::2] = b[:, None] * Y[:, 0::2] + a[:, None] * Y[:, 1::2]
        return out
    return a[:, None] * Y


def _ref_jacobian_column(dY, Yal, x, fa, fb, mag, mode):
    col = _ref_apply_factors(dY, fa, fb, mode)
    if mode == kernels.ALIGN_PHASE:
        re, im = _ref_phase_inner(dY, x)
        coef = (fa * im - fb * re) / mag
        rot = np.empty_like(Yal)
        rot[:, 0::2] = -Yal[:, 1::2]
        rot[:, 1::2] = Yal[:, 0::2]
        col = col + coef[:, None] * rot
    return col


def _ref_apply_tx(TX, G):
    return np.einsum("pjk,bjk->bp", TX, G)


def _ref_align(Y, x, mode):
    a, b, _ = _ref_factors_mag(Y, x, mode)
    return _ref_apply_factors(Y, a, b, mode) - x


def _ref_so3_refine(TX, x, G0, mode, max_iter=30):
    # one apply per Jacobian direction, interleaved alignment, per-row LM
    gens = kernels.SO3_GENERATORS
    G = G0.copy()
    R = _ref_align(_ref_apply_tx(TX, G), x, mode)
    d2 = np.einsum("bp,bp->b", R, R)
    mu = np.full(G.shape[0], 1e-3)
    active = np.ones(G.shape[0], dtype=bool)
    fails = np.zeros(G.shape[0], dtype=np.int64)
    for _ in range(max_iter):
        active &= d2 >= 1e-28
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        Ga = G[idx]
        Ya = _ref_apply_tx(TX, Ga)
        fa, fb, mag = _ref_factors_mag(Ya, x, mode)
        Yal = _ref_apply_factors(Ya, fa, fb, mode)
        J = np.empty((idx.size, x.size, 3))
        for i in range(3):
            Yi = _ref_apply_tx(TX, np.einsum("al,blc->bac", gens[i], Ga))
            J[:, :, i] = _ref_jacobian_column(Yi, Yal, x, fa, fb, mag, mode)
        JtJ = np.einsum("bpi,bpj->bij", J, J)
        Jtr = np.einsum("bpi,bp->bi", J, R[idx])
        improved = np.zeros(idx.size, dtype=bool)
        mua = mu[idx].copy()
        for _trial in range(6):
            todo = ~improved
            if not todo.any():
                break
            M = JtJ[todo] + mua[todo, None, None] * np.eye(3)
            try:
                delta = -np.linalg.solve(M, Jtr[todo, :, None])[..., 0]
            except np.linalg.LinAlgError:
                mua[todo] *= 10.0
                continue
            Gt = kernels.rodrigues_batch(delta) @ G[idx[todo]]
            Rt = _ref_align(_ref_apply_tx(TX, Gt), x, mode)
            d2t = np.einsum("bp,bp->b", Rt, Rt)
            sub = np.nonzero(todo)[0]
            better = d2t < d2[idx[todo]]
            acc = sub[better]
            G[idx[acc]] = Gt[better]
            R[idx[acc]] = Rt[better]
            d2[idx[acc]] = d2t[better]
            mua[acc] = np.maximum(mua[acc] * 0.3, 1e-12)
            improved[acc] = True
            mua[sub[~better]] *= 10.0
        mu[idx] = mua
        fails[idx[~improved]] += 1
        fails[idx[improved]] = 0
        active[idx[fails[idx] >= 2]] = False
    return G, d2


def test_batch_apply_tx_matches_einsum():
    rng = np.random.default_rng(11)
    for n in (1, 6, 13):
        TX = rng.normal(size=(n, 3, 3))
        G = rng.normal(size=(40, 3, 3))
        got = kernels._batch_apply_tx(TX, G)
        assert got.shape == (40, n)
        assert np.abs(got - _ref_apply_tx(TX, G)).max() < 1e-13


@pytest.mark.parametrize("mode", [kernels.ALIGN_NONE, kernels.ALIGN_SIGN, kernels.ALIGN_PHASE])
def test_phase_helpers_match_interleaved_reference(mode):
    rng = np.random.default_rng(12)
    x = rng.normal(size=6)
    x /= np.linalg.norm(x)
    Y = rng.normal(size=(30, 6))
    # rows orthogonal to x in the complex sense take the mag < 1e-12 branch
    xc = actions.to_complex(x)
    for row in (0, 1):
        zc = actions.to_complex(Y[row])
        zc -= np.vdot(xc, zc) * xc
        Y[row, 0::2], Y[row, 1::2] = zc.real, zc.imag
    dY = rng.normal(size=(30, 6))

    re, im = kernels._phase_inner(Y, x)
    ref_re, ref_im = _ref_phase_inner(Y, x)
    assert np.abs(re - ref_re).max() < 1e-14 and np.abs(im - ref_im).max() < 1e-14

    fa, fb, mag = kernels._batch_factors_mag(Y, x, mode)
    ref = _ref_factors_mag(Y, x, mode)
    for got, want in zip((fa, fb, mag), ref):
        assert np.abs(got - want).max() < 1e-13
    if mode == kernels.ALIGN_PHASE:
        assert np.array_equal(mag[:2], [1.0, 1.0]) and np.array_equal(fa[:2], [1.0, 1.0])
        assert np.array_equal(fb[:2], [0.0, 0.0]) and (mag[2:] > 1e-3).all()

    Yal = kernels._batch_apply_factors(Y, fa, fb, mode)
    assert np.abs(Yal - _ref_apply_factors(Y, fa, fb, mode)).max() < 1e-13
    col = kernels._batch_jacobian_columns(dY, Yal, x, fa, fb, mag, mode)
    assert np.abs(col - _ref_jacobian_column(dY, Yal, x, fa, fb, mag, mode)).max() < 1e-13
    # several directions at once: factors broadcast over a middle axis
    stacked = kernels._batch_jacobian_columns(
        np.stack([dY, 2.0 * dY], axis=1), Yal[:, None], x,
        fa[:, None], fb[:, None], mag[:, None], mode,
    )
    assert np.abs(stacked[:, 0] - col).max() < 1e-13
    assert np.abs(kernels._batch_align(Y, x, mode) - _ref_align(Y, x, mode)).max() < 1e-13


@pytest.mark.parametrize("name, special", [
    ("s2xs2-so3", 0), ("s2xs2-so3", None), ("cp2-so3", 0), ("cp2-so3", None),
])
def test_so3_refine_matches_reference_accepted_set(name, special):
    a = actions.get_action(name)
    rng = np.random.default_rng(13)
    if special is None:
        x = actions.sample_points(a.manifold, 1, rng)[0]
    else:
        x = a.special_points(rng)[special]
    x = actions.normalize(a.manifold, x)
    tx = a.tx_tensor(x)
    mode = a.manifold.align_mode
    G0 = np.concatenate([np.eye(3)[None], groups.sample_elements(a.group, 512, rng)])
    G, d2 = kernels.so3_refine(tx, x, G0, mode)
    G_ref, d2_ref = _ref_so3_refine(tx, x, G0, mode)
    accepted = d2 <= isotropy.ACCEPT_D2
    assert np.array_equal(accepted, d2_ref <= isotropy.ACCEPT_D2)
    assert accepted.sum() >= (1 if special is None else 50)
    assert np.abs(G[accepted] - G_ref[accepted]).max() < 1e-9

"""The numpy kernels against brute-force, scipy and interleaved einsum references.

The SO(3) Levenberg-Marquardt search left the package for tests/oracles.py,
where it serves as the reference of the closed-form stabilizers; its tests
stay here, with those of actions.align, the representative alignment it
shares with the fixer test.
"""

import numpy as np
import pytest

import oracles
from orthofold import actions, groups, isotropy, kernels


def _brute_pairwise(pts, dist):
    n = pts.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = dist(pts[i], pts[j])
    return out


def _edges_below(d, threshold, batch):
    """Edges i, j with d[i, j] <= threshold, in batches of batch rows."""
    for lo in range(0, len(d), batch):
        i, j = np.nonzero(d[lo : lo + batch] <= threshold)
        yield i + lo, j


def test_graph_components():
    d = np.array(
        [
            [0.0, 0.1, 9.0, 9.0],
            [0.1, 0.0, 9.0, 9.0],
            [9.0, 9.0, 0.0, 0.2],
            [9.0, 9.0, 0.2, 0.0],
        ]
    )
    labels = kernels.graph_components(_edges_below(d, 0.5, 4), 4)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]
    one = kernels.graph_components(_edges_below(d, 100.0, 4), 4)
    assert len(set(one.tolist())) == 1
    # no edges at all: every node is its own component
    assert kernels.graph_components(iter(()), 3).tolist() == [0, 1, 2]


def test_pairwise_chebyshev():
    pts = np.random.default_rng(11).normal(size=(23, 5))
    got = kernels.pairwise_chebyshev(pts)
    ref = _brute_pairwise(pts, lambda a, b: np.abs(a - b).max())
    assert np.array_equal(got, ref)
    assert np.array_equal(kernels.pairwise_chebyshev(pts, 4, 9), ref[4:9])
    scratch = np.empty(kernels.SCRATCH_PLANES * 5 * 7)
    assert np.array_equal(kernels.pairwise_chebyshev(pts, 4, 9, 13, 20, scratch), ref[4:9, 13:20])


def test_pairwise_chebyshev_blocks_are_bit_equal_across_block_sizes():
    pts = np.random.default_rng(10).normal(size=(301, 6))
    whole = kernels.pairwise_chebyshev(pts)
    assert np.all(np.diag(whole) == 0.0)
    for step in (1, 7, 64, 300):
        rows = [kernels.pairwise_chebyshev(pts, lo, lo + step) for lo in range(0, 301, step)]
        assert np.array_equal(np.vstack(rows), whole)
    # column windows, on and off the diagonal, built in a reused scratch
    scratch = np.full(kernels.SCRATCH_PLANES * 40 * 90, np.nan)
    for lo, clo in ((0, 0), (20, 0), (100, 130), (200, 10), (261, 211)):
        block = kernels.pairwise_chebyshev(pts, lo, lo + 40, clo, clo + 90, scratch)
        assert np.array_equal(block, whole[lo : lo + 40, clo : clo + 90])
        assert np.shares_memory(block, scratch)


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
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        _, ref = csgraph.connected_components(dist <= scale, directed=False)
        # edges merged all at once, a few rows at a time, or row by row
        for batch in (n, 3, 1):
            labels = kernels.graph_components(_edges_below(dist, scale, batch), n)
            assert _partition(labels) == _partition(ref)
            # the label is the smallest index of the component
            assert np.array_equal(labels, labels[labels])
            assert all(labels[i] <= i for i in range(n))


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
    tx = oracles.tx_tensor(a, x)
    refined, d2 = oracles.so3_refine(tx, y, start, a.manifold, max_iter=60)
    assert float(d2[0]) < 1e-16
    assert np.allclose(refined[0] @ refined[0].T, np.eye(3), atol=1e-10)


# ---------------------------------------------------------------------------
# SO(3) search path against its interleaved einsum reference
# ---------------------------------------------------------------------------


def _ref_phase_inner(Y, x):
    xr, xi = x[0::2], x[1::2]
    yr, yi = Y[:, 0::2], Y[:, 1::2]
    return yr @ xr + yi @ xi, yr @ xi - yi @ xr


def _ref_factors_mag(Y, x, kind):
    if kind == "real_projective":
        a = np.where(Y @ x >= 0.0, 1.0, -1.0)
        return a, np.zeros_like(a), np.ones_like(a)
    if kind == "complex_projective":
        re, im = _ref_phase_inner(Y, x)
        mag = np.hypot(re, im)
        bad = mag < 1e-12
        safe = np.where(bad, 1.0, mag)
        return np.where(bad, 1.0, re / safe), np.where(bad, 0.0, im / safe), safe
    ones = np.ones(Y.shape[0])
    return ones, np.zeros_like(ones), np.ones_like(ones)


def _ref_apply_factors(Y, a, b, kind):
    if kind == "complex_projective":
        out = np.empty_like(Y)
        out[:, 0::2] = a[:, None] * Y[:, 0::2] - b[:, None] * Y[:, 1::2]
        out[:, 1::2] = b[:, None] * Y[:, 0::2] + a[:, None] * Y[:, 1::2]
        return out
    return a[:, None] * Y


def _ref_jacobian_column(dY, Yal, x, fa, fb, mag, kind):
    col = _ref_apply_factors(dY, fa, fb, kind)
    if kind == "complex_projective":
        re, im = _ref_phase_inner(dY, x)
        coef = (fa * im - fb * re) / mag
        rot = np.empty_like(Yal)
        rot[:, 0::2] = -Yal[:, 1::2]
        rot[:, 1::2] = Yal[:, 0::2]
        col = col + coef[:, None] * rot
    return col


def _ref_apply_tx(TX, G):
    return np.einsum("pjk,bjk->bp", TX, G)


def _ref_align(Y, x, kind):
    a, b, _ = _ref_factors_mag(Y, x, kind)
    return _ref_apply_factors(Y, a, b, kind) - x


def _ref_so3_refine(TX, x, G0, kind, max_iter=30):
    # one apply per Jacobian direction, interleaved alignment, per-row LM
    gens = kernels.SO3_GENERATORS
    G = G0.copy()
    R = _ref_align(_ref_apply_tx(TX, G), x, kind)
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
        fa, fb, mag = _ref_factors_mag(Ya, x, kind)
        Yal = _ref_apply_factors(Ya, fa, fb, kind)
        J = np.empty((idx.size, x.size, 3))
        for i in range(3):
            Yi = _ref_apply_tx(TX, np.einsum("al,blc->bac", gens[i], Ga))
            J[:, :, i] = _ref_jacobian_column(Yi, Yal, x, fa, fb, mag, kind)
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
            Rt = _ref_align(_ref_apply_tx(TX, Gt), x, kind)
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
        got = oracles.batch_apply_tx(TX, G)
        assert got.shape == (40, n)
        assert np.abs(got - _ref_apply_tx(TX, G)).max() < 1e-13


@pytest.mark.parametrize("m", [
    actions.sphere(5), actions.real_projective(5), actions.complex_projective(2),
], ids=lambda m: m.kind)
def test_align_matches_interleaved_reference(m):
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

    re, im = oracles.phase_inner(Y, x)
    ref_re, ref_im = _ref_phase_inner(Y, x)
    assert np.abs(re - ref_re).max() < 1e-14 and np.abs(im - ref_im).max() < 1e-14

    fa, fb, Yal = actions.align(m, Y, x)
    mag = oracles.phase_magnitude(m, Y, x)
    ref = _ref_factors_mag(Y, x, m.kind)
    for got, want in zip((fa, fb, mag), ref):
        assert np.abs(got - want).max() < 1e-13
    if m.kind == "complex_projective":
        assert np.array_equal(mag[:2], [1.0, 1.0]) and np.array_equal(fa[:2], [1.0, 1.0])
        assert np.array_equal(fb[:2], [0.0, 0.0]) and (mag[2:] > 1e-3).all()

    assert np.abs(Yal - _ref_apply_factors(Y, fa, fb, m.kind)).max() < 1e-13
    col = oracles.batch_jacobian_columns(dY, Yal, x, fa, fb, mag, m)
    assert np.abs(col - _ref_jacobian_column(dY, Yal, x, fa, fb, mag, m.kind)).max() < 1e-13
    # several directions at once: factors broadcast over a middle axis
    stacked = oracles.batch_jacobian_columns(
        np.stack([dY, 2.0 * dY], axis=1), Yal[:, None], x,
        fa[:, None], fb[:, None], mag[:, None], m,
    )
    assert np.abs(stacked[:, 0] - col).max() < 1e-13
    assert np.abs(Yal - x - _ref_align(Y, x, m.kind)).max() < 1e-13
    # one target per row aligns as the shared target does, away from the
    # two rows whose inner product vanishes and may round either way
    per_row = actions.align(m, Y, np.ascontiguousarray(np.broadcast_to(x, Y.shape)))[2]
    assert np.abs(per_row[2:] - Yal[2:]).max() < 1e-13


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
    tx = oracles.tx_tensor(a, x)
    G0 = np.concatenate([np.eye(3)[None], groups.sample_elements(a.group, 512, rng)])
    G, d2 = oracles.so3_refine(tx, x, G0, a.manifold)
    G_ref, d2_ref = _ref_so3_refine(tx, x, G0, a.manifold.kind)
    accepted = d2 <= isotropy.ACCEPT_D2
    assert np.array_equal(accepted, d2_ref <= isotropy.ACCEPT_D2)
    assert accepted.sum() >= (1 if special is None else 50)
    assert np.abs(G[accepted] - G_ref[accepted]).max() < 1e-9

"""Hot numeric kernels: pairwise aligned distances, graph component
labeling, and batched Levenberg-Marquardt refinement of rotation candidates.

Every kernel is vectorized numpy; the loops that remain run over row chunks,
graph frontiers or refinement iterations, never over single entries.
"""

from __future__ import annotations

import numpy as np


def get_backend() -> str:
    """Name of the kernel implementation; numpy is the only one.

    Kept because benchmark probes record it alongside library versions.
    """
    return "numpy"


# So(3) generators, axis convention L[i] = d/dt R(t, e_i) at t=0.
SO3_GENERATORS = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)

# Alignment modes for the refinement kernel.
ALIGN_NONE = 0  # spheres, products of spheres, euclidean space
ALIGN_SIGN = 1  # real projective representatives
ALIGN_PHASE = 2  # complex projective representatives (interleaved reals)


# ---------------------------------------------------------------------------
# pairwise distances
# ---------------------------------------------------------------------------


# bytes of the (rows, n) coordinate-difference block in pairwise_euclidean
_ROW_CHUNK_BYTES = 1 << 20


def pairwise_euclidean(pts: np.ndarray) -> np.ndarray:
    # coordinates accumulate one at a time, in order, as in a scalar loop,
    # so each entry is rounded the same way as by scipy's cdist
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    n, d = pts.shape
    out = np.zeros((n, n))
    cols = np.ascontiguousarray(pts.T)
    step = max(1, _ROW_CHUNK_BYTES // (8 * max(n, 1)))
    diff = np.empty((min(step, n), n))
    for lo in range(0, n, step):
        acc = out[lo : lo + step]
        t = diff[: acc.shape[0]]
        for k in range(d):
            np.subtract(pts[lo : lo + step, k, None], cols[k], out=t)
            np.multiply(t, t, out=t)
            acc += t
        np.sqrt(acc, out=acc)
    return out


def pairwise_sign_aligned(pts: np.ndarray) -> np.ndarray:
    """Distances min(|u-v|, |u+v|) between unit rows, as for projective lines."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    g = np.abs(pts @ pts.T)
    np.clip(g, 0.0, 1.0, out=g)
    d2 = 2.0 - 2.0 * g
    np.clip(d2, 0.0, None, out=d2)
    out = np.sqrt(d2)
    np.fill_diagonal(out, 0.0)
    return out


def pairwise_phase_aligned(pts: np.ndarray) -> np.ndarray:
    """Phase-minimal distances between unit rows holding interleaved complex entries."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    z = pts[:, 0::2] + 1j * pts[:, 1::2]
    g = np.abs(z @ z.conj().T)
    np.clip(g, 0.0, 1.0, out=g)
    d2 = 2.0 - 2.0 * g
    np.clip(d2, 0.0, None, out=d2)
    out = np.sqrt(d2)
    np.fill_diagonal(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# graph components
# ---------------------------------------------------------------------------


def graph_components(dist: np.ndarray, threshold: float) -> np.ndarray:
    """Label connected components of the graph with edges at dist <= threshold."""
    # breadth-first search over the undirected adjacency, one frontier per step
    adj = np.ascontiguousarray(dist, dtype=np.float64) <= float(threshold)
    adj |= adj.T
    n = adj.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = comp
        frontier = np.array([start])
        while frontier.size:
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & (labels < 0))
            labels[frontier] = comp
        comp += 1
    return labels


# ---------------------------------------------------------------------------
# batched rotation refinement
# ---------------------------------------------------------------------------
#
# Minimizes |align(A(g) x) - x|^2 over g in SO(3) from many starting
# candidates at once. The ambient action must be linear in the rotation:
# (A(g) x)[p] = sum_jk TX[p,j,k] g[jk], with TX precomputed from x.


def _batch_apply_tx(TX: np.ndarray, G: np.ndarray) -> np.ndarray:
    return G.reshape(G.shape[0], 9) @ TX.reshape(TX.shape[0], 9).T


def _as_complex(U: np.ndarray) -> np.ndarray:
    """Complex view of rows holding interleaved (real, imaginary) pairs.

    The last axis must be contiguous, as it is for every array the search
    builds; numpy raises otherwise.
    """
    return U.view(np.complex128)


def _phase_inner(Y: np.ndarray, x: np.ndarray):
    """Real and imaginary parts of <y, x> per row, interleaved layout."""
    inner = _as_complex(Y) @ _as_complex(x).conj()  # conj(<y, x>)
    return inner.real, -inner.imag


def _batch_factors_mag(Y: np.ndarray, x: np.ndarray, mode: int):
    """Alignment factors (a, b) plus the inner-product magnitude per row."""
    if mode == ALIGN_SIGN:
        a = np.where(Y @ x >= 0.0, 1.0, -1.0)
        return a, np.zeros_like(a), np.ones_like(a)
    if mode == ALIGN_PHASE:
        re, im = _phase_inner(Y, x)
        mag = np.hypot(re, im)
        bad = mag < 1e-12
        safe = np.where(bad, 1.0, mag)
        a = np.where(bad, 1.0, re / safe)
        b = np.where(bad, 0.0, im / safe)
        return a, b, safe
    ones = np.ones(Y.shape[0])
    return ones, np.zeros_like(ones), np.ones_like(ones)


def _batch_factors(Y: np.ndarray, x: np.ndarray, mode: int):
    """Per-row alignment factors (a, b) meaning multiplication by a + i b."""
    a, b, _ = _batch_factors_mag(Y, x, mode)
    return a, b


def _batch_jacobian_columns(dY, Y_aligned, x, fa, fb, mag, mode):
    """Column of the aligned-residual Jacobian for one parameter direction.

    The aligned residual is lambda(g) y(g) - x; for phase alignment the
    factor moves with g and contributes i lambda y Im(conj(lambda) <dy, x>)
    divided by |<y, x>|. Sign alignment is locally constant, so only the
    frozen factor applies there. The factors broadcast against the leading
    axes of dY, so one call can fill several directions.
    """
    col = _batch_apply_factors(dY, fa, fb, mode)
    if mode == ALIGN_PHASE:
        re, im = _phase_inner(dY, x)
        coef = (fa * im - fb * re) / mag
        colc = _as_complex(col)
        colc += (1j * coef)[..., None] * _as_complex(Y_aligned)
    return col


def _batch_apply_factors(Y: np.ndarray, a: np.ndarray, b: np.ndarray, mode: int):
    if mode == ALIGN_PHASE:
        out = (a + 1j * b)[..., None] * _as_complex(Y)
        return out.view(np.float64)
    return a[..., None] * Y


def _batch_align(Y: np.ndarray, x: np.ndarray, mode: int):
    a, b = _batch_factors(Y, x, mode)
    return _batch_apply_factors(Y, a, b, mode) - x


def rodrigues_batch(W: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(W, axis=1)
    K = np.zeros((W.shape[0], 3, 3))
    K[:, 0, 1] = -W[:, 2]
    K[:, 0, 2] = W[:, 1]
    K[:, 1, 0] = W[:, 2]
    K[:, 1, 2] = -W[:, 0]
    K[:, 2, 0] = -W[:, 1]
    K[:, 2, 1] = W[:, 0]
    t2 = theta * theta
    small = theta < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
        b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, t2))
    K2 = K @ K
    return np.eye(3) + a[:, None, None] * K + b[:, None, None] * K2


def so3_refine(TX: np.ndarray, x: np.ndarray, G0: np.ndarray, mode: int, max_iter: int = 30):
    """Refine rotation candidates toward fixers of x under a linear so(3) action.

    TX is the (N,3,3) tensor with (A(g) x)[p] = sum_jk TX[p,j,k] g[j,k].
    Returns (refined candidates, squared aligned residuals).
    """
    TX = np.ascontiguousarray(TX, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    G0 = np.ascontiguousarray(G0, dtype=np.float64)
    n = x.size
    # image and the three Jacobian directions in one GEMM per iteration:
    # A(L_i g) x = sum_jk (L_i^T TX[p])[j, k] g[j, k]
    LT = SO3_GENERATORS.transpose(0, 2, 1)
    stacked = np.concatenate([TX[None], LT[:, None] @ TX[None]])
    ops = stacked.reshape(4 * n, 9).T
    G = G0.copy()
    B = G.shape[0]
    Y = _batch_apply_tx(TX, G)
    R = _batch_align(Y, x, mode)
    d2 = np.einsum("bp,bp->b", R, R)
    mu = np.full(B, 1e-3)
    active = np.ones(B, dtype=bool)
    fails = np.zeros(B, dtype=np.int64)
    for _ in range(max_iter):
        active &= d2 >= 1e-28
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        Z = (G[idx].reshape(idx.size, 9) @ ops).reshape(idx.size, 4, n)
        Ya = Z[:, 0]
        fa, fb, mag = _batch_factors_mag(Ya, x, mode)
        Yal = _batch_apply_factors(Ya, fa, fb, mode)
        J = _batch_jacobian_columns(
            Z[:, 1:], Yal[:, None], x, fa[:, None], fb[:, None], mag[:, None], mode
        )
        Ra = R[idx]
        JtJ = J @ J.transpose(0, 2, 1)
        Jtr = (J @ Ra[:, :, None])[..., 0]
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
            steps = rodrigues_batch(delta)
            Gt = steps @ G[idx[todo]]
            Yt = _batch_apply_tx(TX, Gt)
            Rt = _batch_align(Yt, x, mode)
            d2t = np.einsum("bp,bp->b", Rt, Rt)
            sub = np.nonzero(todo)[0]
            better = d2t < d2[idx[todo]]
            acc = sub[better]
            G[idx[acc]] = Gt[better]
            R[idx[acc]] = Rt[better]
            d2[idx[acc]] = d2t[better]
            mua[acc] = np.maximum(mua[acc] * 0.3, 1e-12)
            improved[acc] = True
            rej = sub[~better]
            mua[rej] *= 10.0
        mu[idx] = mua
        fails[idx[~improved]] += 1
        fails[idx[improved]] = 0
        active[idx[fails[idx] >= 2]] = False
    return G, d2

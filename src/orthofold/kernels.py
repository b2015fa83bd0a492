"""Hot numeric kernels with two interchangeable backends.

The numba backend jit-compiles the tight loops (pairwise aligned distances,
graph component labeling, batched Levenberg-Marquardt refinement of rotation
candidates). The numpy backend implements the same contracts with vectorized
calls and is used automatically when numba is absent.

Backend selection: the environment variable ORTHOFOLD_NUMBA ("0", "false",
"off" disable the jit path) is read once at import. Tests and benchmarks can
switch at runtime with set_backend().
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit, prange

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        if args and callable(args[0]):
            return args[0]
        return wrap

    prange = range


def _env_wants_numba() -> bool:
    flag = os.environ.get("ORTHOFOLD_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


_BACKEND = "numba" if (HAS_NUMBA and _env_wants_numba()) else "numpy"


def get_backend() -> str:
    return _BACKEND


def set_backend(name: str) -> None:
    """Switch kernel backend at runtime ("numba" or "numpy")."""
    global _BACKEND
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAS_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    _BACKEND = name


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


# bytes of the (rows, n) coordinate-difference block in the numpy kernel
_ROW_CHUNK_BYTES = 1 << 20


def _pairwise_euclidean_np(pts: np.ndarray) -> np.ndarray:
    # coordinates accumulate one at a time, in order, as in a scalar loop,
    # so each entry is rounded the same way as by scipy's cdist
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


@njit(cache=True, parallel=True)
def _pairwise_euclidean_nb(pts):  # pragma: no cover - jitted
    n, d = pts.shape
    out = np.empty((n, n))
    for i in prange(n):
        out[i, i] = 0.0
        for j in range(i + 1, n):
            acc = 0.0
            for k in range(d):
                diff = pts[i, k] - pts[j, k]
                acc += diff * diff
            val = np.sqrt(acc)
            out[i, j] = val
            out[j, i] = val
    return out


def _pairwise_sign_aligned_np(pts: np.ndarray) -> np.ndarray:
    g = np.abs(pts @ pts.T)
    np.clip(g, 0.0, 1.0, out=g)
    d2 = 2.0 - 2.0 * g
    np.clip(d2, 0.0, None, out=d2)
    out = np.sqrt(d2)
    np.fill_diagonal(out, 0.0)
    return out


@njit(cache=True, parallel=True)
def _pairwise_sign_aligned_nb(pts):  # pragma: no cover - jitted
    n, d = pts.shape
    out = np.empty((n, n))
    for i in prange(n):
        out[i, i] = 0.0
        for j in range(i + 1, n):
            acc = 0.0
            for k in range(d):
                acc += pts[i, k] * pts[j, k]
            g = abs(acc)
            if g > 1.0:
                g = 1.0
            val = np.sqrt(2.0 - 2.0 * g)
            out[i, j] = val
            out[j, i] = val
    return out


def _pairwise_phase_aligned_np(pts: np.ndarray) -> np.ndarray:
    # interleaved reals -> complex rows
    z = pts[:, 0::2] + 1j * pts[:, 1::2]
    g = np.abs(z @ z.conj().T)
    np.clip(g, 0.0, 1.0, out=g)
    d2 = 2.0 - 2.0 * g
    np.clip(d2, 0.0, None, out=d2)
    out = np.sqrt(d2)
    np.fill_diagonal(out, 0.0)
    return out


@njit(cache=True, parallel=True)
def _pairwise_phase_aligned_nb(pts):  # pragma: no cover - jitted
    n, d2 = pts.shape
    m = d2 // 2
    out = np.empty((n, n))
    for i in prange(n):
        out[i, i] = 0.0
        for j in range(i + 1, n):
            re = 0.0
            im = 0.0
            for k in range(m):
                xr = pts[i, 2 * k]
                xi = pts[i, 2 * k + 1]
                yr = pts[j, 2 * k]
                yi = pts[j, 2 * k + 1]
                re += xr * yr + xi * yi
                im += xi * yr - xr * yi
            g = np.sqrt(re * re + im * im)
            if g > 1.0:
                g = 1.0
            val = np.sqrt(2.0 - 2.0 * g)
            out[i, j] = val
            out[j, i] = val
    return out


def pairwise_euclidean(pts: np.ndarray) -> np.ndarray:
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    if _BACKEND == "numba":
        return _pairwise_euclidean_nb(pts)
    return _pairwise_euclidean_np(pts)


def pairwise_sign_aligned(pts: np.ndarray) -> np.ndarray:
    """Distances min(|u-v|, |u+v|) between unit rows, as for projective lines."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    if _BACKEND == "numba":
        return _pairwise_sign_aligned_nb(pts)
    return _pairwise_sign_aligned_np(pts)


def pairwise_phase_aligned(pts: np.ndarray) -> np.ndarray:
    """Phase-minimal distances between unit rows holding interleaved complex entries."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    if _BACKEND == "numba":
        return _pairwise_phase_aligned_nb(pts)
    return _pairwise_phase_aligned_np(pts)


# ---------------------------------------------------------------------------
# graph components
# ---------------------------------------------------------------------------


def _graph_components_np(dist: np.ndarray, threshold: float) -> np.ndarray:
    # breadth-first search over the undirected adjacency, one frontier per step
    adj = dist <= threshold
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


@njit(cache=True)
def _graph_components_nb(dist, threshold):  # pragma: no cover - jitted
    n = dist.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    stack = np.empty(n, dtype=np.int64)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        top = 0
        stack[top] = start
        top += 1
        labels[start] = comp
        while top > 0:
            top -= 1
            u = stack[top]
            for v in range(n):
                if labels[v] < 0 and dist[u, v] <= threshold:
                    labels[v] = comp
                    stack[top] = v
                    top += 1
        comp += 1
    return labels


def graph_components(dist: np.ndarray, threshold: float) -> np.ndarray:
    """Label connected components of the graph with edges at dist <= threshold."""
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    if _BACKEND == "numba":
        return _graph_components_nb(dist, float(threshold))
    return _graph_components_np(dist, float(threshold))


# ---------------------------------------------------------------------------
# batched rotation refinement
# ---------------------------------------------------------------------------
#
# Minimizes |align(A(g) x) - x|^2 over g in SO(3) from many starting
# candidates at once. The ambient action must be linear in the rotation:
# (A(g) x)[p] = sum_jk TX[p,j,k] g[jk], with TX precomputed from x.


@njit(cache=True)
def _rodrigues(w):  # pragma: no cover - jitted
    theta2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
    theta = np.sqrt(theta2)
    K = np.empty((3, 3))
    K[0, 0] = 0.0
    K[0, 1] = -w[2]
    K[0, 2] = w[1]
    K[1, 0] = w[2]
    K[1, 1] = 0.0
    K[1, 2] = -w[0]
    K[2, 0] = -w[1]
    K[2, 1] = w[0]
    K[2, 2] = 0.0
    if theta < 1e-8:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    R = np.eye(3)
    for i in range(3):
        for j in range(3):
            kk = 0.0
            for l in range(3):
                kk += K[i, l] * K[l, j]
            R[i, j] += a * K[i, j] + b * kk
    return R


@njit(cache=True)
def _apply_tx(TX, g, out):  # pragma: no cover - jitted
    n = TX.shape[0]
    for p in range(n):
        acc = 0.0
        for j in range(3):
            for k in range(3):
                acc += TX[p, j, k] * g[j, k]
        out[p] = acc


@njit(cache=True)
def _aligned_residual(y, x, mode, r):  # pragma: no cover - jitted
    n = x.shape[0]
    if mode == 1:
        dot = 0.0
        for p in range(n):
            dot += y[p] * x[p]
        s = 1.0 if dot >= 0.0 else -1.0
        for p in range(n):
            r[p] = s * y[p] - x[p]
    elif mode == 2:
        re = 0.0
        im = 0.0
        m = n // 2
        for k in range(m):
            xr = x[2 * k]
            xi = x[2 * k + 1]
            yr = y[2 * k]
            yi = y[2 * k + 1]
            re += xr * yr + xi * yi
            im += xi * yr - xr * yi
        mag = np.sqrt(re * re + im * im)
        if mag < 1e-12:
            for p in range(n):
                r[p] = y[p] - x[p]
        else:
            a = re / mag
            b = im / mag
            for k in range(m):
                yr = y[2 * k]
                yi = y[2 * k + 1]
                r[2 * k] = a * yr - b * yi - x[2 * k]
                r[2 * k + 1] = b * yr + a * yi - x[2 * k + 1]
    else:
        for p in range(n):
            r[p] = y[p] - x[p]
    d2 = 0.0
    for p in range(n):
        d2 += r[p] * r[p]
    return d2


@njit(cache=True)
def _alignment_factor_mag(y, x, mode):  # pragma: no cover - jitted
    # (a, b, mag): aligned image is (a + i b) * y in the complex picture and
    # mag is |<y, x>|; sign mode gives (s, 0, 1), no-alignment gives (1, 0, 1).
    n = x.shape[0]
    if mode == 1:
        dot = 0.0
        for p in range(n):
            dot += y[p] * x[p]
        if dot >= 0.0:
            return (1.0, 0.0, 1.0)
        return (-1.0, 0.0, 1.0)
    if mode == 2:
        re = 0.0
        im = 0.0
        m = n // 2
        for k in range(m):
            xr = x[2 * k]
            xi = x[2 * k + 1]
            yr = y[2 * k]
            yi = y[2 * k + 1]
            re += xr * yr + xi * yi
            im += xi * yr - xr * yi
        mag = np.sqrt(re * re + im * im)
        if mag < 1e-12:
            return (1.0, 0.0, 1.0)
        return (re / mag, im / mag, mag)
    return (1.0, 0.0, 1.0)


@njit(cache=True, parallel=True)
def _so3_refine_nb(TX, x, G0, mode, max_iter, gens):  # pragma: no cover - jitted
    B = G0.shape[0]
    n = x.shape[0]
    G = G0.copy()
    dist2 = np.empty(B)
    for b in prange(B):
        ycur = np.empty(n)
        ycol = np.empty(n)
        ya = np.empty(n)
        r = np.empty(n)
        rt = np.empty(n)
        J = np.empty((n, 3))
        g = G[b].copy()
        _apply_tx(TX, g, ycur)
        d2 = _aligned_residual(ycur, x, mode, r)
        mu = 1e-3
        fails = 0
        for _ in range(max_iter):
            if d2 < 1e-28:
                break
            fa, fb, mag = _alignment_factor_mag(ycur, x, mode)
            if mode == 2:
                # aligned image, needed by the moving-phase Jacobian term
                for k in range(n // 2):
                    yr = ycur[2 * k]
                    yi = ycur[2 * k + 1]
                    ya[2 * k] = fa * yr - fb * yi
                    ya[2 * k + 1] = fb * yr + fa * yi
            for i in range(3):
                lg = np.empty((3, 3))
                for a in range(3):
                    for c in range(3):
                        acc = 0.0
                        for l in range(3):
                            acc += gens[i, a, l] * g[l, c]
                        lg[a, c] = acc
                _apply_tx(TX, lg, ycol)
                if mode == 2:
                    m = n // 2
                    re2 = 0.0
                    im2 = 0.0
                    for k in range(m):
                        xr = x[2 * k]
                        xi = x[2 * k + 1]
                        yr = ycol[2 * k]
                        yi = ycol[2 * k + 1]
                        re2 += xr * yr + xi * yi
                        im2 += xi * yr - xr * yi
                    coef = (fa * im2 - fb * re2) / mag
                    for k in range(m):
                        yr = ycol[2 * k]
                        yi = ycol[2 * k + 1]
                        J[2 * k, i] = fa * yr - fb * yi - coef * ya[2 * k + 1]
                        J[2 * k + 1, i] = fb * yr + fa * yi + coef * ya[2 * k]
                else:
                    for p in range(n):
                        J[p, i] = fa * ycol[p]
            # normal equations with damping
            JtJ = np.empty((3, 3))
            Jtr = np.empty(3)
            for a in range(3):
                acc = 0.0
                for p in range(n):
                    acc += J[p, a] * r[p]
                Jtr[a] = acc
                for c in range(3):
                    acc2 = 0.0
                    for p in range(n):
                        acc2 += J[p, a] * J[p, c]
                    JtJ[a, c] = acc2
            improved = False
            for _trial in range(6):
                M = JtJ.copy()
                for a in range(3):
                    M[a, a] += mu
                # 3x3 solve by adjugate
                det = (
                    M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
                    - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
                    + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
                )
                if abs(det) < 1e-300:
                    mu *= 10.0
                    continue
                inv = np.empty((3, 3))
                inv[0, 0] = (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1]) / det
                inv[0, 1] = (M[0, 2] * M[2, 1] - M[0, 1] * M[2, 2]) / det
                inv[0, 2] = (M[0, 1] * M[1, 2] - M[0, 2] * M[1, 1]) / det
                inv[1, 0] = (M[1, 2] * M[2, 0] - M[1, 0] * M[2, 2]) / det
                inv[1, 1] = (M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]) / det
                inv[1, 2] = (M[0, 2] * M[1, 0] - M[0, 0] * M[1, 2]) / det
                inv[2, 0] = (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0]) / det
                inv[2, 1] = (M[0, 1] * M[2, 0] - M[0, 0] * M[2, 1]) / det
                inv[2, 2] = (M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) / det
                delta = np.empty(3)
                for a in range(3):
                    acc = 0.0
                    for c in range(3):
                        acc += inv[a, c] * Jtr[c]
                    delta[a] = -acc
                step = _rodrigues(delta)
                gt = np.empty((3, 3))
                for a in range(3):
                    for c in range(3):
                        acc = 0.0
                        for l in range(3):
                            acc += step[a, l] * g[l, c]
                        gt[a, c] = acc
                _apply_tx(TX, gt, ycur)
                d2t = _aligned_residual(ycur, x, mode, rt)
                if d2t < d2:
                    g = gt
                    d2 = d2t
                    for p in range(n):
                        r[p] = rt[p]
                    mu = max(mu * 0.3, 1e-12)
                    improved = True
                    break
                mu *= 10.0
            if not improved:
                fails += 1
                if fails >= 2:
                    break
            else:
                fails = 0
            _apply_tx(TX, g, ycur)
        G[b] = g
        dist2[b] = d2
    return G, dist2


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


def _so3_refine_np(TX, x, G0, mode, max_iter, gens):
    n = x.size
    # image and the three Jacobian directions in one GEMM per iteration:
    # A(L_i g) x = sum_jk (L_i^T TX[p])[j, k] g[j, k]
    stacked = np.concatenate([TX[None], gens.transpose(0, 2, 1)[:, None] @ TX[None]])
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


def so3_refine(TX: np.ndarray, x: np.ndarray, G0: np.ndarray, mode: int, max_iter: int = 30):
    """Refine rotation candidates toward fixers of x under a linear so(3) action.

    TX is the (N,3,3) tensor with (A(g) x)[p] = sum_jk TX[p,j,k] g[j,k].
    Returns (refined candidates, squared aligned residuals).
    """
    TX = np.ascontiguousarray(TX, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    G0 = np.ascontiguousarray(G0, dtype=np.float64)
    if _BACKEND == "numba":
        return _so3_refine_nb(TX, x, G0, mode, max_iter, SO3_GENERATORS)
    return _so3_refine_np(TX, x, G0, mode, max_iter, SO3_GENERATORS)

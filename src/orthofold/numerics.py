"""Small dense linear algebra with fixed numeric cuts, and the epsilon-join
of feature rows.

The matrices of the linear algebra are plain float64 arrays of at most 64
rows/columns. An SVD split takes its rank as given: every group kind
decides its stabilizer's rank in closed form. RANK_EPS, the one relative
cut, keeps the singular values above RANK_EPS times the largest in span
projectors and decides the SO(3) frame rule (isotropy._so3_shapes);
subspace bases are returned orthonormal, as columns. The cuts
several modules share are defined here: MATCH_EPS for matching points,
traces, characters and coordinates, and POINT_EPS for the displacement of
a point that still counts as fixed. Each cut is one constant, not a
setting.

The epsilon-join (epsilon_components) joins rows within a Chebyshev
distance eps, banded by one sort key, and its components equal those of
the full distance matrix without ever holding it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InputError
from . import kernels

MAX_DIM = 64

# relative singular-value cut: span projectors and the SO(3) frame rule
RANK_EPS = 1e-9

# absolute cut for matching points, traces, characters and coordinates
MATCH_EPS = 1e-8

# largest displacement of a point that still counts as fixed by a matrix:
# the differentials' fixer test and the finite stabilizers and transports
POINT_EPS = 1e-7


def as_small_matrix(a) -> np.ndarray:
    """Validate and convert to a float64 matrix within the supported size."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got ndim={m.ndim}")
    if m.shape[0] > MAX_DIM or m.shape[1] > MAX_DIM:
        raise InputError(f"matrix of shape {m.shape} exceeds the {MAX_DIM} limit")
    # an empty matrix has no entry to scan
    if m.size and not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    return m


def svd_splits(A, ranks) -> tuple[np.ndarray, list, list]:
    """(r, K, C) of each (d, n) matrix of a (B, d, n) stack, split at its
    given rank r by one stacked SVD u s vt: the orthonormal null space basis
    K = vt[r:]^T and the orthonormal basis C = u[:, r:] of the complement of
    the column span. C is the identity for a zero matrix or one without
    columns; identity bases are shared read-only. The split decides
    nothing: the caller's exact rule has fixed each rank.

    Returns the ranks as an int array and the lists of the K and C of each
    matrix. A stacked np.linalg.svd factors each matrix as a call on it
    alone does, so every result is bit for bit that of the matrix alone.
    The K (and C) of the matrices of one rank are views of one array.
    """
    A = np.asarray(A, dtype=np.float64)
    B, d, n = A.shape
    if max(d, n) > MAX_DIM:
        raise InputError(f"matrix of shape {(d, n)} exceeds the {MAX_DIM} limit")
    if A.size == 0:
        return np.zeros(B, dtype=np.int64), [shared_identity(n)] * B, [shared_identity(d)] * B
    if not np.all(np.isfinite(A)):
        raise InputError("matrix contains non-finite entries")
    u, _, vt = np.linalg.svd(A)
    ranks = np.asarray(ranks, dtype=np.int64)
    nonzero = A.any(axis=(1, 2)).tolist()
    K, C = [None] * B, [None] * B
    for r in sorted(set(ranks.tolist())):
        idx = np.flatnonzero(ranks == r)
        kernels = np.ascontiguousarray(np.swapaxes(vt[idx, r:], 1, 2))
        spans = np.ascontiguousarray(u[idx, :, r:])
        for i, k, c in zip(idx.tolist(), kernels, spans):
            K[i] = k
            C[i] = c if nonzero[i] else shared_identity(d)
    return ranks, K, C


@functools.lru_cache(maxsize=None)
def shared_identity(d: int) -> np.ndarray:
    """One read-only d x d identity, shared by every fixed-point basis."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _kept(s: np.ndarray) -> np.ndarray:
    """The rank rule: which singular values (descending, along the last
    axis) lie above RANK_EPS times the largest. A zero lead keeps none."""
    return s > RANK_EPS * s[..., :1]


def projectors(a) -> np.ndarray:
    """The orthogonal projector onto the column span of a matrix, or of each
    matrix of a (..., d, k) stack: Q Q^T, Q the left singular vectors that
    the rank rule (_kept) keeps. A zero matrix, or one without columns,
    projects to 0."""
    m = np.asarray(a, dtype=np.float64) if np.ndim(a) > 2 else as_small_matrix(a)
    if m.shape[-1] == 0:
        return np.zeros(m.shape[:-1] + m.shape[-2:-1])
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    q = u * _kept(s)[..., None, :]
    return q @ np.swapaxes(q, -1, -2)


# bytes of one float64 block: the epsilon-join's distances, the finite
# fixer test's images
BLOCK_BYTES = 1 << 20

# Slack of the epsilon-join's reach beyond eps, relative: the distances and
# the window bounds key +- reach are rounded, so a pair at eps may have a
# key gap a few ulps above it.
_REACH_REL = 1e-9


def epsilon_components(rows, eps: float) -> np.ndarray:
    """Component labels of the epsilon-join of the rows of an (n, d) array:
    rows join when their Chebyshev distance (largest coordinate difference)
    is <= eps, transitively. Per row, the smallest index of its component.

    The rows are sorted by their widest coordinate (max - min), whose gap
    never exceeds a pair's distance. Blocks of at most 64 consecutive rows
    and BLOCK_BYTES of distances (one row at least) are compared only with
    the window of rows whose keys lie within eps plus a rounding slack, so
    no (n, n) array is built. The distance takes one coordinate at a time,
    so a pair's distance is the same in any block.
    """
    pts = np.asarray(rows, dtype=np.float64)
    if pts.ndim != 2 or 0 in pts.shape:
        raise InputError("an epsilon-join expects a nonempty (n, d) array")
    n, d = pts.shape
    keys = pts[:, int(np.argmax(np.ptp(pts, axis=0)))]
    order = np.argsort(keys, kind="stable")
    keys, pts = keys[order], pts[order]
    cols = np.ascontiguousarray(pts.T)
    reach = eps + _REACH_REL * (eps + float(np.abs(keys[[0, -1]]).max()))
    left = np.searchsorted(keys, keys - reach, "left")
    right = np.searchsorted(keys, keys + reach, "right")

    def edges():
        a = 0
        while a < n:
            # rows a..b share the window lo..hi; 64 rows balanced the numpy
            # calls of a block against the window's growth on 100-3000 rows
            sizes = np.arange(1, min(n - a, 64) + 1) * (right[a : a + 64] - left[a])
            b = a + max(1, int(np.searchsorted(sizes, BLOCK_BYTES // 8, "right")))
            lo, hi = int(left[a]), int(right[b - 1])
            dist = np.zeros((b - a, hi - lo))
            t = np.empty_like(dist)
            for k in range(d):
                np.abs(np.subtract(pts[a:b, k, None], cols[k, lo:hi], out=t), out=t)
                np.maximum(dist, t, out=dist)
            i, j = np.nonzero(dist <= eps)
            yield order[i + a], order[j + lo]
            a = b

    return kernels.graph_components(edges(), n)

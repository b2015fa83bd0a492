"""Small dense linear algebra with explicit tolerance policy, and the
epsilon-graph scans over point samples.

The matrices of the linear algebra are plain float64 arrays of at most 64
rows/columns. Rank decisions use a relative singular-value threshold;
subspace bases are returned orthonormal, as columns. The point-sample scans
(nearest-neighbour scale, epsilon-graph components) read their distances a
row block at a time and never hold an (n, n) matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError
from . import kernels

MAX_DIM = 64


@dataclass(frozen=True)
class Tolerance:
    """Numeric policy used throughout the pipeline.

    rank_eps: relative singular-value cutoff for rank decisions.
    match_eps: absolute tolerance for matching points, elements and weights.
    cluster_eps_factor: multiplier on the median nearest-neighbor distance
    when building epsilon-graphs.
    """

    rank_eps: float = 1e-9
    match_eps: float = 1e-8
    cluster_eps_factor: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (np.isfinite(value) and value > 0.0):
                raise InputError(f"tolerance {f.name} must be finite and positive, got {value!r}")


DEFAULT_TOL = Tolerance()


def as_small_matrix(a) -> np.ndarray:
    """Validate and convert to a float64 matrix within the supported size."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got ndim={m.ndim}")
    if m.shape[0] > MAX_DIM or m.shape[1] > MAX_DIM:
        raise InputError(f"matrix of shape {m.shape} exceeds the {MAX_DIM} limit")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    return m


def _relative_rank(s: np.ndarray, tol: Tolerance) -> int:
    """Number of singular values (descending) above tol.rank_eps times the largest."""
    return int(np.sum(s > tol.rank_eps * s[0])) if s.size and s[0] > 0.0 else 0


def rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank with threshold tol.rank_eps * largest singular value."""
    m = as_small_matrix(a)
    return _relative_rank(np.linalg.svd(m, compute_uv=False), tol) if m.size else 0


def svd_split(a, tol: Tolerance = DEFAULT_TOL) -> tuple[int, np.ndarray, np.ndarray]:
    """(r, K, C) of a (d, n) matrix from one full SVD u s vt: the relative
    rank r, the orthonormal null space basis K = vt[r:]^T and the orthonormal
    basis C = u[:, r:] of the complement of the column span. C is the
    identity for a zero matrix or one without columns; identity bases are
    shared read-only."""
    m = as_small_matrix(a)
    d, n = m.shape
    if m.size == 0:
        return 0, shared_identity(n), shared_identity(d)
    u, s, vt = np.linalg.svd(m)
    r = _relative_rank(s, tol)
    return r, vt[r:].T.copy(), (u[:, r:].copy() if m.any() else shared_identity(d))


@functools.lru_cache(maxsize=None)
def shared_identity(d: int) -> np.ndarray:
    """One read-only d x d identity, shared by every fixed-point basis."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def kernel_basis(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a."""
    return svd_split(a, tol)[1]


def orthonormalize(vectors, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column span (rank-revealing, via SVD)."""
    m = as_small_matrix(vectors)
    if m.shape[1] == 0 or not m.any():
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : _relative_rank(s, tol)].copy()


def spans_equal(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two column spans agree, compared through their projectors."""
    pa = _projector(a)
    pb = _projector(b)
    if pa.shape != pb.shape:
        return False
    return bool(np.max(np.abs(pa - pb)) <= max(tol.match_eps, 1e2 * tol.rank_eps))


def _projector(a) -> np.ndarray:
    q = orthonormalize(a)
    if q.shape[1] == 0:
        d = as_small_matrix(a).shape[0]
        return np.zeros((d, d))
    return q @ q.T


def epsilon_components(points: np.ndarray, metric, eps: float) -> list[list[int]]:
    """Connected components of the epsilon-graph on a point sample.

    metric(pts, lo, hi) returns the (hi - lo, n) block of distances from the
    rows lo..hi of the stacked (n, d) array to all of its rows, as a new
    array that the scan may overwrite. Edges join points at distance
    <= eps; callers calibrate it on a larger ambient sample, for instance
    as a multiple of its median_nn_distance. The distances are scanned a
    row block at a time, so no (n, n) array is built. Components are
    sorted by smallest member index.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InputError("epsilon_components expects a nonempty (n, d) array")
    n = pts.shape[0]
    if n == 1:
        return [[0]]
    labels = kernels.graph_components(_row_blocks(pts, metric), n, float(eps))
    comps: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        comps.setdefault(int(lab), []).append(i)
    return sorted(comps.values(), key=lambda c: c[0])


def median_nn_distance(points: np.ndarray, metric) -> float:
    """Median over points of the distance to the nearest distinct point.

    metric is as for epsilon_components; the scan runs in row blocks.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        return 0.0
    return float(np.median(_nearest_other(_row_blocks(pts, metric), n)))


def _row_blocks(pts: np.ndarray, metric):
    """rows(lo, hi): the metric's distance block of points lo..hi, checked."""
    n = pts.shape[0]

    def rows(lo, hi):
        block = np.asarray(metric(pts, lo, hi), dtype=np.float64)
        if block.shape != (hi - lo, n):
            raise InputError(f"metric returned shape {block.shape}, expected {(hi - lo, n)}")
        return block

    return rows


def _nearest_other(rows, n: int) -> np.ndarray:
    """Per point, the smallest distance to another point.

    rows(lo, hi) returns the (hi - lo, n) distance block of points lo..hi,
    as for kernels.graph_components. Each block gets its diagonal entries
    set to infinity before its row minima are taken; min is exact, so the
    block size does not change the result.
    """
    out = np.empty(n)
    step = kernels.block_rows(n)
    for lo in range(0, n, step):
        block = rows(lo, min(lo + step, n))
        r = np.arange(block.shape[0])
        block[r, lo + r] = np.inf
        block.min(axis=1, out=out[lo : lo + block.shape[0]])
    return out

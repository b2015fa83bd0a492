"""Small dense linear algebra with fixed numeric cuts, and the banded
epsilon-graph scan over feature rows.

The matrices of the linear algebra are plain float64 arrays of at most 64
rows/columns. Rank decisions keep the singular values above RANK_EPS times
the largest; subspace bases are returned orthonormal, as columns. The cuts
several modules share are defined here: MATCH_EPS for matching points,
traces, characters and coordinates, and POINT_EPS for the displacement of
a point that still counts as fixed. Each cut is one constant, not a
setting.

The epsilon-graph scan is banded: BandScan sorts the sample once by a
1-Lipschitz key of the metric, and computes each block of rows only against
the columns whose keys lie within the scan's radius. It never holds an
(n, n) matrix, and its components equal those of the full distance matrix.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InputError
from . import kernels

MAX_DIM = 64

# relative singular-value cut of every rank decision
RANK_EPS = 1e-9

# absolute cut for matching points, traces, characters and coordinates
MATCH_EPS = 1e-8

# largest displacement of a point that still counts as fixed by a matrix:
# the differentials' fixer test and the finite stabilizers and transports
POINT_EPS = 1e-7

# largest entry of the difference of two span projectors that still counts
# as one span
_SPAN_EPS = 1e-7


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


def svd_split(a) -> tuple[int, np.ndarray, np.ndarray]:
    """(r, K, C) of a (d, n) matrix from one full SVD u s vt: the relative
    rank r, the orthonormal null space basis K = vt[r:]^T and the orthonormal
    basis C = u[:, r:] of the complement of the column span. C is the
    identity for a zero matrix or one without columns; identity bases are
    shared read-only. It is svd_splits of the matrix alone."""
    r, K, C = svd_splits(as_small_matrix(a)[None])
    return int(r[0]), K[0], C[0]


def svd_splits(A) -> tuple[np.ndarray, list, list]:
    """svd_split of each matrix of a (B, d, n) stack, from one stacked SVD.

    Returns the ranks as an int array and the lists of the K and C of each
    matrix. A stacked np.linalg.svd factors each matrix as a call on it
    alone does, and the rank rule reads each row of singular values, so
    every result is bit for bit that of the matrix alone. The K (and C) of
    the matrices of one rank are views of one array.
    """
    A = np.asarray(A, dtype=np.float64)
    B, d, n = A.shape
    if max(d, n) > MAX_DIM:
        raise InputError(f"matrix of shape {(d, n)} exceeds the {MAX_DIM} limit")
    if A.size == 0:
        return np.zeros(B, dtype=np.int64), [shared_identity(n)] * B, [shared_identity(d)] * B
    if not np.all(np.isfinite(A)):
        raise InputError("matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(A)
    ranks = np.count_nonzero(_kept(s), axis=1)
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


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal basis of the column span (rank-revealing, via SVD)."""
    m = as_small_matrix(vectors)
    if m.shape[1] == 0 or not m.any():
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : int(np.count_nonzero(_kept(s)))].copy()


def _kept(s: np.ndarray) -> np.ndarray:
    """The rank rule: which singular values (descending, along the last
    axis) lie above RANK_EPS times the largest. A zero lead keeps none."""
    return s > RANK_EPS * s[..., :1]


def spans_equal(a, b):
    """Whether two column spans agree, compared through their projectors.

    a and b are matrices, or stacks of them (..., d, k) that broadcast; a
    stack gives one answer per matrix.
    """
    pa, pb = _projectors(a), _projectors(b)
    if pa.shape[-1] != pb.shape[-1]:
        return False
    same = np.max(np.abs(pa - pb), axis=(-2, -1)) <= _SPAN_EPS
    return bool(same) if same.ndim == 0 else same


def _projectors(a) -> np.ndarray:
    """The orthogonal projector onto the column span of a matrix, or of each
    matrix of a (..., d, k) stack: Q Q^T, Q the left singular vectors that
    orthonormalize keeps. A zero matrix, or one without columns, projects
    to 0."""
    m = np.asarray(a, dtype=np.float64) if np.ndim(a) > 2 else as_small_matrix(a)
    if m.shape[-1] == 0:
        return np.zeros(m.shape[:-1] + m.shape[-2:-1])
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    q = u * _kept(s)[..., None, :]
    return q @ np.swapaxes(q, -1, -2)


# bytes of one float64 block: the band scan's distances, the finite fixer
# test's images
BLOCK_BYTES = 1 << 20

# Slack of a band's reach beyond its radius, relative: rounding may put a
# computed distance below the key gap of its pair by a few ulps.
_REACH_REL = 1e-9

# Rows per band block at most. A block's window is about as many columns
# wider than one row's as the block has rows, while each block costs a
# fixed overhead of numpy calls; 64 rows balanced the two on clouds of 100
# to 3000 points.
_BLOCK_ROWS = 64


def widest_coordinate(cols: np.ndarray) -> np.ndarray:
    """The column of an (n, d) array whose values spread widest (max - min);
    zeros when there is no column."""
    cols = np.asarray(cols, dtype=np.float64)
    if cols.shape[1] == 0:
        return np.zeros(cols.shape[0])
    return cols[:, int(np.argmax(np.ptp(cols, axis=0)))]


class BandScan:
    """The epsilon-graph scan over a point sample sorted by a 1-Lipschitz key.

    keys must satisfy |key(x) - key(y)| <= d(x, y) for the distances d the
    metric computes. metric(pts, lo, hi, clo, chi, out) returns the
    (hi - lo, chi - clo) block of distances between the rows lo..hi and the
    rows clo..chi of the sorted stacked points, built in the flat scratch
    array out as the kernels do (kernels.SCRATCH_PLANES planes). Every entry
    must be the one the whole matrix holds, whatever the block.

    The points are sorted by key once. A scan with radius r computes each
    block of consecutive rows only against the contiguous window of columns
    whose keys lie within reach of the block's keys, where reach is r plus
    a rounding slack; a pair outside the window is farther apart than r.
    Blocks hold at most BLOCK_BYTES of distances (one row at least), and
    the scan allocates its scratch once, so no (n, n) array is built. When
    the keys are too close for the radius, the window is the whole sample
    and the scan is the plain row-block scan. Results are reported in the
    callers' point order.
    """

    def __init__(self, points, keys, metric):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InputError("a band scan expects a nonempty (n, d) array")
        keys = np.asarray(keys, dtype=np.float64)
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        self.points = np.ascontiguousarray(pts[self.order])
        self.metric = metric

    def __len__(self) -> int:
        return int(self.keys.size)

    def _scratch(self) -> np.ndarray:
        """Scratch for the largest block of a scan: BLOCK_BYTES, or one row."""
        n = len(self)
        return np.empty(kernels.SCRATCH_PLANES * min(n * n, max(BLOCK_BYTES // 8, n)))

    def _blocks(self, r: float):
        """Row blocks lo..hi of the sorted sample, each with its column
        window clo..chi, as (lo, hi, clo, chi).

        A block has at most _BLOCK_ROWS rows and BLOCK_BYTES of distances,
        and one row at least.
        """
        keys = self.keys
        n = len(self)
        reach = r + _REACH_REL * (r + float(np.abs(keys[[0, -1]]).max()))
        left = np.searchsorted(keys, keys - reach, "left")
        right = np.searchsorted(keys, keys + reach, "right")
        cap = BLOCK_BYTES // 8
        a = 0
        while a < n:
            # rows a..b share the window left[a]..right[b - 1]
            rows = min(n - a, _BLOCK_ROWS, max(1, cap // int(right[a] - left[a])))
            sizes = np.arange(1, rows + 1) * (right[a : a + rows] - left[a])
            b = a + max(1, int(np.searchsorted(sizes, cap, "right")))
            yield a, b, int(left[a]), int(right[b - 1])
            a = b

    def epsilon_components(self, eps: float) -> np.ndarray:
        """Component labels of the epsilon-graph, whose edges join points at
        distance <= eps: per point, the smallest index of its component."""
        eps = float(eps)
        scratch = self._scratch()
        near = np.empty(scratch.size // kernels.SCRATCH_PLANES, dtype=bool)

        def edges():
            for lo, hi, clo, chi in self._blocks(eps):
                block = self.metric(self.points, lo, hi, clo, chi, scratch)
                mask = np.less_equal(block, eps, out=near[: block.size].reshape(block.shape))
                i, j = np.nonzero(mask)
                yield self.order[i + lo], self.order[j + clo]

        return kernels.graph_components(edges(), len(self))

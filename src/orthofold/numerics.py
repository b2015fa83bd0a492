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


def _relative_rank(s: np.ndarray) -> int:
    """Number of singular values (descending) above RANK_EPS times the largest."""
    return int(np.sum(s > RANK_EPS * s[0])) if s.size and s[0] > 0.0 else 0


def svd_split(a) -> tuple[int, np.ndarray, np.ndarray]:
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
    r = _relative_rank(s)
    return r, vt[r:].T.copy(), (u[:, r:].copy() if m.any() else shared_identity(d))


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
    return u[:, : _relative_rank(s)].copy()


def spans_equal(a, b) -> bool:
    """Whether two column spans agree, compared through their projectors."""
    pa = _projector(a)
    pb = _projector(b)
    if pa.shape != pb.shape:
        return False
    return bool(np.max(np.abs(pa - pb)) <= _SPAN_EPS)


def _projector(a) -> np.ndarray:
    q = orthonormalize(a)
    if q.shape[1] == 0:
        d = as_small_matrix(a).shape[0]
        return np.zeros((d, d))
    return q @ q.T


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

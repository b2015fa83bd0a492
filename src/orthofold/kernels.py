"""Hot numeric kernels: the Chebyshev distance block, graph component
labeling, and the so(3) generators with their batched exponential.

Every kernel is vectorized numpy; the loops that remain run over
coordinates or union-find rounds, never over single entries. The distance
kernel computes one block of rows against a contiguous range of columns,
each entry bit-equal to the whole matrix's, into a scratch array its caller
may reuse; the scan that chooses the blocks lives in numerics.
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

# ---------------------------------------------------------------------------
# pairwise distances, one block of rows and columns at a time
# ---------------------------------------------------------------------------
#
# The kernel returns the (hi - lo, chi - clo) block of distances from the
# rows lo..hi of pts to its rows clo..chi; the defaults give the whole
# matrix. Coordinates are taken one at a time, in order, as in a scalar
# loop, so an entry is the same whatever block it is computed in.
#
# out, when given, is a flat float64 scratch array of at least
# SCRATCH_PLANES * (hi - lo) * (chi - clo) entries. The kernel builds its
# block and its temporaries in it and returns the block as a view of it, so
# a scan that passes the same scratch to every call allocates nothing per
# block.

SCRATCH_PLANES = 2


def _operands(pts, lo: int, hi: int | None, clo: int, chi: int | None):
    """Rows lo..hi of pts, and its rows clo..chi as contiguous columns."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    n = pts.shape[0]
    hi = n if hi is None else min(hi, n)
    chi = n if chi is None else min(chi, n)
    return pts[lo:hi], np.ascontiguousarray(pts[clo:chi].T)


def _planes(out, count: int, shape: tuple) -> list:
    """count zeroed arrays of the given shape, carved from out or new."""
    if out is None:
        return [np.zeros(shape) for _ in range(count)]
    size = shape[0] * shape[1]
    planes = [out[p * size : (p + 1) * size].reshape(shape) for p in range(count)]
    for plane in planes:
        plane.fill(0.0)
    return planes


def pairwise_chebyshev(
    pts: np.ndarray,
    lo: int = 0,
    hi: int | None = None,
    clo: int = 0,
    chi: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Largest coordinate difference max_k |u_k - v_k|; exact in any order."""
    rows, cols = _operands(pts, lo, hi, clo, chi)
    acc, t = _planes(out, 2, (rows.shape[0], cols.shape[1]))
    for k in range(rows.shape[1]):
        np.subtract(rows[:, k, None], cols[k], out=t)
        np.abs(t, out=t)
        np.maximum(acc, t, out=acc)
    return acc


# ---------------------------------------------------------------------------
# graph components
# ---------------------------------------------------------------------------


def _roots(parent: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Root of each node, compressing the paths it walked."""
    r = parent[nodes]
    while True:
        up = parent[r]
        if np.array_equal(up, r):
            break
        r = up
    parent[nodes] = r
    return r


def _union(parent: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """Merge the trees of every edge (i, j), hooking larger roots under smaller.

    Parents only ever point to smaller indices, so the forest has no cycle
    and each root is the smallest index of its tree. When several edges
    hook the same root one write wins; the others are retried on the roots.
    """
    while i.size:
        ri, rj = _roots(parent, i), _roots(parent, j)
        apart = ri != rj
        i, j = np.minimum(ri[apart], rj[apart]), np.maximum(ri[apart], rj[apart])
        parent[j] = i


def graph_components(edges, n: int) -> np.ndarray:
    """Label the components of the graph on nodes 0..n-1.

    edges yields pairs (i, j) of equal-length index arrays, one batch of
    edges at a time; each batch is merged into a union-find as it comes, so
    a scan can produce its edges block by block. The label of a node is the
    smallest index in its component.
    """
    parent = np.arange(n)
    for i, j in edges:
        _union(parent, i, j)
    return _roots(parent, np.arange(n))


def rodrigues_batch(W: np.ndarray) -> np.ndarray:
    """Rotations exp(W_i . L) of the rows of W, by Rodrigues' formula."""
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

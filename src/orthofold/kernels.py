"""Hot numeric kernels: graph component labeling, and the so(3) generators
with their batched exponential.

Every kernel is vectorized numpy; the loops that remain run over
union-find rounds, never over single entries. The epsilon-join that feeds
graph_components its edges lives in numerics.
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

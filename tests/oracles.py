"""Independent reference implementations used to pin test expectations.

Everything here is deliberately slow and exact: rational Gaussian
elimination for rank and nullspace, a synthetic torus action with a
hidden orthogonal change of frame whose planted weight rows the pipeline
must recover, a one-element-at-a-time SO(3) identity-component test, and
minors of integer matrices by exact determinants. None of it imports the
numeric routines under test beyond the public model types.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

from orthofold import actions, groups, isotropy


def exact_rank(mat) -> int:
    """Rank of an integer (or rational) matrix by fraction elimination."""
    rows = [[Fraction(v) for v in row] for row in np.atleast_2d(mat)]
    return len(_row_echelon(rows)[0])


def exact_nullspace(mat) -> list[list[Fraction]]:
    """Basis of the rational nullspace, one vector per free column."""
    a = np.atleast_2d(mat)
    n = a.shape[1]
    rows = [[Fraction(v) for v in row] for row in a]
    echelon, pivots = _row_echelon(rows)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        # back-substitute the pivot coordinates
        for r in range(len(echelon) - 1, -1, -1):
            p = pivots[r]
            s = sum(echelon[r][j] * v[j] for j in range(p + 1, n))
            v[p] = -s / echelon[r][p]
        basis.append(v)
    return basis


def _row_echelon(rows):
    """Reduce in place; returns (nonzero rows, pivot column per row)."""
    if not rows:
        return [], []
    n = len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def refines(p_blocks, q_blocks) -> bool:
    """True when every block of p sits inside a single block of q."""
    owner = {}
    for b, blk in enumerate(q_blocks):
        for i in blk:
            owner[i] = b
    return all(len({owner[i] for i in blk}) == 1 for blk in p_blocks)


def identity_component_reference(g, q: np.ndarray, kernel_coeffs: np.ndarray) -> bool:
    """Whether the single rotation q lies on exp(span kernel_coeffs).

    Compares the rotation axis, taken as the null vector of q - 1, with the
    kernel direction; k = 0 is an identity test.
    """
    k = kernel_coeffs.shape[1]
    if k == 0:
        return bool(np.abs(q - np.eye(g.size)).max() <= 1e-5)
    if k == 3:
        return True
    _, sv, vt = np.linalg.svd(q - np.eye(3))
    if sv[0] < 1e-9:
        return True
    axis = vt[2]
    zeta = kernel_coeffs[:, 0] / np.linalg.norm(kernel_coeffs[:, 0])
    return bool(min(np.linalg.norm(axis - zeta), np.linalg.norm(axis + zeta)) <= 1e-5)


def exact_det(mat) -> Fraction:
    """Determinant of a square integer (or rational) matrix by fraction elimination."""
    rows = [[Fraction(v) for v in row] for row in mat]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def minor_gcd(mat, k: int | None = None) -> int:
    """gcd of all k x k minors of an integer matrix, k = min(m, n) by default.

    At k = rank this is the product of the nonzero Smith invariants, the
    component count of the torus subgroup {phi : mat @ phi = 0 mod 2 pi}.
    """
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    m, n = a.shape
    k = min(m, n) if k is None else k
    out = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            minor = exact_det(a[np.ix_(rows, cols)])
            assert minor.denominator == 1
            out = gcd(out, abs(minor.numerator))
    return out


def _rot2(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]])


def planted_torus_action(rows, zero_dims: int, frame_seed: int) -> actions.ActionModel:
    """Torus action on R^(2p+z) rotating p hidden planes at integer rates.

    The planes and the fixed directions are mixed by a random orthogonal
    frame, so nothing about the planted weight rows is visible in the
    ambient coordinates.
    """
    W = np.array(rows, dtype=float)
    p, k = W.shape
    d = 2 * p + zero_dims
    rng = np.random.default_rng(frame_seed)
    q_frame, _ = np.linalg.qr(rng.normal(size=(d, d)))
    g = groups.torus(k)

    def amb(el):
        th = np.arctan2(el[1::2, 0::2].diagonal(), el[0::2, 0::2].diagonal())
        out = np.eye(d)
        for i, ang in enumerate(W @ th):
            out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = _rot2(ang)
        return q_frame @ out @ q_frame.T

    def amb_lie(xi):
        coeffs = np.array([xi[2 * j + 1, 2 * j] for j in range(k)])
        out = np.zeros((d, d))
        for i, rate in enumerate(W @ coeffs):
            out[2 * i, 2 * i + 1] = -rate
            out[2 * i + 1, 2 * i] = rate
        return q_frame @ out @ q_frame.T

    return actions.ActionModel(
        name=f"planted-{frame_seed}",
        group=g,
        manifold=actions.euclidean(d),
        amb=amb,
        amb_lie=amb_lie,
        special_points=lambda rng_: np.zeros((0, d)),
    )


def origin_stabilizer(a: actions.ActionModel) -> isotropy.StabilizerData:
    """Stabilizer of the origin of a linear action: the whole group."""
    x0 = np.zeros(a.manifold.ambient_dim)
    inf = actions.infinitesimal_action(a, x0)
    k = a.group.lie_dim
    return isotropy.StabilizerData(
        point=x0,
        lie_kernel=np.eye(k),
        witnesses=np.eye(a.group.size)[None],
        subgroup=groups.classify_subgroup(a.group, np.eye(k), np.eye(a.group.size)[None]),
        orbit_dim=0,
        inf_action=inf,
    )

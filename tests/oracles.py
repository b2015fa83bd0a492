"""Independent reference implementations used to pin test expectations.

Everything here is deliberately slow and exact: rational Gaussian
elimination for rank and nullspace, a synthetic torus action with a
hidden orthogonal change of frame whose planted weight rows the pipeline
must recover, a one-element-at-a-time SO(3) identity-component test,
minors of integer matrices by exact determinants, and the isostabilizer
decomposition from whole distance matrices. None of it imports the
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


def full_distance_matrix(m, pts: np.ndarray) -> np.ndarray:
    """The whole (n, n) manifold distance matrix, in one shot.

    Euclidean models by a broadcast difference; projective models through
    one Gram product sqrt(2 - 2 |<u, v>|), as the decomposition computed it
    before its scans were blocked.
    """
    pts = np.asarray(pts, dtype=float)
    if m.kind == "real_projective":
        g = np.abs(pts @ pts.T)
    elif m.kind == "complex_projective":
        z = actions.to_complex(pts)
        g = np.abs(z @ z.conj().T)
    else:
        return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d = np.sqrt(np.clip(2.0 - 2.0 * np.clip(g, 0.0, 1.0), 0.0, None))
    np.fill_diagonal(d, 0.0)
    return d


def dense_components(dist: np.ndarray, threshold: float) -> list[list[int]]:
    """Components of {dist <= threshold} by BFS on the dense adjacency,
    sorted by smallest member."""
    adj = dist <= threshold
    adj |= adj.T
    seen = np.zeros(len(adj), dtype=bool)
    comps = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp, frontier = [start], [start]
        while frontier:
            nxt = np.flatnonzero(adj[frontier].any(axis=0) & ~seen)
            seen[nxt] = True
            comp.extend(nxt.tolist())
            frontier = nxt.tolist()
        comps.append(sorted(comp))
    return comps


def isostabilizer_reference(cloud) -> list[tuple[int, ...]]:
    """Blocks of the isostabilizer decomposition from full matrices.

    The algorithm before row blocking: one (n, n) distance matrix for the
    median nearest-neighbour scale, a (k, k) max-abs feature matrix per
    coarse fingerprint key, and an (n_f, n_f) matrix per fingerprint group.
    Lie kernels are orthonormal columns, so K K^T is the span projector.
    """
    tol, m = cloud.tol, cloud.model.manifold
    dist = full_distance_matrix(m, cloud.points)
    nn = (dist + np.diag(np.full(len(dist), np.inf))).min(axis=1)
    threshold = tol.cluster_eps_factor * float(np.median(nn))
    coarse: dict = {}
    for i, st in enumerate(cloud.stabs):
        key = (st.subgroup.display(), len(st.subgroup.traces), st.lie_kernel.shape[1])
        coarse.setdefault(key, []).append(i)
    blocks = []
    for idx in coarse.values():
        feats = np.stack(
            [
                np.concatenate(
                    [
                        np.asarray(cloud.stabs[i].subgroup.traces, dtype=float),
                        (cloud.stabs[i].lie_kernel @ cloud.stabs[i].lie_kernel.T).ravel(),
                    ]
                )
                for i in idx
            ]
        )
        fdist = np.abs(feats[:, None, :] - feats[None, :, :]).max(axis=2)
        for group in dense_components(fdist, tol.match_eps):
            members = [idx[p] for p in group]
            sub = full_distance_matrix(m, cloud.points[members])
            for comp in dense_components(sub, threshold):
                blocks.append(tuple(members[p] for p in comp))
    return sorted(blocks)

"""Independent reference implementations used to pin test expectations.

Most of it is deliberately slow and exact: rational Gaussian
elimination for rank and nullspace, a synthetic torus action with a
hidden orthogonal change of frame whose planted weight rows the pipeline
must recover, a one-element-at-a-time SO(3) identity-component test,
minors of integer matrices by exact determinants, the isostabilizer
decomposition from whole feature matrices with the fixed tangent dimension
read as a null space, the truth table of its pieces, the slice weight fit over
sampled group elements that preceded the exact read-off, and the
slice-vector stabilizer count that preceded the single congruence solve,
the pairwise scan behind the correspondence witnesses, the sort of each
finite stabilizer's witnesses that preceded the order sorted once per
group, the SO(3) Haar-and-Levenberg-Marquardt search that preceded the
closed-form stabilizers and transports, the exact-subgroup feature rows
built one stabilizer at a time, the tangent frame built one point at a time, the
finite slice representation read from one point's witness differentials,
the finite fixer test run one point at a time, a U(1) action on CP^2 whose
fixed set is a line and an isolated point, the orbit identification
loop that built every candidate key per point, the Klein partition built
from orbit roots, the pairwise conjugacy predicate that preceded the
conjugacy key, a partition check, the owner array of a list of blocks and
the aligned distance of two points. None of it imports the numeric routines
under test beyond the public model types, the torus action maps
(actions._torus_maps), the slice frame helpers, the
representative alignment the displacement test shares, and the subgroup
classifier, which classify_one calls on a stack of one.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

from orthofold import actions, groups, isotropy, kernels, numerics, quotient
from orthofold.errors import InputError
from orthofold.numerics import MATCH_EPS
from orthofold.seeding import rng_for


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


def classify_one(g, lie_kernel, witnesses) -> groups.SubgroupClass:
    """groups.classify_subgroups of one stabilizer: its (lie_dim, k) Lie
    kernel and its (m, n, n) witnesses, each made a stack of one."""
    return groups.classify_subgroups(g, np.asarray(lie_kernel)[None], np.asarray(witnesses)[None])[0]


def classes_conjugate_reference(a: groups.SubgroupClass, b: groups.SubgroupClass) -> bool:
    """The pairwise conjugacy predicate that preceded SubgroupClass.key.

    Labeled classes compare by label (and order for Zn). Other-vs-Other
    compares the Lie dimension and the trace multisets, whose lengths must
    agree and whose entries must match under np.allclose's bound; the
    component hint the predicate also read was a function of the label,
    the Lie dimension and the trace count.
    """
    if a.label != b.label:
        return False
    if a.label == "Zn":
        return a.order == b.order
    if a.label == "Other":
        if a.lie_dim != b.lie_dim or len(a.traces) != len(b.traces):
            return False
        return all(abs(x - y) <= MATCH_EPS + 1e-5 * abs(y) for x, y in zip(a.traces, b.traces))
    return a.lie_dim == b.lie_dim


def relative_rank(s) -> int:
    """The number of singular values s (descending) above RANK_EPS times the
    largest: the relative rank the package's projectors keep."""
    s = np.asarray(s)
    return int(np.count_nonzero(s > numerics.RANK_EPS * s[0])) if s.size else 0


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal basis of the column span (rank-revealing, via SVD), at
    the package's rank cut."""
    m = numerics.as_small_matrix(vectors)
    if m.shape[1] == 0 or not m.any():
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : relative_rank(s)].copy()


def act(a: actions.ActionModel, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The point g . x: the ambient image of x, renormalized."""
    return actions.normalize(a.manifold, a.amb(g) @ x)


def owner_of(blocks) -> np.ndarray:
    """The owner array of disjoint blocks covering 0..n-1: entry i is the
    block holding i."""
    owner = np.zeros(sum(len(b) for b in blocks), dtype=np.int64)
    for b, idx in enumerate(blocks):
        owner[list(idx)] = b
    return owner


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


def hidden_frame(d: int, frame_seed: int) -> np.ndarray:
    """The orthogonal frame that hides the planes of a planted action.

    Column 2i is the first axis of planted plane i, column 2i + 1 its
    second, and the last zero_dims columns span the fixed directions.
    """
    q_frame, _ = np.linalg.qr(np.random.default_rng(frame_seed).normal(size=(d, d)))
    return q_frame


def planted_torus_action(rows, zero_dims: int, frame_seed: int) -> actions.ActionModel:
    """Torus action on R^(2p+z) rotating p hidden planes at integer rates.

    The planes and the fixed directions are mixed by a random orthogonal
    frame, so nothing about the planted weight rows is visible in the
    ambient coordinates.
    """
    W = np.array(rows, dtype=float)
    p, k = W.shape
    d = 2 * p + zero_dims
    q_frame = hidden_frame(d, frame_seed)
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


def framed_split(a: actions.ActionModel, x: np.ndarray):
    """(frame, rank, kernel, slice) at the point x: its tangent frame and the
    svd_splits of its infinitesimal action, each a batch of one, split at
    the action's relative rank."""
    frames = actions.tangent_frames(a.manifold, x[None])
    inf = actions.infinitesimal_actions(a, x[None], frames)
    rank = relative_rank(np.linalg.svd(inf[0], compute_uv=False))
    _, lie_kernels, slices = numerics.svd_splits(inf, [rank])
    return frames[0], rank, lie_kernels[0], slices[0]


def origin_stabilizer(a: actions.ActionModel) -> isotropy.StabilizerData:
    """Stabilizer of the origin of a linear action: the whole group."""
    x0 = np.zeros(a.manifold.ambient_dim)
    frame, _, _, slice_basis = framed_split(a, x0)
    k = a.group.lie_dim
    return isotropy.StabilizerData(
        point=x0,
        lie_kernel=np.eye(k),
        witnesses=np.eye(a.group.size)[None],
        witness_ambs=a.amb_batch(np.eye(a.group.size)[None]),
        subgroup=classify_one(a.group, np.eye(k), np.eye(a.group.size)[None]),
        orbit_dim=0,
        frame=frame,
        slice_basis=slice_basis,
    )


def planted_point_rep(a: actions.ActionModel, x: np.ndarray, kernel, witness_angles):
    """Slice representation at x of a planted action, with the ambient frame
    of its normal slice.

    kernel holds the Lie kernel columns and witness_angles the torus angles
    of the non-identity component witnesses; the caller vouches that both
    describe the stabilizer of x.
    """
    kernel = np.asarray(kernel, dtype=float)
    angles = np.zeros((1 + len(witness_angles), a.group.lie_dim))
    angles[1:] = witness_angles
    wits = groups.exp_coeffs_batch(a.group, angles)
    frame, _, _, slice_basis = framed_split(a, x)
    st = isotropy.StabilizerData(
        point=x,
        lie_kernel=kernel,
        witnesses=wits,
        witness_ambs=a.amb_batch(wits),
        subgroup=classify_one(a.group, kernel, wits),
        orbit_dim=a.group.lie_dim - kernel.shape[1],
        frame=frame,
        slice_basis=slice_basis,
    )
    return isotropy.slice_representations(a, [st])[0], frame @ st.slice_basis


def check_partition(blocks, n: int) -> None:
    """Raise InputError unless the blocks cover 0..n-1, each index once."""
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(n)):
        raise InputError("blocks do not partition the index set")


def distance(m, x: np.ndarray, y: np.ndarray) -> float:
    """Manifold distance, the representatives aligned before differencing.

    y is turned by the sign (RP^n) or unit phase (CP^n) that brings it
    nearest to x, as in the fixer test; the difference is then taken
    coordinate-wise, so gaps far below sqrt(machine epsilon) are resolved.
    """
    x, y = (np.ascontiguousarray(v, dtype=np.float64) for v in (x, y))
    return float(np.linalg.norm(aligned_residual(m, y[None], x)))


class CountingNumpy:
    """numpy, but with the shape of every array handed to np.nonzero
    recorded in shapes: monkeypatched over the numpy of numerics, it
    records each block that the epsilon-join tests against eps."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def nonzero(self, a):
        self.shapes.append(a.shape)
        return np.nonzero(a)


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


def lifted_reference(m, amb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One stabilizing ambient matrix times the unit factor c that brings
    its image of x back onto x as a vector: the sign of <x, amb x> on RP^n,
    the conjugate phase of <x, amb x>_C on CP^n, and 1 elsewhere."""
    if m.kind == "real_projective":
        return np.sign(x @ amb @ x) * amb
    if m.kind == "complex_projective":
        lam = np.vdot(actions.to_complex(x), actions.to_complex(amb @ x))
        c = np.conj(lam) / abs(lam)
        return c.real * amb + c.imag * (actions.ambient_complex_structure(m) @ amb)
    return amb


def exact_features_reference(cloud, idx) -> np.ndarray:
    """The exact-subgroup feature rows of the points idx, one stabilizer at
    a time: the Lie span projector when the span is positive-dimensional,
    else the mean of the lifted witness matrices."""
    rows = []
    for i in idx:
        st = cloud.stabs[i]
        if st.lie_kernel.shape[1]:
            q = orthonormalize(st.lie_kernel)
            rows.append((q @ q.T).ravel())
        else:
            lifted = [lifted_reference(cloud.model.manifold, w, st.point) for w in st.witness_ambs]
            rows.append(np.mean(lifted, axis=0).ravel())
    return np.stack(rows)


def fixed_tangent_dim_reference(a, st) -> int:
    """dim (T_x M)^H from the tangent action itself: the null space of the
    witnesses' lifted differentials minus the identity, stacked on the Lie
    generators' tangent matrices (on CP^n less their vertical drift), read
    in the point's frame. The singular values either vanish to rounding or
    are of unit scale."""
    x, frame = st.point, st.frame
    m = a.manifold
    rows = [frame.T @ lifted_reference(m, w, x) @ frame - np.eye(frame.shape[1])
            for w in st.witness_ambs]
    for j in range(st.lie_kernel.shape[1]):
        gen = a.amb_lie(np.einsum("i,ijk->jk", st.lie_kernel[:, j], a.group.lie))
        if m.kind == "complex_projective":
            jamb = actions.ambient_complex_structure(m)
            gen = gen - float((gen @ x) @ (jamb @ x)) * jamb
        rows.append(frame.T @ gen @ frame)
    sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
    return frame.shape[1] - int(np.count_nonzero(sv > 1e-6))


def isostabilizer_reference(cloud) -> list[tuple[int, ...]]:
    """Blocks of the isostabilizer decomposition from whole matrices.

    Points are grouped by coarse key, then by the components of the whole
    (k, k) max-abs matrix of their exact feature rows at MATCH_EPS. Each
    point of a group reads its fixed tangent dimension, by the null-space
    reading: a point with none is a piece of its own, and the others form
    one piece per dimension.
    """
    coarse: dict = {}
    for i, st in enumerate(cloud.stabs):
        key = (st.subgroup.display(), len(st.subgroup.traces), st.lie_kernel.shape[1])
        coarse.setdefault(key, []).append(i)
    blocks = []
    for idx in coarse.values():
        feats = exact_features_reference(cloud, idx)
        fdist = np.abs(feats[:, None, :] - feats[None, :, :]).max(axis=2)
        for group in dense_components(fdist, MATCH_EPS):
            by_dim: dict = {}
            for i in (idx[p] for p in group):
                d = fixed_tangent_dim_reference(cloud.model, cloud.stabs[i])
                if d == 0:
                    blocks.append((i,))
                else:
                    by_dim.setdefault(d, []).append(i)
            blocks.extend(tuple(members) for members in by_dim.values())
    return sorted(blocks)


def torus_action(name: str, pairs, manifold, specials, params=None) -> actions.ActionModel:
    """The torus-kind action of the given ambient pairs (actions._torus_maps):
    U(1) when the weight rows have one entry, T^r for r entries. The name
    keys every random stream, so actions of one name, manifold and specials
    sample the same cloud."""
    pairs = tuple((tuple(c), tuple(int(t) for t in w)) for c, w in pairs)
    r = len(pairs[0][1])
    amb, amb_lie = actions._torus_maps(manifold.ambient_dim, pairs)
    return actions.ActionModel(
        name=name,
        group=groups.u1() if r == 1 else groups.torus(r),
        manifold=manifold,
        amb=amb,
        amb_lie=amb_lie,
        special_points=specials,
        ambient_pairs=pairs,
        params=dict(params or {}),
    )


def line_and_point_action(point_first: bool) -> actions.ActionModel:
    """U(1) on CP^2 by [z0 : z1 : e^(it) z2]. The whole circle fixes the
    line z2 = 0 and the point [0 : 0 : 1], so its M_H has a component of
    dimension 2 and an isolated point. The specials are 8 points of the line
    and that point, the point first or last; the name, and so every random
    stream, is the same in both orders."""

    def specials(rng):
        line = np.zeros((8, 6))
        line[:, :4] = rng.normal(size=(8, 4))
        point = np.zeros((1, 6))
        point[0, 4] = 1.0
        return np.concatenate([point, line] if point_first else [line, point])

    pairs = (((0, 1), (0,)), ((2, 3), (0,)), ((4, 5), (1,)))
    return torus_action("cp2-line-point", pairs, actions.complex_projective(2), specials)


def delzant_action() -> actions.ActionModel:
    """T^2 on CP^2 by [z0 : e^(is) z1 : e^(it) z2], the toric action whose
    moment image is the Delzant triangle. T^2 fixes the 3 coordinate points,
    the circle of weight (1, 1), (0, 1) or (1, 0) fixes the edge z0 = 0,
    z1 = 0 or z2 = 0, and the rest is free: 7 isostabilizer pieces, and 5
    orbit types, since the three circles are not conjugate in T^2. The
    specials are the 3 fixed points and 8 points of each edge."""

    def specials(rng):
        edges = rng.normal(size=(3, 8, 6))
        for e in range(3):
            edges[e, :, 2 * e : 2 * e + 2] = 0.0
        return np.concatenate([np.eye(6)[0::2], edges.reshape(24, 6)])

    pairs = (((0, 1), (0, 0)), ((2, 3), (1, 0)), ((4, 5), (0, 1)))
    return torus_action("cp2-t2-delzant", pairs, actions.complex_projective(2), specials)


def iso_pieces(name: str, cloud) -> dict:
    """The truth table: isostabilizer pieces per class display of the
    catalog actions and the s2-zn and cn-tn families.

    - s2xs2-so3: the trivial set is connected; SO(2)_u fixes (u, u) and
      (u, -u), a discrete M_H, so each of the 12 circle specials is a piece;
    - rp2-so2: the trivial set, the half-turn circle z = 0 and the pole;
    - cp2-so3: each generic Zn(2) point has its own half-turn axis, and so
      have the 16 real specials (O2) and the 16 null-quadric specials (SO2);
    - cp2-u1: the trivial set, the C* of z1 = 0, and the 3 fixed points,
      which share H = U(1) and are isolated;
    - s2-zn(n): the trivial set and the two poles, which share H = Zn(n);
    - cn-tn(n): one piece per zero pattern; z zero coordinates give the
      class Trivial (z = 0), U1 (z = 1), FullGroup (z = n) or Other;
    - cp2-line-point (line_and_point_action): the trivial set, the fixed
      line and the isolated fixed point, which share H = U(1).
    """
    if name == "s2xs2-so3":
        return {"Trivial": 1, "SO2": 12}
    if name == "rp2-so2":
        return {"Trivial": 1, "Zn(2)": 1, "SO2": 1}
    if name == "cp2-so3":
        generic = sum(st.subgroup.display() == "Zn(2)" for st in cloud.stabs)
        return {"Zn(2)": generic, "O2": 16, "SO2": 16}
    if name == "cp2-u1":
        return {"Trivial": 1, "Zn(2)": 1, "U1": 3}
    if name == "cp2-line-point":
        return {"Trivial": 1, "U1": 2}
    family, n = name[:-1].split("(")
    n = int(n)
    if family == "s2-zn":
        return {"Trivial": 1, f"Zn({n})": 2}
    assert family == "cn-tn"
    out: dict = {}
    for pattern in range(2**n):
        z = bin(pattern).count("1")
        label = {0: "Trivial", 1: "U1", n: "FullGroup"}.get(z, "Other")
        out[label] = out.get(label, 0) + 1
    return out


def iso_piece_counts(iso) -> dict:
    """Pieces per class display of an isostabilizer partition."""
    out: dict = {}
    for lab in iso.block_labels:
        out[lab["subgroup"].display()] = out.get(lab["subgroup"].display(), 0) + 1
    return out


def weight_rows_reference(a, stab, seed: int = 0):
    """Weights (rows, zero_dims, signed) by a least-squares fit of sampled angles.

    The identity component is sampled at an anchor and 2k + 4 random Lie
    parameters; the eigenvectors of the anchor's slice matrix (projected to
    the +i eigenspace of the slice complex structure when the anchor commutes
    with it) give one phase per sample, and the weights are the integer
    least-squares fit of those phases. Unsigned rows lead positive.
    """
    coords = stab.slice_basis
    js = isotropy._slice_complex_structure(a, stab)
    k = stab.lie_kernel.shape[1]
    sdim = coords.shape[1]
    rng = rng_for(seed, a.name, "weight-fit")
    scale = 0.12 / np.sqrt(k)
    anchor = 0.0831 * np.array([1.0 / (1.0 + 0.7 * j) for j in range(k)])
    S = np.vstack([anchor, rng.uniform(-scale, scale, size=(2 * k + 4, k))])
    els = groups.exp_coeffs_batch(a.group, S @ stab.lie_kernel.T)
    R = coords.T @ actions.differentials(a, a.amb_batch(els), stab.point, stab.frame) @ coords
    rstar = R[0]
    signed = js is not None and np.abs(rstar @ js - js @ rstar).max() <= 1e-6
    vals, vecs = np.linalg.eig(rstar)
    sel = []
    used = np.zeros(vals.size, dtype=bool)
    proj = 0.5 * (np.eye(sdim) - 1j * js) if signed else None
    for i in range(vals.size):
        if used[i]:
            continue
        cluster = np.abs(np.angle(vals * np.conj(vals[i]))) <= 1e-7
        used |= cluster
        V = vecs[:, cluster]
        if signed:
            u, sv, _ = np.linalg.svd(proj @ V, full_matrices=False)
            sel.extend(u[:, sv > 0.5].T)
        elif abs(np.angle(vals[i])) > 1e-7 and np.angle(vals[i]) > 0.0:
            u, sv, _ = np.linalg.svd(V, full_matrices=False)
            sel.extend(u[:, sv > 0.5].T)
    rows = []
    for v in sel:
        amp = np.einsum("i,mij,j->m", np.conj(v), R, v)
        assert np.abs(np.abs(amp) - 1.0).max() <= 1e-6
        theta = np.angle(amp)
        w, *_ = np.linalg.lstsq(S, theta, rcond=None)
        wi = np.rint(w)
        assert np.abs(w - wi).max() <= 1e-4
        assert np.abs(S @ wi - theta).max() <= 1e-6
        row = tuple(int(t) for t in wi)
        if any(row):
            if not signed and next(t for t in row if t) < 0:
                row = tuple(-t for t in row)
            rows.append(row)
    return tuple(sorted(rows)), sdim - 2 * len(rows), signed


_GENERIC_MIX = np.array(
    [1.0, 1.6180339887, 2.2360679775, 2.7182818285,
     3.1415926536, 3.6055512755, 4.1231056256, 4.5825756950]
)


def weight_planes_reference(mats: np.ndarray, weights: tuple):
    """Rotation planes of the slice generators, with rates rescaled to the weights.

    Eigenspaces of B B for the generic mix B are split into planes (u, B u),
    oriented by B; each plane's rates under the generators are divided by
    the ratio of the largest rate to the largest weight-row norm and
    rounded. Returns (planes, rows, zero_basis), the identity basis when
    there are no weights.
    """
    k, s = mats.shape[0], mats.shape[1]
    if k == 0 or not weights:
        return [], [], np.eye(s)
    B = np.einsum("j,jab->ab", _GENERIC_MIX[:k], mats)
    evals, evecs = np.linalg.eigh(B @ B)
    scale = max(float(-evals.min()), 1.0)
    zero = np.abs(evals) <= 1e-9 * scale
    planes = []
    idx = np.where(~zero)[0]
    pos = 0
    while pos < idx.size:
        end = pos
        while end < idx.size and abs(evals[idx[end]] - evals[idx[pos]]) <= 1e-6 * scale:
            end += 1
        basis = evecs[:, idx[pos:end]]
        while basis.shape[1]:
            u1 = basis[:, 0]
            u2 = B @ u1
            u2 = u2 - (u2 @ u1) * u1
            plane = np.stack([u1, u2 / np.linalg.norm(u2)], axis=1)
            planes.append(plane)
            q, r = np.linalg.qr(basis - plane @ (plane.T @ basis))
            basis = q[:, np.abs(np.diag(r)) > 1e-8]
        pos = end
    assert len(planes) == len(weights)
    rates = np.array([[p[:, 1] @ (mats[j] @ p[:, 0]) for j in range(k)] for p in planes])
    wmax = max(np.linalg.norm(np.asarray(r, dtype=float)) for r in weights)
    rows_f = rates / (np.abs(rates).max() / wmax)
    rows = np.rint(rows_f)
    assert np.abs(rows - rows_f).max() <= 0.05
    return planes, [tuple(int(t) for t in row) for row in rows], evecs[:, zero]


def slice_stab_profile_reference(a, rep, weights: tuple, seed: int = 0):
    """The slice stabilizer profile with the reference planes swapped in."""
    planes, rows, zero_basis = weight_planes_reference(rep.lie_mats, weights)
    s = rep.slice_dim
    old = replace(
        rep,
        planes=np.stack(planes) if planes else np.zeros((0, s, 2)),
        weights=tuple(rows),
        fixed=zero_basis,
    )
    return quotient._slice_stab_profiles(a, [old], seed)[0]


def correspondence_reference(iso, klein):
    """The correspondence report from a scan of every pair of iso blocks.

    iso and klein are PartitionOfM; only the Klein blocks are read.

    The merge witnesses compare every pair of blocks inside each Klein
    block and keep the first pair per display tag; the split witnesses
    group the blocks one at a time by conjugacy with each group's first
    class.
    """
    owner = {}
    for kid, b in enumerate(klein.blocks):
        for i in b:
            owner[i] = kid
    mapping = []
    for bid, b in enumerate(iso.blocks):
        kids = sorted({owner[i] for i in b})
        assert len(kids) == 1
        mapping.append(kids[0])
    hit = set(mapping)
    by_kid: dict = {}
    for bid, kid in enumerate(mapping):
        by_kid.setdefault(kid, []).append(bid)
    merge = []
    seen_pairs = set()
    for kid in sorted(by_kid):
        ids = by_kid[kid]
        for p in range(len(ids)):
            for q in range(p + 1, len(ids)):
                ci = iso.block_labels[ids[p]]["subgroup"]
                cj = iso.block_labels[ids[q]]["subgroup"]
                if classes_conjugate_reference(ci, cj):
                    continue
                tag = (ci.display(), cj.display(), kid)
                if tag in seen_pairs:
                    continue
                seen_pairs.add(tag)
                merge.append(((ids[p], ids[q]), kid))
    class_groups: list = []
    for bid in range(len(iso.blocks)):
        cls = iso.block_labels[bid]["subgroup"]
        for grp in class_groups:
            if classes_conjugate_reference(cls, grp["cls"]):
                grp["ids"].append(bid)
                break
        else:
            class_groups.append({"cls": cls, "ids": [bid]})
    split = []
    for grp in class_groups:
        kids = sorted({mapping[bid] for bid in grp["ids"]})
        if len(kids) > 1:
            split.append((grp["cls"].display(), tuple(kids)))
    return quotient.CorrespondenceReport(
        mapping=tuple(mapping),
        surjective=hit == set(range(len(klein.blocks))),
        injective=len(hit) == len(mapping),
        merge_witnesses=tuple(merge),
        split_witnesses=tuple(split),
    )


# the slice-vector stabilizer count before the single congruence solve: a
# float angle loop for rank one, a Smith form of the active rows alone for
# higher ranks, and a fixer count for finite groups
_ANGLE_EPS = 1e-4


def _angle_close(x: float, y: float, eps: float = _ANGLE_EPS) -> bool:
    d = (x - y) % (2.0 * np.pi)
    return d <= eps or d >= 2.0 * np.pi - eps


def coset_solutions_reference(rep, w, v) -> int:
    """Angles th with exp(th A) w v = v, counted over one circle period.

    Congruence arithmetic on per-plane alignment angles; rank-one identity
    components only.
    """
    eps = quotient._FIX_EPS
    u = w @ v
    scale = max(float(np.linalg.norm(v)), 1.0)
    if rep.fixed.shape[1]:
        if np.linalg.norm(rep.fixed.T @ (u - v)) > eps * scale:
            return 0
    cons = []
    for plane, row in zip(rep.planes, rep.weights):
        cv = plane.T @ v
        cu = plane.T @ u
        nv = float(np.linalg.norm(cv))
        nu = float(np.linalg.norm(cu))
        if nv <= 1e-6 * scale and nu <= 1e-6 * scale:
            continue
        if abs(nv - nu) > eps * scale:
            return 0
        w_int = row[0]
        alpha = float(np.arctan2(cv[1], cv[0]) - np.arctan2(cu[1], cu[0]))
        cons.append((abs(w_int), alpha if w_int > 0 else -alpha))
    if not cons:
        return 1 if np.linalg.norm(u - v) <= eps * scale else 0
    w0, a0 = cons[0]
    count = 0
    for j in range(w0):
        th = (a0 + 2.0 * np.pi * j) / w0
        if all(_angle_close(wi * th, ai) for wi, ai in cons[1:]):
            count += 1
    return count


def finite_fix_count_reference(mats: np.ndarray, v: np.ndarray) -> int:
    scale = max(float(np.linalg.norm(v)), 1.0)
    return int(sum(1 for w in mats if np.linalg.norm(w @ v - v) <= quotient._FIX_EPS * scale))


def sample_label_reference(rep, v, circle_label) -> str:
    """Stabilizer label of one nonzero slice vector under the slice action.

    At rank two and up, only the identity component is counted when some
    plane is active.
    """
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    k = rep.lie_mats.shape[0]
    if k == 0:
        q = finite_fix_count_reference(rep.witness_mats, v)
        return "Trivial" if q == 1 else f"Zn({q})"
    active = [
        row
        for plane, row in zip(rep.planes, rep.weights)
        if np.linalg.norm(plane.T @ v) > 1e-6
    ]
    if not active:
        # the identity component fixes v; only the other components matter
        extra = finite_fix_count_reference(rep.witness_mats[1:], v)
        if extra == rep.witness_mats.shape[0] - 1:
            return rep.stab_label
        if k == 1:
            return "O2" if extra else circle_label
        return f"Torus({k})"
    if k == 1:
        count = coset_solutions_reference(rep, np.eye(v.size), v)
        for w in rep.witness_mats[1:]:
            count += coset_solutions_reference(rep, w, v)
        return "Trivial" if count == 1 else f"Zn({count})"
    _, diag, _ = groups.smith_form(np.array(active, dtype=np.int64))
    diag = diag[diag != 0]
    k_v = k - len(diag)
    comps = int(np.prod(diag))
    if k_v == 0:
        return "Trivial" if comps == 1 else f"Zn({comps})"
    if comps > 1:
        return f"Other({k_v},{comps})"
    return circle_label if k_v == 1 else f"Torus({k_v})"


# ---------------------------------------------------------------------------
# the SO(3) search that preceded the closed-form solve
# ---------------------------------------------------------------------------
#
# Haar candidates are scored cheaply, the best are refined by a batched
# Levenberg-Marquardt (LM) iteration onto the fixer set, and the accepted
# fixers are reduced to one witness per stabilizer component. Kept as the
# reference the exact path in isotropy is compared with.

# candidates scored per point, of which the best POOL_SIZE are refined
COARSE_POOL = 16384
POOL_SIZE = 512
# candidates refined per transport
TRANSPORT_POOL = 64
# identity-component membership cut of the witness dedup: on |q zeta - zeta|
# for a circle stabilizer and on max |q - 1| for a finite one
COMPONENT_EPS = 1e-5


def witness_order_reference(keep: np.ndarray) -> list[int]:
    """Order of a finite stabilizer's witnesses, sorted on their own: the
    identity first (np.allclose), then by the bytes of each matrix rounded
    to 1e-8, ties in the given order."""
    eye = np.eye(keep.shape[1])
    key = [(not np.allclose(w, eye), np.round(w, 8).tobytes(), i) for i, w in enumerate(keep)]
    return [i for *_, i in sorted(key)]


def witness_pool(a: actions.ActionModel, seed: int) -> np.ndarray:
    """Haar candidate pool shared by every search on one SO(3) action and seed."""
    return groups.sample_elements(a.group, COARSE_POOL, rng_for(seed, a.name, "witness-pool"))


def tx_tensor(a: actions.ActionModel, x: np.ndarray) -> np.ndarray:
    """The (N, 3, 3) tensor with (amb(g) x)[p] = sum_jk TX[p, j, k] g[j, k].

    amb is linear, so TX is amb on the nine unit matrices applied to x.
    """
    units = np.eye(9).reshape(9, 3, 3)
    return np.stack([a.amb(e) @ x for e in units], axis=1).reshape(-1, 3, 3)


def batch_apply_tx(TX: np.ndarray, G: np.ndarray) -> np.ndarray:
    return G.reshape(G.shape[0], 9) @ TX.reshape(TX.shape[0], 9).T


def aligned_residual(m, Y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rows of Y aligned onto x, minus x."""
    return actions.align(m, Y, x)[2] - x


def phase_inner(Y: np.ndarray, x: np.ndarray):
    """Real and imaginary parts of <y, x> per row, interleaved layout."""
    inner = Y.view(np.complex128) @ x.view(np.complex128).conj()  # conj(<y, x>)
    return inner.real, -inner.imag


def phase_magnitude(m, Y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """|<y, x>| per row on CP^n, the divisor of the phase factor's derivative:
    1 where it falls below the 1e-12 at which actions.align keeps the factor
    1, and 1 on every other model."""
    if m.kind != "complex_projective":
        return np.ones(Y.shape[:-1])
    mag = np.hypot(*phase_inner(Y, x))
    return np.where(mag < 1e-12, 1.0, mag)


def batch_jacobian_columns(dY, Y_aligned, x, fa, fb, mag, m):
    """Column of the aligned-residual Jacobian for one parameter direction.

    The aligned residual is lambda(g) y(g) - x; for phase alignment the
    factor moves with g and contributes i lambda y Im(conj(lambda) <dy, x>)
    divided by |<y, x>|. Sign alignment is locally constant, so only the
    frozen factor applies there. The factors broadcast against the leading
    axes of dY, so one call can fill several directions.
    """
    if m.kind != "complex_projective":
        return fa[..., None] * dY
    colc = (fa + 1j * fb)[..., None] * dY.view(np.complex128)
    re, im = phase_inner(dY, x)
    coef = (fa * im - fb * re) / mag
    colc += (1j * coef)[..., None] * Y_aligned.view(np.complex128)
    return colc.view(np.float64)


def so3_refine(TX: np.ndarray, x: np.ndarray, G0: np.ndarray, m, max_iter: int = 30):
    """Refine rotation candidates toward elements carrying x's tensor onto x.

    Minimizes |align(A(g) x0) - x|^2 over g in SO(3) from every row of G0 at
    once, with (A(g) x0)[p] = sum_jk TX[p, j, k] g[j, k], aligned as on the
    manifold m. Returns (refined candidates, squared aligned residuals).
    """
    TX = np.ascontiguousarray(TX, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    G0 = np.ascontiguousarray(G0, dtype=np.float64)
    n = x.size
    # image and the three Jacobian directions in one GEMM per iteration:
    # A(L_i g) x = sum_jk (L_i^T TX[p])[j, k] g[j, k]
    LT = kernels.SO3_GENERATORS.transpose(0, 2, 1)
    stacked = np.concatenate([TX[None], LT[:, None] @ TX[None]])
    ops = stacked.reshape(4 * n, 9).T
    G = G0.copy()
    B = G.shape[0]
    R = aligned_residual(m, batch_apply_tx(TX, G), x)
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
        fa, fb, Yal = actions.align(m, Ya, x)
        mag = phase_magnitude(m, Ya, x)
        J = batch_jacobian_columns(
            Z[:, 1:], Yal[:, None], x, fa[:, None], fb[:, None], mag[:, None], m
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
            Gt = kernels.rodrigues_batch(delta) @ G[idx[todo]]
            Rt = aligned_residual(m, batch_apply_tx(TX, Gt), x)
            d2t = np.einsum("bp,bp->b", Rt, Rt)
            sub = np.nonzero(todo)[0]
            better = d2t < d2[idx[todo]]
            acc = sub[better]
            G[idx[acc]] = Gt[better]
            R[idx[acc]] = Rt[better]
            d2[idx[acc]] = d2t[better]
            mua[acc] = np.maximum(mua[acc] * 0.3, 1e-12)
            improved[acc] = True
            mua[sub[~better]] *= 10.0
        mu[idx] = mua
        fails[idx[~improved]] += 1
        fails[idx[improved]] = 0
        active[idx[fails[idx] >= 2]] = False
    return G, d2


def identity_component_mask(g, Q: np.ndarray, kernel_coeffs: np.ndarray) -> np.ndarray:
    """Which of the elements Q (B, size, size) lie on exp(span kernel_coeffs).

    kernel_coeffs has shape (lie_dim, k); k = 0 reduces to an identity test.
    For so3 with a one-dimensional kernel spanned by zeta, exp(span zeta) is
    the set of rotations fixing zeta, so membership is |q zeta - zeta| small,
    which stays well conditioned for every rotation angle, pi included.
    """
    Q = np.asarray(Q, dtype=np.float64)
    k = kernel_coeffs.shape[1] if kernel_coeffs.ndim == 2 else 0
    if k == 0:
        return np.abs(Q - np.eye(g.size)).max(axis=(1, 2)) <= COMPONENT_EPS
    if g.kind != "so3":
        raise InputError(f"identity-component membership unsupported for kind {g.kind!r}")
    if k >= 3:
        return np.ones(Q.shape[0], dtype=bool)
    zeta = kernel_coeffs[:, 0] / np.linalg.norm(kernel_coeffs[:, 0])
    return np.linalg.norm(Q @ zeta - zeta, axis=1) <= COMPONENT_EPS


def coarse_top(d2: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries, ordered by value."""
    if d2.shape[0] <= k:
        return np.argsort(d2, kind="stable")
    part = np.argpartition(d2, k)[:k]
    return part[np.argsort(d2[part], kind="stable")]


def visit_order(accepted: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Indices of the candidates the witness dedup visits, in visit order.

    Candidates sort by residual, ties broken by the raw bytes of the matrix
    rounded to 1e-8; converged duplicates, equal on a 1e-5 grid, then
    collapse to their first visit.
    """
    _, byte_rank = np.unique(isotropy._byte_rows(np.round(accepted, 8)), return_inverse=True)
    order = np.lexsort((byte_rank, d2))
    _, first = np.unique(isotropy._byte_rows(np.round(accepted[order], 5)), return_index=True)
    return order[np.sort(first)]


def dedup_witnesses(g, accepted, d2, lie_kernel):
    """One representative per component, identity first, sharpest fixer first.

    A candidate q belongs to the class of rep when rep.T @ q lies in the
    identity component.
    """
    classes = [np.eye(g.size)]
    if lie_kernel.shape[1] == g.lie_dim:
        return np.stack(classes)
    if accepted.shape[0]:
        cands = accepted[visit_order(accepted, d2)]
        covered = identity_component_mask(g, cands, lie_kernel)
        for j in range(cands.shape[0]):
            if covered[j]:
                continue
            rep = cands[j]
            classes.append(rep)
            covered[j + 1 :] |= identity_component_mask(g, rep.T @ cands[j + 1 :], lie_kernel)
    return np.stack(classes)


def stabilizer_reference(a, x, pool: np.ndarray) -> isotropy.StabilizerData:
    """The SO(3) stabilizer by search: refine the best POOL_SIZE of the pool
    (and the identity), keep fixers within ACCEPT_D2, dedup, polish."""
    m = a.manifold
    x = actions.normalize(m, np.asarray(x, dtype=float))
    g = a.group
    frame, odim, lie_kernel, slice_basis = framed_split(a, x)
    tx = tx_tensor(a, x)
    coarse = aligned_residual(m, batch_apply_tx(tx, pool), x)
    best = coarse_top(np.einsum("bi,bi->b", coarse, coarse), POOL_SIZE)
    cands = np.concatenate([np.eye(3)[None], pool[best]])
    refined, d2 = so3_refine(tx, x, cands, m)
    mask = d2 <= isotropy.ACCEPT_D2
    wits = dedup_witnesses(g, refined[mask], d2[mask], lie_kernel)
    if wits.shape[0] > 1:
        polished, _ = so3_refine(tx, x, wits[1:], m, max_iter=60)
        wits = np.concatenate([wits[:1], polished])
    return isotropy.StabilizerData(
        point=x,
        lie_kernel=lie_kernel,
        witnesses=wits,
        witness_ambs=a.amb_batch(wits),
        subgroup=classify_one(g, lie_kernel, wits),
        orbit_dim=odim,
        frame=frame,
        slice_basis=slice_basis,
    )


def transport_reference(a, x, y, pool: np.ndarray):
    """An SO(3) element carrying x onto y by search, or None when the
    TRANSPORT_POOL best candidates all refine to above isotropy.TRANSPORT_D2."""
    m = a.manifold
    x = actions.normalize(m, np.asarray(x, dtype=float))
    y = actions.normalize(m, np.asarray(y, dtype=float))
    tx = tx_tensor(a, x)
    coarse = aligned_residual(m, batch_apply_tx(tx, pool), y)
    best = coarse_top(np.einsum("bi,bi->b", coarse, coarse), TRANSPORT_POOL)
    refined, d2 = so3_refine(tx, y, pool[best], m, max_iter=60)
    i = int(np.argmin(d2))
    return refined[i].copy() if float(d2[i]) <= isotropy.TRANSPORT_D2 else None


def _householder_frame_reference(x: np.ndarray) -> np.ndarray:
    n = x.size
    s = 1.0 if x[0] >= 0.0 else -1.0
    u = x.copy()
    u[0] += s
    return np.eye(n)[:, 1:] - 2.0 * np.outer(u, u[1:]) / float(u @ u)


def _complex_householder_frame_reference(z: np.ndarray) -> np.ndarray:
    n = z.size
    s = z[0] / abs(z[0]) if abs(z[0]) > 1e-12 else 1.0 + 0.0j
    u = z.copy()
    u[0] += s
    h = np.eye(n, dtype=complex) - 2.0 * np.outer(u, u.conj()) / complex(u.conj() @ u)
    return h[:, 1:]


def tangent_frame_reference(m, x: np.ndarray) -> np.ndarray:
    """The horizontal tangent frame of one valid representative, built
    alone: Householder reflections of x (of each sphere factor on products,
    of the complex vector on CP^n, realified with J-pairs adjacent)."""
    if m.kind == "euclidean":
        return np.eye(m.ambient_dim)
    if m.kind in ("sphere", "real_projective"):
        return _householder_frame_reference(x)
    if m.kind == "product_spheres":
        d1 = m.factors[0]
        f1 = _householder_frame_reference(x[:d1])
        f2 = _householder_frame_reference(x[d1:])
        out = np.zeros((m.ambient_dim, m.intrinsic_dim))
        out[:d1, : f1.shape[1]] = f1
        out[d1:, f1.shape[1] :] = f2
        return out
    fz = _complex_householder_frame_reference(actions.to_complex(x)).T
    pairs = actions.from_complex(np.stack([fz, 1j * fz], axis=1)).reshape(-1, m.ambient_dim)
    return np.ascontiguousarray(pairs.T)


def finite_slice_rep_reference(a, st: isotropy.StabilizerData) -> isotropy.SliceRep:
    """The slice representation of a stabilizer without Lie kernel, read
    from the differentials of its own witnesses at its own point: their
    slice matrices and rounded traces."""
    assert st.lie_kernel.shape[1] == 0
    diffs = actions.differentials(a, st.witness_ambs, st.point, st.frame)
    C = st.slice_basis
    wmats = C.T @ diffs @ C
    sdim = C.shape[1]
    traces = np.trace(wmats, axis1=1, axis2=2).tolist()
    return isotropy.SliceRep(
        stab_label=st.subgroup.label,
        slice_dim=sdim,
        rep_kind="finite_characters",
        weights=(),
        zero_dims=sdim,
        planes=np.zeros((0, sdim, 2)),
        fixed=np.eye(sdim),
        characters=tuple(sorted(round(t, 9) + 0.0 for t in traces)),
        witness_mats=wmats,
        lie_mats=np.zeros((0, sdim, sdim)),
    )


def fixer_d2_reference(a, x: np.ndarray) -> np.ndarray:
    """Squared displacement of the representative x under each element of a
    finite group, by the per-point fixer test that preceded the batched
    isotropy.fixer_masks: one matrix-vector product with the element stack
    flattened to (|G| * N, N), the images aligned onto x."""
    n = x.shape[0]
    Y = (a.element_ambs.reshape(-1, n) @ x).reshape(-1, n)
    res = actions.align(a.manifold, Y, x)[2] - x
    return np.einsum("bi,bi->b", res, res)


def identify_orbits_reference(cloud, transport) -> tuple:
    """quotient.identify_orbits as it was before its candidate keys were
    shared between equal (rep, class) pairs: every key built per point from
    numpy-scalar invariants, and every candidate group sorted and scanned.
    transport(i, j) returns an element carrying point i onto point j, or
    None."""
    n = len(cloud)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    inv_raw = quotient._orbit_invariants(cloud.model, cloud.points)
    inv = np.round(inv_raw, 6)
    candidates: dict = {}
    for i in range(n):
        rep = cloud.reps[i]
        key = (
            cloud.stabs[i].subgroup.display(),
            int(cloud.orbit_dims[i]),
            isotropy.canonical_weight_rows(rep.weights),
            rep.zero_dims,
            rep.characters,
            tuple(inv[i]),
        )
        candidates.setdefault(key, []).append(i)
    for key in sorted(candidates):
        idx = candidates[key]
        for p in range(len(idx)):
            for q in range(p + 1, len(idx)):
                i, j = idx[p], idx[q]
                if find(i) == find(j):
                    continue
                if inv_raw.shape[1] and np.abs(inv_raw[i] - inv_raw[j]).max() > 1e-7:
                    continue
                if transport(i, j) is not None:
                    parent[find(j)] = find(i)
    orbit_members: dict = {}
    for i in range(n):
        orbit_members.setdefault(find(i), []).append(i)
    return tuple(sorted((tuple(o) for o in orbit_members.values()), key=lambda o: o[0]))


def klein_by_orbits_reference(cloud, orbits):
    """quotient.klein_partition as it was before it keyed each point: one
    fingerprint per orbit root, and orbits sharing a _klein_key form one
    block, labelled with the fingerprint of the block's first orbit root."""
    roots = [orb[0] for orb in orbits]
    fps = quotient.local_models(
        cloud.model, [cloud.stabs[r] for r in roots], [cloud.reps[r] for r in roots], cloud.seed
    )
    block_map: dict = {}
    for orb, fp in zip(orbits, fps):
        entry = block_map.setdefault(quotient._klein_key(fp), {"fp": fp, "members": []})
        entry["members"].extend(orb)
    items = sorted(block_map.values(), key=lambda e: min(e["members"]))
    blocks = tuple(tuple(sorted(e["members"])) for e in items)
    labels = tuple(
        {"label": f"S{j}", "fingerprint": e["fp"], "dim": int(cloud.quotient_dims[b[0]])}
        for j, (e, b) in enumerate(zip(items, blocks))
    )
    return blocks, labels

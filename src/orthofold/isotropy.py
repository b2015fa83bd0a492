"""Point stabilizers, normal slices, and slice representations."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import groups
from .actions import (
    ActionModel,
    aligned,
    ambient_complex_structure,
    differentials,
    infinitesimal_actions,
    normalize,
    tangent_frames,
)
from .errors import InputError, RepExtractionError, StabilizerError
from .numerics import BLOCK_BYTES, MATCH_EPS, POINT_EPS, shared_identity, svd_splits

# squared chordal distance below which a candidate counts as a fixer
ACCEPT_D2 = 1e-12

# squared-displacement bound of a transport, which identifies orbits across
# the cloud: in dense clouds distinct orbits can pass within coarse
# tolerance of each other, while a genuine closed-form transport lands near
# machine precision
TRANSPORT_D2 = 1e-20


@dataclass(frozen=True)
class StabilizerData:
    """Stabilizer of a point: Lie algebra plus one witness per component.

    lie_kernel holds coefficient vectors (columns) in the canonical Lie basis
    of the acting group; witnesses holds one group element per detected
    component, identity first, and witness_ambs their ambient matrices, as
    the fixer test read them. frame is the horizontal tangent frame at the
    point and slice_basis the frame coordinates of the normal slice; one SVD
    of the infinitesimal action gives it, lie_kernel and orbit_dim.
    """

    point: np.ndarray
    lie_kernel: np.ndarray
    witnesses: np.ndarray
    witness_ambs: np.ndarray
    subgroup: groups.SubgroupClass
    orbit_dim: int
    frame: np.ndarray
    slice_basis: np.ndarray


@dataclass(frozen=True)
class SliceRep:
    """Action of a stabilizer on the normal slice at its point.

    weights lists the nonzero integer weight rows of the identity component,
    read exactly from the slice generators (signed when the slice carries a
    compatible complex structure); planes holds the invariant rotation plane
    of each row, aligned with weights, and fixed a basis of the directions
    the identity component fixes, zero_dims of them. Without torus weights
    there are no planes and fixed is the identity, read-only arrays shared
    by every such rep of one slice dimension. witness_mats and lie_mats give
    the slice matrices of the component witnesses and of the stabilizer Lie
    basis; all matrices are in the slice coordinates.
    """

    stab_label: str
    slice_dim: int
    rep_kind: str  # torus_weights when the Lie kernel is nonzero, else finite_characters
    weights: tuple
    zero_dims: int
    planes: np.ndarray
    fixed: np.ndarray
    characters: tuple
    witness_mats: np.ndarray
    lie_mats: np.ndarray


# ---------------------------------------------------------------------------
# stabilizers and transports
# ---------------------------------------------------------------------------


def _byte_rows(a: np.ndarray) -> np.ndarray:
    """One opaque item per leading index, ordered and compared by its raw bytes."""
    a = np.ascontiguousarray(a).reshape(a.shape[0], -1)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def _aligned_d2(a: ActionModel, Y: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Squared distance of each row of Y from its target, the representative
    aligned: T is one target for every row, or a stack of one per row."""
    res = aligned(a.manifold, Y, T) - T
    return np.einsum("bi,bi->b", res, res)


def _displacement(a: ActionModel, x: np.ndarray, amb: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distance of each image amb_i x from y, the representative aligned.

    The images come from one matrix-vector product with the stack amb
    flattened to (B * N, N).
    """
    n = x.shape[0]
    return _aligned_d2(a, (amb.reshape(-1, n) @ x).reshape(-1, n), y)


def fixer_masks(a: ActionModel, X: np.ndarray) -> np.ndarray:
    """The finite fixer test of a stack of points: bool[n, |G|], True where
    the element fixes the point.

    The images of a chunk of rows under every element come from one product
    with the element stack flattened to (|G| * N, N), a chunk holding at
    most BLOCK_BYTES of images (one row at least); an element fixes a point
    when the aligned image lies within POINT_EPS of it, by squared
    displacement. X holds validated representatives.
    """
    X = np.asarray(X, dtype=float)
    ambs = a.element_ambs
    size, n = ambs.shape[0], ambs.shape[1]
    flat_t = ambs.reshape(-1, n).T
    out = np.empty((X.shape[0], size), dtype=bool)
    step = max(1, BLOCK_BYTES // (8 * size * n))
    for lo in range(0, X.shape[0], step):
        x = X[lo : lo + step]
        # row (point, element) holds the image of the point under the element
        images = (x @ flat_t).reshape(-1, n)
        d2 = _aligned_d2(a, images, np.repeat(x, size, axis=0)).reshape(-1, size)
        np.less_equal(d2, POINT_EPS * POINT_EPS, out=out[lo : lo + step])
    return out


@functools.lru_cache(maxsize=64)
def _witness_order(g: groups.GroupDescriptor) -> np.ndarray:
    """Element indices of a finite group in witness order.

    The identity comes first (np.allclose's per-entry bound, written out),
    then the elements by the raw bytes of their matrices rounded to 1e-8,
    ties in element order. A stabilizer's witnesses are its fixers taken in
    this order, which is the order of sorting them alone, so it is sorted
    once per group.
    """
    moved = ~groups.identity_mask(g.elements)
    _, byte_rank = np.unique(_byte_rows(np.round(g.elements, 8)), return_inverse=True)
    order = np.lexsort((byte_rank, moved))
    order.flags.writeable = False
    return order


@functools.lru_cache(maxsize=1024)
def _finite_stabilizer(g: groups.GroupDescriptor, amb, keep: tuple):
    """Witnesses, their ambient matrices and class of the finite stabilizer
    made of the elements keep, amb the action's ambient map.

    A finite group has no Lie algebra, so every stabilizer's Lie kernel is
    empty: the class reads only g and the witnesses, and their ambient
    matrices only amb, so it is keyed on exactly those. All three are
    shared read-only.
    """
    wits = g.elements[list(keep)]
    wambs = np.stack([amb(w) for w in wits])
    wits.flags.writeable = wambs.flags.writeable = False
    return wits, wambs, groups.classify_subgroup(g, np.zeros((0, 0)), wits)


def _finite_rows(a: ActionModel, X: np.ndarray) -> list:
    """(witnesses, witness_ambs, class) of each point of X under a finite
    group: one fixer_masks call for the stack, then one _finite_stabilizer
    lookup per distinct fixer set, its fixers taken in witness order."""
    g = a.group
    masks = fixer_masks(a, X)
    order = _witness_order(g)
    rows: dict = {}
    out = []
    for i, key in enumerate(_byte_rows(masks).tolist()):
        row = rows.get(key)
        if row is None:
            row = rows[key] = _finite_stabilizer(g, a.amb, tuple(order[masks[i][order]].tolist()))
        out.append(row)
    return out


def _active_pairs(a: ActionModel, X: np.ndarray) -> np.ndarray:
    """bool[n, pairs]: the ambient pairs of each point of X that constrain
    the torus solve. A pair whose magnitude is at most sqrt(ACCEPT_D2) / 2
    constrains nothing: every rotation of it stays inside the fixer cut."""
    if a.ambient_pairs is None:
        raise InputError(f"action {a.name!r} lacks ambient pair data for the torus solve")
    cut = 0.5 * np.sqrt(ACCEPT_D2)
    # a rotating pair (i, j) reads as x_i + i x_j, a fixed coordinate as real
    mags = [np.hypot(X[:, c[0]], X[:, c[-1]] if len(c) == 2 else 0.0) for c, _ in a.ambient_pairs]
    return np.stack(mags, axis=1) > cut


def _congruence_rows(a: ActionModel, active) -> np.ndarray:
    """Integer rows W of the congruence W psi = b (mod 2 pi) of _torus_system,
    for the ambient pairs marked active.

    psi = (phi, alpha) holds the torus angles and, on projective models,
    the phase alpha of the representative. Each pair contributes its weight
    row, with a -1 column for alpha on projective models; on RP^2 the row
    2 alpha = 0 keeps the phase a sign.
    """
    kind = a.manifold.kind
    projective = kind in ("real_projective", "complex_projective")
    rows = [[*w, -1] if projective else list(w) for (_, w), on in zip(a.ambient_pairs, active) if on]
    if kind == "real_projective":
        rows.append([0] * a.group.lie_dim + [2])
    return np.array(rows, dtype=np.int64).reshape(len(rows), a.group.lie_dim + projective)


def _torus_system(a: ActionModel, x: np.ndarray, y: np.ndarray):
    """Integer rows W and target angles b of the congruence W psi = b (mod 2 pi).

    Its solutions are the elements carrying x to y up to the phase of the
    representative. W is _congruence_rows of the pairs active at x or at y,
    and each pair's target is the angle atan2(y) - atan2(x); a fixed
    coordinate's is 0 or pi by sign, and the RP^2 phase row's is 0.
    """
    active = _active_pairs(a, np.stack([x, y])).any(axis=0)
    b = [
        np.angle(complex(*y[list(coords)])) - np.angle(complex(*x[list(coords)]))
        for (coords, _), on in zip(a.ambient_pairs, active)
        if on
    ]
    if a.manifold.kind == "real_projective":
        b.append(0.0)
    return _congruence_rows(a, active), np.array(b)


def _torus_solutions(g: groups.GroupDescriptor, W: np.ndarray, b: np.ndarray):
    """Elements solving the congruence W, b of _torus_system, one per component.

    The congruence is solved in closed form by groups.congruence_solutions;
    the particular solution comes first, and whether the solutions really
    carry x to y is left to the caller's displacement test. Returns the
    elements and the number of free coordinates, which span the identity
    component of the stabilizer.
    """
    psi, free = groups.congruence_solutions(W, b[None])
    return groups.exp_coeffs_batch(g, psi[0][:, : g.lie_dim]), free


@functools.lru_cache(maxsize=1024)
def _torus_stabilizer(g: groups.GroupDescriptor, n: int, rows: bytes):
    """_torus_solutions of W psi = 0 (mod 2 pi), W the int64 rows of n
    columns given by their bytes.

    At y = x every target angle atan2(y) - atan2(x) of _torus_system is
    exactly 0, so a stabilizer's solve depends on W alone and is shared by
    every point with the same rows. The witnesses are read-only.
    """
    W = np.frombuffer(rows, dtype=np.int64).reshape(-1, n)
    wits, free = _torus_solutions(g, W, np.zeros(W.shape[0]))
    wits.flags.writeable = False
    return wits, free


def _torus_rows(a: ActionModel, X: np.ndarray, ks: np.ndarray, kernels: list) -> list:
    """(witnesses, witness_ambs, class) of each point of X under a torus.

    A point's congruence at y = x depends only on which ambient pairs are
    active there (_active_pairs), so the points are grouped by that pattern:
    each group's rows W are solved once (_torus_stabilizer), their witnesses'
    ambient matrices built once, and the group passes one displacement test
    and is classified once. A torus's class reads the Lie dimension k and
    the witnesses, and the solve fixes k.
    """
    g = a.group
    n = X.shape[1]
    active = _active_pairs(a, X)
    patterns: dict = {}
    for i, key in enumerate(_byte_rows(active).tolist()):
        patterns.setdefault(key, []).append(i)
    out = [None] * len(X)
    for idx in patterns.values():
        W = _congruence_rows(a, active[idx[0]])
        wits, free = _torus_stabilizer(g, W.shape[1], W.tobytes())
        if np.any(ks[idx] != free):
            raise StabilizerError("Lie kernel and torus solve disagree on the stabilizer dimension")
        wambs = a.amb_batch(wits)
        wambs.flags.writeable = False
        pts = X[idx]
        images = (pts @ wambs.reshape(-1, n).T).reshape(-1, n)
        if _aligned_d2(a, images, np.repeat(pts, len(wits), axis=0)).max() > ACCEPT_D2:
            raise StabilizerError("closed-form witness misses the fixer set")
        row = (wits, wambs, groups.classify_subgroup(g, kernels[idx[0]], wits))
        for i in idx:
            out[i] = row
    return out


def _half_turns(axes: np.ndarray) -> np.ndarray:
    """Rotations by pi about the unit rows of axes: 2 a a^T - I."""
    return 2.0 * np.einsum("mi,mj->mij", axes, axes) - np.eye(3)


def _so3_candidates(a: ActionModel, X: np.ndarray, ks: np.ndarray, kernels: list):
    """The half-turns whose displacement test decides the SO(3) stabilizers
    of the points X, ks their Lie kernel dimensions.

    X = a.so3_frame(x) is the 3 x 2 frame that rotations act on from the
    left. On CP^2 it is fixed only up to the phase gauge X -> X rot(alpha),
    which leaves S = X X^T unchanged, so a stabilizing R satisfies
    R S R^T = S: it commutes with S. By the Lie kernel dimension k:

    - k = 3: the stabilizer is the connected group; nothing to test.
    - k = 1, axis n: the identity component is the circle about n and the
      stabilizer normalizes it, so it lies in O(2)_n. The other coset of
      O(2)_n, the half-turns about axes perpendicular to n, is one orbit of
      that circle, so it lies in the stabilizer wholly or not at all, and
      one half-turn about a fixed axis perpendicular to n decides it.
    - k = 0: when S has distinct eigenvalues its centralizer in SO(3) is the
      Klein four-group of the identity and the half-turns about its
      eigenvectors, which are the left singular vectors of X. They come
      from an SVD of X, not from an eigendecomposition of S, which squares
      the conditioning next to the real locus of CP^2, where X is nearly of
      rank 1. The only catalog points with k = 0 and a repeated eigenvalue
      are those of s2xs2 with u perpendicular to v (v = +-u, the real locus
      and the null quadric all have k = 1). There X has rank 2 and no gauge
      applies, so R X = X forces R = I, and the test rejects every
      candidate.

    The frames of every k = 0 point take one stacked SVD, and the k = 1
    axes one stacked cross product. Returns (owner, half-turns): candidate
    j belongs to the point owner[j], ascending, and each point's candidates
    keep the order above.
    """
    if np.any(ks == 2):
        raise StabilizerError("so(3) has no two-dimensional subalgebra")
    flat, circle = np.flatnonzero(ks == 0), np.flatnonzero(ks == 1)
    axes = np.zeros((0, 3))
    if flat.size:
        axes = np.swapaxes(np.linalg.svd(a.so3_frame(X[flat]))[0], 1, 2).reshape(-1, 3)
    if circle.size:
        # coefficients in the so(3) basis of SO3_GENERATORS are the axis
        n = np.stack([kernels[i][:, 0] for i in circle])
        e = np.zeros_like(n)
        e[np.arange(len(n)), np.argmin(np.abs(n), axis=1)] = 1.0
        p = np.cross(n, e)
        # |p| by the dot product np.linalg.norm takes of one vector
        axes = np.concatenate([axes, p / np.sqrt(np.matmul(p[:, None, :], p[:, :, None]))[:, 0]])
    owner = np.concatenate([np.repeat(flat, 3), circle])
    order = np.argsort(owner, kind="stable")
    return owner[order], _half_turns(axes[order])


def _so3_rows(a: ActionModel, X: np.ndarray, ks: np.ndarray, kernels: list) -> list:
    """(witnesses, witness_ambs, class) of each point of X under SO(3).

    Every candidate of _so3_candidates takes one displacement test; a
    point's witnesses are the identity and its passing candidates, in
    order. The points of one witness count are stacked, and each stack of
    one Lie dimension is classified in one classify_subgroups call.
    """
    if a.so3_frame is None:
        raise InputError(f"action {a.name!r} lacks the frame data of the SO(3) solve")
    g = a.group
    n = X.shape[1]
    owner, cands = _so3_candidates(a, X, ks, kernels)
    ambs = a.amb_batch(cands) if len(cands) else np.zeros((0, n, n))
    targets = X[owner]
    fix = _aligned_d2(a, np.matmul(ambs, targets[:, :, None])[:, :, 0], targets) <= ACCEPT_D2
    passing, holder = np.flatnonzero(fix), owner[fix]
    counts = 1 + np.bincount(holder, minlength=len(X))
    out = [None] * len(X)
    for m in sorted(set(counts.tolist())):
        pts = np.flatnonzero(counts == m)
        picks = passing[np.searchsorted(holder, pts)[:, None] + np.arange(m - 1)]
        wits = np.empty((len(pts), m, 3, 3))
        wits[:, 0] = np.eye(3)
        wits[:, 1:] = cands[picks]
        wambs = np.empty((len(pts), m, n, n))
        wambs[:, 0] = a.amb(np.eye(3))
        wambs[:, 1:] = ambs[picks]
        for k in sorted(set(ks[pts].tolist())):
            sel = np.flatnonzero(ks[pts] == k)
            lie = np.stack([kernels[i] for i in pts[sel]])
            classes = groups.classify_subgroups(g, lie, wits[sel])
            for j, cls in zip(sel.tolist(), classes):
                out[pts[j]] = (wits[j], wambs[j], cls)
    return out


def stabilizer_rows(a: ActionModel, X: np.ndarray, frames: np.ndarray) -> list[tuple]:
    """The stabilizers of a stack of points, one row per point.

    X holds validated representatives and frames their tangent frames, as
    actions.tangent_frames builds them. A row holds what stabilizer
    assembles a point's StabilizerData from: (lie_kernel, witnesses,
    witness_ambs, subgroup, orbit_dim, slice_basis).

    One stacked SVD of the infinitesimal actions gives every orbit
    dimension (the rank), Lie algebra (the kernel) and normal slice (the
    complement of the column span); a finite group's action has no
    columns, so its slice is the whole tangent space. Every kind is then
    decided in closed form for the whole stack: finite groups are
    enumerated by the fixer test against the element stack, torus-kind
    components are solved exactly from the integer congruence of the active
    ambient pairs, and SO(3) components are the half-turns of
    _so3_candidates that pass the fixer test. Each witness has squared
    displacement at most ACCEPT_D2 (the finite kind tests at POINT_EPS).
    What several points share is built once and shared read-only: a finite
    group's ambient matrices, witness order, and the witnesses and class
    of each fixer set; the torus solve of each congruence, with its
    witnesses' ambient matrices and class; the class of each SO(3)
    stabilizer shape.
    """
    g = a.group
    odims, kernels, slices = svd_splits(infinitesimal_actions(a, X, frames))
    ks = np.array([K.shape[1] for K in kernels], dtype=np.int64)
    if np.any(odims + ks != g.lie_dim):
        raise StabilizerError("orbit and kernel dimensions are inconsistent")
    if g.kind == "finite":
        solved = _finite_rows(a, X)
    elif g.kind == "torus":
        solved = _torus_rows(a, X, ks, kernels)
    elif g.kind == "so3":
        solved = _so3_rows(a, X, ks, kernels)
    else:
        raise InputError(f"no stabilizer scheme for group kind {g.kind!r}")
    return [
        (K, wits, wambs, cls, odim, C)
        for K, (wits, wambs, cls), odim, C in zip(kernels, solved, odims.tolist(), slices)
    ]


def stabilizer(
    a: ActionModel,
    x: np.ndarray,
    frame: np.ndarray | None = None,
    row: tuple | None = None,
) -> StabilizerData:
    """The stabilizer of x: Lie kernel, component witnesses, class.

    frame is the tangent frame of x as actions.tangent_frames built it, x
    then being a validated representative; without it, x is normalized and
    framed here, which also validates it. row is the row of x in
    stabilizer_rows, given with its frame; without it, the row is
    stabilizer_rows of x alone. Only the assembly is done per call.
    """
    if frame is None:
        x = normalize(a.manifold, np.asarray(x, dtype=float))
        frame = tangent_frames(a.manifold, x[None])[0]
    if row is None:
        row = stabilizer_rows(a, x[None], frame[None])[0]
    lie_kernel, wits, wambs, cls, odim, slice_basis = row
    return StabilizerData(
        point=x,
        lie_kernel=lie_kernel,
        witnesses=wits,
        witness_ambs=wambs,
        subgroup=cls,
        orbit_dim=odim,
        frame=frame,
        slice_basis=slice_basis,
    )


def _kabsch(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The rotation R minimizing |R P - Q_i| for each frame Q_i of the stack Q.

    Orthogonal Procrustes with the determinant fixed to +1 (Kabsch, Acta
    Cryst. A32, 1976): R = U diag(1, 1, det U V^T) V^T from the SVD
    U Sigma V^T of Q_i P^T.
    """
    u, _, vt = np.linalg.svd(Q @ P.T)
    u[..., :, 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def _gauge_normal_form(X: np.ndarray) -> np.ndarray:
    """X V with V the right singular vectors of X, turned to det +1.

    Right multiplication by a rotation is a change of phase, so X V is a
    frame of the same point of CP^2. Its columns are orthogonal with
    descending norms, which leaves only the sign of X V free when the norms
    differ; when they are equal (the null quadric) any two such frames are
    carried onto each other by a rotation.
    """
    v = np.linalg.svd(X)[2].T
    if np.linalg.det(v) < 0.0:
        v[:, 1] = -v[:, 1]
    return X @ v


def transport_element(a: ActionModel, x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Group element carrying x onto y, or None when there is none.

    A returned element certifies the points share an orbit: its squared
    displacement is at most TRANSPORT_D2. Every kind is a decision at that
    cut: finite groups try every element, torus kinds take the particular
    solution of the angle congruence, and SO(3) takes the Kabsch rotation
    of the frame of x onto that of y. On CP^2 both frames are first put in
    gauge normal form, and y's is tried with both signs, since the sign is
    all the normal form leaves free.
    """
    m = a.manifold
    x = normalize(m, np.asarray(x, dtype=float))
    y = normalize(m, np.asarray(y, dtype=float))
    g = a.group
    if g.kind == "finite":
        d2 = _displacement(a, x, a.element_ambs, y)
        i = int(np.argmin(d2))
        return g.elements[i].copy() if d2[i] <= TRANSPORT_D2 else None
    if g.kind == "torus":
        el = _torus_solutions(g, *_torus_system(a, x, y))[0][:1]
        return el[0] if float(_displacement(a, x, a.amb_batch(el), y)[0]) <= TRANSPORT_D2 else None
    if g.kind != "so3":
        raise InputError(f"no transport scheme for group kind {g.kind!r}")
    if a.so3_frame is None:
        raise InputError(f"action {a.name!r} lacks the frame data of the SO(3) solve")
    X, Y = a.so3_frame(x), a.so3_frame(y)
    if m.kind == "complex_projective":
        X, Y = _gauge_normal_form(X), _gauge_normal_form(Y)
        els = _kabsch(X, np.stack([Y, -Y]))
    else:
        els = _kabsch(X, Y[None])
    d2 = _displacement(a, x, a.amb_batch(els), y)
    i = int(np.argmin(d2))
    return els[i] if float(d2[i]) <= TRANSPORT_D2 else None


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------


def _slice_lie_generators(a, stab):
    """Exact slice matrices of the stabilizer Lie basis.

    amb_lie is linear, so the ambient generators are one contraction of the
    Lie kernel with the cached ambient matrices of the group's Lie basis. On
    complex projective models the representative curve drifts in phase;
    the drift acts vertically, and subtracting each generator's rate times
    the ambient complex structure leaves the horizontal generator.
    """
    x, frame, coords = stab.point, stab.frame, stab.slice_basis
    mats = np.einsum("ij,ikl->jkl", stab.lie_kernel, a.lie_ambs)
    if a.manifold.kind == "complex_projective":
        jamb = ambient_complex_structure(a.manifold)
        omega = (mats @ x) @ (jamb @ x)
        mats = mats - omega[:, None, None] * jamb
    return coords.T @ (frame.T @ mats @ frame) @ coords


def _slice_complex_structure(a, stab):
    if a.manifold.kind != "complex_projective":
        return None
    jamb = ambient_complex_structure(a.manifold)
    frame, coords = stab.frame, stab.slice_basis
    js = coords.T @ (frame.T @ jamb @ frame) @ coords
    if np.abs(js @ js + np.eye(js.shape[0])).max() > 1e-6:
        return None
    return js


# fixed generic mixing coefficients: rationally independent, so distinct
# weight rows of the catalog cannot collide into one eigenvalue cluster
_GENERIC_MIX = np.array(
    [1.0, 1.6180339887, 2.2360679775, 2.7182818285,
     3.1415926536, 3.6055512755, 4.1231056256, 4.5825756950]
)


def _weight_planes(mats: np.ndarray, js: np.ndarray | None):
    """Rotation planes, integer weight rows and fixed basis of the identity component.

    mats holds the slice generators A_j. Their generic mix B rotates every
    plane of the slice at a distinct rate per distinct row. When each A_j
    commutes with the slice complex structure J the weights are signed: the
    symmetric J B splits the slice into complex lines by signed rate, and
    each plane is (p0, J p0). Otherwise the eigenspaces of B B pair each
    row with its negative, planes are (p0, B p0 / |B p0|), and each row is
    turned to lead positive. Planes inside one eigenspace are split
    arbitrarily, which is harmless: every invariant plane there rotates at
    the same rates. The row of a plane is its exact rate p1 . A_j p0 under
    each generator, rounded to an integer. Returns the (p, s, 2) planes and
    their rows, both in sorted row order, and an (s, z) fixed basis, the
    identity when nothing rotates.
    """
    k, s = mats.shape[0], mats.shape[1]
    B = np.einsum("j,jab->ab", _GENERIC_MIX[:k], mats)
    signed = js is not None and all(np.abs(m @ js - js @ m).max() <= 1e-6 for m in mats)
    turn = js if signed else B
    evals, evecs = np.linalg.eigh(js @ B if signed else B @ B)
    scale = max(float(np.abs(evals).max()), 1.0)
    zero = np.abs(evals) <= 1e-9 * scale
    planes = []
    idx = np.where(~zero)[0]
    pos = 0
    while pos < idx.size:
        lead = evals[idx[pos]]
        end = pos
        while end < idx.size and abs(evals[idx[end]] - lead) <= 1e-6 * scale:
            end += 1
        basis = evecs[:, idx[pos:end]]
        while basis.shape[1]:
            u1 = basis[:, 0]
            u2 = turn @ u1
            u2 = u2 - (u2 @ u1) * u1
            u2 = u2 / np.linalg.norm(u2)
            plane = np.stack([u1, u2], axis=1)
            planes.append(plane)
            # the rest of the eigenspace: singular values 1 off the plane, 0 on it
            u, sv, _ = np.linalg.svd(basis - plane @ (plane.T @ basis), full_matrices=False)
            basis = u[:, sv > 0.5]
        pos = end
    if not planes:
        _, empty, fixed = _no_planes(s)
        return empty, (), fixed
    P = np.stack(planes)
    rates = np.einsum("pa,jab,pb->pj", P[:, :, 1], mats, P[:, :, 0])
    rows = np.rint(rates)
    if np.abs(rates - rows).max() > 1e-6:
        raise RepExtractionError("slice rotation rates are not integers")
    moved = np.einsum("jab,pb->pja", mats, P[:, :, 0]) - rates[:, :, None] * P[:, None, :, 1]
    if np.abs(moved).max() > 1e-6:
        raise RepExtractionError("slice generators do not preserve the rotation planes")
    if not signed:
        flip = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)] < 0
        rows[flip] *= -1
        P[flip, :, 1] *= -1
    rows = [tuple(int(t) for t in row) for row in rows]
    order = sorted(range(len(rows)), key=rows.__getitem__)
    return P[order], tuple(rows[i] for i in order), evecs[:, zero]


@functools.lru_cache(maxsize=None)
def _no_planes(sdim: int):
    """Generators, planes and fixed basis of a slice nothing rotates: none,
    none, and the identity.

    One read-only triple per slice dimension, shared by every such rep.
    """
    lie = np.zeros((0, sdim, sdim))
    planes = np.zeros((0, sdim, 2))
    lie.flags.writeable = planes.flags.writeable = False
    return lie, planes, shared_identity(sdim)


def slice_representations(a: ActionModel, stabs) -> list[SliceRep]:
    """Representation of each stabilizer on the normal slice at its point.

    Every positive-dimensional stabilizer gets the integer torus weights of
    its identity component, read exactly from the slice generators with
    their rotation planes and fixed basis (torus_weights). Finite
    stabilizers have no generators and record witness traces
    (finite_characters). Both keep the slice matrices of the component
    witnesses.

    A trivial stabilizer, whose only witness is the identity and whose Lie
    kernel is empty, has an exact representation: the identity witness
    matrix, no planes, and the one character slice_dim. Such points share
    one read-only SliceRep per (label, slice dimension) and read nothing.
    The other (point, witness) pairs are read in one batch: their
    differentials at once, from the witnesses' ambient matrices and each
    point's frame, then their slice matrices and characters one slice
    dimension at a time. Only points with a positive-dimensional
    stabilizer read generators and planes, one point at a time.
    """
    stabs = list(stabs)
    reps = [None] * len(stabs)
    read = []
    for i, st in enumerate(stabs):
        if st.lie_kernel.shape[1] == 0 and st.witness_ambs.shape[0] == 1:
            reps[i] = _trivial_rep(st.subgroup.label, st.slice_basis.shape[1])
        else:
            read.append(i)
    if not read:
        return reps
    counts = np.array([stabs[i].witness_ambs.shape[0] for i in read])
    owner = np.repeat(np.arange(len(read)), counts)
    points = np.stack([stabs[i].point for i in read])
    frames = np.stack([stabs[i].frame for i in read])
    diffs = differentials(
        a, np.concatenate([stabs[i].witness_ambs for i in read]), points[owner], frames[owner]
    )
    sdims = np.array([stabs[i].slice_basis.shape[1] for i in read])
    # a 1-D np.unique would import numpy.ma, 11-18 ms of a CLI process
    for sdim in sorted(set(sdims.tolist())):
        idx = np.flatnonzero(sdims == sdim)
        coords = np.repeat(np.stack([stabs[read[j]].slice_basis for j in idx]), counts[idx], axis=0)
        wmats = np.swapaxes(coords, 1, 2) @ diffs[sdims[owner] == sdim] @ coords
        if np.any(np.abs(np.swapaxes(wmats, 1, 2) @ wmats - np.eye(sdim)) > 1e-6):
            raise StabilizerError("witness does not preserve the slice")
        traces = np.trace(wmats, axis1=1, axis2=2).tolist()
        bounds = np.concatenate([[0], np.cumsum(counts[idx])]).tolist()
        for j, lo, hi in zip(idx.tolist(), bounds, bounds[1:]):
            i = read[j]
            reps[i] = _slice_rep(a, stabs[i], wmats[lo:hi], traces[lo:hi])
    return reps


@functools.lru_cache(maxsize=None)
def _trivial_rep(label: str, sdim: int) -> SliceRep:
    """The SliceRep of a trivial stabilizer on a slice of dimension sdim,
    shared read-only by every such point."""
    lie_mats, planes, fixed = _no_planes(sdim)
    return SliceRep(
        stab_label=label,
        slice_dim=sdim,
        rep_kind="finite_characters",
        weights=(),
        zero_dims=sdim,
        planes=planes,
        fixed=fixed,
        characters=(float(sdim),),
        witness_mats=shared_identity(sdim)[None],
        lie_mats=lie_mats,
    )


def _slice_rep(a: ActionModel, st: StabilizerData, wmats: np.ndarray, traces: list) -> SliceRep:
    """The SliceRep of one stabilizer from its witnesses' slice matrices and traces."""
    sdim = wmats.shape[1]
    k = st.lie_kernel.shape[1]
    lie_mats, planes, fixed = _no_planes(sdim)
    weights = ()
    if k:
        lie_mats = _slice_lie_generators(a, st)
        planes, weights, fixed = _weight_planes(lie_mats, _slice_complex_structure(a, st))
    return SliceRep(
        stab_label=st.subgroup.label,
        slice_dim=sdim,
        rep_kind="torus_weights" if k else "finite_characters",
        weights=weights,
        zero_dims=fixed.shape[1],
        planes=planes,
        fixed=fixed,
        # + 0.0 turns a rounded -0.0 into 0.0
        characters=tuple(sorted(round(t, 9) + 0.0 for t in traces)),
        witness_mats=wmats,
        lie_mats=lie_mats,
    )


def canonical_weight_rows(weights: tuple) -> tuple:
    """Sign-canonical sorted rows; real equivalence ignores per-row signs."""
    out = []
    for row in weights:
        lead = next((t for t in row if t), 0)
        out.append(tuple(-t for t in row) if lead < 0 else tuple(row))
    return tuple(sorted(out))


def reps_equivalent(r1: SliceRep, r2: SliceRep) -> bool:
    """Whether two slice representations agree up to real orthogonal change.

    Stabilizer class labels must match first; torus weights compare as
    sign-canonical multisets, finite stabilizers compare sorted traces.
    """
    if r1.stab_label != r2.stab_label or r1.slice_dim != r2.slice_dim:
        return False
    if r1.rep_kind != r2.rep_kind:
        return False
    if r1.rep_kind == "torus_weights":
        if r1.zero_dims != r2.zero_dims:
            return False
        return canonical_weight_rows(r1.weights) == canonical_weight_rows(r2.weights)
    if len(r1.characters) != len(r2.characters):
        return False
    return bool(np.allclose(np.array(r1.characters), np.array(r2.characters), atol=MATCH_EPS))

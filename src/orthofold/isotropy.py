"""Point stabilizers, normal slices, and slice representations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups, kernels
from .actions import (
    ActionModel,
    act,
    act_batch,
    ambient_complex_structure,
    differential_of_element,
    distance,
    infinitesimal_action,
    normalize,
    tangent_frame,
)
from .errors import InputError, RepExtractionError, StabilizerError
from .numerics import DEFAULT_TOL, Tolerance, kernel_basis, orthogonal_complement, rank
from .seeding import rng_for

# Haar candidates scored cheaply per point; the best POOL_SIZE of them are
# refined. Refining a flat 512 draw misses small fixer basins a few percent
# of the time; preselecting from the larger pool makes misses negligible.
COARSE_POOL = 16384
POOL_SIZE = 512
# squared chordal distance below which a refined candidate counts as a fixer
ACCEPT_D2 = 1e-12


def witness_pool(a: ActionModel, seed: int) -> np.ndarray | None:
    """Haar candidate pool shared by every search on one action and seed.

    Finite groups are enumerated instead of searched and get None.
    """
    if a.group.kind == "finite":
        return None
    return groups.sample_elements(a.group, COARSE_POOL, rng_for(seed, a.name, "witness-pool"))


@dataclass(frozen=True)
class StabilizerData:
    """Stabilizer of a point: Lie algebra plus one witness per component.

    lie_kernel holds coefficient vectors (columns) in the canonical Lie basis
    of the acting group; witnesses holds one ambient matrix per detected
    component, identity first.
    """

    point: np.ndarray
    lie_kernel: np.ndarray
    witnesses: np.ndarray
    subgroup: groups.SubgroupClass
    orbit_dim: int
    inf_action: np.ndarray


@dataclass(frozen=True)
class SliceRep:
    """Action of a stabilizer on the normal slice at its point.

    weights lists the nonzero integer weight rows of the identity component
    (signed when the slice carries a compatible complex structure), zero_dims
    counts slice directions the identity component fixes. witness_mats and
    lie_mats give the slice matrices of the component witnesses and of the
    stabilizer Lie basis.
    """

    stab_label: str
    slice_dim: int
    rep_kind: str  # torus_weights | finite_characters | sampled_traces
    weights: tuple
    zero_dims: int
    signed: bool
    characters: tuple
    frame: np.ndarray
    coords: np.ndarray
    witness_mats: np.ndarray
    lie_mats: np.ndarray
    jmat: np.ndarray | None


# ---------------------------------------------------------------------------
# stabilizer search
# ---------------------------------------------------------------------------


def _apply_angles(a: ActionModel, x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    Y = np.tile(x, (phi.shape[0], 1))
    for coords, w in a.ambient_pairs:
        if len(coords) == 1:
            continue
        i, j = coords
        alpha = phi @ np.asarray(w, dtype=float)
        c, s = np.cos(alpha), np.sin(alpha)
        Y[:, i] = c * x[i] - s * x[j]
        Y[:, j] = s * x[i] + c * x[j]
    return Y


def _refine_angles(
    a: ActionModel,
    x: np.ndarray,
    phi0: np.ndarray,
    mode: int,
    max_iter: int = 30,
    target: np.ndarray | None = None,
):
    """Damped Gauss-Newton on block rotation angles, batched over candidates.

    Drives the rotated image of x onto target (x itself by default, which is
    the stabilizer case).
    """
    tgt = x if target is None else target
    phi = phi0.copy()
    B, r = phi.shape
    wrows = [np.asarray(w, dtype=float) for _, w in a.ambient_pairs]

    def evaluate(p):
        Y = _apply_angles(a, x, p)
        res = kernels._batch_align(Y, tgt, mode)
        return Y, np.einsum("bi,bi->b", res, res)

    Y, d2 = evaluate(phi)
    mu = np.full(B, 1e-3)
    fails = np.zeros(B, dtype=np.int64)
    diag = np.arange(r)
    for _ in range(max_iter):
        active = (d2 > 1e-28) & (fails < 2)
        if not active.any():
            break
        fa, fb, mag = kernels._batch_factors_mag(Y, tgt, mode)
        Yal = kernels._batch_apply_factors(Y, fa, fb, mode)
        J = np.empty((B, x.size, r))
        for l in range(r):
            dY = np.zeros_like(Y)
            for (coords, _), w in zip(a.ambient_pairs, wrows):
                if len(coords) == 1 or w[l] == 0.0:
                    continue
                i, j = coords
                dY[:, i] -= w[l] * Y[:, j]
                dY[:, j] += w[l] * Y[:, i]
            J[:, :, l] = kernels._batch_jacobian_columns(dY, Yal, tgt, fa, fb, mag, mode)
        resf = Yal - tgt
        A = np.einsum("bni,bnj->bij", J, J)
        A[:, diag, diag] += mu[:, None]
        grad = np.einsum("bni,bn->bi", J, resf)
        step = np.linalg.solve(A, -grad[..., None])[..., 0]
        trial = np.where(active[:, None], phi + step, phi)
        Yt, d2t = evaluate(trial)
        better = active & (d2t < d2)
        worse = active & ~better
        phi[better] = trial[better]
        Y[better] = Yt[better]
        d2[better] = d2t[better]
        mu[better] *= 0.3
        mu[worse] *= 10.0
        fails[better] = 0
        fails[worse] += 1
    return phi, d2


def _coarse_top(d2: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries, ordered by value.

    Partial selection instead of a full sort; the pool is two orders larger
    than the refined set.
    """
    if d2.shape[0] <= k:
        return np.argsort(d2, kind="stable")
    part = np.argpartition(d2, k)[:k]
    return part[np.argsort(d2[part], kind="stable")]


def _byte_rows(a: np.ndarray) -> np.ndarray:
    """One opaque item per leading index, ordered and compared by its raw bytes."""
    a = np.ascontiguousarray(a).reshape(a.shape[0], -1)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def _visit_order(accepted: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Indices of the candidates the witness dedup visits, in visit order.

    Candidates sort by residual, ties broken by the raw bytes of the matrix
    rounded to 1e-8 (so -0.0 and 0.0 differ); lexsort is stable, so full
    ties keep their index order. Converged duplicates then collapse to their
    first visit: candidates on the same fixer agree to ~1e-6 while distinct
    components sit O(1) apart, so a 1e-5 grid never merges classes and the
    batched membership pass stays tiny.
    """
    _, byte_rank = np.unique(_byte_rows(np.round(accepted, 8)), return_inverse=True)
    order = np.lexsort((byte_rank, d2))
    _, first = np.unique(_byte_rows(np.round(accepted[order], 5)), return_index=True)
    return order[np.sort(first)]


def _dedup_witnesses(g, accepted, d2, lie_kernel):
    """One representative per component, identity first, deterministic order.

    Candidates are visited best-converged first so each class is represented
    by its sharpest fixer. A candidate q belongs to the class of rep when
    rep.T @ q lies in the identity component; witnesses of the searched group
    kinds are orthogonal so the transpose is the inverse. Each class tests
    all later candidates in one batch, so a candidate is kept exactly when no
    earlier class covers it.
    """
    classes = [np.eye(g.size)]
    if lie_kernel.shape[1] == g.lie_dim and g.kind in ("so3", "so2", "u1", "torus"):
        # the searched group kinds are connected, so a stabilizer whose
        # algebra fills the whole Lie algebra is the whole group
        return np.stack(classes)
    if accepted.shape[0]:
        cands = accepted[_visit_order(accepted, d2)]
        covered = groups.identity_component_mask(g, cands, lie_kernel)
        for j in range(cands.shape[0]):
            if covered[j]:
                continue
            rep = cands[j]
            classes.append(rep)
            covered[j + 1 :] |= groups.identity_component_mask(
                g, rep.T @ cands[j + 1 :], lie_kernel
            )
    return np.stack(classes)


def stabilizer(
    a: ActionModel,
    x: np.ndarray,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    pool: np.ndarray | None = None,
) -> StabilizerData:
    """Compute the stabilizer of x: Lie kernel, component witnesses, class.

    The Lie algebra comes from the kernel of the infinitesimal action. The
    component search refines a pool of Haar candidates onto the fixer set and
    keeps those with squared displacement below ACCEPT_D2; finite groups are
    enumerated instead. Witnesses are reduced to one per component.
    """
    m = a.manifold
    x = normalize(m, np.asarray(x, dtype=float))
    g = a.group
    inf = infinitesimal_action(a, x, tol)
    odim = rank(inf, tol)
    lie_kernel = kernel_basis(inf, tol)
    if odim + lie_kernel.shape[1] != g.lie_dim:
        raise StabilizerError("orbit and kernel dimensions are inconsistent")

    point_eps = max(tol.match_eps, 1e-7)
    if g.kind == "finite":
        keep = [e for e in g.elements if distance(m, act(a, e, x), x) <= point_eps]
        ident = np.eye(g.size)
        keep.sort(key=lambda e: (not np.allclose(e, ident), np.round(e, 8).tobytes()))
        wits = np.stack(keep)
    else:
        if pool is None:
            pool = witness_pool(a, seed)
        if g.kind == "so3":
            if a.tx_tensor is None:
                raise InputError(f"action {a.name!r} lacks tensor data for so3 search")
            tx = a.tx_tensor(x)
            coarse = kernels._batch_align(kernels._batch_apply_tx(tx, pool), x, m.align_mode)
            best = _coarse_top(np.einsum("bi,bi->b", coarse, coarse), POOL_SIZE)
            cands = np.concatenate([np.eye(3)[None], pool[best]])
            refined, d2 = kernels.so3_refine(tx, x, cands, m.align_mode)
        elif g.kind in ("so2", "u1", "torus"):
            if a.ambient_pairs is None:
                raise InputError(f"action {a.name!r} lacks angle data for torus search")
            phi_pool = groups.torus_angles(g, pool)
            coarse = kernels._batch_align(_apply_angles(a, x, phi_pool), x, m.align_mode)
            best = _coarse_top(np.einsum("bi,bi->b", coarse, coarse), POOL_SIZE)
            phi0 = np.concatenate([np.zeros((1, g.lie_dim)), phi_pool[best]])
            phi, d2 = _refine_angles(a, x, phi0, m.align_mode)
            refined = groups.exp_coeffs_batch(g, phi)
        else:
            raise InputError(f"no stabilizer search scheme for group kind {g.kind!r}")
        mask = d2 <= ACCEPT_D2
        wits = _dedup_witnesses(g, refined[mask], d2[mask], lie_kernel)
        if wits.shape[0] > 1:
            # polish the non-identity representatives to machine precision
            if g.kind == "so3":
                polished, pd2 = kernels.so3_refine(
                    a.tx_tensor(x), x, wits[1:], m.align_mode, max_iter=60
                )
            else:
                pphi, pd2 = _refine_angles(
                    a, x, groups.torus_angles(g, wits[1:]), m.align_mode, max_iter=60
                )
                polished = groups.exp_coeffs_batch(g, pphi)
            wits = np.concatenate([wits[:1], polished])
            if float(pd2.max()) > ACCEPT_D2:
                raise StabilizerError("witness failed to converge onto the fixer set")

    cls = groups.classify_subgroup(g, lie_kernel, wits, tol)
    return StabilizerData(
        point=x,
        lie_kernel=lie_kernel,
        witnesses=wits,
        subgroup=cls,
        orbit_dim=odim,
        inf_action=inf,
    )


TRANSPORT_POOL = 64


def transport_element(
    a: ActionModel,
    x: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    pool: np.ndarray | None = None,
    accept_d2: float = ACCEPT_D2,
) -> np.ndarray | None:
    """Group element carrying x onto y, or None when the search finds none.

    A returned element certifies the points share an orbit. None is only
    sampled evidence of distinct orbits, not a proof. accept_d2 bounds the
    squared displacement of the refined candidate; callers identifying
    orbits in dense clouds pass a near-machine bound, since distinct orbits
    can pass within coarse tolerance of each other while genuine transports
    polish many orders lower.
    """
    m = a.manifold
    x = normalize(m, np.asarray(x, dtype=float))
    y = normalize(m, np.asarray(y, dtype=float))
    g = a.group
    if g.kind == "finite":
        images = act_batch(a, g.elements, x)
        dists = np.array([distance(m, img, y) for img in images])
        i = int(np.argmin(dists))
        if dists[i] <= min(max(tol.match_eps, 1e-7), np.sqrt(accept_d2)):
            return g.elements[i].copy()
        return None
    if pool is None:
        pool = witness_pool(a, seed)
    if g.kind == "so3":
        tx = a.tx_tensor(x)
        coarse = kernels._batch_align(kernels._batch_apply_tx(tx, pool), y, m.align_mode)
        best = _coarse_top(np.einsum("bi,bi->b", coarse, coarse), TRANSPORT_POOL)
        refined, d2 = kernels.so3_refine(tx, y, pool[best], m.align_mode, max_iter=60)
    elif g.kind in ("so2", "u1", "torus"):
        phi_pool = groups.torus_angles(g, pool)
        coarse = kernels._batch_align(_apply_angles(a, x, phi_pool), y, m.align_mode)
        best = _coarse_top(np.einsum("bi,bi->b", coarse, coarse), TRANSPORT_POOL)
        phi, d2 = _refine_angles(
            a, x, phi_pool[best], m.align_mode, max_iter=60, target=y
        )
        refined = groups.exp_coeffs_batch(g, phi)
    else:
        raise InputError(f"no transport search scheme for group kind {g.kind!r}")
    i = int(np.argmin(d2))
    if float(d2[i]) <= accept_d2:
        return refined[i].copy()
    return None


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------


def _slice_coords(stab: StabilizerData) -> np.ndarray:
    return orthogonal_complement(stab.inf_action)


def normal_slice(a: ActionModel, stab: StabilizerData, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal ambient frame of the normal slice at the stabilized point."""
    frame = tangent_frame(a.manifold, stab.point, tol)
    return frame @ _slice_coords(stab)


def _slice_lie_generators(a, stab, frame, coords):
    """Exact slice matrices of the stabilizer Lie basis.

    On complex projective models the representative curve drifts in phase;
    the drift acts vertically, and subtracting its rate times the ambient
    complex structure leaves the horizontal generator.
    """
    x = stab.point
    k = stab.lie_kernel.shape[1]
    sdim = coords.shape[1]
    jamb = None
    if a.manifold.kind == "complex_projective":
        jamb = ambient_complex_structure(a.manifold)
    mats = np.empty((k, sdim, sdim))
    for j in range(k):
        xi = np.einsum("i,ijk->jk", stab.lie_kernel[:, j], a.group.lie)
        mat = a.amb_lie(xi)
        if jamb is not None:
            omega = float((mat @ x) @ (jamb @ x))
            mat = mat - omega * jamb
        mats[j] = coords.T @ (frame.T @ mat @ frame) @ coords
    return mats


def _slice_complex_structure(a, frame, coords):
    if a.manifold.kind != "complex_projective":
        return None
    jamb = ambient_complex_structure(a.manifold)
    js = coords.T @ (frame.T @ jamb @ frame) @ coords
    if np.abs(js @ js + np.eye(js.shape[0])).max() > 1e-6:
        return None
    return js


def _weight_rows(a, stab, coords, js, tol, seed):
    """Integer weights of the identity component on the slice.

    Rotation angles of eigenvector phases are fit by least squares against
    sampled Lie parameters; rows must round to integers within 1e-4.
    """
    k = stab.lie_kernel.shape[1]
    sdim = coords.shape[1]
    x = stab.point
    g = a.group
    rng = rng_for(seed, a.name, "weight-fit")
    scale = 0.12 / np.sqrt(k)
    anchor = 0.0831 * np.array([1.0 / (1.0 + 0.7 * j) for j in range(k)])
    S = np.vstack([anchor, rng.uniform(-scale, scale, size=(2 * k + 4, k))])
    R = np.empty((S.shape[0], sdim, sdim))
    for i, s in enumerate(S):
        el = groups.exp_coeffs(g, stab.lie_kernel @ s)
        R[i] = coords.T @ differential_of_element(a, el, x, tol) @ coords
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
            # eigenspaces are J-invariant, so the projected basis stays inside
            u, sv, _ = np.linalg.svd(proj @ V, full_matrices=False)
            sel.extend(u[:, sv > 0.5].T)
        elif abs(np.angle(vals[i])) > 1e-7 and np.angle(vals[i]) > 0.0:
            u, sv, _ = np.linalg.svd(V, full_matrices=False)
            sel.extend(u[:, sv > 0.5].T)

    rows = []
    for v in sel:
        amp = np.einsum("i,mij,j->m", np.conj(v), R, v)
        if np.abs(np.abs(amp) - 1.0).max() > 1e-6:
            raise RepExtractionError("eigenvector is not shared by the sampled family")
        theta = np.angle(amp)
        w, *_ = np.linalg.lstsq(S, theta, rcond=None)
        wi = np.rint(w)
        if np.abs(w - wi).max() > 1e-4:
            raise RepExtractionError("weight fit did not land on integers")
        if np.abs(S @ wi - theta).max() > 1e-6:
            raise RepExtractionError("integer weights do not reproduce the angles")
        row = tuple(int(t) for t in wi)
        if any(row):
            if not signed and next(t for t in row if t) < 0:
                row = tuple(-t for t in row)
            rows.append(row)
    zero_dims = sdim - 2 * len(rows)
    if zero_dims < 0:
        raise RepExtractionError("weight rows exceed the slice dimension")
    return tuple(sorted(rows)), zero_dims, signed


_TORUS_REP_LABELS = ("SO2", "U1", "O2", "FullGroup")


def slice_representation(
    a: ActionModel,
    stab: StabilizerData,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
) -> SliceRep:
    """Representation of the stabilizer on the normal slice at its point.

    Positive-dimensional stabilizers with a recognized class get integer
    torus weights (of the identity component; component witnesses are kept
    alongside). Finite stabilizers record witness traces. Unrecognized
    positive-dimensional classes fall back to sampled traces.
    """
    frame = tangent_frame(a.manifold, stab.point, tol)
    coords = _slice_coords(stab)
    sdim = coords.shape[1]
    k = stab.lie_kernel.shape[1]

    wmats = np.empty((stab.witnesses.shape[0], sdim, sdim))
    for i, wit in enumerate(stab.witnesses):
        d = differential_of_element(a, wit, stab.point, tol)
        s = coords.T @ d @ coords
        if np.abs(s.T @ s - np.eye(sdim)).max() > 1e-6:
            raise StabilizerError("witness does not preserve the slice")
        wmats[i] = s
    lie_mats = _slice_lie_generators(a, stab, frame, coords)
    js = _slice_complex_structure(a, frame, coords)
    characters = tuple(sorted(round(float(np.trace(s)), 9) for s in wmats))

    label = stab.subgroup.label
    if k == 0:
        kind, weights, zero_dims, signed = "finite_characters", (), sdim, False
    elif label in _TORUS_REP_LABELS:
        kind = "torus_weights"
        weights, zero_dims, signed = _weight_rows(a, stab, coords, js, tol, seed)
    else:
        kind = "sampled_traces"
        weights, zero_dims, signed = (), sdim, False
        extra = [
            round(float(np.trace(coords.T @ differential_of_element(
                a, groups.exp_coeffs(a.group, stab.lie_kernel @ s), stab.point, tol
            ) @ coords)), 9)
            for s in 0.0831 * np.eye(k)
        ]
        characters = tuple(sorted([*characters, *extra]))

    return SliceRep(
        stab_label=label,
        slice_dim=sdim,
        rep_kind=kind,
        weights=weights,
        zero_dims=zero_dims,
        signed=signed,
        characters=characters,
        frame=frame @ coords,
        coords=coords,
        witness_mats=wmats,
        lie_mats=lie_mats,
        jmat=js,
    )


def canonical_weight_rows(weights: tuple) -> tuple:
    """Sign-canonical sorted rows; real equivalence ignores per-row signs."""
    out = []
    for row in weights:
        lead = next((t for t in row if t), 0)
        out.append(tuple(-t for t in row) if lead < 0 else tuple(row))
    return tuple(sorted(out))


def reps_equivalent(r1: SliceRep, r2: SliceRep, tol: Tolerance = DEFAULT_TOL) -> bool:
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
    return bool(
        np.allclose(np.array(r1.characters), np.array(r2.characters), atol=tol.match_eps)
    )

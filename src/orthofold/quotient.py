"""Quotient-side structures of a compact group action.

Local-model fingerprints of quotient points, the Klein partition they
induce, the correspondence map from isostabilizer blocks with its merge and
split witnesses, inverse Klein pullbacks, partition comparison, and exact
frontier checking on the one-dimensional interval models.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

import numpy as np

from . import groups
from .actions import ActionModel
from .errors import (
    ClassificationError,
    CorrespondenceError,
    InputError,
    RepExtractionError,
)
from .isotropy import (
    SliceRep,
    canonical_weight_rows,
    transport_element,
)
from .numerics import Tolerance
from .seeding import rng_for
from .strata import (
    PartitionOfM,
    SampleCloud,
    classify_singularity,
    principal_dimension,
)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalModelFingerprint:
    """Computable description of the local quotient model at an orbit.

    The slice representation gives the model E/H; the profile lists the
    stabilizer labels seen at sampled nonzero slice vectors, and the
    effective signature describes the slice action after quotienting out
    its kernel. Fingerprint equality is a conservative stand-in for
    diffeomorphism of local models, calibrated on the built-in catalog.
    """

    slice_dim: int
    stab_class: groups.SubgroupClass
    rep_fingerprint: tuple
    dim_at_origin: int
    slice_stab_profile: tuple
    free_away_from_origin: bool
    effective_signature: tuple


@dataclass(frozen=True)
class KleinPartition:
    """Fingerprint classes of quotient points, pulled back to cloud indices."""

    blocks: tuple
    fingerprints: tuple
    dims: tuple
    orbits: tuple

    def block_of(self) -> dict:
        owner = {}
        for b, idx in enumerate(self.blocks):
            for i in idx:
                owner[i] = b
        return owner


@dataclass(frozen=True)
class CorrespondenceReport:
    """Isostabilizer blocks mapped into Klein blocks, with failure witnesses.

    merge_witnesses pair blocks of non-conjugate stabilizer classes sharing a
    Klein block; split_witnesses name stabilizer classes spread over several
    Klein blocks.
    """

    mapping: tuple
    surjective: bool
    injective: bool
    merge_witnesses: tuple
    split_witnesses: tuple


@dataclass(frozen=True)
class StratifiedInterval:
    """Interval with strata given as exact unions of open pieces and points."""

    endpoints: tuple
    strata: tuple
    labels: tuple = ()


# ---------------------------------------------------------------------------
# slice geometry
# ---------------------------------------------------------------------------

# fixed generic mixing coefficients: rationally independent, so distinct
# weight rows of the catalog cannot collide into one eigenvalue cluster
_GENERIC_MIX = np.array(
    [1.0, 1.6180339887, 2.2360679775, 2.7182818285,
     3.1415926536, 3.6055512755, 4.1231056256, 4.5825756950]
)


def _weight_planes(rep: SliceRep):
    """Invariant rotation planes of the identity component on the slice.

    Returns (planes, rows, zero_basis): orthonormal bases of the rotating
    planes, the integer weight row each plane rotates at, and a basis of the
    jointly fixed subspace. Planes inside an equal-rate eigenspace are split
    arbitrarily, which is harmless: any invariant plane there rotates at the
    same rates.
    """
    mats = rep.lie_mats
    k = mats.shape[0]
    s = rep.slice_dim
    if k == 0 or not rep.weights:
        return [], [], np.eye(s)
    B = np.einsum("j,jab->ab", _GENERIC_MIX[:k], mats)
    evals, evecs = np.linalg.eigh(B @ B)
    scale = max(float(-evals.min()), 1.0)
    zero = np.abs(evals) <= 1e-9 * scale
    zero_basis = evecs[:, zero]
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
            u2 = B @ u1
            u2 = u2 - (u2 @ u1) * u1
            u2 = u2 / np.linalg.norm(u2)
            plane = np.stack([u1, u2], axis=1)
            planes.append(plane)
            rem = basis - plane @ (plane.T @ basis)
            q, r = np.linalg.qr(rem)
            basis = q[:, np.abs(np.diag(r)) > 1e-8]
        pos = end
    if len(planes) != len(rep.weights):
        raise RepExtractionError("rotation plane count does not match the weight rows")
    rates = np.array(
        [[float(p[:, 1] @ (mats[j] @ p[:, 0])) for j in range(k)] for p in planes]
    )
    wmax = max(np.linalg.norm(np.asarray(r, dtype=float)) for r in rep.weights)
    lam = np.abs(rates).max() / wmax
    rows_f = rates / lam
    rows = np.rint(rows_f)
    if np.abs(rows - rows_f).max() > 0.05:
        raise RepExtractionError("slice rotation rates do not match the weight rows")
    return planes, [tuple(int(t) for t in row) for row in rows], zero_basis


def _smith_diagonal(mat) -> list:
    """Nonzero diagonal of the Smith form of a small integer matrix.

    Only the rank and the product of the entries are consumed, so the
    divisibility normalization of the full Smith form is skipped.
    """
    m = [list(map(int, row)) for row in np.atleast_2d(mat)]
    rows, cols = len(m), len(m[0])
    out = []
    r = 0
    c = 0
    while r < rows and c < cols:
        best = None
        pr = pc = 0
        for i in range(r, rows):
            for j in range(c, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best, pr, pc = abs(m[i][j]), i, j
        if best is None:
            break
        m[r], m[pr] = m[pr], m[r]
        for row_ in m:
            row_[c], row_[pc] = row_[pc], row_[c]
        dirty = True
        while dirty:
            dirty = False
            for i in range(r + 1, rows):
                q = m[i][c] // m[r][c]
                if q:
                    for j in range(c, cols):
                        m[i][j] -= q * m[r][j]
                if m[i][c]:
                    m[r], m[i] = m[i], m[r]
                    dirty = True
            if dirty:
                continue
            for j in range(c + 1, cols):
                q = m[r][j] // m[r][c]
                if q:
                    for i in range(r, rows):
                        m[i][j] -= q * m[i][c]
                if m[r][j]:
                    for i in range(rows):
                        m[i][c], m[i][j] = m[i][j], m[i][c]
                    dirty = True
        out.append(abs(m[r][c]))
        r += 1
        c += 1
    return out


# orthogonal slice matrices move non-fixed unit vectors at unit scale while
# polished witnesses carry noise a few orders below these cuts, so both
# thresholds sit in a wide gap
_FIX_EPS = 1e-5
_ANGLE_EPS = 1e-4

# squared-displacement bound when identifying orbits across the cloud: in
# dense clouds distinct orbits can pass within coarse tolerance of each
# other, while a genuine transport polishes to near machine precision
_IDENTIFY_D2 = 1e-20


def _angle_close(x: float, y: float, eps: float = _ANGLE_EPS) -> bool:
    d = (x - y) % (2.0 * np.pi)
    return d <= eps or d >= 2.0 * np.pi - eps


def _fixed_space(w: np.ndarray) -> np.ndarray:
    """Fixed vectors of one orthogonal matrix, cut at an absolute threshold."""
    _, sv, vt = np.linalg.svd(w - np.eye(w.shape[0]))
    return vt[sv <= _FIX_EPS].T


def _coset_solutions(planes, rows, zero_basis, w, v) -> int:
    """Angles th with exp(th A) w v = v, counted over one circle period.

    Exact congruence arithmetic on per-plane alignment angles; rank-one
    identity components only.
    """
    u = w @ v
    scale = max(float(np.linalg.norm(v)), 1.0)
    if zero_basis.shape[1]:
        if np.linalg.norm(zero_basis.T @ (u - v)) > _FIX_EPS * scale:
            return 0
    cons = []
    for plane, row in zip(planes, rows):
        cv = plane.T @ v
        cu = plane.T @ u
        nv = float(np.linalg.norm(cv))
        nu = float(np.linalg.norm(cu))
        if nv <= 1e-6 * scale and nu <= 1e-6 * scale:
            continue
        if abs(nv - nu) > _FIX_EPS * scale:
            return 0
        w_int = row[0]
        alpha = float(np.arctan2(cv[1], cv[0]) - np.arctan2(cu[1], cu[0]))
        cons.append((abs(w_int), alpha if w_int > 0 else -alpha))
    if not cons:
        return 1 if np.linalg.norm(u - v) <= _FIX_EPS * scale else 0
    w0, a0 = cons[0]
    count = 0
    for j in range(w0):
        th = (a0 + 2.0 * np.pi * j) / w0
        if all(_angle_close(wi * th, ai) for wi, ai in cons[1:]):
            count += 1
    return count


def _finite_fix_count(mats: np.ndarray, v: np.ndarray) -> int:
    scale = max(float(np.linalg.norm(v)), 1.0)
    return int(sum(1 for w in mats if np.linalg.norm(w @ v - v) <= _FIX_EPS * scale))


def _sample_label(rep, planes, rows, zero_basis, v, circle_label) -> str:
    """Stabilizer label of one nonzero slice vector under the slice action."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    k = rep.lie_mats.shape[0]
    if k == 0:
        q = _finite_fix_count(rep.witness_mats, v)
        return "Trivial" if q == 1 else f"Zn({q})"
    active = [
        row
        for plane, row in zip(planes, rows)
        if np.linalg.norm(plane.T @ v) > 1e-6
    ]
    if not active:
        # the identity component fixes v; only the other components matter
        extra = _finite_fix_count(rep.witness_mats[1:], v)
        if extra == rep.witness_mats.shape[0] - 1:
            return rep.stab_label
        if k == 1:
            return "O2" if extra else circle_label
        return f"Torus({k})"
    if k == 1:
        count = _coset_solutions(planes, rows, zero_basis, np.eye(v.size), v)
        for w in rep.witness_mats[1:]:
            count += _coset_solutions(planes, rows, zero_basis, w, v)
        return "Trivial" if count == 1 else f"Zn({count})"
    # higher-rank identity component: kernel of the active rows on the torus
    diag = _smith_diagonal(np.array(active, dtype=np.int64))
    k_v = k - len(diag)
    comps = 1
    for d in diag:
        comps *= abs(d)
    if k_v == 0:
        return "Trivial" if comps == 1 else f"Zn({comps})"
    if comps > 1:
        return f"Other({k_v},{comps})"
    return circle_label if k_v == 1 else f"Torus({k_v})"


def _slice_stab_profile(a: ActionModel, rep: SliceRep, seed: int):
    """Stabilizer labels at sampled nonzero slice vectors.

    One sample per rotating plane (or per fixed space of a finite element)
    plus one per jointly fixed subspace, then four generic draws. The draws
    come from a per-action stream, so points with the same slice structure
    see the same generic coefficients.
    """
    s = rep.slice_dim
    if s == 0:
        return (), True
    planes, rows, zero_basis = _weight_planes(rep)
    samples = []
    if rep.lie_mats.shape[0] == 0:
        for w in rep.witness_mats[1:]:
            fix = _fixed_space(w)
            if fix.shape[1]:
                samples.append(fix[:, 0])
    else:
        for plane in planes:
            samples.append(plane[:, 0])
        if zero_basis.shape[1]:
            samples.append(zero_basis[:, 0])
    samples.extend(rng_for(seed, a.name, "slice-profile").normal(size=(4, s)))
    labels = sorted(
        _sample_label(rep, planes, rows, zero_basis, v, a.group.circle_label)
        for v in samples
    )
    return tuple(labels), all(lab == "Trivial" for lab in labels)


def _distinct_matrices(mats: np.ndarray) -> list:
    keep = []
    for w in mats:
        if not any(np.abs(w - u).max() <= 1e-6 for u in keep):
            keep.append(w)
    return keep


def _effective_signature(rep: SliceRep) -> tuple:
    """Signature of the slice action modulo its kernel.

    Rank-one weight lists reduce by their gcd and forget signs, the move
    that identifies rotation models with equal orbit partitions; higher
    ranks keep sign-canonical rows. An inert identity component falls back
    to the finite group of distinct witness matrices; no witnesses acting
    leaves a plain Euclidean model.
    """
    if rep.rep_kind == "sampled_traces":
        return ("sampled", rep.stab_label, rep.characters)
    if rep.rep_kind == "torus_weights" and rep.weights:
        k = rep.lie_mats.shape[0]
        if k == 1:
            mags = sorted(abs(int(row[0])) for row in rep.weights)
            g = reduce(gcd, mags)
            sig = ("circle", tuple(m // g for m in mags))
            if len(mags) >= 2 and rep.witness_mats.shape[0] > 1:
                sig = sig + (int(rep.witness_mats.shape[0]),)
            return sig
        return ("torus", k, canonical_weight_rows(rep.weights))
    mats = _distinct_matrices(rep.witness_mats)
    if len(mats) == 1:
        return ("euclidean",)
    traces = tuple(sorted(round(float(np.trace(w)), 6) for w in mats))
    return ("finite", len(mats), traces)


# ---------------------------------------------------------------------------
# local models and klein blocks
# ---------------------------------------------------------------------------


def local_model(a: ActionModel, stab, rep: SliceRep, seed: int = 0) -> LocalModelFingerprint:
    """Fingerprint of the local quotient model at a stabilized point.

    Fingerprint components are decided at fixed absolute cuts, not at the
    run's tolerance.
    """
    profile, free = _slice_stab_profile(a, rep, seed)
    return LocalModelFingerprint(
        slice_dim=rep.slice_dim,
        stab_class=stab.subgroup,
        rep_fingerprint=(
            rep.rep_kind,
            canonical_weight_rows(rep.weights),
            rep.zero_dims,
            rep.characters,
        ),
        dim_at_origin=rep.slice_dim,
        slice_stab_profile=profile,
        free_away_from_origin=free,
        effective_signature=_effective_signature(rep),
    )


def _klein_key(f: LocalModelFingerprint) -> tuple:
    return (
        f.slice_dim,
        f.dim_at_origin,
        f.slice_stab_profile,
        f.free_away_from_origin,
        f.effective_signature,
    )


def klein_equivalent(f1: LocalModelFingerprint, f2: LocalModelFingerprint) -> bool:
    """Fingerprint equality, the computable surrogate for one Klein stratum.

    Fingerprint components are integers, labels, and pre-rounded traces, so
    equality needs no tolerance.
    """
    return _klein_key(f1) == _klein_key(f2)


def _orbit_invariants(a: ActionModel, pts: np.ndarray) -> np.ndarray:
    """Orbit-constant coordinates used to prefilter orbit identification.

    Values are returned unrounded; callers round for hashing and keep the
    raw values for gap tests.
    """
    if a.interval is not None:
        return a.interval.projection(pts)[:, None]
    m = a.manifold
    if m.kind == "complex_projective":
        return np.sqrt(pts[:, 0::2] ** 2 + pts[:, 1::2] ** 2)
    if a.group.kind in ("so2", "u1", "torus") and a.ambient_pairs is not None:
        cols = []
        for coords, _ in a.ambient_pairs:
            if len(coords) == 1:
                cols.append(pts[:, coords[0]])
            else:
                i, j = coords
                cols.append(np.sqrt(pts[:, i] ** 2 + pts[:, j] ** 2))
        return np.stack(cols, axis=1)
    if a.group.kind == "finite" and m.kind in ("sphere", "product_spheres", "euclidean"):
        mats = a.amb_batch(a.group.elements)
        return np.einsum("mij,nj->nmi", mats, pts).mean(axis=1)
    return np.zeros((pts.shape[0], 0))


def klein_partition(cloud: SampleCloud, tol: Tolerance | None = None) -> KleinPartition:
    """Fingerprint classes of the quotient points seen by the cloud.

    Cloud points are identified along orbits first, each merge certified by
    a transported group element, so points of one orbit share a block by
    construction. Orbit representatives are then grouped by local-model
    fingerprint.
    """
    tol = cloud.tol if tol is None else tol
    a = cloud.model
    n = len(cloud)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    inv_raw = _orbit_invariants(a, cloud.points)
    inv = np.round(inv_raw, 6)
    candidates: dict = {}
    for i in range(n):
        rep = cloud.reps[i]
        key = (
            cloud.stabs[i].subgroup.display(),
            int(cloud.orbit_dims[i]),
            rep.rep_kind,
            canonical_weight_rows(rep.weights),
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
                # orbit mates agree on the raw invariants to machine noise,
                # so a visible gap rules the pair out without a search
                if inv_raw.shape[1] and np.abs(inv_raw[i] - inv_raw[j]).max() > 1e-7:
                    continue
                g = transport_element(
                    a,
                    cloud.points[i],
                    cloud.points[j],
                    seed=cloud.seed,
                    tol=tol,
                    pool=cloud.pool,
                    accept_d2=_IDENTIFY_D2,
                )
                if g is not None:
                    parent[find(j)] = find(i)
    orbit_members: dict = {}
    for i in range(n):
        orbit_members.setdefault(find(i), []).append(i)
    orbits = sorted(orbit_members.values(), key=lambda o: o[0])

    block_map: dict = {}
    for orb in orbits:
        root = orb[0]
        fp = local_model(a, cloud.stabs[root], cloud.reps[root], seed=cloud.seed)
        entry = block_map.setdefault(_klein_key(fp), {"fp": fp, "members": []})
        entry["members"].extend(orb)
    items = sorted(block_map.values(), key=lambda e: min(e["members"]))
    blocks = tuple(tuple(sorted(e["members"])) for e in items)
    fingerprints = tuple(e["fp"] for e in items)
    dims = tuple(int(cloud.quotient_dims[b[0]]) for b in blocks)
    return KleinPartition(
        blocks=blocks,
        fingerprints=fingerprints,
        dims=dims,
        orbits=tuple(tuple(o) for o in orbits),
    )


# ---------------------------------------------------------------------------
# correspondence and partition comparison
# ---------------------------------------------------------------------------


def correspondence(iso: PartitionOfM, klein: KleinPartition) -> CorrespondenceReport:
    """Map isostabilizer blocks into the Klein blocks containing them.

    Raises when a block straddles two Klein blocks: that would falsify
    well-definedness of the induced map, so it is a hard failure rather
    than a reported state.
    """
    iso_idx = sorted(i for b in iso.blocks for i in b)
    klein_idx = sorted(i for b in klein.blocks for i in b)
    if iso_idx != klein_idx:
        raise InputError("partitions cover different point sets")
    owner = klein.block_of()
    mapping = []
    for bid, b in enumerate(iso.blocks):
        kids = sorted({owner[i] for i in b})
        if len(kids) != 1:
            raise CorrespondenceError(bid, tuple(kids))
        mapping.append(kids[0])
    hit = set(mapping)
    surjective = hit == set(range(len(klein.blocks)))
    injective = len(hit) == len(mapping)

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
                if groups.classes_conjugate(ci, cj):
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
            if groups.classes_conjugate(cls, grp["cls"]):
                grp["ids"].append(bid)
                break
        else:
            class_groups.append({"cls": cls, "ids": [bid]})
    split = []
    for grp in class_groups:
        kids = sorted({mapping[bid] for bid in grp["ids"]})
        if len(kids) > 1:
            split.append((grp["cls"].display(), tuple(kids)))

    return CorrespondenceReport(
        mapping=tuple(mapping),
        surjective=surjective,
        injective=injective,
        merge_witnesses=tuple(merge),
        split_witnesses=tuple(split),
    )


def inverse_klein(klein: KleinPartition, cloud: SampleCloud) -> PartitionOfM:
    """Pull the Klein blocks back to a partition of the sampled manifold."""
    idx = sorted(i for b in klein.blocks for i in b)
    if idx != list(range(len(cloud))):
        raise InputError("klein blocks do not cover the cloud")
    labels = tuple(
        {"label": f"S{j}", "fingerprint": klein.fingerprints[j], "dim": klein.dims[j]}
        for j in range(len(klein.blocks))
    )
    return PartitionOfM(blocks=klein.blocks, block_labels=labels)


def compare_partitions(p: PartitionOfM, q: PartitionOfM) -> str:
    """Refinement relation between two partitions of one index set."""
    ip = sorted(i for b in p.blocks for i in b)
    iq = sorted(i for b in q.blocks for i in b)
    if ip != iq:
        raise InputError("partitions cover different index sets")

    def refines(r, s):
        owner = s.block_of()
        return all(len({owner[i] for i in b}) == 1 for b in r.blocks)

    pq = refines(p, q)
    qp = refines(q, p)
    if pq and qp:
        return "Equal"
    if pq:
        return "PRefinesQ"
    if qp:
        return "QRefinesP"
    return "Incomparable"


# ---------------------------------------------------------------------------
# interval models
# ---------------------------------------------------------------------------


def _interval_cells(model: StratifiedInterval):
    lo, hi = model.endpoints
    if not lo < hi:
        raise InputError("interval endpoints must be increasing")
    points = {lo, hi}
    for stratum in model.strata:
        for piece in stratum:
            if piece[0] == "point":
                points.add(piece[1])
            elif piece[0] == "open":
                if not piece[1] < piece[2]:
                    raise InputError("open pieces need increasing endpoints")
                points.update((piece[1], piece[2]))
            else:
                raise InputError(f"unknown piece kind {piece[0]!r}")
    breaks = sorted(points)
    if breaks[0] < lo or breaks[-1] > hi:
        raise InputError("pieces leave the interval")
    cells = []
    for b in breaks:
        cells.append(("point", b))
    for u, v in zip(breaks, breaks[1:]):
        cells.append(("open", u, v))
    return breaks, cells


def _stratum_cells(stratum, breaks, cells) -> set:
    out = set()
    for piece in stratum:
        if piece[0] == "point":
            c = ("point", piece[1])
            if c not in cells:
                raise InputError("point piece off the breakpoint grid")
            out.add(c)
        else:
            _, plo, phi = piece
            for c in cells:
                if c[0] == "point" and plo < c[1] < phi:
                    out.add(c)
                elif c[0] == "open" and plo <= c[1] and c[2] <= phi:
                    out.add(c)
    return out


def frontier_check(model: StratifiedInterval) -> bool:
    """Whether the closure of every stratum is a union of strata.

    Closure is computed exactly on the cell decomposition induced by all
    piece endpoints, so the answer carries no numeric tolerance.
    """
    breaks, cells = _interval_cells(model)
    covered: dict = {}
    strata_cells = []
    for sid, stratum in enumerate(model.strata):
        sc = _stratum_cells(stratum, breaks, cells)
        strata_cells.append(sc)
        for c in sc:
            if c in covered:
                raise InputError("strata overlap; not a partition of the interval")
            covered[c] = sid
    if len(covered) != len(cells):
        raise InputError("strata do not cover the interval")
    for sc in strata_cells:
        closure = set(sc)
        for c in sc:
            if c[0] == "open":
                closure.add(("point", c[1]))
                closure.add(("point", c[2]))
        touched = {covered[c] for c in closure}
        for tid in touched:
            if not strata_cells[tid] <= closure:
                return False
    return True


def quotient_interval_model(
    a: ActionModel, cloud: SampleCloud, klein: KleinPartition | None = None
) -> StratifiedInterval:
    """Pushforward of the cloud through the action's interval projection.

    Strata are the images of the Klein blocks: blocks whose values collapse
    to isolated spots become point strata; the rest fill the open cells
    between those spots. The block holding the principal orbit type is open
    and dense in the quotient, so it always fills open cells, however
    sparsely the sample spreads its values.
    """
    if a.interval is None:
        raise InputError(f"action {a.name!r} has no interval quotient model")
    if klein is None:
        klein = klein_partition(cloud)
    vals = np.asarray(a.interval.projection(cloud.points), dtype=float)
    for orb in klein.orbits:
        if len(orb) > 1:
            spread = float(np.ptp(vals[list(orb)]))
            if spread > cloud.tol.match_eps:
                raise ClassificationError(
                    "projection values differ along an identified orbit"
                )
    lo, hi = a.interval.endpoints
    principal = principal_dimension(cloud).subgroup
    point_strata = {}
    continuum = []
    breakpoints = {lo, hi}
    for bid, block in enumerate(klein.blocks):
        v = np.sort(vals[list(block)])
        gaps = np.where(np.diff(v) > 1e-3)[0]
        clusters = np.split(v, gaps + 1)
        has_principal = any(
            groups.classes_conjugate(cloud.stabs[i].subgroup, principal, cloud.tol)
            for i in block
        )
        if not has_principal and all(c[-1] - c[0] <= 1e-6 for c in clusters):
            # + 0.0 turns a negative zero from rounding into plain zero
            spots = tuple(float(np.round(np.mean(c), 6)) + 0.0 for c in clusters)
            point_strata[bid] = spots
            breakpoints.update(spots)
        else:
            continuum.append(bid)
    breaks = sorted(breakpoints)
    strata = []
    labels = []
    for bid in sorted(point_strata):
        strata.append(tuple(("point", s) for s in point_strata[bid]))
        labels.append(bid)
    for bid in continuum:
        pieces = []
        v = vals[list(klein.blocks[bid])]
        for u, w in zip(breaks, breaks[1:]):
            if np.any((u < v) & (v < w)):
                pieces.append(("open", u, w))
        strata.append(tuple(pieces))
        labels.append(bid)
    order = sorted(range(len(strata)), key=lambda t: labels[t])
    return StratifiedInterval(
        endpoints=(float(lo), float(hi)),
        strata=tuple(strata[t] for t in order),
        labels=tuple(labels[t] for t in order),
    )


# ---------------------------------------------------------------------------
# orbifold criterion
# ---------------------------------------------------------------------------


def orbifold_criterion(cloud: SampleCloud) -> bool:
    """Whether the sampled quotient is an orbifold.

    True when every non-principal point is an orbifold point with a finite
    effective slice action. The dimension map must be constant exactly in
    that case, so disagreement between the two readings raises instead of
    returning an answer.
    """
    principal = principal_dimension(cloud)
    structural = True
    for st, rep in zip(cloud.stabs, cloud.reps):
        lab = classify_singularity(st, principal.subgroup, cloud.tol)
        if lab.label == "OrthofoldPoint":
            structural = False
            break
        if lab.label == "OrbifoldPoint":
            finite_eff = st.lie_kernel.shape[1] == 0 or not rep.weights
            if not finite_eff:
                structural = False
                break
    constant = len(np.unique(cloud.quotient_dims)) == 1
    if structural != constant:
        raise ClassificationError(
            "dimension map and local structure disagree on orbifoldness"
        )
    return structural

"""Quotient-side structures of a compact group action.

Local-model fingerprints of quotient points, orbit identification, the
inverse Klein partition of the cloud, the correspondence map from
isostabilizer blocks with its merge and split witnesses, partition
comparison, and exact frontier checking on the one-dimensional interval
models.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd

import numpy as np

from . import groups
from .actions import ActionModel
from .errors import (
    ClassificationError,
    CorrespondenceError,
    InputError,
)
from .isotropy import (
    SliceRep,
    canonical_weight_rows,
    transport_element,
)
from .numerics import MATCH_EPS
from .seeding import rng_for
from .strata import PartitionOfM, PrincipalData, SampleCloud, distinct_pairs, index_groups


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
    slice_stab_profile: tuple
    effective_signature: tuple


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

# orthogonal slice matrices move non-fixed unit vectors at unit scale while
# the closed-form witnesses carry rounding noise many orders below this cut,
# so it sits in a wide gap
_FIX_EPS = 1e-5


def _sample_labels(reps: list, samples: list, circle_label) -> list:
    """Stabilizer label of each nonzero slice vector under the slice action:
    samples[r] holds vectors of the slice of reps[r], and labels[r] theirs.

    The stabilizer H_v is counted one component of H at a time. An element
    exp(psi . A) of the identity component turns plane p by weights[p] . psi,
    so the elements carrying w v back to v solve W psi = b (mod 2 pi): W
    holds the rows of the planes v touches, and b their angles from w v to
    v, one target per witness w. groups.congruence_solutions gives one
    solution per component and the free dimension of H_v, and a solution
    counts when it turns w v to within _FIX_EPS of v. A slice without
    planes has nothing to solve: each witness is its own single candidate
    and all k coordinates are free. The label reads the free dimension and
    the count. This is the one labeller of every Klein profile: a finite
    stabilizer has no planes and k = 0, so its label is the number of
    witnesses that fix v.

    Reps of one shape (slice dimension, sample count, witnesses, fixed
    directions, planes and Lie dimension) are stacked, so each step is one
    product over all their samples. The congruences of every sample, across
    reps, that touches the same rows W share one congruence_solutions call,
    their targets stacked; each sample's solutions are the rows of its own
    targets, as if solved alone.
    """
    labels = [[None] * len(V) for V in samples]
    shapes: dict = {}
    for r, (rep, V) in enumerate(zip(reps, samples)):
        shape = (len(V), rep.witness_mats.shape, rep.fixed.shape, rep.planes.shape[0], rep.lie_mats.shape[0])
        shapes.setdefault(shape, []).append(r)
    pending: dict = {}  # W -> [(rep indices, sample indices, solved state)]
    for (S, _, _, p, k), group in shapes.items():
        if S == 0:
            continue
        V = np.array([samples[r] for r in group])
        # each row scaled by the square root of its dot product, as v / sqrt(v @ v)
        V = V / np.sqrt(np.matmul(V[..., None, :], V[..., :, None]))[..., 0]
        wv = np.matmul(np.array([reps[r].witness_mats for r in group])[:, None], V[:, :, None, :, None])[..., 0]
        # no element of the identity component turns the fixed coordinates
        d = (wv - V[:, :, None, :]) @ np.array([reps[r].fixed for r in group])[:, None]
        miss = np.einsum("...z,...z->...", d, d)
        if p == 0:
            counts = np.count_nonzero(miss <= _FIX_EPS**2, axis=2).tolist()
            for r, row in zip(group, counts):
                labels[r] = [_label(reps[r], k, c, circle_label) for c in row]
            continue
        rows = np.array([reps[r].weights for r in group], dtype=np.int64)
        # plane coordinates as complex numbers: exp(psi . A) multiplies
        # them by exp(i weights[p] . psi)
        P = np.array([reps[r].planes for r in group])
        planes = P[..., 0] + 1j * P[..., 1]
        zv = np.matmul(planes[:, None], V[..., None])[..., 0]
        zw = wv @ np.swapaxes(planes, 1, 2)[:, None]
        # a plane under 1e-6 of v cannot move it past the fixer cut
        touched = np.abs(zv) > 1e-6
        # the samples of equal weight rows touching the same planes share W
        weights = [rows[j].tobytes() for j in range(len(group))]
        by_rows: dict = {}
        for j, pattern in enumerate(touched.tolist()):
            for t, on in enumerate(pattern):
                js, ts = by_rows.setdefault((weights[j], tuple(on)), ([], []))
                js.append(j)
                ts.append(t)
        for (_, on), (js, ts) in by_rows.items():
            on = np.array(on, dtype=bool)
            W = rows[js[0]][on]
            # the target of sample (j, t) and witness w, one angle per touched plane
            b = np.angle(zv[js, ts][:, None, on] * zw[js, ts][:, :, on].conj())
            solve = (rows[js], zv[js, ts], zw[js, ts], miss[js, ts])
            pending.setdefault((W.shape, W.tobytes()), []).append(([group[j] for j in js], ts, b, solve))
    for (shape, raw), parts in pending.items():
        W = np.frombuffer(raw, dtype=np.int64).reshape(shape)
        targets = np.concatenate([b.reshape(b.shape[0] * b.shape[1], shape[0]) for _, _, b, _ in parts])
        psi, free = groups.congruence_solutions(W, targets)
        lo = 0
        for owners, ts, b, (rows, zv, zw, miss) in parts:
            n, m = b.shape[:2]
            # the solutions of each sample and witness, (n, m, components, k)
            sol = psi[lo : lo + n * m].reshape(n, m, *psi.shape[1:])
            lo += n * m
            turned = zw[:, :, None, :] * np.exp(1j * (sol @ np.swapaxes(rows, 1, 2)[:, None]))
            total = miss[:, :, None] + (np.abs(turned - zv[:, None, None, :]) ** 2).sum(axis=3)
            counts = np.count_nonzero(total <= _FIX_EPS**2, axis=(1, 2)).tolist()
            for r, t, c in zip(owners, ts, counts):
                labels[r][t] = _label(reps[r], free, c, circle_label)
    return labels


def _label(rep: SliceRep, free: int, count: int, circle_label) -> str:
    """Label of a slice vector whose stabilizer has free dimension free and
    count solutions within _FIX_EPS, under rep."""
    if free == 0:
        return "Trivial" if count == 1 else f"Zn({count})"
    k = rep.lie_mats.shape[0]
    if free == k and count == rep.witness_mats.shape[0]:
        return rep.stab_label
    if count > 1:
        return "O2" if k == 1 else f"Other({free},{count})"
    return circle_label if free == 1 else f"Torus({free})"


def _profile_samples(a: ActionModel, reps: list, seed: int) -> list:
    """The nonzero slice vectors whose stabilizers make up each rep's
    profile, one (S, s) array per rep.

    A rep with stabilizer algebra gives the first axis of each rotating
    plane and of its fixed directions. One without gives the first fixed
    vector of each non-identity witness that fixes one, read from one
    stacked SVD per slice dimension. Every rep then adds the four generic
    draws of its slice dimension, which come from a per-action stream, so
    points with the same slice structure see the same generic coefficients.
    """
    out = [np.zeros((0, 0))] * len(reps)
    finite: dict = {}
    for r, rep in enumerate(reps):
        s = rep.slice_dim
        if s == 0:
            continue
        if rep.lie_mats.shape[0]:
            out[r] = np.concatenate([rep.planes[:, :, 0], rep.fixed[:, :1].T, _generic_draws(a.name, seed, s)])
        else:
            finite.setdefault(s, []).append(r)
    for s, idx in finite.items():
        draws = _generic_draws(a.name, seed, s)
        moving = np.concatenate([reps[r].witness_mats[1:] for r in idx])
        _, sv, vt = np.linalg.svd(moving - np.eye(s))
        fix = sv <= _FIX_EPS
        has = fix.any(axis=1)
        # the first fixed vector, as the singular values order them
        first = vt[has, np.argmax(fix[has], axis=1)]
        owner = np.repeat(np.arange(len(idx)), [reps[r].witness_mats.shape[0] - 1 for r in idx])[has]
        # each rep's fixed vectors, then its draws, by a stable sort on the owner
        tag = np.concatenate([2 * owner, np.repeat(2 * np.arange(len(idx)) + 1, len(draws))])
        rows = np.concatenate([first, np.tile(draws, (len(idx), 1))])[np.argsort(tag, kind="stable")]
        bounds = np.cumsum([0, *(np.bincount(owner, minlength=len(idx)) + len(draws)).tolist()]).tolist()
        for r, lo, hi in zip(idx, bounds, bounds[1:]):
            out[r] = rows[lo:hi]
    return out


@lru_cache(maxsize=64)
def _generic_draws(name: str, seed: int, s: int) -> np.ndarray:
    """The four generic profile draws in a slice of dimension s.

    They come from the per-action stream alone, so they are drawn once per
    slice dimension and shared read-only.
    """
    draws = rng_for(seed, name, "slice-profile").normal(size=(4, s))
    draws.flags.writeable = False
    return draws


def _slice_stab_profiles(a: ActionModel, reps: list, seed: int) -> list:
    """The profile of each rep: the sorted stabilizer labels at its profile
    samples, every sample labelled in one _sample_labels pass."""
    labels = _sample_labels(reps, _profile_samples(a, reps, seed), a.group.circle_label)
    return [tuple(sorted(row)) for row in labels]


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
    if rep.weights:
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
    traces = tuple(sorted(round(float(w.trace()), 6) + 0.0 for w in mats))
    return ("finite", len(mats), traces)


# ---------------------------------------------------------------------------
# local models and klein blocks
# ---------------------------------------------------------------------------


def local_models(a: ActionModel, stabs, reps, seed: int = 0) -> list[LocalModelFingerprint]:
    """Fingerprints of the local quotient models at stabilized points.

    stabs and reps are aligned. By the slice theorem the local model depends
    only on the stabilizer and its slice representation, so one fingerprint
    is computed per distinct (stabilizer class, rep content) and handed to
    every point of the pair, the same object. The points are first grouped
    by their class and rep objects (strata.distinct_pairs), and a rep's
    content, every field the fingerprint reads (_rep_content), is taken
    once per group, so equal reps share a fingerprint whether or not
    slice_representations shares their objects. Fingerprint components are
    decided at fixed absolute cuts, and the samples of every distinct rep
    are labelled in one _slice_stab_profiles pass.
    """
    first, slot = distinct_pairs(stabs, reps)
    seen: dict = {}
    unique, owner = [], []
    for i in first:
        stab, rep = stabs[i], reps[i]
        j = seen.setdefault((_rep_content(rep), stab.subgroup), len(unique))
        if j == len(unique):
            unique.append((stab, rep))
        owner.append(j)
    profiles = _slice_stab_profiles(a, [rep for _, rep in unique], seed)
    fps = [
        LocalModelFingerprint(
            slice_dim=rep.slice_dim,
            stab_class=stab.subgroup,
            rep_fingerprint=(
                rep.rep_kind,
                canonical_weight_rows(rep.weights),
                rep.zero_dims,
                rep.characters,
            ),
            slice_stab_profile=profile,
            effective_signature=_effective_signature(rep),
        )
        for (stab, rep), profile in zip(unique, profiles)
    ]
    per_pair = [fps[j] for j in owner]
    return [per_pair[e] for e in slot.tolist()]


def _rep_content(rep: SliceRep) -> tuple:
    """Every field of rep that a fingerprint reads, arrays by shape and bytes."""
    w, lie, planes, fixed = rep.witness_mats, rep.lie_mats, rep.planes, rep.fixed
    return (
        (rep.stab_label, rep.slice_dim, rep.rep_kind, rep.weights, rep.zero_dims, rep.characters),
        (w.shape, lie.shape, planes.shape, fixed.shape),
        (w.tobytes(), lie.tobytes(), planes.tobytes(), fixed.tobytes()),
    )


def _klein_key(f: LocalModelFingerprint) -> tuple:
    return (f.slice_dim, f.slice_stab_profile, f.effective_signature)


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
    if a.group.kind == "torus" and a.ambient_pairs is not None:
        cols = []
        for coords, _ in a.ambient_pairs:
            if len(coords) == 1:
                cols.append(pts[:, coords[0]])
            else:
                i, j = coords
                cols.append(np.sqrt(pts[:, i] ** 2 + pts[:, j] ** 2))
        return np.stack(cols, axis=1)
    if a.group.kind == "finite" and m.kind in ("sphere", "product_spheres", "euclidean"):
        return np.einsum("mij,nj->nmi", a.element_ambs, pts).mean(axis=1)
    return np.zeros((pts.shape[0], 0))


def identify_orbits(cloud: SampleCloud) -> tuple:
    """Cloud indices grouped by orbit, each merge certified by a transport.

    Candidate pairs share their stabilizer class, orbit dimension, slice
    weights and rounded orbit invariants; a pair joins when
    transport_element finds a group element carrying one point to the
    other. Returns ascending index tuples ordered by smallest member.

    All but the invariants is read once per distinct (class, rep) pair of
    the cloud (SampleCloud.pairs), and the distinct keys are ranked in the
    order they sort; each point takes its pair's rank by array takes. One
    np.lexsort over (rank, rounded invariants) then lays out the candidate
    groups in key order, each ascending. A group of one point tries no
    transport and never reaches Python; inside a larger group the pairs are
    tried in index order, which is quadratic in the group's size. The
    orbits are read off one array of each point's smallest orbit mate.
    """
    a = cloud.model
    first, slot = cloud.pairs
    inv_raw = _orbit_invariants(a, cloud.points)
    inv = np.round(inv_raw, 6)
    # the key of each pair, as a number of the distinct keys; the class
    # labels and canonical weight rows are shared by the pairs of equal
    # class object and weights
    shown: dict = {}
    rows: dict = {}
    numbers: dict = {}
    number = []
    for i, odim in zip(first, cloud.orbit_dims[first].tolist()):
        cls, rep = cloud.stabs[i].subgroup, cloud.reps[i]
        label = shown.get(id(cls))
        if label is None:
            label = shown[id(cls)] = cls.display()
        canonical = rows.get(rep.weights)
        if canonical is None:
            canonical = rows[rep.weights] = canonical_weight_rows(rep.weights)
        key = (label, odim, canonical, rep.zero_dims, rep.characters)
        number.append(numbers.setdefault(key, len(numbers)))
    rank_of = {key: r for r, key in enumerate(sorted(numbers))}
    rank = np.array([rank_of[key] for key in numbers])[np.array(number)[slot]]
    # np.lexsort sorts by its last key first
    order = np.lexsort((*inv.T[::-1], rank))
    rank, inv = rank[order], inv[order]
    starts = np.flatnonzero(
        np.concatenate([[True], (rank[1:] != rank[:-1]) | (inv[1:] != inv[:-1]).any(axis=1)])
    )
    ends = np.concatenate([starts[1:], [len(order)]])
    several = ends - starts > 1

    # the parent of each merged point that is not its set's root; a root is
    # the smallest member of its set
    parent: dict = {}

    def find(i):
        root = i
        while root in parent:
            root = parent[root]
        while i != root:
            parent[i], i = root, parent[i]
        return root

    for lo, hi in zip(starts[several].tolist(), ends[several].tolist()):
        idx = order[lo:hi].tolist()
        for p, i in enumerate(idx):
            for j in idx[p + 1 :]:
                if find(i) == find(j):
                    continue
                # orbit mates agree on the raw invariants to machine noise,
                # so a visible gap rules the pair out without a transport solve
                if inv_raw.shape[1] and np.abs(inv_raw[i] - inv_raw[j]).max() > 1e-7:
                    continue
                g = transport_element(a, cloud.points[i], cloud.points[j])
                if g is not None:
                    ri, rj = find(i), find(j)
                    parent[max(ri, rj)] = min(ri, rj)
    lead = np.arange(len(cloud))
    if parent:
        merged = list(parent)
        lead[merged] = [find(i) for i in merged]
    return tuple(index_groups(lead))


def klein_partition(cloud: SampleCloud) -> PartitionOfM:
    """The inverse Klein stratification: Klein strata pulled back to the cloud.

    Each point is keyed by the _klein_key of its own local-model
    fingerprint, and points sharing a key form one block. The fingerprints
    are taken once per distinct (class, rep) pair of the cloud
    (SampleCloud.pairs), the key once per distinct fingerprint, and each
    point reaches its block by array indexing. The orbits are not read, so
    that each orbit lies in one block is a checked property, not a
    construction. Block j is labelled S<j> and carries the fingerprint of
    its smallest index and its quotient dimension.
    """
    first, slot = cloud.pairs
    fps = local_models(cloud.model, [cloud.stabs[i] for i in first], [cloud.reps[i] for i in first], cloud.seed)
    # pairs of equal rep content share one fingerprint object
    numbers: dict = {}
    keyed: dict = {}
    key = []
    for fp in fps:
        k = keyed.get(id(fp))
        if k is None:
            k = keyed[id(fp)] = numbers.setdefault(_klein_key(fp), len(numbers))
        key.append(k)
    # disjoint blocks sort by their smallest members
    blocks = sorted(index_groups(np.array(key)[slot]))
    labels = tuple(
        {"label": f"S{j}", "fingerprint": fps[slot[b[0]]], "dim": int(cloud.quotient_dims[b[0]])}
        for j, b in enumerate(blocks)
    )
    return PartitionOfM(blocks=tuple(blocks), block_labels=labels)


# ---------------------------------------------------------------------------
# correspondence and partition comparison
# ---------------------------------------------------------------------------


def _block_owner(p: PartitionOfM, q: PartitionOfM) -> dict:
    """q.block_of(), once p and q are checked to cover one index set."""
    if sorted(i for b in p.blocks for i in b) != sorted(i for b in q.blocks for i in b):
        raise InputError("partitions cover different index sets")
    return q.block_of()


def correspondence(iso: PartitionOfM, klein: PartitionOfM) -> CorrespondenceReport:
    """Map isostabilizer blocks into the Klein blocks containing them.

    Raises when a block straddles two Klein blocks: that would falsify
    well-definedness of the induced map, so it is a hard failure rather
    than a reported state.
    """
    owner = _block_owner(iso, klein)
    mapping = []
    for bid, b in enumerate(iso.blocks):
        kids = sorted({owner[i] for i in b})
        if len(kids) != 1:
            raise CorrespondenceError(bid, tuple(kids))
        mapping.append(kids[0])
    hit = set(mapping)
    surjective = hit == set(range(len(klein.blocks)))
    injective = len(hit) == len(mapping)

    # conjugacy depends on the classes alone, so both witness lists are read
    # off the blocks of each distinct class, kept in block order
    by_class: dict = {}
    for bid, lab in enumerate(iso.block_labels):
        by_class.setdefault(lab["subgroup"], []).append(bid)

    # per display tag, the first pair p < q of non-conjugate blocks inside
    # one Klein block: p the first block of its class there, q the first
    # block of the other class after p
    in_klein: dict = {}
    for cls, ids in by_class.items():
        for bid in ids:
            in_klein.setdefault(mapping[bid], {}).setdefault(cls, []).append(bid)
    first: dict = {}
    for kid, members in in_klein.items():
        for ci, a_ids in members.items():
            for cj, b_ids in members.items():
                j = bisect_right(b_ids, a_ids[0])
                if j == len(b_ids) or groups.classes_conjugate(ci, cj):
                    continue
                pair = (a_ids[0], b_ids[j])
                tag = (ci.display(), cj.display(), kid)
                first[tag] = min(first.get(tag, pair), pair)
    merge = sorted(((pair, tag[2]) for tag, pair in first.items()), key=lambda e: (e[1], e[0]))

    class_groups: list = []
    for cls, ids in by_class.items():
        kids = {mapping[bid] for bid in ids}
        for grp in class_groups:
            if groups.classes_conjugate(cls, grp["cls"]):
                grp["kids"] |= kids
                break
        else:
            class_groups.append({"cls": cls, "kids": kids})
    split = [
        (grp["cls"].display(), tuple(sorted(grp["kids"])))
        for grp in class_groups
        if len(grp["kids"]) > 1
    ]

    return CorrespondenceReport(
        mapping=tuple(mapping),
        surjective=surjective,
        injective=injective,
        merge_witnesses=tuple(merge),
        split_witnesses=tuple(split),
    )


def compare_partitions(p: PartitionOfM, q: PartitionOfM) -> str:
    """Refinement relation between two partitions of one index set."""

    def refines(r, owner):
        return all(len({owner[i] for i in b}) == 1 for b in r.blocks)

    pq = refines(p, _block_owner(p, q))
    qp = refines(q, p.block_of())
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
    cloud: SampleCloud, orbits, klein: PartitionOfM, principal: PrincipalData
) -> StratifiedInterval:
    """Pushforward of the cloud through its action's interval projection.

    orbits and klein are identify_orbits(cloud) and klein_partition(cloud);
    the projection must be constant along each orbit. Strata are
    the images of the Klein blocks: blocks whose values collapse
    to isolated spots become point strata; the rest fill the open cells
    between those spots. The block holding the principal orbit type is open
    and dense in the quotient, so it always fills open cells, however
    sparsely the sample spreads its values.
    """
    a = cloud.model
    if a.interval is None:
        raise InputError(f"action {a.name!r} has no interval quotient model")
    vals = np.asarray(a.interval.projection(cloud.points), dtype=float)
    for orb in orbits:
        if len(orb) > 1:
            spread = float(np.ptp(vals[list(orb)]))
            if spread > MATCH_EPS:
                raise ClassificationError(
                    "projection values differ along an identified orbit"
                )
    lo, hi = a.interval.endpoints
    point_strata = {}
    continuum = []
    breakpoints = {lo, hi}
    for bid, block in enumerate(klein.blocks):
        v = np.sort(vals[list(block)])
        gaps = np.where(np.diff(v) > 1e-3)[0]
        clusters = np.split(v, gaps + 1)
        has_principal = any(
            groups.classes_conjugate(cloud.stabs[i].subgroup, principal.subgroup)
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


def orbifold_criterion(cloud: SampleCloud, labels: list) -> bool:
    """Whether the sampled quotient is an orbifold.

    labels are the cloud's singularity_labels. True when every
    non-principal point is an orbifold point with a finite effective slice
    action. The dimension map must be constant exactly in that case, so
    disagreement between the two readings raises instead of returning an
    answer. A label is decided per class, so each of the cloud's (class,
    rep) pairs is read at its first point.
    """
    structural = True
    for i in cloud.pairs[0]:
        st, rep, lab = cloud.stabs[i], cloud.reps[i], labels[i]
        if lab.label == "OrthofoldPoint":
            structural = False
            break
        if lab.label == "OrbifoldPoint":
            finite_eff = st.lie_kernel.shape[1] == 0 or not rep.weights
            if not finite_eff:
                structural = False
                break
    constant = bool(cloud.quotient_dims.min() == cloud.quotient_dims.max())
    if structural != constant:
        raise ClassificationError(
            "dimension map and local structure disagree on orbifoldness"
        )
    return structural

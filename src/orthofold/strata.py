"""Partitions of the sampled manifold and the pointwise dimension map.

Orbit-type blocks, the finer isostabilizer components, principal-stratum
detection with exceptional flags, singularity labels for quotient points,
and the depth bookkeeping of the toric family.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import groups
from .actions import (
    ActionModel,
    normalize,
    pairwise_distances,
    sample_points,
    sort_key,
    tangent_frames,
)
from .errors import ClassificationError, InputError
from .isotropy import fixer_masks, slice_representations, stabilizer
from .kernels import pairwise_chebyshev
from .numerics import MATCH_EPS, BandScan, orthonormalize, widest_coordinate
from .seeding import rng_for

# multiple of the cloud's median nearest-neighbour distance that joins two
# points of one fingerprint group in the isostabilizer epsilon-graph
CLUSTER_EPS_FACTOR = 2.0


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleCloud:
    """Finite proxy for the manifold: representatives with isotropy data.

    Uniform samples occupy the leading indices; the action's special loci
    are appended after them so measure-zero strata are always present.
    """

    action: str
    model: ActionModel
    points: np.ndarray
    stabs: tuple
    reps: tuple
    orbit_dims: np.ndarray
    quotient_dims: np.ndarray
    sample_count: int
    seed: int

    def __len__(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class PartitionOfM:
    """Disjoint cover of the cloud indices with per-block metadata."""

    blocks: tuple
    block_labels: tuple

    def block_of(self) -> dict:
        owner = {}
        for b, idx in enumerate(self.blocks):
            for i in idx:
                owner[i] = b
        return owner


@dataclass(frozen=True)
class SingularityLabel:
    """Nature of a quotient point: manifold, orbifold or general orthofold."""

    label: str
    order: int | None = None

    def __post_init__(self):
        if self.label not in ("ManifoldPoint", "OrbifoldPoint", "OrthofoldPoint"):
            raise InputError(f"unknown singularity label {self.label!r}")
        if self.label == "OrbifoldPoint" and (self.order is None or self.order < 2):
            raise InputError("orbifold points need a structure group of order >= 2")

    def display(self) -> str:
        if self.label == "OrbifoldPoint":
            return f"OrbifoldPoint({self.order})"
        return self.label


@dataclass(frozen=True)
class PrincipalData:
    """Minimal quotient dimension with the class and per-point exceptional flags."""

    value: int
    subgroup: groups.SubgroupClass
    orbit_dim: int
    exceptional: np.ndarray


# ---------------------------------------------------------------------------
# cloud construction and the dimension map
# ---------------------------------------------------------------------------


def build_cloud(a: ActionModel, count: int, seed: int = 0) -> SampleCloud:
    """Sample the manifold and attach per-point isotropy data.

    The catalog's measure-zero loci are appended after the uniform samples.
    The cloud is normalized and validated once, every tangent frame is
    built in one call, and a finite group's fixer test runs once over the
    whole cloud; then each point's stabilizer is computed in closed form
    from its frame (and fixer row), and the slice representations in one
    batch over the cloud. The seed fixes the cloud and rebuilding with the
    same seed reproduces it exactly.
    """
    if count < 1:
        raise InputError("cloud needs a sample count of at least 1")
    m = a.manifold
    uniform = sample_points(m, count, rng_for(seed, a.name, "cloud"))
    special = np.asarray(a.special_points(rng_for(seed, a.name, "specials")), dtype=float)
    if special.size:
        pts = np.vstack([uniform, special.reshape(-1, m.ambient_dim)])
    else:
        pts = uniform
    pts = normalize(m, pts)
    frames = tangent_frames(m, pts)
    fixers = fixer_masks(a, pts) if a.group.kind == "finite" else [None] * len(pts)
    stabs = [stabilizer(a, x, frame, row) for x, frame, row in zip(pts, frames, fixers)]
    reps = slice_representations(a, stabs)
    orbit_dims = np.array([st.orbit_dim for st in stabs], dtype=np.int64)
    quotient_dims = m.intrinsic_dim - orbit_dims
    return SampleCloud(
        action=a.name,
        model=a,
        points=pts,
        stabs=tuple(stabs),
        reps=tuple(reps),
        orbit_dims=orbit_dims,
        quotient_dims=quotient_dims,
        sample_count=count,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def _once_per_class(stabs, decide) -> list:
    """decide(st) for each stabilizer, called once per distinct class, in
    the order the classes first occur, and shared by every stabilizer of
    that class. decide never returns None."""
    seen: dict = {}
    out = []
    for st in stabs:
        d = seen.get(st.subgroup)
        if d is None:
            d = seen[st.subgroup] = decide(st)
        out.append(d)
    return out


def orbit_type_partition(cloud: SampleCloud) -> PartitionOfM:
    """Group cloud points whose stabilizer classes are conjugate.

    A point joins the first block whose class is conjugate to its own, else
    opens a new one. Blocks are only appended, so equal classes always join
    the same block: it is found once per distinct class.
    """
    labels: list[dict] = []

    def block(st):
        for b, lab in enumerate(labels):
            if groups.classes_conjugate(st.subgroup, lab["subgroup"]):
                return b
        labels.append({"subgroup": st.subgroup, "label": st.subgroup.display()})
        return len(labels) - 1

    owner = _once_per_class(cloud.stabs, block)
    blocks: list[list[int]] = [[] for _ in labels]
    for i, b in enumerate(owner):
        blocks[b].append(i)
    order = sorted(range(len(blocks)), key=lambda j: blocks[j][0])
    return PartitionOfM(
        blocks=tuple(tuple(blocks[j]) for j in order),
        block_labels=tuple(labels[j] for j in order),
    )


def _fingerprint_features(g: groups.GroupDescriptor, stabs) -> np.ndarray:
    """Feature rows of stabilizers sharing one coarse fingerprint key: the
    witness traces, then the flattened projector onto the Lie span (zeros
    when the span is 0)."""
    traces = np.array([st.subgroup.traces for st in stabs], dtype=float)
    spans = np.zeros((len(stabs), g.lie_dim**2))
    for row, st in zip(spans, stabs):
        if st.lie_kernel.shape[1]:
            q = orthonormalize(st.lie_kernel)
            row[:] = (q @ q.T).ravel()
    return np.hstack([traces, spans])


def _fingerprint_groups(cloud: SampleCloud) -> list[list[int]]:
    """Indices grouped by exact-stabilizer fingerprint.

    The fingerprint is the class label together with the witness trace
    multiset and the stabilizer's Lie span; spans compare as subspaces, via
    projectors, so conjugate-but-unequal stabilizers land in different
    groups. Within a coarse key, features join when their largest
    coordinate difference is <= MATCH_EPS, transitively. Equal feature rows
    (every trivial stabilizer, say) are collapsed first, since distance 0
    always joins; a band scan then runs over the distinct rows, keyed by
    their widest coordinate.
    """
    coarse: dict[tuple, list[int]] = {}
    for i, st in enumerate(cloud.stabs):
        key = (st.subgroup.display(), len(st.subgroup.traces), st.lie_kernel.shape[1])
        coarse.setdefault(key, []).append(i)

    out: list[list[int]] = []
    for key in sorted(coarse):
        idx = coarse[key]
        if len(idx) == 1:
            out.append(idx)
            continue
        feats = _fingerprint_features(cloud.model.group, [cloud.stabs[i] for i in idx])
        distinct, inverse = np.unique(feats, axis=0, return_inverse=True)
        band = BandScan(distinct, widest_coordinate(distinct), pairwise_chebyshev)
        labels = band.epsilon_components(MATCH_EPS)[inverse.ravel()]
        sub: dict[int, list[int]] = {}
        for pos, lab in enumerate(labels):
            sub.setdefault(int(lab), []).append(idx[pos])
        out.extend(sorted(sub.values(), key=lambda c: c[0]))
    return sorted(out, key=lambda c: c[0])


def isostabilizer_decomposition(cloud: SampleCloud) -> PartitionOfM:
    """Split the cloud by exact stabilizer subgroup, then by proximity.

    Points sharing a fingerprint are divided into epsilon-graph components
    under the manifold distance. The epsilon scale is calibrated once on the
    whole cloud, so thin loci with few samples do not self-calibrate to the
    huge gaps between their own points. Both scans are band scans over the
    cloud sorted by actions.sort_key, and the epsilon-graph is one scan whose
    edges join points of the same fingerprint group only; memory stays
    linear in the cloud size.
    """
    m = cloud.model.manifold
    metric = functools.partial(pairwise_distances, m)
    band = BandScan(cloud.points, sort_key(m, cloud.points), metric)
    threshold = CLUSTER_EPS_FACTOR * band.median_nn_distance(m.intrinsic_dim)
    fgroups = _fingerprint_groups(cloud)
    fid_of = np.empty(len(cloud), dtype=np.int64)
    for fid, idx in enumerate(fgroups):
        fid_of[idx] = fid
    roots = band.epsilon_components(threshold, fid_of).tolist()

    blocks = []
    labels = []
    counters: dict[str, int] = {}
    for fid, idx in enumerate(fgroups):
        # idx ascends and a component's root is its smallest member, so the
        # components come out ordered by smallest member
        comps: dict[int, list[int]] = {}
        for i in idx:
            comps.setdefault(roots[i], []).append(i)
        cls = cloud.stabs[idx[0]].subgroup
        for comp in comps.values():
            j = counters.get(cls.display(), 0)
            counters[cls.display()] = j + 1
            blocks.append(tuple(comp))
            labels.append(
                {
                    "subgroup": cls,
                    "label": f"{cls.display()}[{j}]",
                    "fingerprint": fid,
                    "component": j,
                }
            )
    order = sorted(range(len(blocks)), key=lambda j: blocks[j][0])
    return PartitionOfM(
        blocks=tuple(blocks[j] for j in order),
        block_labels=tuple(labels[j] for j in order),
    )


# ---------------------------------------------------------------------------
# principal stratum and singularity labels
# ---------------------------------------------------------------------------


def principal_dimension(cloud: SampleCloud, orbit_type: PartitionOfM) -> PrincipalData:
    """Minimal quotient dimension, its class, and the exceptional mask.

    orbit_type is the cloud's orbit_type_partition. The principal class is
    read off the orbit-type block attaining the
    minimum that holds the most uniform samples (the first sample_count
    points); ties go to the larger block, then to the first index. Catalog
    specials lie on measure-zero loci, so they never outvote the samples. A
    point is flagged exceptional when its class is not the principal one yet
    its orbit already has principal dimension, so the dimension map alone
    cannot see it.
    """
    d_pr = int(cloud.quotient_dims.min())
    attaining = [b for b in orbit_type.blocks if int(cloud.quotient_dims[b[0]]) == d_pr]

    def votes(b):
        return sum(1 for i in b if i < cloud.sample_count)

    elected = min(attaining, key=lambda b: (-votes(b), -len(b), b[0]))
    pcls = cloud.stabs[elected[0]].subgroup
    podim = int(cloud.orbit_dims[elected[0]])
    off = _once_per_class(cloud.stabs, lambda st: not groups.classes_conjugate(st.subgroup, pcls))
    exceptional = (cloud.orbit_dims == podim) & np.array(off, dtype=bool)
    return PrincipalData(value=d_pr, subgroup=pcls, orbit_dim=podim, exceptional=exceptional)


def classify_singularity(stab, principal_class: groups.SubgroupClass) -> SingularityLabel:
    """Geometric nature of the quotient point.

    Principal points are manifold points. A non-principal class of the same
    Lie dimension gives an orbifold point whose order counts the stabilizer
    components; a larger stabilizer dimension gives a general orthofold point.
    """
    cls = stab.subgroup
    if groups.classes_conjugate(cls, principal_class):
        return SingularityLabel("ManifoldPoint")
    if cls.lie_dim < principal_class.lie_dim:
        raise ClassificationError("stabilizer smaller than the principal class")
    if cls.lie_dim == principal_class.lie_dim:
        order = int(len(stab.witnesses))
        if order < 2:
            # a trivial local group leaves a genuinely Euclidean model even
            # when a skewed sample elected some other class as principal
            return SingularityLabel("ManifoldPoint")
        return SingularityLabel("OrbifoldPoint", order=order)
    return SingularityLabel("OrthofoldPoint")


def singularity_labels(cloud: SampleCloud, principal: PrincipalData) -> list[SingularityLabel]:
    """Per-point singularity labels against the cloud's principal class.

    A label reads the stabilizer's class and its witness count, which is the
    length of the class's trace multiset, so it is decided once per distinct
    class.
    """
    return _once_per_class(cloud.stabs, lambda st: classify_singularity(st, principal.subgroup))


# ---------------------------------------------------------------------------
# toric depth
# ---------------------------------------------------------------------------


def toric_depth(t) -> tuple[int, int]:
    """Depth of a positive-orthant point and the dimension n + depth."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InputError("depth expects a nonempty coordinate vector")
    if np.any(t < 0.0):
        raise InputError("depth needs nonnegative coordinates")
    depth = int(np.count_nonzero(t < MATCH_EPS))
    return depth, int(t.size) + depth

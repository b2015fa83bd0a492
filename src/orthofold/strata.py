"""Partitions of the sampled manifold and the pointwise dimension map.

Orbit-type blocks, the finer isostabilizer components, principal-stratum
detection with exceptional flags, singularity labels for quotient points,
and the depth bookkeeping of the toric family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .actions import (
    ActionModel,
    infinitesimal_action,
    pairwise_distances,
    sample_points,
    validate_point,
)
from .errors import ClassificationError, InputError
from .isotropy import slice_representation, stabilizer, witness_pool
from .kernels import graph_components
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    epsilon_components,
    median_nn_distance,
    orthonormalize,
    rank,
)
from .seeding import rng_for


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleCloud:
    """Finite proxy for the manifold: representatives with isotropy data.

    Uniform samples occupy the leading indices; the action's special loci
    are appended after them so measure-zero strata are always present. pool
    is the Haar candidate pool the stabilizer searches used (None for
    finite groups); later searches on the same action reuse it.
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
    tol: Tolerance
    pool: np.ndarray | None

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


def check_partition(blocks, n: int) -> None:
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(n)):
        raise InputError("blocks do not partition the index set")


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


def build_cloud(
    a: ActionModel, count: int, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> SampleCloud:
    """Sample the manifold and attach per-point isotropy data.

    The catalog's measure-zero loci are appended after the uniform samples.
    All stabilizer searches across the cloud share one Haar candidate pool,
    so rebuilding with the same seed reproduces the cloud exactly.
    """
    if count < 1:
        raise InputError("cloud needs a sample count of at least 1")
    uniform = sample_points(a.manifold, count, rng_for(seed, a.name, "cloud"))
    special = np.asarray(a.special_points(rng_for(seed, a.name, "specials")), dtype=float)
    if special.size:
        pts = np.vstack([uniform, special.reshape(-1, a.manifold.ambient_dim)])
    else:
        pts = uniform
    pool = witness_pool(a, seed)
    stabs = []
    reps = []
    for x in pts:
        st = stabilizer(a, x, seed=seed, tol=tol, pool=pool)
        stabs.append(st)
        reps.append(slice_representation(a, st, tol, seed=seed))
    orbit_dims = np.array([st.orbit_dim for st in stabs], dtype=np.int64)
    quotient_dims = a.manifold.intrinsic_dim - orbit_dims
    return SampleCloud(
        action=a.name,
        model=a,
        points=np.stack([st.point for st in stabs]),
        stabs=tuple(stabs),
        reps=tuple(reps),
        orbit_dims=orbit_dims,
        quotient_dims=quotient_dims,
        sample_count=count,
        seed=seed,
        tol=tol,
        pool=pool,
    )


def quotient_dimension(a: ActionModel, x, tol: Tolerance = DEFAULT_TOL) -> int:
    """Pointwise dimension of the orbit space: dim(M) minus the orbit dimension."""
    x = np.asarray(x, dtype=float)
    validate_point(a.manifold, x, tol)
    return int(a.manifold.intrinsic_dim - rank(infinitesimal_action(a, x, tol), tol))


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def orbit_type_partition(cloud: SampleCloud) -> PartitionOfM:
    """Group cloud points whose stabilizer classes are conjugate."""
    blocks: list[list[int]] = []
    labels: list[dict] = []
    for i, st in enumerate(cloud.stabs):
        for blk, lab in zip(blocks, labels):
            if groups.classes_conjugate(st.subgroup, lab["subgroup"], cloud.tol):
                blk.append(i)
                break
        else:
            blocks.append([i])
            labels.append({"subgroup": st.subgroup, "label": st.subgroup.display()})
    order = sorted(range(len(blocks)), key=lambda j: blocks[j][0])
    return PartitionOfM(
        blocks=tuple(tuple(blocks[j]) for j in order),
        block_labels=tuple(labels[j] for j in order),
    )


def _lie_span_projector(g: groups.GroupDescriptor, lie_kernel: np.ndarray) -> np.ndarray:
    d = g.lie_dim
    if lie_kernel.size == 0:
        return np.zeros(d * d)
    q = orthonormalize(lie_kernel)
    return (q @ q.T).ravel()


def _fingerprint_groups(cloud: SampleCloud, tol: Tolerance) -> list[list[int]]:
    """Indices grouped by exact-stabilizer fingerprint.

    The fingerprint is the class label together with the witness trace
    multiset and the stabilizer's Lie span; spans compare as subspaces, via
    projectors, so conjugate-but-unequal stabilizers land in different
    groups.
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
        feats = []
        for i in idx:
            st = cloud.stabs[i]
            feats.append(
                np.concatenate(
                    [
                        np.asarray(st.subgroup.traces, dtype=float),
                        _lie_span_projector(cloud.model.group, st.lie_kernel),
                    ]
                )
            )
        feats = np.stack(feats)
        n = len(idx)
        dist = np.empty((n, n))
        for r in range(n):
            dist[r] = np.abs(feats - feats[r]).max(axis=1)
        labels = graph_components(dist, tol.match_eps)
        sub: dict[int, list[int]] = {}
        for pos, lab in enumerate(labels):
            sub.setdefault(int(lab), []).append(idx[pos])
        out.extend(sorted(sub.values(), key=lambda c: c[0]))
    return sorted(out, key=lambda c: c[0])


def isostabilizer_decomposition(cloud: SampleCloud, tol: Tolerance | None = None) -> PartitionOfM:
    """Split the cloud by exact stabilizer subgroup, then by proximity.

    Points sharing a fingerprint are divided into epsilon-graph components
    under the manifold distance. The epsilon scale is calibrated once on the
    whole cloud, so thin loci with few samples do not self-calibrate to the
    huge gaps between their own points.
    """
    tol = cloud.tol if tol is None else tol
    m = cloud.model.manifold
    threshold = tol.cluster_eps_factor * median_nn_distance(
        pairwise_distances(m, cloud.points)
    )
    blocks = []
    labels = []
    counters: dict[str, int] = {}
    for fid, idx in enumerate(_fingerprint_groups(cloud, tol)):
        comps = epsilon_components(
            cloud.points[idx],
            lambda pts: pairwise_distances(m, pts),
            absolute_eps=threshold,
        )
        cls = cloud.stabs[idx[0]].subgroup
        for comp in comps:
            j = counters.get(cls.display(), 0)
            counters[cls.display()] = j + 1
            blocks.append(tuple(idx[p] for p in comp))
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


def principal_dimension(cloud: SampleCloud) -> PrincipalData:
    """Minimal quotient dimension, its class, and the exceptional mask.

    The principal class is read off the largest orbit-type block attaining
    the minimum. A point is flagged exceptional when its class is not the
    principal one yet its orbit already has principal dimension, so the
    dimension map alone cannot see it.
    """
    d_pr = int(cloud.quotient_dims.min())
    part = orbit_type_partition(cloud)
    # on a representative cloud this is simply the largest block; a skewed
    # cloud (say all specials) still gets the largest block at minimal dim
    attaining = [b for b in part.blocks if int(cloud.quotient_dims[b[0]]) == d_pr]
    largest = sorted(attaining, key=lambda b: (-len(b), b[0]))[0]
    pcls = cloud.stabs[largest[0]].subgroup
    podim = int(cloud.orbit_dims[largest[0]])
    exceptional = np.array(
        [
            int(cloud.orbit_dims[i]) == podim
            and not groups.classes_conjugate(cloud.stabs[i].subgroup, pcls, cloud.tol)
            for i in range(len(cloud))
        ],
        dtype=bool,
    )
    return PrincipalData(value=d_pr, subgroup=pcls, orbit_dim=podim, exceptional=exceptional)


def classify_singularity(
    stab, principal_class: groups.SubgroupClass, tol: Tolerance = DEFAULT_TOL
) -> SingularityLabel:
    """Geometric nature of the quotient point.

    Principal points are manifold points. A non-principal class of the same
    Lie dimension gives an orbifold point whose order counts the stabilizer
    components; a larger stabilizer dimension gives a general orthofold point.
    """
    cls = stab.subgroup
    if groups.classes_conjugate(cls, principal_class, tol):
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


def singularity_labels(cloud: SampleCloud) -> list[SingularityLabel]:
    """Per-point singularity labels against the cloud's principal class."""
    principal = principal_dimension(cloud)
    return [classify_singularity(st, principal.subgroup, cloud.tol) for st in cloud.stabs]


# ---------------------------------------------------------------------------
# toric depth
# ---------------------------------------------------------------------------


def toric_depth(t, tol: Tolerance = DEFAULT_TOL) -> tuple[int, int]:
    """Depth of a positive-orthant point and the dimension n + depth."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InputError("depth expects a nonempty coordinate vector")
    if np.any(t < 0.0):
        raise InputError("depth needs nonnegative coordinates")
    depth = int(np.count_nonzero(t < tol.match_eps))
    return depth, int(t.size) + depth


def toric_consistency(a: ActionModel, z, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Cross-check the dimension formula against the depth of the moment image."""
    n = a.params.get("n")
    if a.manifold.kind != "euclidean" or n is None:
        raise InputError("toric consistency applies to the torus family only")
    z = np.asarray(z, dtype=float)
    t = z[0::2] ** 2 + z[1::2] ** 2
    _, dim = toric_depth(t, tol)
    return quotient_dimension(a, z, tol) == dim

"""Partitions of the sampled manifold and the pointwise dimension map.

Orbit-type blocks, the finer isostabilizer pieces, principal-stratum
detection with exceptional flags, singularity labels for quotient points,
and the depth bookkeeping of the toric family.

The isostabilizer decomposition is the isotropy-type partition
M_H = {x : G_x = H}, each M_H split into its connected components
(Cushman and Sniatycki, Canad. J. Math. 2001). The cloud reads it
pointwise: each point is keyed by its exact stabilizer H and dim M_H at
it, and the points of one key form one piece when dim M_H > 0 and one
piece each when dim M_H = 0; see isostabilizer_decomposition. Every
partition is one owner array over the cloud (PartitionOfM).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import groups
from .actions import ActionModel, lift, normalize, sample_points, tangent_frames
from .errors import ClassificationError, InputError
from .isotropy import _byte_rows, slice_representations, stabilizer, stabilizer_rows
from .numerics import MATCH_EPS, epsilon_components, projectors
from .seeding import rng_for

# Largest sample count of a cloud: `analyze cp2-so3` peaks at about 6 KB a
# point (629 MB at 100 000 samples), so a command stays near 1.3 GB.
MAX_SAMPLES = 200_000


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

    @functools.cached_property
    def pairs(self) -> tuple:
        """The distinct (stabilizer class, slice rep) pairs of the cloud,
        told apart by object and built on first use: (first, slot), first[e]
        the index of the first point of pair e, ascending, and slot[i] the
        pair of point i, an int64 array.

        A pair fixes all that the stages after the cloud read of a point: its
        class, its rep and, through the rep's slice dimension, its orbit
        dimension. So a stage decides once per pair and reaches the points by
        indexing with slot. Each point costs two dict lookups by object id and
        builds no key.
        """
        by_class: dict = {}
        first, slot = [], []
        # stabs and reps keep each keyed object alive, so no id is reused; a
        # cloud has few class objects, while most non-trivial reps are a
        # point's own
        for i, (st, rep) in enumerate(zip(self.stabs, self.reps)):
            by_rep = by_class.get(id(st.subgroup))
            if by_rep is None:
                by_rep = by_class[id(st.subgroup)] = {}
            e = by_rep.get(id(rep))
            if e is None:
                e = by_rep[id(rep)] = len(first)
                first.append(i)
            slot.append(e)
        slot = np.array(slot, dtype=np.int64)
        slot.flags.writeable = False
        return first, slot


@dataclass(frozen=True, eq=False)
class PartitionOfM:
    """A partition of the cloud indices: owner[i], a read-only int64 array,
    is the block of point i, which takes every value 0..B-1, and
    block_labels[j] the metadata of block j (none for the orbits). The
    pipeline numbers blocks by smallest member."""

    owner: np.ndarray
    block_labels: tuple

    def __post_init__(self):
        self.owner.flags.writeable = False

    @functools.cached_property
    def blocks(self) -> tuple:
        """The indices of each block, ascending, in block order."""
        order = np.argsort(self.owner, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.owner)).tolist()
        return tuple(tuple(order[lo:hi]) for lo, hi in zip([0, *ends], ends))


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

    count is at least 1 and at most MAX_SAMPLES. The catalog's measure-zero
    loci are appended after the uniform samples.
    The cloud is normalized and validated once, every tangent frame is
    built in one call, and every stabilizer is solved in one
    isotropy.stabilizer_rows pass over the cloud; each point's stabilizer
    is then assembled from its row, and the slice representations are read
    in one batch over the cloud. The seed fixes the cloud and rebuilding
    with the same seed reproduces it exactly.
    """
    if count < 1:
        raise InputError("cloud needs a sample count of at least 1")
    if count > MAX_SAMPLES:
        raise InputError(f"cloud sample count {count} exceeds the {MAX_SAMPLES} limit")
    m = a.manifold
    uniform = sample_points(m, count, rng_for(seed, a.name, "cloud"))
    special = np.asarray(a.special_points(rng_for(seed, a.name, "specials")), dtype=float)
    if special.size:
        pts = np.vstack([uniform, special.reshape(-1, m.ambient_dim)])
    else:
        pts = uniform
    pts = normalize(m, pts)
    frames = tangent_frames(m, pts)
    rows = stabilizer_rows(a, pts, frames)
    stabs = [stabilizer(a, x, frame, row) for x, frame, row in zip(pts, frames, rows)]
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


def orbit_type_partition(cloud: SampleCloud) -> PartitionOfM:
    """Group cloud points whose stabilizer classes are conjugate, that is,
    share their conjugacy key (SubgroupClass.key).

    The distinct keys are numbered in the order they first occur over the
    cloud's pairs (SampleCloud.pairs), which is the order of their first
    points, and the points reach their key's number through their pairs.
    Block j holds key j, so the blocks come sorted by smallest member.
    """
    first, slot = cloud.pairs
    numbers: dict = {}
    labels = []
    number = []
    for i in first:
        cls = cloud.stabs[i].subgroup
        j = numbers.setdefault(cls.key, len(numbers))
        if j == len(labels):
            labels.append({"subgroup": cls, "label": cls.display()})
        number.append(j)
    return PartitionOfM(owner=np.array(number)[slot], block_labels=tuple(labels))


def _exact_features(cloud: SampleCloud, idx) -> np.ndarray:
    """Feature rows of the stabilizers at the points idx, which share one
    coarse key, so one Lie dimension k and one witness count m.

    For k > 0 a row is the flattened projector onto the stabilizer's Lie
    span (numerics.projectors: a torus's integer kernel basis is not
    orthonormal). For k = 0 it is the
    mean of the m witnesses' ambient matrices, each lifted to fix the point
    (actions.lift): the lifts form a finite group, so their mean is the
    projector onto the fixed space of that group.
    """
    stabs = [cloud.stabs[i] for i in idx]
    if stabs[0].lie_kernel.shape[1]:
        return projectors(np.stack([st.lie_kernel for st in stabs])).reshape(len(stabs), -1)
    m = stabs[0].witness_ambs.shape[0]
    ambs = np.concatenate([st.witness_ambs for st in stabs])
    lifted = lift(cloud.model, ambs, np.repeat(cloud.points[list(idx)], m, axis=0))
    return lifted.reshape(len(idx), m, -1).mean(axis=1)


def _exact_groups(cloud: SampleCloud) -> np.ndarray:
    """Per point, one exact-subgroup label: the index of one point whose
    stabilizer is the same subgroup H, the same index across H.

    The coarse key is the conjugacy key of the class, the witness count m
    and the Lie dimension k, and m = 1, k = 0 is the trivial subgroup; it
    is read once per pair of the cloud. Within any other key, two points
    share H when
    their _exact_features agree. For k > 0, equal Lie spans and equal class
    give equal H on the catalog, where every stabilizer of positive
    dimension is connected or is O2, the normalizer of its circle in SO(3).
    For k = 0, equal fixed-space projectors put each point in the other's
    fixed space, so each stabilizer contains the other. Rows join when
    their largest coordinate difference is <= MATCH_EPS, transitively.
    Equal rows (every trivial stabilizer, say) are collapsed first; the
    epsilon-join then runs over the distinct rows
    (numerics.epsilon_components).
    """
    first, slot = cloud.pairs
    coarse: dict = {}
    number = []
    for i in first:
        st = cloud.stabs[i]
        key = (st.subgroup.key, len(st.subgroup.traces), st.lie_kernel.shape[1])
        number.append(coarse.setdefault(key, len(coarse)))

    coarse_of = np.array(number)[slot]
    exact = np.arange(len(cloud))
    for j, (_, m, k) in enumerate(coarse):
        idx = np.flatnonzero(coarse_of == j)
        # one witness and no Lie kernel: every such point has H = {e}, one row
        rows = np.zeros((len(idx), 1)) if m == 1 and k == 0 else _exact_features(cloud, idx)
        # equal rows collapse bit for bit, several times faster than np.unique
        # with axis=0; -0.0 and 0.0 then join in the epsilon-join, which one
        # distinct row (the poles of s2-zn(n), say) does not need
        _, at, inverse = np.unique(_byte_rows(rows), return_index=True, return_inverse=True)
        components = epsilon_components(rows[at], MATCH_EPS)[inverse] if len(at) > 1 else inverse
        # each point takes the first point of one row of its component
        exact[idx] = idx[at[components]]
    return exact


def fixed_tangent_dim(cloud: SampleCloud, i: int) -> int:
    """dim (T_x M)^H at the point x = cloud.points[i], H its stabilizer:
    the dimension of M_H at x.

    T_x M is the orbit's tangent space plus the normal slice, and by the
    character formula each part's H-fixed dimension is a trace averaged
    over the m witnesses, one per component of H:

    - slice part: (1/m) sum tr(F^T W F), W the witnesses' slice matrices and
      F the slice directions the identity component fixes (rep.fixed). For
      a finite H it is the mean of the slice characters;
    - orbit part: the tangent space of the orbit is g/h, on which H acts by
      Ad. On a torus Ad is trivial, so it is the orbit dimension (0 for a
      finite group). On SO(3) Ad is the rotation itself: the mean of the
      witness traces when h = 0, and 0 when h != 0 (a circle turns the plane
      normal to its axis; all of SO(3) leaves nothing).

    No decomposition is needed, only traces.
    """
    st, rep = cloud.stabs[i], cloud.reps[i]
    F, W = rep.fixed, rep.witness_mats
    slice_part = float(np.einsum("ai,mab,bi->", F, W, F)) / W.shape[0]
    if cloud.model.group.kind != "so3":
        orbit_part = float(st.orbit_dim)
    elif st.lie_kernel.shape[1] == 0:
        orbit_part = float(np.trace(st.witnesses, axis1=1, axis2=2).mean())
    else:
        orbit_part = 0.0
    return int(round(slice_part + orbit_part))


def isostabilizer_decomposition(cloud: SampleCloud) -> PartitionOfM:
    """The components of the isotropy-type sets M_H = {x : G_x = H}, as
    read on the cloud.

    Points are grouped by their exact stabilizer H (_exact_groups), and
    dim M_H (fixed_tangent_dim) is read once per pair of the cloud that
    holds a point whose H is shared. The pieces are keyed by (H, dim M_H): the
    points of one H and one positive dimension form one piece, and every
    other point is its own piece, whatever the order of the points.

    That rule assumes that two components of one M_H of equal positive
    dimension never both meet the cloud: they would merge. It holds on the
    catalog, where every such M_H is connected but one: for the generic
    Zn(2) of cp2-so3, M_H has two components (z and its conjugate, on
    either side of the real locus), yet each meets a cloud in one point at
    most, since M_H has measure zero and no special lies on it. A new
    action must re-check this assumption.

    Blocks are numbered by smallest member and labelled <class>[j], j
    counting the blocks of each class in that order.
    """
    exact = _exact_groups(cloud)
    first, slot = cloud.pairs
    # dim M_H, read once per pair that holds a point whose H another point
    # shares; a point whose H is its own is a piece of its own
    dims = np.zeros(len(first), dtype=np.int64)
    for e in np.flatnonzero(np.bincount(slot[np.bincount(exact)[exact] > 1], minlength=len(first))).tolist():
        dims[e] = fixed_tangent_dim(cloud, first[e])
    dim = dims[slot]
    # the key (H, dim M_H), 0 <= dim M_H <= dim M; a point where it is 0
    # keys itself
    key = np.where(dim > 0, exact, np.arange(len(cloud))) * (cloud.model.manifold.intrinsic_dim + 1) + dim
    _, heads, back = np.unique(key, return_index=True, return_inverse=True)
    # the pieces, numbered by smallest member
    order = np.argsort(heads)
    counters: dict[str, int] = {}
    labels = []
    for i in heads[order].tolist():
        cls = cloud.stabs[i].subgroup
        j = counters.get(cls.display(), 0)
        counters[cls.display()] = j + 1
        labels.append({"subgroup": cls, "label": f"{cls.display()}[{j}]"})
    return PartitionOfM(owner=np.argsort(order)[back], block_labels=tuple(labels))


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
    owner = orbit_type.owner
    firsts = np.unique(owner, return_index=True)[1]
    votes = np.bincount(owner[: cloud.sample_count], minlength=len(firsts))
    # blocks attaining d_pr first, then by votes, then by size; the sort is
    # stable and blocks are numbered by smallest member
    elected = np.lexsort((-np.bincount(owner), -votes, cloud.quotient_dims[firsts] != d_pr))[0]
    pcls = cloud.stabs[firsts[elected]].subgroup
    podim = int(cloud.orbit_dims[firsts[elected]])
    # a block of orbit_type holds the points of one conjugacy key
    exceptional = (cloud.orbit_dims == podim) & (owner != elected)
    return PrincipalData(value=d_pr, subgroup=pcls, orbit_dim=podim, exceptional=exceptional)


def classify_singularity(stab, principal_class: groups.SubgroupClass) -> SingularityLabel:
    """Geometric nature of the quotient point.

    Principal points are manifold points. A non-principal class of the same
    Lie dimension gives an orbifold point whose order counts the stabilizer
    components; a larger stabilizer dimension gives a general orthofold point.
    """
    cls = stab.subgroup
    if cls.key == principal_class.key:
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
    class, and it is the same object at every point of one pair.
    """
    seen: dict = {}
    labels = []
    for i in cloud.pairs[0]:
        st = cloud.stabs[i]
        lab = seen.get(st.subgroup)
        if lab is None:
            lab = seen[st.subgroup] = classify_singularity(st, principal.subgroup)
        labels.append(lab)
    return [labels[e] for e in cloud.pairs[1].tolist()]


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

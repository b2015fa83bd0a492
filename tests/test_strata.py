"""Cloud construction, partitions, principal data and singularity labels."""

import sys
import tracemalloc
from dataclasses import replace
from zlib import crc32

import numpy as np
import pytest

from orthofold import actions, groups, isotropy, numerics, strata
from orthofold.errors import InputError
from orthofold.seeding import rng_for

from oracles import (
    CountingNumpy,
    check_partition,
    exact_features_reference,
    fixed_tangent_dim_reference,
    iso_piece_counts,
    iso_pieces,
    isostabilizer_reference,
    refines,
)


def test_build_cloud_is_deterministic(cloud_factory):
    a = actions.get_action("rp2-so2")
    small = strata.build_cloud(a, 12, seed=5)
    again = strata.build_cloud(a, 12, seed=5)
    assert np.array_equal(small.points, again.points)
    assert [st.subgroup.display() for st in small.stabs] == [
        st.subgroup.display() for st in again.stabs
    ]
    with pytest.raises(InputError):
        strata.build_cloud(a, 0)


@pytest.mark.parametrize("name", ["s2-zn(5)", "s2xs2-so3", "rp2-so2", "cp2-so3", "cn-tn(2)"])
def test_build_cloud_builds_one_frame_per_point(monkeypatch, name):
    # one action per manifold kind: sphere, product, RP^2, CP^2, euclidean.
    # Every frame row comes from one tangent_frames call over the whole
    # cloud: a point framed alone would be a call of its own
    batch = actions.tangent_frames
    rows = []

    def counted_batch(*args, **kwargs):
        out = batch(*args, **kwargs)
        rows.append(out.shape[0])
        return out

    # rebind every module-level name of the function, as `from` imports copy it
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("orthofold"):
            continue
        if getattr(mod, "tangent_frames", None) is batch:
            monkeypatch.setattr(mod, "tangent_frames", counted_batch)
    cloud = strata.build_cloud(actions.get_action(name), 20, seed=0)
    assert rows == [len(cloud)]


@pytest.mark.parametrize("name", ["s2-zn(2)", "s2-zn(5)", "s2-zn(64)"])
def test_build_cloud_runs_one_fixer_test_per_finite_cloud(monkeypatch, name):
    # every mask row comes from one fixer_masks call over the whole cloud,
    # and no point runs the fixer test on its own: neither fixer_masks of
    # one point (which would add calls and rows) nor the per-point
    # displacement of isotropy._displacement
    batch, single = isotropy.fixer_masks, isotropy._displacement
    rows, singles = [], []

    def counted_batch(*args, **kwargs):
        out = batch(*args, **kwargs)
        rows.append(out.shape[0])
        return out

    def counted_single(*args, **kwargs):
        singles.append(1)
        return single(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("orthofold"):
            continue
        if getattr(mod, "fixer_masks", None) is batch:
            monkeypatch.setattr(mod, "fixer_masks", counted_batch)
        if getattr(mod, "_displacement", None) is single:
            monkeypatch.setattr(mod, "_displacement", counted_single)
    cloud = strata.build_cloud(actions.get_action(name), 20, seed=0)
    assert rows == [len(cloud)]
    assert not singles


@pytest.mark.parametrize("name", ["s2-zn(5)", "s2xs2-so3", "rp2-so2", "cp2-so3", "cn-tn(2)"])
def test_build_cloud_calls_the_stabilizer_once_per_point(monkeypatch, name):
    # the per-layer trace counts the stabilizer calls of each cloud build and
    # rejects a run with fewer calls than points, so stabilizers stay per point
    original = isotropy.stabilizer
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("orthofold") and getattr(mod, "stabilizer", None) is original:
            monkeypatch.setattr(mod, "stabilizer", counted)
    cloud = strata.build_cloud(actions.get_action(name), 20, seed=0)
    assert len(calls) == len(cloud)


@pytest.mark.parametrize("name", ["s2-zn(5)", "s2xs2-so3", "rp2-so2", "cp2-so3", "cn-tn(2)"])
def test_build_cloud_solves_every_stabilizer_in_one_batch(monkeypatch, name):
    # one stabilizer_rows call holds a row for every point, and each
    # stabilizer call assembles its point from its row: no point is solved
    # alone (a batch of one would add calls and rows)
    original = isotropy.stabilizer_rows
    rows, unsolved = [], []

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        rows.append(len(out))
        return out

    single = isotropy.stabilizer

    def assembled(a, x, frame=None, row=None):
        unsolved.append(row is None)
        return single(a, x, frame, row)

    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("orthofold"):
            continue
        if getattr(mod, "stabilizer_rows", None) is original:
            monkeypatch.setattr(mod, "stabilizer_rows", counted)
        if getattr(mod, "stabilizer", None) is single:
            monkeypatch.setattr(mod, "stabilizer", assembled)
    cloud = strata.build_cloud(actions.get_action(name), 20, seed=0)
    assert rows == [len(cloud)]
    assert unsolved == [False] * len(cloud)


def test_seeds_do_not_alias():
    # the seed enters the streams unmasked: 0 and 2^32 (and 2^33) are
    # distinct clouds, and a negative seed is refused
    a = actions.get_action("s2-zn(5)")
    clouds = [strata.build_cloud(a, 20, seed=s).points for s in (0, 2**32, 2**33, 2**32 - 1)]
    for i, p in enumerate(clouds):
        for q in clouds[:i]:
            assert not np.array_equal(p, q)
    for s in (-1, -(2**32)):
        with pytest.raises(InputError, match="seed must be nonnegative"):
            strata.build_cloud(a, 20, seed=s)


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1])
def test_seeds_below_two_to_the_32_keep_their_streams(seed):
    # the streams of the pinned payloads: the seed word, then the tag CRCs
    want = np.random.default_rng(np.random.SeedSequence([seed, crc32(b"s2-zn(5)"), crc32(b"cloud")]))
    assert np.array_equal(rng_for(seed, "s2-zn(5)", "cloud").normal(size=8), want.normal(size=8))


@pytest.mark.parametrize(
    "name, point, message",
    [
        ("s2-zn(5)", [np.nan, 0.0, 1.0], "point has non-finite entries"),
        # the squared norm overflows, so normalizing leaves the zero vector
        ("s2-zn(5)", [1e200, 1e200, 0.0], "representative must be a unit vector"),
        ("cp2-u1", [0.0, 1.0, np.inf, 0.0, 0.0, 0.0], "point has non-finite entries"),
        (
            "s2xs2-so3",
            [1e200, 1e200, 0.0, 0.0, 0.0, 1.0],
            "product-sphere representative factors must be unit vectors",
        ),
    ],
)
def test_invalid_special_points_raise_the_point_errors(name, point, message):
    # the cloud is validated once, with the messages of a single point
    a = replace(actions.get_action(name), special_points=lambda rng: np.array([point]))
    with np.errstate(all="ignore"), pytest.raises(InputError, match=f"^{message}$"):
        strata.build_cloud(a, 5, seed=0)


def test_stabilizer_of_a_point_of_the_wrong_shape_names_it():
    # build_cloud reshapes its specials to the ambient width; a single point
    # of another shape reaches the frame validation
    a = actions.get_action("s2-zn(5)")
    with pytest.raises(InputError, match=r"^point of shape \(4,\), expected \(3,\)$"):
        isotropy.stabilizer(a, np.array([0.0, 0.0, 1.0, 0.0]))


def test_cloud_appends_special_loci(cloud_factory):
    cloud = cloud_factory("rp2-so2")
    assert len(cloud) > cloud.sample_count
    pole = np.array([0.0, 0.0, 1.0])
    dists = np.linalg.norm(np.abs(cloud.points) - pole, axis=1)
    assert dists.min() < 1e-9


def _quotient_dim(a, x):
    return a.manifold.intrinsic_dim - isotropy.stabilizer(a, np.asarray(x, dtype=float)).orbit_dim


def test_pointwise_dimension_is_intrinsic_minus_orbit_dim():
    a = actions.get_action("rp2-so2")
    assert _quotient_dim(a, [0.0, 0.0, 1.0]) == 2
    assert _quotient_dim(a, [0.6, 0.0, 0.8]) == 1
    z = actions.get_action("s2-zn(5)")
    assert _quotient_dim(z, [0.0, 0.0, 1.0]) == 2
    assert _quotient_dim(z, [0.6, 0.0, 0.8]) == 2


def test_dimension_identity_on_a_cloud(cloud_factory):
    cloud = cloud_factory("cp2-so3")
    intrinsic = cloud.model.manifold.intrinsic_dim
    assert np.all(cloud.orbit_dims + cloud.quotient_dims == intrinsic)


def test_orbit_type_partition_rp2(cloud_factory):
    cloud = cloud_factory("rp2-so2")
    part = strata.orbit_type_partition(cloud)
    labels = sorted(lab["label"] for lab in part.block_labels)
    assert labels == ["SO2", "Trivial", "Zn(2)"]
    check_partition(part.blocks, len(cloud))


def test_isostabilizer_refines_orbit_type(cloud_factory):
    for name in ("rp2-so2", "cp2-u1", "s2-zn(5)"):
        cloud = cloud_factory(name)
        ot = strata.orbit_type_partition(cloud)
        iso = strata.isostabilizer_decomposition(cloud)
        check_partition(iso.blocks, len(cloud))
        assert refines(iso.blocks, ot.blocks)


def test_isostabilizer_splits_conjugate_circles(cloud_factory):
    # both poles of the product action carry circle stabilizers around
    # different axes, which the decomposition must keep apart
    cloud = cloud_factory("s2xs2-so3")
    iso = strata.isostabilizer_decomposition(cloud)
    circles = [lab for lab in iso.block_labels if lab["subgroup"].display() == "SO2"]
    assert len(circles) >= 2


@pytest.mark.parametrize(
    "name", ["s2-zn(5)", "rp2-so2", "cp2-u1", "cp2-so3", "s2xs2-so3", "cn-tn(2)"]
)
def test_blocked_decomposition_matches_full_matrices(cloud_factory, monkeypatch, name):
    # every manifold kind: sphere, RP^2, CP^2, product, euclidean
    cloud = cloud_factory(name)
    ref = isostabilizer_reference(cloud)
    assert sorted(strata.isostabilizer_decomposition(cloud).blocks) == ref
    # one row per block, then a few rows of the whole cloud per block
    for block_bytes in (1, 3 * 8 * len(cloud)):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", block_bytes)
        assert sorted(strata.isostabilizer_decomposition(cloud).blocks) == ref


@pytest.mark.parametrize(
    "name", ["s2-zn(5)", "rp2-so2", "cp2-u1", "cp2-so3", "s2xs2-so3", "cn-tn(2)", "cn-tn(3)"]
)
def test_fingerprint_features_match_the_row_loop(cloud_factory, name):
    # the exact-subgroup rows of each coarse key, built together with one
    # lift of all the witnesses, match the rows built one stabilizer at a
    # time from the sign or phase of <x, amb x>, far below MATCH_EPS; every
    # action but s2-zn(5) has keys of circle or torus stabilizers, whose
    # rows are span projectors
    cloud = cloud_factory(name)
    coarse = {}
    for i, st in enumerate(cloud.stabs):
        key = (st.subgroup.display(), len(st.subgroup.traces), st.lie_kernel.shape[1])
        coarse.setdefault(key, []).append(i)
    for idx in coarse.values():
        got = strata._exact_features(cloud, idx)
        want = exact_features_reference(cloud, idx)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def test_decomposition_holds_no_square_matrix(cloud_factory):
    cloud = cloud_factory("s2-zn(5)", 3000)
    n = len(cloud)
    tracemalloc.start()
    try:
        iso = strata.isostabilizer_decomposition(cloud)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    check_partition(iso.blocks, n)
    assert peak < n * n * 8 / 8


def test_decomposition_scans_a_band(cloud_factory, monkeypatch):
    # every generic point of cp2-so3 has its own Zn(2), so the feature join
    # has about n distinct rows; the band computes a fraction of their n^2
    # distances
    cloud = cloud_factory("cp2-so3", 2000)
    n = len(cloud)
    counting = CountingNumpy()
    monkeypatch.setattr(numerics, "np", counting)
    strata.isostabilizer_decomposition(cloud)
    assert 0 < sum(rows * cols for rows, cols in counting.shapes) <= 0.4 * n * n


_TRUTH_CLOUDS = [(300, seed) for seed in range(4)] + [(2000, 0)]


@pytest.mark.parametrize("samples, seed", _TRUTH_CLOUDS)
@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)", "cn-tn(4)"])
def test_iso_piece_counts_match_the_truth_table(cloud_factory, name, samples, seed):
    cloud = cloud_factory(name, samples, seed)
    iso = strata.isostabilizer_decomposition(cloud)
    check_partition(iso.blocks, len(cloud))
    assert iso_piece_counts(iso) == iso_pieces(name, cloud)


@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_fixed_tangent_dim_matches_the_null_space(cloud_factory, name):
    # the character formula, traces averaged over the witnesses, against
    # the null space of the whole tangent action, at every point
    cloud = cloud_factory(name, 40, 0)
    for i, st in enumerate(cloud.stabs):
        assert strata.fixed_tangent_dim(cloud, i) == fixed_tangent_dim_reference(cloud.model, st)


def test_principal_data_rp2(cloud_factory):
    cloud = cloud_factory("rp2-so2")
    pr = strata.principal_dimension(cloud, strata.orbit_type_partition(cloud))
    assert pr.value == 1
    assert pr.subgroup.display() == "Trivial"
    assert pr.orbit_dim == 1
    # exceptional flags mark the half-turn locus, not the fixed point
    for i, st in enumerate(cloud.stabs):
        if st.subgroup.display() == "Zn(2)":
            assert bool(pr.exceptional[i])
        else:
            assert not bool(pr.exceptional[i])


def _labels(cloud):
    principal = strata.principal_dimension(cloud, strata.orbit_type_partition(cloud))
    return strata.singularity_labels(cloud, principal)


def test_singularity_labels_rp2(cloud_factory):
    cloud = cloud_factory("rp2-so2")
    labels = _labels(cloud)
    by_class = {}
    for st, lab in zip(cloud.stabs, labels):
        by_class.setdefault(st.subgroup.display(), set()).add(lab.display())
    assert by_class["Trivial"] == {"ManifoldPoint"}
    assert by_class["Zn(2)"] == {"OrbifoldPoint(2)"}
    assert by_class["SO2"] == {"OrthofoldPoint"}


def test_singularity_labels_zn(cloud_factory):
    cloud = cloud_factory("s2-zn(5)")
    labels = _labels(cloud)
    displays = {lab.display() for lab in labels}
    assert displays == {"ManifoldPoint", "OrbifoldPoint(5)"}


@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_distinct_pairs_hold_each_points_class_and_rep(cloud_factory, name):
    cloud = cloud_factory(name)
    first, slot = cloud.pairs
    assert first == sorted(first) and slot[first].tolist() == list(range(len(first)))
    assert len({(id(cloud.stabs[i].subgroup), id(cloud.reps[i])) for i in first}) == len(first)
    for i, e in enumerate(slot.tolist()):
        j = first[e]
        assert cloud.stabs[i].subgroup is cloud.stabs[j].subgroup and cloud.reps[i] is cloud.reps[j]
        # a rep's slice dimension fixes the orbit dimension
        assert cloud.orbit_dims[i] == cloud.orbit_dims[j]


def test_index_groups_match_a_dict_grouping():
    for keys in (np.random.default_rng(0).integers(0, 7, size=200), np.array([4]), np.array([3, 3, 1, 3])):
        want: dict = {}
        for i, k in enumerate(keys.tolist()):
            want.setdefault(k, []).append(i)
        assert strata.index_groups(keys) == [tuple(want[k]) for k in sorted(want)]


@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_per_pair_decisions_are_the_per_point_ones(cloud_factory, name):
    # orbit type, the exceptional flags and the singularity labels are
    # decided once per (class, rep) pair; each must be what deciding at
    # every point gives
    cloud = cloud_factory(name)
    orbit_type = strata.orbit_type_partition(cloud)
    classes, blocks = [], []
    for i, st in enumerate(cloud.stabs):
        for b, cls in enumerate(classes):
            if groups.classes_conjugate(st.subgroup, cls):
                blocks[b].append(i)
                break
        else:
            classes.append(st.subgroup)
            blocks.append([i])
    assert orbit_type.blocks == tuple(sorted(tuple(b) for b in blocks))
    pr = strata.principal_dimension(cloud, orbit_type)
    want = [
        odim == pr.orbit_dim and not groups.classes_conjugate(st.subgroup, pr.subgroup)
        for st, odim in zip(cloud.stabs, cloud.orbit_dims.tolist())
    ]
    assert pr.exceptional.tolist() == want
    labels = strata.singularity_labels(cloud, pr)
    assert labels == [strata.classify_singularity(st, pr.subgroup) for st in cloud.stabs]


def test_toric_depth_values():
    assert strata.toric_depth([1.0, 2.0]) == (0, 2)
    assert strata.toric_depth([0.0, 2.0]) == (1, 3)
    assert strata.toric_depth([0.0, 0.0, 0.0]) == (3, 6)
    with pytest.raises(InputError):
        strata.toric_depth([-1.0, 0.0])
    with pytest.raises(InputError):
        strata.toric_depth([])


def test_toric_depth_matches_the_pointwise_dimension_handpicked():
    a = actions.get_action("cn-tn(2)")
    for z in ([0.5, 0.1, -0.3, 0.9], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]):
        z = np.array(z)
        assert strata.toric_depth(z[0::2] ** 2 + z[1::2] ** 2)[1] == _quotient_dim(a, z)


def test_check_partition_rejects_overlap_and_gap():
    with pytest.raises(InputError):
        check_partition([(0, 1), (1, 2)], 3)
    with pytest.raises(InputError):
        check_partition([(0,), (2,)], 3)
    check_partition([(0, 2), (1,)], 3)

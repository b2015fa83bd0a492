"""Fingerprints, the Klein partition, correspondence and interval models."""

from dataclasses import replace

import numpy as np
import pytest

from orthofold import actions, groups, isotropy, quotient, strata
from orthofold.errors import InputError
from orthofold.strata import PartitionOfM

from oracles import (
    check_partition,
    correspondence_reference,
    hidden_frame,
    identify_orbits_reference,
    klein_by_orbits_reference,
    origin_stabilizer,
    owner_of,
    planted_point_rep,
    planted_torus_action,
    refines,
    sample_label_reference,
    weight_rows_reference,
)


def _part(*blocks):
    return PartitionOfM(owner=owner_of(blocks), block_labels=tuple({} for _ in blocks))


def test_local_model_fingerprint_fields(pipeline_factory):
    pipe = pipeline_factory("rp2-so2")
    cloud = pipe.cloud
    pole = int(np.argmin(np.linalg.norm(np.abs(cloud.points) - [0, 0, 1.0], axis=1)))
    fp = quotient.local_models(cloud.model, [cloud.stabs[pole]], [cloud.reps[pole]])[0]
    assert fp.slice_dim == 2
    assert fp.stab_class.display() == "SO2"
    generic = next(
        i for i, st in enumerate(cloud.stabs) if st.subgroup.display() == "Trivial"
    )
    fg = quotient.local_models(cloud.model, [cloud.stabs[generic]], [cloud.reps[generic]])[0]
    assert fg.slice_dim == 1
    # free away from the origin: every sampled slice vector has a trivial stabilizer
    assert set(fg.slice_stab_profile) == {"Trivial"}
    assert quotient._klein_key(fp) != quotient._klein_key(fg)


def test_klein_key_ignores_the_stabilizer_class(pipeline_factory):
    # two generic points agree on every compared field
    pipe = pipeline_factory("rp2-so2")
    cloud = pipe.cloud
    idx = [i for i, st in enumerate(cloud.stabs) if st.subgroup.display() == "Trivial"]
    f1 = quotient.local_models(cloud.model, [cloud.stabs[idx[0]]], [cloud.reps[idx[0]]])[0]
    f2 = quotient.local_models(cloud.model, [cloud.stabs[idx[1]]], [cloud.reps[idx[1]]])[0]
    assert quotient._klein_key(f1) == quotient._klein_key(f2)


def test_klein_partition_rp2(pipeline_factory):
    pipe = pipeline_factory("rp2-so2")
    kp = pipe.klein
    assert len(kp.blocks) == 3
    assert sorted(lab["dim"] for lab in kp.block_labels) == [1, 1, 2]
    check_partition(kp.blocks, len(pipe.cloud))
    check_partition(pipe.orbits.blocks, len(pipe.cloud))
    # projection constant along each identified orbit
    proj = pipe.action.interval.projection(pipe.cloud.points)
    for orbit in pipe.orbits.blocks:
        vals = proj[list(orbit)]
        assert vals.max() - vals.min() < 1e-8


def test_klein_dims_match_sampled_dimensions(pipeline_factory):
    for name in ("rp2-so2", "cp2-u1"):
        pipe = pipeline_factory(name)
        for block, lab in zip(pipe.klein.blocks, pipe.klein.block_labels):
            assert {int(pipe.cloud.quotient_dims[i]) for i in block} == {lab["dim"]}


@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_each_orbit_lies_in_one_klein_and_one_orbit_type_block(pipeline_factory, name):
    pipe = pipeline_factory(name)
    orbits = pipe.orbits.blocks
    assert list(orbits) == sorted(orbits, key=lambda o: o[0])
    assert all(list(o) == sorted(o) for o in orbits)
    assert refines(orbits, pipe.klein.blocks)
    assert refines(orbits, pipe.orbit_type.blocks)


def test_correspondence_split_witness_cp2_u1(pipeline_factory):
    pipe = pipeline_factory("cp2-u1")
    corr = pipe.corr
    assert corr.surjective
    assert not corr.injective
    split_classes = {w[0] for w in corr.split_witnesses}
    assert "U1" in split_classes
    # merging epsilon-components of one conjugacy class is not a
    # correspondence defect, so no merge witness may cite U1 twice
    for (i, j), _ in corr.merge_witnesses:
        li = pipe.iso.block_labels[i]["subgroup"].display()
        lj = pipe.iso.block_labels[j]["subgroup"].display()
        assert not (li == "U1" and lj == "U1")


def test_correspondence_mapping_is_total(pipeline_factory):
    for name in ("rp2-so2", "s2-zn(5)"):
        pipe = pipeline_factory(name)
        assert len(pipe.corr.mapping) == len(pipe.iso.blocks)
        assert set(pipe.corr.mapping) == set(range(len(pipe.klein.blocks)))


@pytest.mark.parametrize("name", actions.catalog_ids())
def test_correspondence_matches_the_pairwise_scan(pipeline_factory, name):
    pipe = pipeline_factory(name)
    assert quotient.correspondence(pipe.iso, pipe.klein) == correspondence_reference(
        pipe.iso, pipe.klein
    )


# two Other classes share a display tag but not their traces, so they are
# not conjugate; the two Zn(2) classes differ in traces but are conjugate
_PLANTED_CLASSES = (
    groups.SubgroupClass("Trivial", 1, 0),
    groups.SubgroupClass("Zn", 2, 0, (-1.0, 3.0)),
    groups.SubgroupClass("Zn", 2, 0, (1.0, 3.0)),
    groups.SubgroupClass("Zn", 3, 0),
    groups.SubgroupClass("SO2", None, 1),
    groups.SubgroupClass("O2", None, 1),
    groups.SubgroupClass("Other", None, 1, (0.0, 1.0, 3.0)),
    groups.SubgroupClass("Other", None, 1, (-1.0, 1.0, 3.0)),
)


@pytest.mark.parametrize("seed", range(8))
def test_correspondence_matches_the_pairwise_scan_on_interleaved_classes(seed):
    # 60 one-point iso blocks with random classes, spread over 4 Klein blocks
    rng = np.random.default_rng(seed)
    cls = rng.integers(len(_PLANTED_CLASSES), size=60)
    kid = rng.integers(4, size=60)
    iso = PartitionOfM(
        owner=np.arange(60),
        block_labels=tuple({"subgroup": _PLANTED_CLASSES[c]} for c in cls),
    )
    klein = _part(*(tuple(np.flatnonzero(kid == k).tolist()) for k in range(4)))
    got = quotient.correspondence(iso, klein)
    assert got == correspondence_reference(iso, klein)
    assert got.merge_witnesses and got.split_witnesses


def test_klein_labels_name_each_stratum(pipeline_factory):
    pipe = pipeline_factory("rp2-so2")
    klein = pipe.klein
    assert [lab["label"] for lab in klein.block_labels] == ["S0", "S1", "S2"]
    for block, lab in zip(klein.blocks, klein.block_labels):
        root = block[0]
        fp = quotient.local_models(pipe.action, [pipe.cloud.stabs[root]], [pipe.cloud.reps[root]])[0]
        assert quotient._klein_key(lab["fingerprint"]) == quotient._klein_key(fp)
    assert refines(pipe.iso.blocks, klein.blocks)


def test_compare_partitions_relations():
    p = _part((0, 1), (2, 3))
    q = _part((0, 1, 2, 3))
    r = _part((0, 2), (1, 3))
    assert quotient.compare_partitions(p, p) == "Equal"
    assert quotient.compare_partitions(p, q) == "PRefinesQ"
    assert quotient.compare_partitions(q, p) == "QRefinesP"
    assert quotient.compare_partitions(p, r) == "Incomparable"
    with pytest.raises(InputError):
        quotient.compare_partitions(p, _part((0, 1), (2,)))


@pytest.mark.parametrize("other", [((0, 1), (2,)), ((0, 1), (2, 3), (4,))])
def test_partitions_of_different_index_sets_raise_alike(other):
    p = _part((0, 1), (2, 3))
    q = _part(*other)
    for call in (quotient.correspondence, quotient.compare_partitions):
        with pytest.raises(InputError, match="partitions cover different index sets"):
            call(p, q)


def test_frontier_check_hand_models():
    good = quotient.StratifiedInterval(
        endpoints=(0.0, 1.0),
        strata=(
            (("point", 0.0),),
            (("open", 0.0, 1.0),),
            (("point", 1.0),),
        ),
    )
    assert quotient.frontier_check(good)
    # a half-open split: the closure of the left piece grabs 0.5, which
    # sits in a stratum not contained in that closure
    halfopen = quotient.StratifiedInterval(
        endpoints=(0.0, 1.0),
        strata=(
            (("point", 0.0), ("open", 0.0, 0.5)),
            (("point", 0.5), ("open", 0.5, 1.0), ("point", 1.0)),
        ),
    )
    assert not quotient.frontier_check(halfopen)
    overlap = quotient.StratifiedInterval(
        endpoints=(0.0, 1.0),
        strata=((("open", 0.0, 1.0),), (("point", 0.5),)),
    )
    with pytest.raises(InputError):
        quotient.frontier_check(overlap)
    gap = quotient.StratifiedInterval(
        endpoints=(0.0, 1.0),
        strata=((("point", 0.0),), (("point", 1.0),)),
    )
    with pytest.raises(InputError):
        quotient.frontier_check(gap)


def test_quotient_interval_model_rp2(pipeline_factory):
    pipe = pipeline_factory("rp2-so2")
    model = quotient.quotient_interval_model(
        pipe.cloud, pipe.orbits, pipe.klein, pipe.principal
    )
    assert model.endpoints == (0.0, 1.0)
    pieces = [p for s in model.strata for p in s]
    assert ("point", 0.0) in pieces and ("point", 1.0) in pieces
    assert any(p[0] == "open" for p in pieces)
    assert quotient.frontier_check(model)
    assert len(model.labels) == len(model.strata)


def test_orbifold_criterion(pipeline_factory):
    zn, rp2 = pipeline_factory("s2-zn(5)"), pipeline_factory("rp2-so2")
    assert quotient.orbifold_criterion(zn.cloud, zn.labels)
    assert not quotient.orbifold_criterion(rp2.cloud, rp2.labels)


def test_planted_weights_recovered_through_the_slice():
    rows = ((1, 0), (1, 1))
    a = planted_torus_action(rows, zero_dims=1, frame_seed=42)
    st = origin_stabilizer(a)
    assert st.subgroup.display() == "FullGroup"
    rep = isotropy.slice_representations(a, [st])[0]
    assert rep.zero_dims == 1
    assert isotropy.canonical_weight_rows(rep.weights) == isotropy.canonical_weight_rows(rows)


# profile by hand: a plane sample sees the Smith form of its own row, a
# fixed sample the whole stabilizer, a generic draw all rows at once
@pytest.mark.parametrize(
    "rows, zero_dims, profile",
    [
        # two planes share one rate
        (((1,), (1,), (2,)), 1, ("Trivial",) * 6 + ("U1", "Zn(2)")),
        # negative leads, one row repeated
        (((-2,), (1,), (-2,)), 0, ("Trivial",) * 5 + ("Zn(2)",) * 2),
        (((-1, 2), (0, -3), (1, 1)), 2, ("FullGroup", "Other(1,3)", "U1", "U1") + ("Zn(3)",) * 4),
        (((1, -1), (1, -1), (-2, 0)), 0, ("Other(1,2)", "U1", "U1") + ("Zn(2)",) * 4),
    ],
)
def test_planted_rows_are_read_exactly(rows, zero_dims, profile):
    a = planted_torus_action(rows, zero_dims, frame_seed=7)
    st = origin_stabilizer(a)
    rep = isotropy.slice_representations(a, [st])[0]
    # euclidean slices carry no complex structure, so rows lead positive
    assert rep.weights == isotropy.canonical_weight_rows(rows)
    assert rep.zero_dims == zero_dims
    weights, fit_zero_dims, _ = weight_rows_reference(a, st)
    assert (rep.weights, rep.zero_dims) == (weights, fit_zero_dims)
    # each plane turns from its first axis to its second at its row's rates,
    # and the fixed basis is killed by every generator
    for plane, row in zip(rep.planes, rep.weights):
        for mat, w in zip(rep.lie_mats, row):
            assert np.abs(mat @ plane[:, 0] - w * plane[:, 1]).max() < 1e-12
            assert np.abs(mat @ plane[:, 1] + w * plane[:, 0]).max() < 1e-12
    assert np.abs(rep.lie_mats @ rep.fixed).max(initial=0.0) < 1e-12
    basis = np.concatenate([*rep.planes, rep.fixed], axis=1)
    assert np.abs(basis.T @ basis - np.eye(rep.slice_dim)).max() < 1e-12
    assert quotient._slice_stab_profiles(a, [rep], 0)[0] == profile


def _labels(a, rep, vectors):
    """Labels of the slice vectors, by the shipped count and by the reference."""
    circle = a.group.circle_label
    got = [quotient._sample_labels([rep], [[v]], circle)[0][0] for v in vectors]
    return got, [sample_label_reference(rep, v, circle) for v in vectors]


@pytest.mark.parametrize("name", actions.catalog_ids())
def test_sample_labels_match_the_reference(cloud_factory, name):
    for seed in range(4):
        cloud = cloud_factory(name, 40, seed)
        batch = quotient._profile_samples(cloud.model, cloud.reps, seed)
        for rep, samples in zip(cloud.reps, batch):
            alone = quotient._profile_samples(cloud.model, [rep], seed)[0]
            # the batch takes one SVD per slice dimension, yet each rep's
            # samples are those of its own batch of one, bit for bit
            assert samples.shape == alone.shape and samples.tobytes() == alone.tobytes()
            got, ref = _labels(cloud.model, rep, alone)
            assert got == ref


@pytest.mark.parametrize("name", ["cn-tn(3)", "cn-tn(4)"])
def test_sample_labels_match_the_reference_on_higher_tori(cloud_factory, name):
    cloud = cloud_factory(name, 20, 0)
    for rep in cloud.reps:
        got, ref = _labels(cloud.model, rep, quotient._profile_samples(cloud.model, [rep], 0)[0])
        assert got == ref


# planted slices reaching branches no catalog action does: the rank-one
# coset path at q > 2, and Other(k, c) with c > 1
@pytest.mark.parametrize(
    "rows, zero_dims, label",
    [
        (((3,), (6,)), 1, "Zn(3)"),
        (((-1, 2), (0, -3), (1, 1)), 2, "Other(1,3)"),
        (((1, -1), (1, -1), (-2, 0)), 0, "Other(1,2)"),
    ],
)
def test_planted_origin_labels_match_the_reference(rows, zero_dims, label):
    a = planted_torus_action(rows, zero_dims, frame_seed=7)
    rep = isotropy.slice_representations(a, [origin_stabilizer(a)])[0]
    # the origin's slice is the whole space; add every planted axis
    vectors = [*quotient._profile_samples(a, [rep], 0)[0], *hidden_frame(rep.slice_dim, 7).T]
    got, ref = _labels(a, rep, vectors)
    assert got == ref
    assert label in got


def test_planted_inert_circle_with_one_fixing_component():
    # T^2 on R^6 at a point of the plane of row (2, 0): the stabilizer is
    # {0, pi} x T^1. The identity component fixes the plane of row (1, 0),
    # which the half turn reverses, so a vector there is fixed by one
    # component of two; the radial direction is fixed by both
    a = planted_torus_action(((2, 0), (1, 0), (0, 1)), 0, frame_seed=5)
    frame = hidden_frame(6, 5)
    rep, slice_frame = planted_point_rep(a, frame[:, 0], [[0.0], [1.0]], [[np.pi, 0.0]])
    axes = slice_frame.T @ frame[:, [0, 2, 3, 4, 5]]
    got, ref = _labels(a, rep, [*quotient._profile_samples(a, [rep], 0)[0], *axes.T])
    assert got == ref
    assert got[-5:] == [rep.stab_label, "U1", "U1", "Zn(2)", "Zn(2)"]


def test_planted_rank_two_counts_every_component():
    # T^3 on R^10 at a point of the plane of row (4, 0, 0): the stabilizer is
    # Z4 x T^2, the quarter turns t in phi_1 its components. The slice rows
    # are (1, 0) and (1, 1), and two planes are inert under the identity
    # component, turned by t and by 2t. A vector on either rotating plane is
    # fixed by a circle in each of the four components: Other(1,4). On the
    # plane turned by 2t it is fixed by the components t = 0 and pi:
    # Other(2,2). The old count saw only the identity component's circle on
    # the rotating planes and named every partly fixed inert vector Torus(2)
    a = planted_torus_action(
        ((4, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 0), (2, 0, 0)), 0, frame_seed=3
    )
    frame = hidden_frame(10, 3)
    turns = [[t * np.pi / 2, 0.0, 0.0] for t in (1, 2, 3)]
    rep, slice_frame = planted_point_rep(
        a, frame[:, 0], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], turns
    )
    assert rep.weights == ((1, 0), (1, 1)) and rep.witness_mats.shape[0] == 4
    axes = (slice_frame.T @ frame[:, [0, 2, 4, 6, 8]]).T
    got, ref = _labels(a, rep, axes)
    assert got == [rep.stab_label, "Other(1,4)", "Other(1,4)", "Torus(2)", "Other(2,2)"]
    assert ref == [rep.stab_label, "U1", "U1", "Torus(2)", "Torus(2)"]


@pytest.mark.parametrize("n, samples", [(2, 20), (3, 20), (4, 10), (5, 5)])
def test_cn_tn_has_one_klein_block_per_depth(n, samples):
    # the quotient of C^n by T^n is the orthant, stratified by depth: n + 1
    # Klein strata, of dimensions n .. 2n
    cloud = strata.build_cloud(actions.get_action(f"cn-tn({n})"), samples, seed=0)
    klein = quotient.klein_partition(cloud)
    assert len(klein.blocks) == n + 1
    assert sorted(lab["dim"] for lab in klein.block_labels) == list(range(n, 2 * n + 1))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_local_models_are_local_model_in_one_batch(cloud_factory, name, seed):
    cloud = cloud_factory(name, 40, seed)
    a = cloud.model
    batch = quotient.local_models(a, cloud.stabs, cloud.reps, seed=seed)
    for fp, st, rep in zip(batch, cloud.stabs, cloud.reps):
        assert fp == quotient.local_models(a, [st], [rep], seed=seed)[0]
        # every rep is profiled in one pass over the distinct reps; each
        # profile must be its rep's own batch of one
        assert fp.slice_stab_profile == quotient._slice_stab_profiles(a, [rep], seed)[0]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", actions.catalog_ids())
def test_cloud_profiles_are_slice_stab_profile_per_rep(monkeypatch, cloud_factory, name, seed):
    # every rep is profiled in one pass over the cloud, one congruence
    # solve per distinct set of touched weight rows; each profile must be
    # its rep's own, and each W solved once
    cloud = cloud_factory(name, 100, seed)
    a = cloud.model
    reps = list(cloud.reps)
    original = groups.congruence_solutions
    solved = []

    def counted(W, B):
        solved.append((W.shape, np.asarray(W, dtype=np.int64).tobytes()))
        return original(W, B)

    monkeypatch.setattr(groups, "congruence_solutions", counted)
    batch = quotient._slice_stab_profiles(a, reps, seed)
    once = list(solved)
    solved.clear()
    assert batch == [quotient._slice_stab_profiles(a, [rep], seed)[0] for rep in reps]
    assert sorted(once) == sorted(set(solved))


def test_local_models_count_the_witnesses_of_each_rep():
    # the reflections in the x = 0 and y = 0 planes fix the poles together
    # with their product, the half-turn about z. At a pole each reflection's
    # fixed slice vector is fixed by two of the four witnesses, so the
    # batched count must pair a sample with its own rep's witnesses only
    mats = np.array([np.diag(d) for d in ([1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1])])
    a = replace(actions.get_action("s2-zn(2)"), name="reflections", group=groups.finite(mats))
    cloud = strata.build_cloud(a, 12, seed=0)
    fps = quotient.local_models(a, cloud.stabs, cloud.reps)
    assert fps[-1].slice_stab_profile == ("Trivial",) * 4 + ("Zn(2)",) * 2
    for fp, rep in zip(fps, cloud.reps):
        assert fp.slice_stab_profile == quotient._slice_stab_profiles(a, [rep], 0)[0]


@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_identify_orbits_tries_the_reference_transports(monkeypatch, pipeline_factory, name):
    # the candidate keys are shared between equal (rep, class) pairs and
    # only groups of two or more are sorted, yet the same (i, j) pairs
    # reach transport_element in the same order as in the per-point loop
    cloud = pipeline_factory(name).cloud
    index = {x.tobytes(): i for i, x in enumerate(cloud.points)}
    assert len(index) == len(cloud)
    tried, want = [], []

    def recording(a, x, y):
        tried.append((index[x.tobytes()], index[y.tobytes()]))
        return isotropy.transport_element(a, x, y)

    def transport(i, j):
        want.append((i, j))
        return isotropy.transport_element(cloud.model, cloud.points[i], cloud.points[j])

    monkeypatch.setattr(quotient, "transport_element", recording)
    orbits = quotient.identify_orbits(cloud).blocks
    assert orbits == identify_orbits_reference(cloud, transport)
    assert tried == want
    # the other actions' orbit invariants separate every orbit of this cloud
    assert bool(tried) == (name in ("s2xs2-so3", "rp2-so2", "cp2-so3"))


def test_identify_orbits_joins_the_images_of_a_finite_group(monkeypatch):
    # every orbit of a uniform s2-zn(5) cloud is a single point, so no merge
    # is tried there. Plant the Z5 images of three sampled points first among
    # the samples: each must come out as one orbit of five, by the reference
    # loop's transports, tried in its order
    a = actions.get_action("s2-zn(5)")
    original = strata.sample_points

    def with_images(m, count, rng):
        pts = original(m, count, rng)
        images = np.einsum("gij,bj->bgi", a.element_ambs, pts[:3]).reshape(-1, pts.shape[1])
        return np.concatenate([images, pts[3 : count - len(images) + 3]])

    monkeypatch.setattr(strata, "sample_points", with_images)
    cloud = strata.build_cloud(a, 60, seed=0)
    monkeypatch.undo()
    index = {x.tobytes(): i for i, x in enumerate(cloud.points)}
    assert len(index) == len(cloud) == 62
    tried, want = [], []

    def recording(a_, x, y):
        tried.append((index[x.tobytes()], index[y.tobytes()]))
        return isotropy.transport_element(a_, x, y)

    def transport(i, j):
        want.append((i, j))
        return isotropy.transport_element(a, cloud.points[i], cloud.points[j])

    monkeypatch.setattr(quotient, "transport_element", recording)
    orbits = quotient.identify_orbits(cloud).blocks
    assert orbits == identify_orbits_reference(cloud, transport)
    assert tried == want and tried
    assert orbits[:3] == tuple(tuple(range(5 * p, 5 * p + 5)) for p in range(3))
    assert all(len(o) == 1 for o in orbits[3:])


def test_identify_orbits_joins_orbit_mates_across_a_rounding_boundary(monkeypatch):
    # two points of one s2xs2-so3 orbit whose interval projections, u . v,
    # agree to machine noise but round to different 6-decimal values: they
    # must still be tried against each other, and come out as one orbit
    a = actions.get_action("s2xs2-so3")
    c = 0.1234565
    u, v = np.array([0.0, 0.0, 1.0]), np.array([np.sqrt(1.0 - c * c), 0.0, c])
    x = actions.normalize(a.manifold, np.concatenate([u, v])[None])
    for R in groups.sample_elements(a.group, 64, np.random.default_rng(0)):
        y = actions.normalize(a.manifold, np.concatenate([R @ u, R @ v])[None])
        planted = np.concatenate([x, y])
        values = a.interval.projection(planted)
        if np.round(values[0], 6) != np.round(values[1], 6):
            break
    assert np.round(values[0], 6) != np.round(values[1], 6) and abs(values[0] - values[1]) < 1e-12
    original = strata.sample_points

    def with_pair(m, count, rng):
        return np.concatenate([planted, original(m, count, rng)[2:]])

    monkeypatch.setattr(strata, "sample_points", with_pair)
    cloud = strata.build_cloud(a, 20, seed=0)
    monkeypatch.undo()
    assert np.array_equal(cloud.points[:2], planted)
    assert isotropy.transport_element(a, cloud.points[0], cloud.points[1]) is not None
    orbits = quotient.identify_orbits(cloud).blocks
    assert (0, 1) in orbits


def test_orbits_and_klein_blocks_are_keyed_once_per_pair(monkeypatch):
    # the 3002 points of s2-zn(5) at 3000 samples share 3 (class, rep)
    # pairs: the class labels and weight rows of the orbit candidates and
    # the Klein keys are read once per pair at most, not once per point
    cloud = strata.build_cloud(actions.get_action("s2-zn(5)"), 3000, seed=0)
    calls = {"display": 0, "rows": 0, "klein": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(groups.SubgroupClass, "display", counting("display", groups.SubgroupClass.display))
    monkeypatch.setattr(quotient, "canonical_weight_rows", counting("rows", quotient.canonical_weight_rows))
    monkeypatch.setattr(quotient, "_klein_key", counting("klein", quotient._klein_key))
    orbits = quotient.identify_orbits(cloud)
    in_orbits = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    klein = quotient.klein_partition(cloud)
    assert 1 <= in_orbits["display"] <= 3 and 1 <= in_orbits["rows"] <= 3
    assert 1 <= calls["klein"] <= 3
    assert len(cloud.pairs[0]) == 3
    assert len(orbits.blocks) == 3002 and sorted(len(b) for b in klein.blocks) == [2, 3000]


def test_klein_partition_fingerprints_each_shared_rep_once(monkeypatch):
    # s2-zn(5): 3000 of the 3002 points have the trivial stabilizer and share
    # its rep object, so the points need a handful of fingerprints, not one
    # each. cp2-so3: each of the 2000 generic Zn(2) points has a rep object
    # of its own, but reps are compared by content, and the generic ones
    # repeat, so at most a tenth of its 2032 points are fingerprinted
    original = quotient._effective_signature
    calls = []

    def counted(rep):
        calls.append(1)
        return original(rep)

    monkeypatch.setattr(quotient, "_effective_signature", counted)
    for name, samples, most in [("s2-zn(5)", 3000, 10), ("cp2-so3", 2000, 203)]:
        cloud = strata.build_cloud(actions.get_action(name), samples, seed=0)
        calls.clear()
        quotient.klein_partition(cloud)
        assert len(calls) <= most


@pytest.mark.parametrize("samples, seed", [(150, 0), (300, 1), (2000, 0)])
@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_klein_blocks_match_the_orbit_roots(cloud_factory, name, samples, seed):
    # keyed per point, the blocks and their fingerprints are those of the
    # construction from one fingerprint per identified orbit
    cloud = cloud_factory(name, samples, seed)
    klein = quotient.klein_partition(cloud)
    blocks, labels = klein_by_orbits_reference(cloud, quotient.identify_orbits(cloud).blocks)
    assert klein.blocks == blocks
    assert klein.block_labels == labels

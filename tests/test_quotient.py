"""Fingerprints, the Klein partition, correspondence and interval models."""

import numpy as np
import pytest

from orthofold import isotropy, quotient, strata
from orthofold.errors import InputError
from orthofold.strata import PartitionOfM

from oracles import (
    origin_stabilizer,
    planted_torus_action,
    refines,
    weight_rows_reference,
)


def _part(*blocks):
    return PartitionOfM(blocks=tuple(blocks), block_labels=tuple({} for _ in blocks))


def test_local_model_fingerprint_fields(pipeline_factory):
    pipe = pipeline_factory("rp2-so2")
    cloud = pipe.cloud
    pole = int(np.argmin(np.linalg.norm(np.abs(cloud.points) - [0, 0, 1.0], axis=1)))
    fp = quotient.local_model(cloud.model, cloud.stabs[pole], cloud.reps[pole])
    assert fp.slice_dim == 2
    assert fp.stab_class.display() == "SO2"
    generic = next(
        i for i, st in enumerate(cloud.stabs) if st.subgroup.display() == "Trivial"
    )
    fg = quotient.local_model(cloud.model, cloud.stabs[generic], cloud.reps[generic])
    assert fg.slice_dim == 1
    assert fg.free_away_from_origin
    assert not quotient.klein_equivalent(fp, fg)


def test_klein_equivalent_ignores_the_stabilizer_class(pipeline_factory):
    # two generic points agree on every compared field
    pipe = pipeline_factory("rp2-so2")
    cloud = pipe.cloud
    idx = [i for i, st in enumerate(cloud.stabs) if st.subgroup.display() == "Trivial"]
    f1 = quotient.local_model(cloud.model, cloud.stabs[idx[0]], cloud.reps[idx[0]])
    f2 = quotient.local_model(cloud.model, cloud.stabs[idx[1]], cloud.reps[idx[1]])
    assert quotient.klein_equivalent(f1, f2)


def test_klein_partition_rp2(pipeline_factory):
    pipe = pipeline_factory("rp2-so2")
    kp = pipe.klein
    assert len(kp.blocks) == 3
    assert sorted(kp.dims) == [1, 1, 2]
    strata.check_partition(kp.blocks, len(pipe.cloud))
    # projection constant along each identified orbit
    proj = pipe.action.interval.projection(pipe.cloud.points)
    for orbit in kp.orbits:
        vals = proj[list(orbit)]
        assert vals.max() - vals.min() < 1e-8


def test_klein_dims_match_sampled_dimensions(pipeline_factory):
    for name in ("rp2-so2", "cp2-u1"):
        pipe = pipeline_factory(name)
        for block, dim in zip(pipe.klein.blocks, pipe.klein.dims):
            assert {int(pipe.cloud.quotient_dims[i]) for i in block} == {dim}


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


def test_inverse_klein_mirrors_the_blocks(pipeline_factory):
    pipe = pipeline_factory("rp2-so2")
    inv = pipe.inverse
    assert inv.blocks == pipe.klein.blocks
    assert [lab["dim"] for lab in inv.block_labels] == list(pipe.klein.dims)
    assert refines(pipe.iso.blocks, inv.blocks)


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
    model = quotient.quotient_interval_model(pipe.cloud, pipe.klein, pipe.principal)
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
    rep = isotropy.slice_representation(a, st)
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
    rep = isotropy.slice_representation(a, st)
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
    assert quotient._slice_stab_profile(a, rep, 0) == (profile, False)

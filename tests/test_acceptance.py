"""Acceptance battery: eleven observable criteria, one test each.

Each test prints a single PASS line on success (visible with -s; pytest -v
shows the per-criterion outcome either way). Clouds come from the shared
session fixtures at 150 samples plus the catalog's special loci.
"""

import numpy as np
import pytest

from orthofold import actions, cli, groups, isotropy, numerics, quotient, strata

from oracles import exact_rank, origin_stabilizer, planted_torus_action, refines, relative_rank

ALL_ACTIONS = ("s2xs2-so3", "rp2-so2", "cp2-so3", "cp2-u1", "s2-zn(5)", "cn-tn(2)")


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def _point_index(cloud, target):
    d = np.linalg.norm(cloud.points - np.asarray(target, dtype=float), axis=1)
    i = int(np.argmin(d))
    assert d[i] < 1e-9
    return i


def test_criterion_01_dimension_identity(pipeline_factory):
    checked = 0
    for name in ALL_ACTIONS:
        cloud = pipeline_factory(name).cloud
        intrinsic = cloud.model.manifold.intrinsic_dim
        bad = np.nonzero(cloud.quotient_dims + cloud.orbit_dims != intrinsic)[0]
        assert bad.size == 0, f"{name}: identity fails at indices {bad[:5]}"
        checked += len(cloud)
    _report(1, f"quotient_dim + orbit_dim = intrinsic_dim at all {checked} points")


def test_criterion_02_product_spheres_blocks(pipeline_factory):
    pipe = pipeline_factory("s2xs2-so3")
    assert len(pipe.klein.blocks) == 2
    model = quotient.quotient_interval_model(
        pipe.cloud, pipe.orbits, pipe.klein, pipe.principal
    )
    points = {p[1] for s in model.strata for p in s if p[0] == "point"}
    assert points == {-1.0, 1.0}
    dim_of = {}
    for stratum, label in zip(model.strata, model.labels):
        kind = {p[0] for p in stratum}
        dim_of.setdefault(pipe.klein.block_labels[label]["dim"], set()).update(kind)
    assert dim_of[1] == {"open"}
    assert dim_of[2] == {"point"}
    _report(2, "two Klein blocks; endpoints -1, +1 singular with dims 1 and 2")


def test_criterion_03_projective_plane_blocks(pipeline_factory):
    pipe = pipeline_factory("rp2-so2")
    assert len(pipe.klein.blocks) == 3
    assert sorted(lab["dim"] for lab in pipe.klein.block_labels) == [1, 1, 2]
    labels = pipe.labels
    owner = pipe.klein.owner
    proj = pipe.action.interval.projection(pipe.cloud.points)
    at0 = next(i for i in range(len(pipe.cloud)) if abs(proj[i]) < 1e-9)
    at1 = next(i for i in range(len(pipe.cloud)) if abs(proj[i] - 1.0) < 1e-9)
    assert labels[at0].display() == "OrbifoldPoint(2)"
    assert labels[at1].display() == "OrthofoldPoint"
    assert owner[at0] != owner[at1]
    _report(3, "three blocks, dims (1,1,2); t=0 OrbifoldPoint(2), t=1 OrthofoldPoint")


def test_criterion_04_correspondence_merges(pipeline_factory):
    pipe = pipeline_factory("cp2-so3")
    ot_labels = sorted(lab["label"] for lab in pipe.orbit_type.block_labels)
    assert ot_labels == ["O2", "SO2", "Zn(2)"]
    assert len(pipe.klein.blocks) == 2
    assert not pipe.corr.injective
    witness_classes = set()
    for (i, j), _ in pipe.corr.merge_witnesses:
        witness_classes.add(
            frozenset(
                (
                    pipe.iso.block_labels[i]["subgroup"].display(),
                    pipe.iso.block_labels[j]["subgroup"].display(),
                )
            )
        )
    assert frozenset(("SO2", "O2")) in witness_classes
    _report(4, "three orbit types collapse to two Klein blocks; SO2+O2 merge witnessed")


def test_criterion_05_isolated_fixed_points(pipeline_factory):
    pipe = pipeline_factory("cp2-u1")
    cloud = pipe.cloud
    p0 = _point_index(cloud, [1, 0, 0, 0, 0, 0])
    p1 = _point_index(cloud, [0, 0, 1, 0, 0, 0])
    p2 = _point_index(cloud, [0, 0, 0, 0, 1, 0])
    w = lambda i: sorted(row[0] for row in cloud.reps[i].weights)
    assert w(p0) == [1, 2]
    assert w(p1) == [-1, 1]
    assert w(p2) == [-2, -1]
    assert isotropy.reps_equivalent(cloud.reps[p0], cloud.reps[p2])
    assert not isotropy.reps_equivalent(cloud.reps[p0], cloud.reps[p1])
    owner = pipe.klein.owner
    assert owner[p0] == owner[p2]
    assert owner[p1] != owner[p0]
    _report(5, "weights {1,2}/{-1,1}/{-2,-1}; P0~P2 equivalent and sharing a block, P1 apart")


def test_criterion_06_finite_group_quotient(pipeline_factory):
    pipe = pipeline_factory("s2-zn(5)")
    assert quotient.compare_partitions(pipe.orbit_type, pipe.klein) == "Equal"
    assert {lab["dim"] for lab in pipe.klein.block_labels} == {2}
    assert np.all(pipe.cloud.quotient_dims == 2)
    assert quotient.orbifold_criterion(pipe.cloud, pipe.labels)
    _report(6, "Klein partition equals orbit types; constant dimension 2; orbifold")


def test_criterion_07_toric_dimension_formula():
    rng = np.random.default_rng(77)
    trials = 0
    for n in (1, 2, 3):
        a = actions.get_action(f"cn-tn({n})")
        for mask in range(2**n):
            for _ in range(20):
                z = np.zeros(2 * n)
                for i in range(n):
                    if not (mask >> i) & 1:
                        mag = rng.uniform(0.2, 2.0)
                        ph = rng.uniform(0.0, 2.0 * np.pi)
                        z[2 * i] = mag * np.cos(ph)
                        z[2 * i + 1] = mag * np.sin(ph)
                t = z[0::2] ** 2 + z[1::2] ** 2
                depth, dim = strata.toric_depth(t)
                assert depth == bin(mask).count("1")
                orbit_dim = isotropy.stabilizer(a, z).orbit_dim
                assert a.manifold.intrinsic_dim - orbit_dim == dim == n + depth
                trials += 1
    _report(7, f"quotient dimension n + depth on {trials} zero-pattern trials")


def test_criterion_08_correspondence_well_defined(pipeline_factory):
    for name in ALL_ACTIONS:
        pipe = pipeline_factory(name)
        # building pipe.corr already certifies no block straddles
        assert pipe.corr.surjective, name
        assert len(pipe.corr.mapping) == len(pipe.iso.blocks)
    _report(8, "correspondence total and surjective on all six actions")


def test_criterion_09_partition_order(pipeline_factory):
    for name in ("s2xs2-so3", "rp2-so2", "cp2-so3"):
        pipe = pipeline_factory(name)
        model = quotient.quotient_interval_model(
        pipe.cloud, pipe.orbits, pipe.klein, pipe.principal
    )
        assert quotient.frontier_check(model), name
    coarser = pipeline_factory("cp2-so3")
    assert quotient.compare_partitions(coarser.klein, coarser.orbit_type) == "QRefinesP"
    finer = pipeline_factory("cp2-u1")
    assert quotient.compare_partitions(finer.klein, finer.orbit_type) == "PRefinesQ"
    for name in ALL_ACTIONS:
        pipe = pipeline_factory(name)
        assert refines(pipe.iso.blocks, pipe.orbit_type.blocks), name
        assert refines(pipe.iso.blocks, pipe.klein.blocks), name
    _report(9, "frontier holds; inverse-Klein coarser/finer as expected; iso refines both")


def test_criterion_10_numeric_oracles():
    rng = np.random.default_rng(1010)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a = rng.integers(-9, 10, size=(m, n))
        if rng.random() < 0.4 and m > 1:
            a[int(rng.integers(1, m))] = a[0] * int(rng.integers(-2, 3))
        r = exact_rank(a)
        rank = relative_rank(np.linalg.svd(a.astype(float), compute_uv=False))
        kernel = numerics.svd_splits(a.astype(float)[None], [rank])[1][0]
        assert rank == r
        assert kernel.shape == (n, n - r)
    recovered = 0
    for case in range(100):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        zero_dims = int(rng.integers(0, 3))
        rows = []
        for _ in range(p):
            while True:
                row = rng.integers(-3, 4, size=k)
                if np.any(row != 0):
                    break
            lead = row[np.nonzero(row)[0][0]]
            rows.append(tuple(int(v) for v in (-row if lead < 0 else row)))
        a = planted_torus_action(tuple(rows), zero_dims, frame_seed=2000 + case)
        rep = isotropy.slice_representations(a, [origin_stabilizer(a)])[0]
        assert rep.zero_dims == zero_dims
        got = isotropy.canonical_weight_rows(rep.weights)
        assert got == isotropy.canonical_weight_rows(tuple(rows))
        recovered += 1
    _report(10, f"rank oracle on 200 matrices; {recovered} planted weight multisets recovered")


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    outs = []
    for run in (1, 2):
        path = tmp_path / f"run{run}.txt"
        code = cli.main(
            ["verify", "all", "--samples", "40", "--seed", "7", "--out", str(path)]
        )
        assert code == 0
        outs.append(path.read_text())
    capsys.readouterr()

    def hashed_region(text):
        start = text.index('"payload":')
        end = text.rindex("report-sha256:")
        return text[start:end]

    def sha_line(text):
        return text.rstrip().splitlines()[-1]

    assert hashed_region(outs[0]) == hashed_region(outs[1])
    assert sha_line(outs[0]) == sha_line(outs[1])
    _report(11, "verify all --seed 7 twice: hashed report regions byte-identical")

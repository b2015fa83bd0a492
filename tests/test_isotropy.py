"""Stabilizers, transports and slice representations on known loci."""

from dataclasses import replace

import numpy as np
import pytest

from orthofold import actions, groups, isotropy, numerics, quotient, strata
from orthofold.errors import StabilizerError

from oracles import (
    distance,
    exact_rank,
    finite_slice_rep_reference,
    fixer_d2_reference,
    minor_gcd,
    slice_stab_profile_reference,
    stabilizer_reference,
    transport_reference,
    visit_order,
    weight_rows_reference,
    witness_order_reference,
    witness_pool,
)


def _stab(name, point):
    a = actions.get_action(name)
    x = actions.normalize(a.manifold, np.array(point, dtype=float))
    return a, isotropy.stabilizer(a, x)


def test_rounded_characters_carry_no_negative_zero():
    # zero-trace witness slice matrices of this cloud carry rounding noise of
    # either sign; a rounded -0.0 would render as "-0" in the payloads
    cloud = strata.build_cloud(actions.get_action("cp2-so3"), 100, seed=0)
    zeros = [c for rep in cloud.reps for c in rep.characters if c == 0.0]
    assert zeros
    assert all(np.copysign(1.0, c) > 0.0 for c in zeros)


def test_rp2_pole_has_circle_stabilizer():
    a, st = _stab("rp2-so2", [0.0, 0.0, 1.0])
    assert st.subgroup.display() == "SO2"
    assert st.orbit_dim == 0
    assert st.lie_kernel.shape == (1, 1)


def test_rp2_equator_has_two_components():
    a, st = _stab("rp2-so2", [1.0, 0.0, 0.0])
    assert st.subgroup.display() == "Zn(2)"
    assert st.orbit_dim == 1
    # the nontrivial witness is the half turn
    assert np.allclose(st.witnesses[1], -np.eye(2), atol=1e-9)


@pytest.mark.parametrize("z, label", [(0.0, "Zn(2)"), (4.9e-7, "Zn(2)"), (5.1e-7, "Trivial")])
def test_rp2_half_turn_follows_the_fixer_cut(z, label):
    # the half-turn moves height z by 2|z|: it is a fixer while 4 z^2 <= ACCEPT_D2
    a, st = _stab("rp2-so2", [1.0, 0.0, z])
    assert st.subgroup.display() == label


def test_rp2_generic_point_is_free():
    a, st = _stab("rp2-so2", [0.6, 0.2, 0.5])
    assert st.subgroup.display() == "Trivial"
    assert st.orbit_dim == 1


def test_s2xs2_diagonal_keeps_a_circle():
    v = np.array([0.3, -0.4, 0.7])
    v /= np.linalg.norm(v)
    a, st = _stab("s2xs2-so3", np.concatenate([v, v]))
    assert st.subgroup.display() == "SO2"
    axis = st.lie_kernel[:, 0]
    axis = axis / np.linalg.norm(axis)
    assert min(np.linalg.norm(axis - v), np.linalg.norm(axis + v)) < 1e-7


def test_s2xs2_generic_pair_is_free():
    a, st = _stab("s2xs2-so3", [1.0, 0.0, 0.0, 0.0, 0.8, 0.6])
    assert st.subgroup.display() == "Trivial"
    assert st.orbit_dim == 3


def test_witnesses_are_orthogonal_fixers():
    a, st = _stab("cp2-so3", [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    for w in st.witnesses:
        assert np.allclose(w @ w.T, np.eye(w.shape[0]), atol=1e-9)
        y = actions.act(a, w, st.point)
        assert distance(a.manifold, y, st.point) < 1e-6


def test_slice_frame_is_orthogonal_to_the_orbit():
    a, st = _stab("s2xs2-so3", [1.0, 0.0, 0.0, 0.0, 0.8, 0.6])
    s = st.frame @ st.slice_basis
    assert s.shape == (6, 1)
    assert a.manifold.intrinsic_dim - st.orbit_dim == 1
    # ambient slice directions are orthogonal to every generator field
    fields = np.stack([a.amb_lie(L) @ st.point for L in a.group.lie], axis=1)
    assert np.abs(s.T @ fields).max() < 1e-9


def test_cp2_u1_fixed_point_weights():
    a, st = _stab("cp2-u1", [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert st.subgroup.display() == "U1"
    rep = isotropy.slice_representations(a, [st])[0]
    assert rep.zero_dims == 0
    assert sorted(w[0] for w in rep.weights) == [1, 2]


def test_canonical_weight_rows():
    assert isotropy.canonical_weight_rows(((-1,), (1,))) == ((1,), (1,))
    assert isotropy.canonical_weight_rows(((-2,), (-1,))) == ((1,), (2,))
    assert isotropy.canonical_weight_rows(((0, -1), (1, 2))) == ((0, 1), (1, 2))


def test_reps_equivalent_on_isolated_fixed_points():
    a = actions.get_action("cp2-u1")
    reps = []
    for spec in ([1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]):
        st = isotropy.stabilizer(a, np.array(spec, dtype=float))
        reps.append(isotropy.slice_representations(a, [st])[0])
    r0, r1, r2 = reps
    assert isotropy.reps_equivalent(r0, r2)
    assert not isotropy.reps_equivalent(r0, r1)


def test_transport_finite_group():
    a = actions.get_action("s2-zn(5)")
    x = actions.normalize(a.manifold, np.array([0.3, 0.5, 0.2]))
    y = actions.act(a, a.group.elements[2], x)
    el = isotropy.transport_element(a, x, y)
    assert el is not None
    assert distance(a.manifold, actions.act(a, el, x), y) < 1e-9
    other = actions.normalize(a.manifold, np.array([0.3, 0.5, -0.9]))
    assert isotropy.transport_element(a, x, other) is None


def test_transport_so3_with_strict_acceptance():
    a = actions.get_action("s2xs2-so3")
    rng = np.random.default_rng(12)
    x = actions.sample_points(a.manifold, 1, rng)[0]
    g = groups.sample_elements(a.group, 1, rng)[0]
    y = actions.act(a, g, x)
    # the near-machine bound used for orbit identification must still
    # accept a genuine transport
    el = isotropy.transport_element(a, x, y)
    assert el is not None
    assert distance(a.manifold, actions.act(a, el, x), y) < 1e-9
    # a pair with a different factor angle sits on a different orbit
    off = actions.normalize(a.manifold, np.concatenate([y[:3], y[:3] + 0.3 * y[3:]]))
    assert isotropy.transport_element(a, x, off) is None


@pytest.mark.parametrize("name", ["s2-zn(5)", "cn-tn(2)", "s2xs2-so3"])
def test_transport_refuses_a_target_above_the_transport_cut(name):
    # a target moved off the orbit by 1e-8 lies within the fixer cut
    # ACCEPT_D2 of the image of x, but above TRANSPORT_D2: no transport
    a = actions.get_action(name)
    rng = np.random.default_rng(21)
    x = actions.sample_points(a.manifold, 1, rng)[0]
    # the third draw: finite groups list every element, the identity first
    el = groups.sample_elements(a.group, 3, rng)[2]
    y = actions.act(a, el, x)
    assert isotropy.transport_element(a, x, y) is not None
    off = actions.normalize(a.manifold, y + 1e-8 * rng.normal(size=y.size))
    d2 = float(isotropy._displacement(a, x, a.amb(el)[None], off)[0])
    assert isotropy.TRANSPORT_D2 < d2 <= isotropy.ACCEPT_D2
    assert isotropy.transport_element(a, x, off) is None


# two orthonormal directions of R^3 for the SO(3) loci below
_U = np.array([1.0, 2.0, 2.0]) / 3.0
_W = np.array([2.0, 1.0, -2.0]) / 3.0


def _cp2_point(z):
    a = actions.get_action("cp2-so3")
    return a, actions.normalize(a.manifold, actions.from_complex(np.asarray(z)))


def _s2xs2_point(u, v):
    a = actions.get_action("s2xs2-so3")
    return a, actions.normalize(a.manifold, np.concatenate([u, v]))


@pytest.mark.parametrize(
    "point, label",
    [
        (lambda: _cp2_point(_U + 1e-6j * _W), "Zn(2)"),
        # the Klein four-group: no element of order 4, so not Zn(4)
        (lambda: _cp2_point(_U + 1e-7j * _W), "Other"),
        (lambda: _cp2_point(_U + 1j * (1.0 - 1e-6) * _W), "Zn(2)"),
        (lambda: _s2xs2_point(_U, _U + 1e-8 * _W), "Zn(2)"),
    ],
    ids=["cp2-real-1e-6", "cp2-real-1e-7", "cp2-null-1e-6", "s2xs2-diagonal-1e-8"],
)
def test_so3_stabilizer_next_to_a_locus_is_a_group(point, label):
    # the rank cut already reads k = 0 here, but a whole arc of rotations
    # about the nearby axis still moves x by less than ACCEPT_D2; only the
    # half-turns of the eigenframe may become witnesses, and they must form
    # a subgroup of the Klein four-group
    a, x = point()
    st = isotropy.stabilizer(a, x)
    assert st.lie_kernel.shape[1] == 0
    assert st.subgroup.display() == label
    wits = st.witnesses
    assert len(wits) <= 4
    assert isotropy._displacement(a, st.point, a.amb_batch(wits), st.point).max() <= isotropy.ACCEPT_D2
    for p in wits:
        for q in wits:
            assert np.abs(p @ q - wits).max(axis=(1, 2)).min() <= 1e-8


@pytest.mark.parametrize(
    "point, label",
    [
        (lambda: _s2xs2_point(_U, _W), "Trivial"),
        (lambda: _s2xs2_point(_U, _U), "SO2"),
        (lambda: _s2xs2_point(_U, -_U), "SO2"),
        (lambda: _cp2_point(_U + 0j), "O2"),
        (lambda: _cp2_point(_U + 1j * _W), "SO2"),
    ],
    ids=["s2xs2-orthogonal", "s2xs2-diagonal", "s2xs2-antidiagonal", "cp2-real", "cp2-null"],
)
def test_so3_stabilizer_on_the_degenerate_loci(point, label):
    # u perpendicular to v is the one k = 0 point whose moment matrix has a
    # repeated eigenvalue; the others keep a circle
    a, x = point()
    st = isotropy.stabilizer(a, x)
    assert st.subgroup.display() == label
    assert st.lie_kernel.shape[1] == (0 if label == "Trivial" else 1)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["s2xs2-so3", "cp2-so3"])
def test_so3_exact_path_matches_the_search_reference(monkeypatch, name, seed):
    a = actions.get_action(name)
    cloud = strata.build_cloud(a, 100, seed=seed)
    pool = witness_pool(a, seed)
    for st in cloud.stabs:
        ref = stabilizer_reference(a, st.point, pool)
        got, want = st.subgroup, ref.subgroup
        assert (got.label, got.order, got.traces) == (want.label, want.order, want.traces)
        assert st.lie_kernel.shape[1] == ref.lie_kernel.shape[1]

    # every pair the orbit identification tries: the exact transport is
    # found whenever the search finds one
    tried = []

    def recording(a_, x, y):
        el = isotropy.transport_element(a_, x, y)
        tried.append((x, y, el is not None))
        return el

    monkeypatch.setattr(quotient, "transport_element", recording)
    quotient.identify_orbits(cloud)
    assert any(found for *_, found in tried)
    for x, y, found in tried:
        if not found:
            assert transport_reference(a, x, y, pool) is None


def test_transport_circle_group():
    a = actions.get_action("rp2-so2")
    x = actions.normalize(a.manifold, np.array([0.5, 0.1, 0.6]))
    g = groups.exp_coeffs_batch(a.group, np.array([1.2]))[0]
    y = actions.act(a, g, x)
    el = isotropy.transport_element(a, x, y)
    assert el is not None
    assert distance(a.manifold, actions.act(a, el, x), y) < 1e-9


def test_stabilizer_dimension_identity():
    # lie kernel and orbit directions always split the acting algebra
    rng = np.random.default_rng(7)
    for name in ("rp2-so2", "cp2-u1", "cn-tn(2)"):
        a = actions.get_action(name)
        for x in actions.sample_points(a.manifold, 3, rng):
            st = isotropy.stabilizer(a, x)
            assert st.lie_kernel.shape[1] + st.orbit_dim == a.group.lie_dim


def _reference_visit_order(accepted, d2):
    # the per-candidate Python sort and first-occurrence scan that the
    # vectorized visit order of the SO(3) search reference replaced
    rounded = np.round(accepted, 8)
    order = sorted(range(accepted.shape[0]), key=lambda i: (d2[i], rounded[i].tobytes()))
    coarse = np.round(accepted, 5)
    seen, visit = set(), []
    for i in order:
        key = coarse[i].tobytes()
        if key not in seen:
            seen.add(key)
            visit.append(i)
    return visit


def test_visit_order_matches_sorted_reference():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        acc = rng.normal(size=(n, 3, 3)) * rng.choice([1e-9, 1e-6, 1.0], size=(n, 3, 3))
        # duplicated candidates, and entries that round to -0.0 or 0.0
        acc[rng.integers(0, n, size=n // 3)] = acc[rng.integers(0, n, size=n // 3)]
        acc[0, 0, 0], acc[-1, 0, 0] = -1e-12, 1e-12
        d2 = rng.choice([0.0, 5e-14, 1e-13], size=n)  # forced ties
        got = visit_order(acc, d2)
        assert got.tolist() == _reference_visit_order(acc, d2)


# weight rows of a rank-2 torus on C^3: every subset of active rows has its
# own component count (the gcd of its maximal minors)
_C3_ROWS = ((1, 2), (2, -1), (0, 3))


def _weighted_torus_action(rows):
    """T^r acting on C^p, coordinate i rotating at the rate rows[i] . phi."""
    W = np.array(rows)
    p, r = W.shape

    def rotate(rates):
        out = np.zeros((2 * p, 2 * p))
        c, s = np.cos(rates), np.sin(rates)
        out[0::2, 0::2] = np.diag(c)
        out[1::2, 1::2] = np.diag(c)
        out[0::2, 1::2] = -np.diag(s)
        out[1::2, 0::2] = np.diag(s)
        return out

    def amb(el):
        return rotate(W @ np.arctan2(el[1::2, 0::2].diagonal(), el[0::2, 0::2].diagonal()))

    def amb_lie(xi):
        rates = W @ xi[1::2, 0::2].diagonal()
        out = np.zeros((2 * p, 2 * p))
        out[0::2, 1::2] = -np.diag(rates)
        out[1::2, 0::2] = np.diag(rates)
        return out

    return actions.ActionModel(
        name="weighted-c3",
        group=groups.torus(r),
        manifold=actions.euclidean(2 * p),
        amb=amb,
        amb_lie=amb_lie,
        special_points=lambda rng_: np.zeros((0, 2 * p)),
        ambient_pairs=tuple(((2 * i, 2 * i + 1), row) for i, row in enumerate(rows)),
    )


@pytest.mark.parametrize("pattern", range(1, 8))
def test_torus_component_count_is_the_minor_gcd(pattern):
    a = _weighted_torus_action(_C3_ROWS)
    rng = np.random.default_rng(pattern)
    active = [i for i in range(3) if pattern >> i & 1]
    x = np.zeros(6)
    for i in active:
        x[2 * i : 2 * i + 2] = rng.normal(size=2)
    st = isotropy.stabilizer(a, x)
    sub = np.array([_C3_ROWS[i] for i in active])
    r = exact_rank(sub)
    assert st.lie_kernel.shape[1] == 2 - r
    assert len(st.witnesses) == minor_gcd(sub, r)
    assert np.array_equal(st.witnesses[0], np.eye(4))
    for w in st.witnesses:
        assert np.linalg.norm(actions.act(a, w, x) - x) < 1e-12
    if r == 2:
        # finite stabilizer: the witnesses are the distinct group elements
        gaps = [np.abs(u - v).max() for k, u in enumerate(st.witnesses) for v in st.witnesses[:k]]
        assert min(gaps, default=1.0) > 0.1


def test_torus_solve_rejects_a_kernel_mismatch(monkeypatch):
    a = actions.get_action("cn-tn(2)")
    # the batch solver reads every point's split from one svd_splits call
    monkeypatch.setattr(
        isotropy, "svd_splits", lambda inf: (np.array([2]), [np.zeros((2, 0))], [np.eye(2)])
    )
    with pytest.raises(StabilizerError):
        isotropy.stabilizer(a, np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("name", ["cn-tn(3)", "cp2-u1"])
def test_torus_transport_is_exact(name):
    a = actions.get_action(name)
    rng = np.random.default_rng(4)
    for x in actions.sample_points(a.manifold, 20, rng):
        g = groups.sample_elements(a.group, 1, rng)[0]
        y = actions.act(a, g, x)
        if a.manifold.kind == "complex_projective":
            # another representative of the same point: a global phase
            y = actions.from_complex(np.exp(1j * rng.uniform(0, 6.3)) * actions.to_complex(y))
        el = isotropy.transport_element(a, x, y)
        assert el is not None
        # distance aligns the phase before differencing, so it
        # resolves the exact transport far below sqrt(machine epsilon)
        assert distance(a.manifold, actions.act(a, el, x), y) < 1e-12


def test_cp2_u1_transport_sees_the_cross_ratio_phase():
    # equal |z_i| but a different arg(z0 z2 / z1^2): no element relates them
    a = actions.get_action("cp2-u1")
    x = actions.normalize(a.manifold, actions.from_complex(np.array([0.6, 0.5j, 0.4 + 0.3j])))
    z = actions.to_complex(x)
    y = actions.from_complex(z * np.array([1.0, 1.0, np.exp(0.7j)]))
    assert isotropy.transport_element(a, x, y) is None
    assert isotropy.transport_element(a, x, x) is not None


def _assert_matches_fit(a, st, rep, seed):
    # every positive-dimensional stabilizer reads exact weights
    assert rep.rep_kind == ("torus_weights" if st.lie_kernel.shape[1] else "finite_characters")
    if rep.rep_kind == "torus_weights":
        weights, zero_dims, _ = weight_rows_reference(a, st, seed=seed)
    else:
        weights, zero_dims = (), rep.slice_dim
    assert rep.weights == weights
    assert rep.zero_dims == zero_dims == rep.fixed.shape[1]
    assert rep.planes.shape == (len(weights), rep.slice_dim, 2)
    got = quotient._slice_stab_profiles(a, [rep], seed)[0]
    assert got == slice_stab_profile_reference(a, rep, weights, seed)


@pytest.mark.parametrize("name", actions.catalog_ids())
def test_exact_weights_match_the_sampled_fit(cloud_factory, name):
    # the weights read from the slice generators agree with the old
    # least-squares fit, and so do the profiles built on their planes
    for seed in range(4):
        cloud = cloud_factory(name, 40, seed)
        for st, rep in zip(cloud.stabs, cloud.reps):
            _assert_matches_fit(cloud.model, st, rep, seed)


@pytest.mark.parametrize("name", ["cn-tn(3)", "cn-tn(4)", "cn-tn(5)"])
def test_exact_weights_match_the_sampled_fit_on_higher_tori(cloud_factory, name):
    cloud = cloud_factory(name, 20, 0)
    for st, rep in zip(cloud.stabs, cloud.reps):
        _assert_matches_fit(cloud.model, st, rep, 0)


def test_cn_t3_axis_point_reads_exact_weights():
    # z = (1, 0, 0): the stabilizer is the T^2 of phi_2 and phi_3, classed
    # Other. The slice is the radial line of z_1, fixed, plus the z_2 and
    # z_3 planes, each turned by one kernel angle. A vector on one plane is
    # fixed by the circle of the other angle, the radial vector by all of
    # H, and a generic vector touches both planes and is free
    a, st = _stab("cn-tn(3)", [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert st.subgroup.display() == "Other"
    rep = isotropy.slice_representations(a, [st])[0]
    assert rep.rep_kind == "torus_weights"
    assert rep.weights == ((0, 1), (1, 0))
    assert rep.zero_dims == 1 and rep.slice_dim == 5
    profile = quotient._slice_stab_profiles(a, [rep], 0)[0]
    assert profile == ("Other", "Trivial", "Trivial", "Trivial", "Trivial", "U1", "U1")
    # not free away from the origin
    assert set(profile) != {"Trivial"}


@pytest.mark.parametrize("n", [2, 5, 64])
def test_finite_witness_order_matches_sorting_the_fixers(n):
    # the witness order is sorted once per group; at the poles every element
    # is a fixer, so the witnesses are the whole group in that order. The
    # shuffled copy of the group puts the identity off the front
    a = actions.get_action(f"s2-zn({n})")
    els = a.group.elements
    shuffled = replace(
        a, group=groups.finite(els[np.random.default_rng(n).permutation(n)], name=a.group.name)
    )
    for model in (a, shuffled):
        for pole in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
            st = isotropy.stabilizer(model, np.array(pole))
            elements = model.group.elements
            assert np.array_equal(st.witnesses, elements[witness_order_reference(elements)])
            assert np.array_equal(st.witness_ambs, model.amb_batch(st.witnesses))
        st = isotropy.stabilizer(model, np.array([0.6, 0.0, 0.8]))
        assert np.array_equal(st.witnesses, np.eye(3)[None])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 5, 64])
def test_fixer_masks_of_a_cloud_are_its_batches_of_one(n, seed):
    # the batched product differs from the per-point one in the last bits
    # (up to 1.8e-15 in d2), which moves no decision: every fixer sits at
    # d2 = 0 and the nearest non-fixer at 1.4e-6 or more (s2-zn(64), seed
    # 0), against the POINT_EPS^2 = 1e-14 cut. s2-zn(64) spans several row
    # chunks
    a = actions.get_action(f"s2-zn({n})")
    pts = strata.build_cloud(a, 3000, seed=seed).points
    masks = isotropy.fixer_masks(a, pts)
    assert masks.shape == (len(pts), n)
    assert np.array_equal(masks, np.stack([isotropy.fixer_masks(a, x[None])[0] for x in pts]))
    d2 = np.stack([fixer_d2_reference(a, x) for x in pts])
    assert np.array_equal(masks, d2 <= numerics.POINT_EPS**2)
    assert d2[masks].max() <= 1e-20
    assert d2[~masks].min() >= 1e-6


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_slice_representations_are_slice_representation_in_one_batch(cloud_factory, name, seed):
    cloud = cloud_factory(name, 40, seed)
    a = cloud.model
    batch = isotropy.slice_representations(a, cloud.stabs)
    assert len(batch) == len(cloud)
    for got, st in zip(batch, cloud.stabs):
        want = isotropy.slice_representations(a, [st])[0]
        for field in ("stab_label", "slice_dim", "rep_kind", "weights", "zero_dims", "characters"):
            assert getattr(got, field) == getattr(want, field)
        for field in ("planes", "fixed", "witness_mats", "lie_mats"):
            g, w = getattr(got, field), getattr(want, field)
            assert g.shape == w.shape
            assert np.abs(g - w).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_trivial_stabilizers_share_one_exact_rep(cloud_factory, name):
    # a trivial stabilizer's rep is exact and shared per slice dimension; it
    # must read what its point's own witness differentials read
    cloud = cloud_factory(name, 40, 0)
    a = cloud.model
    shared = {}
    for st, rep in zip(cloud.stabs, cloud.reps):
        if st.lie_kernel.shape[1] or st.witness_ambs.shape[0] > 1:
            continue
        assert shared.setdefault(rep.slice_dim, rep) is rep
        want = finite_slice_rep_reference(a, st)
        assert rep.stab_label == want.stab_label == "Trivial"
        assert (rep.rep_kind, rep.weights, rep.zero_dims, rep.characters) == (
            want.rep_kind,
            want.weights,
            want.zero_dims,
            want.characters,
        )
        assert np.array_equal(rep.witness_mats, np.eye(rep.slice_dim)[None])
        assert np.abs(want.witness_mats - rep.witness_mats).max() <= 1e-12
        assert not rep.witness_mats.flags.writeable
    # the generic stabilizer of cp2-so3 is Zn(2); every other action samples
    # trivial stabilizers
    assert bool(shared) == (name != "cp2-so3")


def _assert_same_stabilizer(got, want):
    # bit for bit: equal shapes, dtypes and bytes, so a -0.0 for a 0.0 fails
    for field in ("point", "lie_kernel", "witnesses", "witness_ambs", "frame", "slice_basis"):
        g, w = getattr(got, field), getattr(want, field)
        assert (g.shape, g.dtype) == (w.shape, w.dtype), field
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes(), field
    assert got.subgroup == want.subgroup
    assert got.orbit_dim == want.orbit_dim and type(got.orbit_dim) is int


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_cloud_stabilizers_are_their_batches_of_one(cloud_factory, name, seed):
    # build_cloud solves every stabilizer in one stabilizer_rows pass; each
    # point's row must be what stabilizer_rows of the point alone gives
    cloud = cloud_factory(name, 40, seed)
    for st in cloud.stabs:
        _assert_same_stabilizer(st, isotropy.stabilizer(cloud.model, st.point, st.frame))


def test_planted_so3_points_are_their_batches_of_one(cloud_factory):
    # the points next to the SO(3) loci (Zn(2), the Klein four-group, and
    # Zn(2) next to a circle) stacked with cloud points: every witness count
    # and Lie dimension of the stack is classified in its own batch
    planted = [
        _cp2_point(_U + 1e-6j * _W),
        _cp2_point(_U + 1e-7j * _W),
        _cp2_point(_U + 1j * (1.0 - 1e-6) * _W),
        _s2xs2_point(_U, _U + 1e-8 * _W),
    ]
    for name in ("cp2-so3", "s2xs2-so3"):
        cloud = cloud_factory(name, 40, 0)
        a = cloud.model
        X = np.concatenate([[x for b, x in planted if b.name == name], cloud.points])
        frames = actions.tangent_frames(a.manifold, X)
        rows = isotropy.stabilizer_rows(a, X, frames)
        assert len(rows) == len(X)
        counts = {(len(row[1]), row[0].shape[1]) for row in rows}
        assert len(counts) >= 3
        for x, frame, row in zip(X, frames, rows):
            _assert_same_stabilizer(isotropy.stabilizer(a, x, frame, row), isotropy.stabilizer(a, x, frame))


@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_stacked_svd_is_bit_equal_to_per_matrix_calls(cloud_factory, name):
    # what the batch solver relies on, on the real frames: a stacked
    # np.linalg.svd factors each matrix as a call on it alone does, both
    # for the infinitesimal actions and for the frames of the SO(3) solve
    cloud = cloud_factory(name, 100, 1)
    a = cloud.model
    mats = [actions.infinitesimal_actions(a, st.point[None], st.frame[None])[0] for st in cloud.stabs]
    stacks = [np.stack(mats)] if mats[0].size else []
    if a.so3_frame is not None:
        stacks.append(np.stack([a.so3_frame(x) for x in cloud.points]))
    for stack in stacks:
        batched = np.linalg.svd(stack)
        for i, m in enumerate(stack):
            for got, want in zip(batched, np.linalg.svd(m)):
                assert got[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_svd_splits_and_infinitesimal_actions_are_their_rows(cloud_factory, name):
    cloud = cloud_factory(name, 100, 1)
    a = cloud.model
    frames = np.stack([st.frame for st in cloud.stabs])
    infs = actions.infinitesimal_actions(a, cloud.points, frames)
    ranks, kernels, slices = numerics.svd_splits(infs)
    k = a.group.lie_dim
    for i, (x, frame) in enumerate(zip(cloud.points, frames)):
        # the per-generator loop the stacked products replaced, bit for bit
        one = np.empty((frame.shape[1], k))
        for j in range(k):
            one[:, j] = frame.T @ (a.amb_lie(a.group.lie[j]) @ x)
        alone = actions.infinitesimal_actions(a, x[None], frame[None])[0]
        assert infs[i].tobytes() == np.ascontiguousarray(alone).tobytes()
        assert infs[i].tobytes() == one.tobytes()
        r, K, C = (part[0] for part in numerics.svd_splits(one[None]))
        assert r == ranks[i]
        assert K.tobytes() == kernels[i].tobytes() and K.shape == kernels[i].shape
        assert C.tobytes() == slices[i].tobytes() and C.shape == slices[i].shape
        if one.any():
            # one full SVD of the matrix alone, split at the relative rank
            u, sv, vt = np.linalg.svd(one)
            assert r == np.count_nonzero(sv > numerics.RANK_EPS * sv[0])
            assert K.tobytes() == vt[r:].T.copy().tobytes()
            assert C.tobytes() == u[:, r:].copy().tobytes()


@pytest.mark.parametrize("name", ["s2-zn(5)", "s2-zn(64)", "rp2-so2", "cp2-u1", "cn-tn(3)"])
def test_shared_witness_matrices_are_read_only(cloud_factory, name):
    # finite fixer sets and torus congruences are solved once per cloud:
    # the points of one solve share their witnesses, ambient matrices and
    # class, read-only, and the matrices are the witnesses' own
    cloud = cloud_factory(name, 100, 0)
    a = cloud.model
    shared: dict = {}
    for st in cloud.stabs:
        # the witnesses of one solve are one array
        first = shared.setdefault(id(st.witnesses), st)
        assert first.witness_ambs is st.witness_ambs and first.subgroup is st.subgroup
        assert not st.witness_ambs.flags.writeable and not st.witnesses.flags.writeable
        assert np.array_equal(st.witness_ambs, a.amb_batch(st.witnesses))
    assert len(shared) < len(cloud)

"""Stabilizers, transports and slice representations on known loci."""

import numpy as np
import pytest

from orthofold import actions, groups, isotropy
from orthofold.errors import StabilizerError


def _stab(name, point):
    a = actions.get_action(name)
    x = actions.normalize(a.manifold, np.array(point, dtype=float))
    return a, isotropy.stabilizer(a, x, seed=0)


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
        assert actions.distance(a.manifold, y, st.point) < 1e-6


def test_normal_slice_is_orthogonal_to_the_orbit():
    a, st = _stab("s2xs2-so3", [1.0, 0.0, 0.0, 0.0, 0.8, 0.6])
    s = isotropy.normal_slice(a, st)
    assert s.shape == (6, 1)
    assert a.manifold.intrinsic_dim - st.orbit_dim == 1
    # ambient slice directions are orthogonal to every generator field
    fields = np.stack([a.amb_lie(L) @ st.point for L in a.group.lie], axis=1)
    assert np.abs(s.T @ fields).max() < 1e-9


def test_cp2_u1_fixed_point_weights():
    a, st = _stab("cp2-u1", [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert st.subgroup.display() == "U1"
    rep = isotropy.slice_representation(a, st)
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
        st = isotropy.stabilizer(a, np.array(spec, dtype=float), seed=0)
        reps.append(isotropy.slice_representation(a, st))
    r0, r1, r2 = reps
    assert isotropy.reps_equivalent(r0, r2)
    assert not isotropy.reps_equivalent(r0, r1)


def test_transport_finite_group():
    a = actions.get_action("s2-zn(5)")
    x = actions.normalize(a.manifold, np.array([0.3, 0.5, 0.2]))
    y = actions.act(a, a.group.elements[2], x)
    el = isotropy.transport_element(a, x, y)
    assert el is not None
    assert actions.distance(a.manifold, actions.act(a, el, x), y) < 1e-9
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
    el = isotropy.transport_element(a, x, y, seed=0, accept_d2=1e-20)
    assert el is not None
    assert actions.distance(a.manifold, actions.act(a, el, x), y) < 1e-9
    # a pair with a different factor angle sits on a different orbit
    off = actions.normalize(a.manifold, np.concatenate([y[:3], y[:3] + 0.3 * y[3:]]))
    assert isotropy.transport_element(a, x, off, seed=0) is None


def test_transport_circle_group():
    a = actions.get_action("rp2-so2")
    x = actions.normalize(a.manifold, np.array([0.5, 0.1, 0.6]))
    g = groups.exp_coeffs(a.group, np.array([1.2]))
    y = actions.act(a, g, x)
    el = isotropy.transport_element(a, x, y, seed=0)
    assert el is not None
    assert actions.distance(a.manifold, actions.act(a, el, x), y) < 1e-9


def test_stabilizer_dimension_identity():
    # lie kernel and orbit directions always split the acting algebra
    rng = np.random.default_rng(7)
    for name in ("rp2-so2", "cp2-u1", "cn-tn(2)"):
        a = actions.get_action(name)
        for x in actions.sample_points(a.manifold, 3, rng):
            st = isotropy.stabilizer(a, x, seed=0)
            assert st.lie_kernel.shape[1] + st.orbit_dim == a.group.lie_dim


def _reference_visit_order(accepted, d2):
    # the per-candidate Python sort and first-occurrence scan
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
        got = isotropy._visit_order(acc, d2)
        assert got.tolist() == _reference_visit_order(acc, d2)


def test_witness_pool_is_shared_and_absent_for_finite_groups():
    a = actions.get_action("rp2-so2")
    pool = isotropy.witness_pool(a, 3)
    assert pool.shape[0] == isotropy.COARSE_POOL
    assert np.array_equal(pool, isotropy.witness_pool(a, 3))
    assert isotropy.witness_pool(actions.get_action("s2-zn(5)"), 3) is None

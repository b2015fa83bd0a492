"""Group descriptors, exponentials, sampling and subgroup naming."""

import numpy as np
import pytest

from orthofold import groups, numerics
from orthofold.errors import ClassificationError, InputError

from oracles import (
    exact_rank,
    identity_component_mask,
    identity_component_reference,
    minor_gcd,
)


def test_descriptor_shapes():
    assert groups.so3().lie.shape == (3, 3, 3)
    assert groups.so2().lie.shape == (1, 2, 2)
    assert groups.torus(3).lie.shape == (3, 6, 6)
    z = groups.finite(np.eye(2)[None])
    assert z.lie_dim == 0 and z.kind == "finite"
    with pytest.raises(InputError):
        groups.torus(0)


def test_circles_are_the_rank_one_torus():
    for g, label, name in ((groups.so2(), "SO2", "SO(2)"), (groups.u1(), "U1", "U(1)")):
        assert (g.kind, g.circle_label, g.name) == ("torus", label, name)
        assert np.array_equal(g.lie, groups.torus(1).lie)
    assert groups.torus(3).name == "T^3"


def test_exp_coeffs_is_orthogonal():
    rng = np.random.default_rng(0)
    for g in (groups.so3(), groups.so2(), groups.torus(2)):
        for _ in range(5):
            c = rng.normal(size=g.lie_dim)
            q = groups.exp_coeffs(g, c)
            assert np.allclose(q.T @ q, np.eye(g.size), atol=1e-12)
            assert abs(np.linalg.det(q) - 1.0) < 1e-10


def test_exp_coeffs_batch_matches_single():
    rng = np.random.default_rng(1)
    for g in (groups.so3(), groups.torus(3)):
        C = rng.normal(size=(7, g.lie_dim))
        Q = groups.exp_coeffs_batch(g, C)
        for c, q in zip(C, Q):
            assert np.allclose(q, groups.exp_coeffs(g, c), atol=1e-12)
    g = groups.finite(np.stack([np.eye(2), -np.eye(2)]))
    assert np.array_equal(groups.exp_coeffs(g, np.zeros(0)), np.eye(2))
    with pytest.raises(InputError):
        groups.exp_coeffs(groups.torus(2), np.zeros(3))


@pytest.mark.parametrize(
    "W, comps, free",
    [
        (((2, 0), (0, 3)), 6, 0),
        (((1, 1),), 1, 1),
        (((2, 4), (1, 1)), 2, 0),
        (((2, 2, 0), (0, 3, 3)), 6, 1),
        (np.zeros((0, 2)), 1, 2),
    ],
)
def test_congruence_solutions_cover_every_component(W, comps, free):
    # every W here has full row rank, so every target b is consistent
    W = np.asarray(W, dtype=np.int64)
    B = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(4, W.shape[0]))
    psi, got_free = groups.congruence_solutions(W, B)
    assert psi.shape == (4, comps, W.shape[1]) and got_free == free
    for b, sols in zip(B, psi):
        r = (sols @ W.T - b) / (2.0 * np.pi)
        assert np.abs(r - np.rint(r)).max(initial=0.0) < 1e-12
        assert len({tuple(np.round(np.mod(s, 2.0 * np.pi), 9)) for s in sols}) == comps


def test_sampling_is_deterministic_and_valid():
    g = groups.so3()
    a = groups.sample_elements(g, 64, np.random.default_rng(9))
    b = groups.sample_elements(g, 64, np.random.default_rng(9))
    assert np.array_equal(a, b)
    prod = np.einsum("bij,bkj->bik", a, a)
    assert np.abs(prod - np.eye(3)).max() < 1e-12


def test_adjoint_of_torus_is_trivial():
    g = groups.torus(2)
    el = groups.exp_coeffs(g, np.array([0.3, 1.1]))
    assert np.allclose(groups.adjoint_coeffs(g, el), np.eye(2), atol=1e-12)


def test_classify_trivial_and_finite():
    g = groups.so2()
    wits = np.eye(2)[None]
    cls = groups.classify_subgroup(g, np.zeros((1, 0)), wits)
    assert cls.display() == "Trivial"
    rot = groups.exp_coeffs(g, np.array([np.pi]))
    two = groups.classify_subgroup(g, np.zeros((1, 0)), np.stack([np.eye(2), rot]))
    assert two.display() == "Zn(2)"
    assert two.order == 2


def test_classify_circle_o2_and_full():
    g = groups.so3()
    kz = np.array([[0.0], [0.0], [1.0]])
    circle = groups.classify_subgroup(g, kz, np.eye(3)[None])
    assert circle.display() == "SO2"
    # a flip inverting the axis makes the two-component orthogonal group
    flip = np.diag([1.0, -1.0, -1.0])
    o2 = groups.classify_subgroup(g, kz, np.stack([np.eye(3), flip]))
    assert o2.display() == "O2"
    full = groups.classify_subgroup(g, np.eye(3), np.eye(3)[None])
    assert full.display() == "FullGroup"
    with pytest.raises(ClassificationError):
        groups.classify_subgroup(g, kz, np.zeros((0, 3, 3)))


def test_witness_must_normalize_the_algebra():
    g = groups.so3()
    kz = np.array([[0.0], [0.0], [1.0]])
    # rotation about x maps the z axis elsewhere
    bad = groups.exp_coeffs(g, np.array([0.7, 0.0, 0.0]))
    with pytest.raises(ClassificationError):
        groups.classify_subgroup(g, kz, np.stack([np.eye(3), bad]))


def _other(traces):
    return groups.SubgroupClass("Other", None, 1, f"components({len(traces)})", tuple(traces))


def test_other_conjugacy_matches_allclose_at_the_bound():
    # Other-vs-Other traces placed at and around the np.allclose boundary
    # |a - b| <= MATCH_EPS + 1e-5 |b|; the written-out bound must decide
    # every pair as np.allclose does
    rng = np.random.default_rng(14)
    pairs = []
    for _ in range(300):
        m = int(rng.integers(1, 5))
        base = np.round(rng.uniform(-3.0, 3.0, size=m), 9)
        edge = numerics.MATCH_EPS + 1e-5 * np.abs(base)
        scale = rng.choice([0.98, 1.0, 1.02, rng.uniform(0.98, 1.02)], size=m)
        other = base + edge * scale * rng.choice([-1.0, 1.0], size=m)
        pairs.append((base.tolist(), other.tolist()))
    # against a zero trace the bound is MATCH_EPS itself, met exactly
    eps = numerics.MATCH_EPS
    pairs += [([eps], [0.0]), ([-eps], [0.0]), ([np.nextafter(eps, 1.0)], [0.0])]
    answers = set()
    for p, q in pairs:
        a, b = _other(p), _other(q)
        for x, y in ((a, b), (b, a), (a, a)):
            want = bool(np.allclose(np.array(x.traces), np.array(y.traces), atol=eps))
            answers.add(want)
            assert groups.classes_conjugate(x, y) is want
    assert answers == {True, False}


def test_classes_conjugate():
    g = groups.so3()
    kz = np.array([[0.0], [0.0], [1.0]])
    kx = np.array([[1.0], [0.0], [0.0]])
    c1 = groups.classify_subgroup(g, kz, np.eye(3)[None])
    c2 = groups.classify_subgroup(g, kx, np.eye(3)[None])
    assert groups.classes_conjugate(c1, c2)
    rot = groups.exp_coeffs(groups.so2(), np.array([2.0 * np.pi / 3]))
    z3 = groups.classify_subgroup(
        groups.so2(), np.zeros((1, 0)), np.stack([np.eye(2), rot, rot @ rot])
    )
    assert not groups.classes_conjugate(c1, z3)


# identity-component membership of the SO(3) search reference in oracles.py;
# the package decides SO(3) components in closed form and has no such test


def test_in_identity_component():
    g = groups.so3()
    kz = np.array([[0.0], [0.0], [1.0]])
    inside = groups.exp_coeffs(g, np.array([0.0, 0.0, 1.3]))
    flip = np.diag([1.0, -1.0, -1.0])
    mask = identity_component_mask(g, np.stack([inside, flip, np.eye(3)]), kz)
    assert mask.tolist() == [True, False, True]


def test_mask_near_half_turn():
    # the axis of a rotation by nearly pi is ill conditioned from its skew
    # part; the membership test must not depend on recovering it
    g = groups.so3()
    zeta = np.array([0.48, -0.6, 0.64])
    perp = np.cross(zeta, [1.0, 0.0, 0.0])
    perp /= np.linalg.norm(perp)
    almost = groups.exp_coeffs(g, (np.pi - 4.3e-6) * zeta)
    half = groups.exp_coeffs(g, np.pi * perp)
    mask = identity_component_mask(g, np.stack([almost, half]), zeta[:, None])
    assert mask.tolist() == [True, False]


def _mask_cases(g, kernel, rng):
    """Elements on the kernel circle, off it by a finite twist, and Haar."""
    on = groups.exp_coeffs_batch(g, rng.uniform(-7.0, 7.0, size=(12, kernel.shape[1])) @ kernel.T)
    twist = groups.exp_coeffs(g, np.full(g.lie_dim, np.pi / 3) * (np.arange(g.lie_dim) + 1))
    return np.concatenate([on, on @ twist, groups.sample_elements(g, 12, rng), np.eye(g.size)[None]])


@pytest.mark.parametrize(
    "g, kernel",
    [
        (groups.so3(), np.zeros((3, 0))),
        (groups.so3(), np.array([[0.48], [-0.6], [0.64]])),
        (groups.so3(), np.eye(3)),
    ],
    ids=["so3-k0", "so3-k1", "so3-k3"],
)
def test_mask_matches_per_element_reference(g, kernel):
    rng = np.random.default_rng(7)
    Q = _mask_cases(g, kernel, rng)
    got = identity_component_mask(g, Q, kernel)
    want = [identity_component_reference(g, q, kernel) for q in Q]
    assert got.tolist() == want
    # every case family is present, so the comparison is not vacuous
    assert any(want)
    if kernel.shape[1] < g.lie_dim:
        assert not all(want)


def test_mask_rejects_torus_kinds():
    # torus-kind components come from the exact solve, never from this test
    g = groups.torus(2)
    with pytest.raises(InputError):
        identity_component_mask(g, np.eye(4)[None], np.eye(2)[:, :1])


def test_smith_form_diagonalizes_with_unimodular_factors():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m, n = (int(v) for v in rng.integers(1, 5, size=2))
        W = rng.integers(-6, 7, size=(m, n)) * (rng.random((m, n)) < 0.7)
        U, d, V = groups.smith_form(W)
        D = np.zeros((m, n), dtype=np.int64)
        D[np.arange(d.size), np.arange(d.size)] = d
        assert np.array_equal(U @ W @ V, D)
        assert round(abs(np.linalg.det(U))) == 1 and round(abs(np.linalg.det(V))) == 1
        # nonnegative, nonzero entries first, rank and invariant product exact
        r = exact_rank(W)
        assert (d >= 0).all() and np.count_nonzero(d) == r and d[:r].all()
        assert int(np.prod(d)) == minor_gcd(W)
        assert int(np.prod(d[:r])) == minor_gcd(W, r)

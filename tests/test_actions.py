"""Manifold models, the action catalog and point parsing."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from orthofold import actions, groups
from orthofold.errors import (
    InputError,
    PointSpecError,
    StabilizerError,
    UnknownActionError,
)

from oracles import act, distance, tangent_frame_reference


def test_catalog_ids_resolve():
    for name in actions.catalog_ids():
        a = actions.get_action(name)
        assert a.name == name
    with pytest.raises(UnknownActionError):
        actions.get_action("s3-so4")


def test_parametrized_family_members():
    a = actions.get_action("s2-zn(7)")
    assert a.group.elements.shape[0] == 7
    b = actions.get_action("cn-tn(3)")
    assert b.manifold.ambient_dim == 6
    assert b.group.lie_dim == 3
    with pytest.raises(UnknownActionError):
        actions.get_action("cn-tn(0)")


def test_normalize_and_validate():
    s2 = actions.sphere(2)
    x = actions.normalize(s2, np.array([3.0, 0.0, 4.0]))
    assert abs(np.linalg.norm(x) - 1.0) < 1e-14
    with pytest.raises(InputError):
        actions.validate_points(s2, np.array([[0.5, 0.0, 0.0]]))
    with pytest.raises(InputError):
        actions.validate_points(s2, np.array([[np.nan, 0.0, 1.0]]))
    eu = actions.euclidean(4)
    y = actions.normalize(eu, np.array([5.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(y, [5.0, 1.0, 0.0, 0.0])


def test_projective_distance_ignores_representative():
    rp2 = actions.real_projective(2)
    x = actions.normalize(rp2, np.array([0.3, -0.5, 0.7]))
    assert distance(rp2, x, -x) < 1e-14
    cp2 = actions.complex_projective(2)
    z = actions.normalize(cp2, np.array([1.0, 0.0, 0.2, 0.1, 0.0, 0.4]))
    w = actions.to_complex(z) * np.exp(1j * 0.83)
    z2 = actions.normalize(cp2, actions.from_complex(w))
    assert distance(cp2, z, z2) < 1e-12


@pytest.mark.parametrize("kind", ["real_projective", "complex_projective"])
def test_projective_distance_resolves_tiny_gaps(kind):
    # sqrt(2 - 2 |<x, y>|) reads 0 or about 1.5e-8 here; the aligned
    # difference sees the true gap
    m = getattr(actions, kind)(2)
    rng = np.random.default_rng(13)
    x = actions.sample_points(m, 1, rng)[0]
    step = actions.tangent_frames(m, x[None])[0, :, 0]
    for gap in (1e-9, 1e-12):
        y = actions.normalize(m, x + gap * step)
        if kind == "real_projective":
            y = -y
        else:
            y = actions.from_complex(np.exp(0.4j) * actions.to_complex(y))
        assert abs(distance(m, x, y) - gap) < 1e-2 * gap


def test_tangent_frame_is_orthonormal_horizontal():
    rng = np.random.default_rng(4)
    for m in (actions.sphere(2), actions.real_projective(2), actions.complex_projective(2)):
        x = actions.sample_points(m, 1, rng)[0]
        f = actions.tangent_frames(m, x[None])[0]
        assert f.shape == (m.ambient_dim, m.intrinsic_dim)
        assert np.allclose(f.T @ f, np.eye(m.intrinsic_dim), atol=1e-10)
        assert np.abs(f.T @ x).max() < 1e-10


def _frame_points(m, count: int, rng) -> np.ndarray:
    """Representatives with the first coordinate of every kind of sign: x_0
    negative, zero and positive, on each sphere factor of a product, and on
    CP^n with |z_0| at most 1e-12 (zero, and of order 1e-13)."""
    raw = rng.normal(size=(count, m.ambient_dim))
    blocks = np.array_split(np.arange(count), 8)
    raw[blocks[0], 0] = 0.0
    raw[blocks[1], 0] = -np.abs(raw[blocks[1], 0])
    raw[blocks[2], 0] = np.abs(raw[blocks[2], 0])
    if m.kind == "complex_projective":
        raw[blocks[3], :2] = 0.0
        raw[blocks[4], :2] *= 1e-13
    if m.kind == "product_spheres":
        d1 = m.factors[0]
        raw[blocks[3], d1] = 0.0
        raw[blocks[4], d1] = -np.abs(raw[blocks[4], d1])
        raw[blocks[5], 0] = -np.abs(raw[blocks[5], 0])
        raw[blocks[5], d1] = -np.abs(raw[blocks[5], d1])
    return actions.normalize(m, raw)


@pytest.mark.parametrize(
    "m",
    [
        actions.sphere(2),
        actions.product_spheres(2, 2),
        actions.real_projective(2),
        actions.complex_projective(2),
        actions.euclidean(4),
    ],
    ids=lambda m: m.kind,
)
def test_tangent_frames_match_the_per_point_frame_bit_for_bit(m):
    X = _frame_points(m, 400, np.random.default_rng(7))
    if m.kind == "complex_projective":
        z0 = np.hypot(X[:, 0], X[:, 1])
        assert np.count_nonzero(z0 == 0.0) and np.count_nonzero((z0 > 0.0) & (z0 <= 1e-12))
    want = np.stack([tangent_frame_reference(m, x) for x in X])
    got = actions.tangent_frames(m, X)
    assert got.shape == want.shape == (len(X), m.ambient_dim, m.intrinsic_dim)
    assert got.tobytes() == want.tobytes()
    # the batch of one is the same frame
    for x, frame in zip(X[::23], want[::23]):
        assert actions.tangent_frames(m, x[None])[0].tobytes() == frame.tobytes()


def test_tangent_frames_reject_a_stack_of_the_wrong_width():
    with pytest.raises(InputError, match=r"^point of shape \(4,\), expected \(3,\)$"):
        actions.tangent_frames(actions.sphere(2), np.zeros((2, 4)))
    with pytest.raises(InputError, match=r"^point of shape \(2, 3\), expected \(3,\)$"):
        actions.tangent_frames(actions.sphere(2), np.eye(3)[:2][None])


def test_act_matches_ambient_matrix():
    a = actions.get_action("s2xs2-so3")
    rng = np.random.default_rng(2)
    x = actions.sample_points(a.manifold, 1, rng)[0]
    g = groups.sample_elements(a.group, 1, rng)[0]
    y = act(a, g, x)
    assert np.allclose(y[:3], g @ x[:3], atol=1e-12)
    assert np.allclose(y[3:], g @ x[3:], atol=1e-12)


def _hand_written_maps(name):
    """amb and amb_lie of the torus actions as written out by hand: SO(2)
    in the upper-left block of RP^2's 3x3 matrices, diag(I, q, q^2) on
    cp2-u1, and the canonical representation itself on cn-tn(n)."""
    if name == "rp2-so2":

        def embed(m, corner):
            out = np.zeros((3, 3))
            out[:2, :2] = m
            out[2, 2] = corner
            return out

        return (lambda q: embed(q, 1.0)), (lambda xi: embed(xi, 0.0))
    if name == "cp2-u1":

        def amb(q):
            out = np.zeros((6, 6))
            out[:2, :2] = np.eye(2)
            out[2:4, 2:4] = q
            out[4:, 4:] = q @ q
            return out

        def amb_lie(xi):
            out = np.zeros((6, 6))
            out[2:4, 2:4] = xi
            out[4:, 4:] = 2.0 * xi
            return out

        return amb, amb_lie
    return (lambda q: q), (lambda xi: xi)


@pytest.mark.parametrize("name", ["rp2-so2", "cp2-u1", *(f"cn-tn({n})" for n in range(1, 9))])
def test_torus_maps_are_read_from_the_ambient_pairs(name):
    # the maps derived from ambient_pairs are the hand-written ones bit for
    # bit, on Haar elements, at angle 0 (where R(0) holds a -0.0) and on
    # the Lie basis
    a = actions.get_action(name)
    amb, amb_lie = _hand_written_maps(name)
    G = groups.sample_elements(a.group, 200, np.random.default_rng(3))
    G = np.concatenate([G, groups.exp_coeffs_batch(a.group, np.zeros((1, a.group.lie_dim)))])
    for g in G:
        assert a.amb(g).tobytes() == np.ascontiguousarray(amb(g)).tobytes()
    for xi in a.group.lie:
        assert a.amb_lie(xi).tobytes() == np.ascontiguousarray(amb_lie(xi)).tobytes()


@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_amb_lie_is_the_derivative_of_amb(name):
    # amb_lie(xi) is antisymmetric and equals d/dt amb(exp(t xi)) at t = 0,
    # taken as a central difference
    a = actions.get_action(name)
    t = 1e-6
    for i, xi in enumerate(a.group.lie):
        mat = a.amb_lie(xi)
        assert np.abs(mat + mat.T).max() < 1e-12
        c = t * np.eye(a.group.lie_dim)[i]
        plus, minus = a.amb_batch(groups.exp_coeffs_batch(a.group, np.stack([c, -c])))
        assert np.abs((plus - minus) / (2 * t) - mat).max() < 1e-8


def test_infinitesimal_action_rank_is_orbit_dim():
    a = actions.get_action("rp2-so2")
    # generic point moves, the fixed point does not
    moving = actions.normalize(a.manifold, np.array([0.6, 0.2, 0.5]))
    X = np.stack([moving, [0.0, 0.0, 1.0]])
    inf = actions.infinitesimal_actions(a, X, actions.tangent_frames(a.manifold, X))
    assert np.linalg.matrix_rank(inf[0]) == 1
    assert np.abs(inf[1]).max() < 1e-12


def test_differential_of_element_is_isometry():
    a = actions.get_action("cp2-u1")
    x = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # fixed by the whole circle
    g = groups.exp_coeffs_batch(a.group, np.array([[0.9]]))[0]
    d = actions.differentials(a, a.amb_batch(g[None]), x, actions.tangent_frames(a.manifold, x[None])[0])
    assert d.shape == (1, 4, 4)
    assert np.allclose(d[0].T @ d[0], np.eye(4), atol=1e-8)
    # a non-stabilizing element is rejected
    moving = actions.normalize(a.manifold, np.array([0.7, 0.0, 0.7, 0.0, 0.0, 0.1]))
    with pytest.raises(StabilizerError, match="does not stabilize"):
        frame = actions.tangent_frames(a.manifold, moving[None])[0]
        actions.differentials(a, a.amb_batch(g[None]), moving, frame)


@pytest.mark.parametrize(
    "mat",
    [
        np.eye(2),
        np.diag([1.0 + 5e-6, 1.0]),  # diagonal drift 1.0e-5, inside 1e-6 + 1e-5
        np.diag([1.0 + 6e-6, 1.0]),  # 1.2e-5, outside
        np.array([[1.0, 9e-7], [0.0, 1.0]]),  # off-diagonal bound is 1e-6 alone
        np.array([[1.0, 1.1e-6], [0.0, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
    ],
)
def test_differential_orthogonality_bound_is_allclose(mat):
    # the action fixes the origin, so only the orthogonality check decides
    a = actions.ActionModel(
        name="fixed-matrix",
        group=groups.so2(),
        manifold=actions.euclidean(2),
        amb=lambda el: mat,
        amb_lie=lambda xi: np.zeros((2, 2)),
        special_points=lambda rng: np.zeros((0, 2)),
    )
    x = np.zeros(2)
    one = a.amb_batch(np.eye(2)[None])
    if np.allclose(mat.T @ mat, np.eye(2), atol=1e-6):
        assert np.array_equal(actions.differentials(a, one, x, np.eye(2)), mat[None])
    else:
        with pytest.raises(StabilizerError, match="not orthogonal"):
            actions.differentials(a, one, x, np.eye(2))


def test_interval_projection_ranges():
    rng = np.random.default_rng(8)
    for name in ("s2xs2-so3", "rp2-so2", "cp2-so3"):
        a = actions.get_action(name)
        pts = actions.sample_points(a.manifold, 40, rng)
        vals = a.interval.projection(pts)
        lo, hi = a.interval.endpoints
        assert vals.min() >= lo - 1e-9 and vals.max() <= hi + 1e-9
        # the projection is invariant along orbits
        g = groups.sample_elements(a.group, 1, rng)[0]
        moved = a.interval.projection(np.stack([act(a, g, p) for p in pts]))
        assert np.abs(moved - vals).max() < 1e-9


def test_parse_point_real_and_complex():
    a = actions.get_action("s2-zn(5)")
    x = actions.parse_point(a, "0, 0, 2")
    assert np.allclose(x, [0.0, 0.0, 1.0])
    c = actions.get_action("cp2-u1")
    z = actions.parse_point(c, "1, 0, 0")
    assert np.allclose(z, [1.0, 0, 0, 0, 0, 0])
    w = actions.parse_point(c, "0, 1+1i, 0")
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    with pytest.raises(PointSpecError):
        actions.parse_point(a, "1, 2")
    with pytest.raises(PointSpecError):
        actions.parse_point(a, "0, 0, zero")
    with pytest.raises(PointSpecError):
        actions.parse_point(a, "0, 0, 0")


@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_parse_point_keeps_the_bits_of_a_plain_normalize(name):
    # the power-of-two rescale before normalizing is exact: ordinary
    # entries, tiny and large ones give the representative that
    # normalize gives the raw vector
    a = actions.get_action(name)
    rng = np.random.default_rng(8)
    for scale in (1.0, 1e-10, 3e-5, 7e4, 1e40):
        vec = scale * rng.normal(size=a.manifold.ambient_dim)
        x = actions.parse_point(a, ",".join(repr(float(t)) for t in vec))
        assert x.tobytes() == actions.normalize(a.manifold, vec).tobytes()


def test_parse_point_takes_large_entries_and_rejects_non_finite_ones():
    a = actions.get_action("rp2-so2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = actions.parse_point(a, "1e200,1e200,0")
        assert big.tobytes() == actions.parse_point(a, "1,1,0").tobytes()
        assert actions.parse_point(a, "1e308,-1e308,1e308").tobytes() == actions.parse_point(a, "1,-1,1").tobytes()
        for name, spec in (("rp2-so2", "inf,0,1"), ("s2xs2-so3", "inf,0,0,0,0,1"), ("cn-tn(2)", "1,nan")):
            with pytest.raises(PointSpecError, match="^point has non-finite entries$"):
                actions.parse_point(actions.get_action(name), spec)
        # the zero tests read the unscaled norms
        with pytest.raises(PointSpecError, match="zero vector"):
            actions.parse_point(a, "1e-13,0,0")
        with pytest.raises(PointSpecError, match="each sphere factor"):
            actions.parse_point(actions.get_action("s2xs2-so3"), "1e-13,0,0,1e200,0,0")


def test_sample_points_live_on_the_manifold():
    rng = np.random.default_rng(3)
    for m in (actions.sphere(2), actions.complex_projective(2)):
        actions.validate_points(m, actions.sample_points(m, 25, rng))


def test_importing_actions_loads_no_later_layer():
    # the package holds no re-exports, so a layer loads only what it imports
    probe = "import sys, orthofold.actions\nprint(' '.join(sorted(sys.modules)))"
    src = str(Path(actions.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "orthofold.actions" in loaded
    assert not loaded & {"orthofold.isotropy", "orthofold.strata", "orthofold.quotient"}

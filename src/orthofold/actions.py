"""Concrete manifolds and the built-in catalog of group actions.

Points are float64 vectors in ambient coordinates. Projective points are
unit representatives (sign- or phase-ambiguous); complex coordinates are
stored as real vectors of doubled length, interleaved as
z_k = v[2k] + i v[2k+1], with the complex structure acting by
J v = interleave(i z).

Every catalog action is linear in ambient coordinates: an element g of the
group's canonical representation acts through the ambient matrix amb(g), and
g . x is the image amb(g) x, renormalized. An image is compared with
a target once align has turned its representative, by sign or phase, to lie
nearest it; the fixer and transport tests all go through it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import groups
from .errors import InputError, PointSpecError, StabilizerError, UnknownActionError
from .numerics import MATCH_EPS, POINT_EPS

# ---------------------------------------------------------------------------
# manifold models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifoldModel:
    kind: str  # sphere | product_spheres | real_projective | complex_projective | euclidean
    ambient_dim: int
    intrinsic_dim: int
    factors: tuple = ()  # ambient dims of the sphere factors, product kind only


def sphere(n: int) -> ManifoldModel:
    return ManifoldModel("sphere", n + 1, n)


def product_spheres(n1: int, n2: int) -> ManifoldModel:
    return ManifoldModel(
        "product_spheres", n1 + n2 + 2, n1 + n2, factors=(n1 + 1, n2 + 1)
    )


def real_projective(n: int) -> ManifoldModel:
    return ManifoldModel("real_projective", n + 1, n)


def complex_projective(n: int) -> ManifoldModel:
    return ManifoldModel("complex_projective", 2 * (n + 1), 2 * n)


def euclidean(d: int) -> ManifoldModel:
    return ManifoldModel("euclidean", d, d)


def to_complex(v: np.ndarray) -> np.ndarray:
    return v[..., 0::2] + 1j * v[..., 1::2]


def from_complex(z: np.ndarray) -> np.ndarray:
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def normalize(m: ManifoldModel, x: np.ndarray) -> np.ndarray:
    """Rescale to a valid representative (unit norms where required)."""
    x = np.asarray(x, dtype=np.float64)
    if m.kind == "euclidean":
        return x.copy()
    if m.kind == "product_spheres":
        d1 = m.factors[0]
        out = x.copy()
        out[..., :d1] /= np.linalg.norm(out[..., :d1], axis=-1, keepdims=True)
        out[..., d1:] /= np.linalg.norm(out[..., d1:], axis=-1, keepdims=True)
        return out
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def align(m: ManifoldModel, Y: np.ndarray, x: np.ndarray):
    """Turn each representative row of Y to lie nearest the target x.

    x is one target for every row, or a stack holding one target per row.
    Returns (a, b, aligned): the unit factor a + ib of each row, its sign
    on RP^n, its phase on CP^n (where rows with a vanishing inner product
    keep 1), and 1 elsewhere, and the rows multiplied by it (Y itself
    where every factor is 1). On CP^n the
    last axes of Y and x must be contiguous, since they are read as
    interleaved complex coordinates.
    """

    def dot(U, v):
        return U @ v if v.ndim == 1 else np.einsum("bi,bi->b", U, v)

    if m.kind == "real_projective":
        a = np.where(dot(Y, x) >= 0.0, 1.0, -1.0)
        return a, np.zeros_like(a), a[..., None] * Y
    if m.kind == "complex_projective":
        Yc = Y.view(np.complex128)
        inner = dot(Yc, x.view(np.complex128).conj())  # conj(<y, x>)
        re, im = inner.real, -inner.imag
        mag = np.hypot(re, im)
        bad = mag < 1e-12
        safe = np.where(bad, 1.0, mag)
        a = np.where(bad, 1.0, re / safe)
        b = np.where(bad, 0.0, im / safe)
        return a, b, ((a + 1j * b)[..., None] * Yc).view(np.float64)
    a = np.ones(Y.shape[0])
    return a, np.zeros_like(a), Y


def aligned(m: ManifoldModel, Y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rows of Y as align turns them, without the factors: Y itself on
    spheres, products and euclidean models, where every factor is 1."""
    if m.kind in ("real_projective", "complex_projective"):
        return align(m, Y, x)[2]
    return Y


def validate_points(m: ManifoldModel, X: np.ndarray) -> None:
    """Raise InputError unless every row of the stack X is a representative:
    of the ambient shape, finite, and of unit norm (per sphere factor on
    products) within MATCH_EPS."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1:] != (m.ambient_dim,):
        raise InputError(f"point of shape {X.shape[1:]}, expected ({m.ambient_dim},)")
    if not np.all(np.isfinite(X)):
        raise InputError("point has non-finite entries")
    if m.kind == "product_spheres":
        d1 = m.factors[0]
        off = np.maximum(
            np.abs(np.linalg.norm(X[:, :d1], axis=1) - 1.0),
            np.abs(np.linalg.norm(X[:, d1:], axis=1) - 1.0),
        )
        if np.any(off > MATCH_EPS):
            raise InputError("product-sphere representative factors must be unit vectors")
    elif m.kind != "euclidean":
        if np.any(np.abs(np.linalg.norm(X, axis=1) - 1.0) > MATCH_EPS):
            raise InputError("representative must be a unit vector")


def sample_points(m: ManifoldModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rotation-invariant sampling: uniform on spheres and projective spaces,
    standard gaussian for euclidean models."""
    if count < 0:
        raise InputError("sample count must be nonnegative")
    raw = rng.normal(size=(count, m.ambient_dim))
    if m.kind == "euclidean":
        return raw
    return normalize(m, raw)


def _row_dots(U: np.ndarray) -> np.ndarray:
    """u^H u of each row of U, by the same dot product as u.conj() @ u."""
    return (U.conj()[:, None, :] @ U[:, :, None])[:, 0, 0]


def _householder_frames(X: np.ndarray) -> np.ndarray:
    """Orthonormal bases (columns) of the hyperplanes orthogonal to the unit
    rows of X, as a (B, n, n - 1) stack."""
    n = X.shape[1]
    U = X.copy()
    U[:, 0] += np.where(X[:, 0] >= 0.0, 1.0, -1.0)
    # the reflection I - 2 u u^T / |u|^2 without its first column, x's image
    outer = U[:, :, None] * U[:, None, 1:]
    return np.eye(n)[:, 1:] - 2.0 * outer / _row_dots(U)[:, None, None]


def _complex_householder_frames(Z: np.ndarray) -> np.ndarray:
    """Complex orthonormal bases (columns) of the hyperplanes orthogonal to
    the rows of Z, as a (B, n, n - 1) stack. The reflection's sign is the
    phase of z_0, or 1 when |z_0| <= 1e-12."""
    n = Z.shape[1]
    z0 = Z[:, 0]
    mag = np.hypot(z0.real, z0.imag)
    big = mag > 1e-12
    U = Z.copy()
    U[:, 0] += np.where(big, z0 / np.where(big, mag, 1.0), 1.0 + 0.0j)
    outer = U[:, :, None] * U.conj()[:, None, :]
    h = np.eye(n, dtype=complex) - 2.0 * outer / _row_dots(U)[:, None, None]
    return h[:, :, 1:]


def tangent_frames(m: ManifoldModel, X: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the horizontal tangent spaces at a stack of
    representatives, validated first.

    Returns a (B, ambient_dim, intrinsic_dim) stack whose columns are ambient
    vectors: orthogonal to x on spheres, to x and Jx on complex projective
    models (where consecutive columns are J-paired), and the standard basis
    in the euclidean case. Every operation is row by row, so a row does not
    depend on the rest of the stack: it is bit for bit the frame of its
    point framed alone.
    """
    X = np.asarray(X, dtype=np.float64)
    validate_points(m, X)
    B, N = X.shape
    if m.kind == "euclidean":
        return np.tile(np.eye(N), (B, 1, 1))
    if m.kind in ("sphere", "real_projective"):
        return _householder_frames(X)
    if m.kind == "product_spheres":
        d1 = m.factors[0]
        out = np.zeros((B, N, m.intrinsic_dim))
        out[:, :d1, : d1 - 1] = _householder_frames(X[:, :d1])
        out[:, d1:, d1 - 1 :] = _householder_frames(X[:, d1:])
        return out
    # complex projective: realified complex frames, J-pairs adjacent
    fz = np.swapaxes(_complex_householder_frames(to_complex(X)), 1, 2)
    pairs = from_complex(np.stack([fz, 1j * fz], axis=2)).reshape(B, -1, N)
    return np.ascontiguousarray(np.swapaxes(pairs, 1, 2))


@functools.lru_cache(maxsize=None)
def ambient_complex_structure(m: ManifoldModel) -> np.ndarray:
    """The matrix of multiplication by i on interleaved real coordinates.

    Built once per manifold and shared read-only.
    """
    n = m.ambient_dim
    j = np.zeros((n, n))
    for k in range(n // 2):
        j[2 * k, 2 * k + 1] = -1.0
        j[2 * k + 1, 2 * k] = 1.0
    j.flags.writeable = False
    return j


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalModel:
    endpoints: tuple
    projection: Callable  # (B, N) representatives -> (B,) values


@dataclass(frozen=True)
class ActionModel:
    """A smooth linear action of a compact matrix group on a manifold model."""

    name: str
    group: groups.GroupDescriptor
    manifold: ManifoldModel
    amb: Callable  # canonical element -> ambient matrix
    amb_lie: Callable  # canonical Lie generator -> ambient matrix
    special_points: Callable  # rng -> (m, N) measure-zero stratum representatives
    # For SO(3) acting on copies of R^3: x -> the (3, 2) frame X the rotations
    # act on from the left, and a (B, N) stack -> the (B, 3, 2) frames. On
    # complex projective models X holds the real and imaginary parts,
    # defined up to the phase gauge X -> X rot(alpha).
    so3_frame: Callable | None = None
    # For torus-kind groups: tuple of (coords, weight) with coords a fixed
    # index (i,) or a rotating pair (i, j), weight an integer vector over the
    # canonical angle parameters. Drives the exact stabilizer and transport
    # solves.
    ambient_pairs: tuple | None = None
    interval: IntervalModel | None = None
    params: dict = field(default_factory=dict)

    def amb_batch(self, G: np.ndarray) -> np.ndarray:
        return np.stack([self.amb(g) for g in G])

    @functools.cached_property
    def element_ambs(self) -> np.ndarray:
        """Ambient matrices of a finite group's elements, in element order.

        They do not depend on any point, so they are built on first use,
        once per action, and shared read-only.
        """
        out = self.amb_batch(self.group.elements)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def lie_ambs(self) -> np.ndarray:
        """Ambient matrices amb_lie of the group's Lie basis, a (k, N, N)
        stack built once per action and shared read-only."""
        n = self.manifold.ambient_dim
        out = np.array([self.amb_lie(xi) for xi in self.group.lie], dtype=np.float64).reshape(-1, n, n)
        out.flags.writeable = False
        return out


def infinitesimal_actions(a: ActionModel, X: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Matrices whose columns are the frame coordinates of the generator
    fields, one (dim, k) matrix per point of a stack.

    frames is tangent_frames(a.manifold, X). Column i holds the horizontal
    projection of amb_lie(basis_i) x at x; its rank is the orbit dimension
    through x. Two stacked products apply every generator's ambient matrix
    (a.lie_ambs) to every point and read each field in its point's frame;
    each factor is a product of its own, so a point's matrix is bit for bit
    the same in any stack.
    """
    fields = np.matmul(a.lie_ambs, X[:, None, :, None])
    coords = np.matmul(np.swapaxes(frames, 1, 2)[:, None], fields)
    return np.swapaxes(coords[..., 0], 1, 2)


def lift(a: ActionModel, amb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A stack of stabilizing ambient matrices, each turned to fix its point
    as a vector.

    amb holds B ambient matrices; x is one point, or one per matrix as a
    (B, N) stack. Each matrix is multiplied by the sign (RP^n) or unit phase
    (CP^n) that align gives its image of the point; elsewhere it is kept as
    it is. The lifts of a stabilizer's elements form a group, a lift of it
    into the ambient orthogonal group. Raises StabilizerError when a matrix
    moves its point by more than POINT_EPS.
    """
    m = a.manifold
    Y = normalize(m, np.einsum("bij,bj->bi", amb, np.broadcast_to(x, amb.shape[:2])))
    fa, fb, aligned = align(m, Y, x)
    if np.linalg.norm(aligned - x, axis=1).max() > POINT_EPS:
        raise StabilizerError("element does not stabilize the point")
    if m.kind == "complex_projective":
        return fa[:, None, None] * amb + fb[:, None, None] * (ambient_complex_structure(m) @ amb)
    if m.kind == "real_projective":
        return fa[:, None, None] * amb
    return amb


def differentials(
    a: ActionModel, amb: np.ndarray, x: np.ndarray, frame: np.ndarray
) -> np.ndarray:
    """Differentials of a stack of stabilizing ambient matrices, in frame coordinates.

    amb holds B ambient matrices; x is one point, or one per matrix as a
    (B, N) stack, and frame its tangent frame, or a (B, N, dim) stack of
    them. Each matrix is lifted (see lift), then read in its point's frame.
    Raises StabilizerError when a matrix moves its point by more than
    POINT_EPS, or when a differential fails np.allclose's orthogonality
    bound. Returns a (B, dim, dim) stack.
    """
    d = np.swapaxes(frame, -1, -2) @ lift(a, amb, x) @ frame
    # np.allclose's per-entry bound, written out; a NaN entry fails it too
    eye = np.eye(d.shape[1])
    if not np.all(np.abs(np.swapaxes(d, 1, 2) @ d - eye) <= 1e-6 + 1e-5 * eye):
        raise StabilizerError("differential is not orthogonal; point data inconsistent")
    return d


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _torus_maps(n: int, pairs: tuple) -> tuple[Callable, Callable]:
    """amb and amb_lie of a torus-kind action on R^n, read from its
    ambient_pairs. A torus element holds R(theta_j) in its j-th 2x2 block;
    a rotating pair with weight row w turns by the product of the
    R(theta_j)^{w_j}, and a Lie generator turns it at the sum of the
    w_j xi_j, xi_j its j-th block, both over the nonzero weights only (so
    no 0 * -1 = -0.0 enters). A fixed coordinate keeps 1.
    """
    slots = [(np.ix_(c, c), len(c), [(j, k) for j, k in enumerate(w) if k]) for c, w in pairs]

    def block(m, j):
        return m[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]

    def amb(q):
        out = np.zeros((n, n))
        for at, size, weights in slots:
            steps = [np.linalg.matrix_power(block(q, j) if k > 0 else block(q, j).T, abs(k))
                     for j, k in weights]
            out[at] = functools.reduce(np.matmul, steps) if steps else np.eye(size)
        return out

    def amb_lie(xi):
        out = np.zeros((n, n))
        for at, _, weights in slots:
            if weights:
                out[at] = functools.reduce(np.add, [k * block(xi, j) for j, k in weights])
        return out

    return amb, amb_lie


def _make_s2xs2() -> ActionModel:
    m = product_spheres(2, 2)
    g = groups.so3()

    def amb(q):
        out = np.zeros((6, 6))
        out[:3, :3] = q
        out[3:, 3:] = q
        return out

    def frame(x):
        return np.stack([x[..., :3], x[..., 3:]], axis=-1)

    def specials(rng):
        axes = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
        extra = rng.normal(size=(4, 3))
        axes.extend(v / np.linalg.norm(v) for v in extra)
        pts = []
        for v in axes:
            pts.append(np.concatenate([v, v]))
            pts.append(np.concatenate([v, -v]))
        return np.array(pts)

    def proj(pts):
        pts = np.atleast_2d(pts)
        return np.einsum("bi,bi->b", pts[:, :3], pts[:, 3:])

    return ActionModel(
        name="s2xs2-so3",
        group=g,
        manifold=m,
        amb=amb,
        amb_lie=amb,
        special_points=specials,
        so3_frame=frame,
        interval=IntervalModel((-1.0, 1.0), proj),
    )


def _make_rp2() -> ActionModel:
    m = real_projective(2)
    g = groups.so2()

    def specials(rng):
        pts = [np.array([0.0, 0.0, 1.0])]
        angles = rng.uniform(0.0, 2.0 * np.pi, size=32)
        for t in angles:
            pts.append(np.array([np.cos(t), np.sin(t), 0.0]))
        return np.array(pts)

    def proj(pts):
        pts = np.atleast_2d(pts)
        return pts[:, 2] ** 2

    pairs = (((0, 1), (1,)), ((2,), (0,)))
    amb, amb_lie = _torus_maps(3, pairs)
    return ActionModel(
        name="rp2-so2",
        group=g,
        manifold=m,
        amb=amb,
        amb_lie=amb_lie,
        special_points=specials,
        ambient_pairs=pairs,
        interval=IntervalModel((0.0, 1.0), proj),
    )


def _make_cp2_so3() -> ActionModel:
    m = complex_projective(2)
    g = groups.so3()

    def amb(q):
        # q acts on real and imaginary parts alike: kron(q, I2), filled directly
        out = np.zeros((6, 6))
        out[0::2, 0::2] = q
        out[1::2, 1::2] = q
        return out

    def frame(x):
        return np.stack([x[..., 0::2], x[..., 1::2]], axis=-1)

    def specials(rng):
        pts = []
        # real locus: genuinely real lines
        reals = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        extra = rng.normal(size=(14, 3))
        reals.extend(v / np.linalg.norm(v) for v in extra)
        for v in reals:
            z = np.zeros(6)
            z[0::2] = v
            pts.append(z)
        # null quadric: [u + i w] with u, w orthonormal, scaled 1/sqrt(2)
        frames = [(np.eye(3)[:, 0], np.eye(3)[:, 1]), (np.eye(3)[:, 1], np.eye(3)[:, 2])]
        for _ in range(14):
            a_ = rng.normal(size=3)
            a_ /= np.linalg.norm(a_)
            b_ = rng.normal(size=3)
            b_ -= (b_ @ a_) * a_
            b_ /= np.linalg.norm(b_)
            frames.append((a_, b_))
        for u, w in frames:
            z = np.zeros(6)
            z[0::2] = u / np.sqrt(2.0)
            z[1::2] = w / np.sqrt(2.0)
            pts.append(z)
        return np.array(pts)

    def proj(pts):
        pts = np.atleast_2d(pts)
        xr = pts[:, 0::2]
        yi = pts[:, 1::2]
        cross = np.cross(xr, yi)
        return 1.0 - 4.0 * np.einsum("bi,bi->b", cross, cross)

    return ActionModel(
        name="cp2-so3",
        group=g,
        manifold=m,
        amb=amb,
        amb_lie=amb,
        special_points=specials,
        so3_frame=frame,
        interval=IntervalModel((0.0, 1.0), proj),
    )


def _make_cp2_u1() -> ActionModel:
    m = complex_projective(2)
    g = groups.u1()

    def specials(rng):
        pts = [np.zeros(6) for _ in range(3)]
        pts[0][0] = 1.0
        pts[1][2] = 1.0
        pts[2][4] = 1.0
        # the order-two locus away from the isolated fixed points: z1 = 0
        angles = rng.uniform(0.05, np.pi / 2 - 0.05, size=32)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=32)
        for t, ph in zip(angles, phases):
            z = np.zeros(6)
            z[0] = np.cos(t)
            z[4] = np.sin(t) * np.cos(ph)
            z[5] = np.sin(t) * np.sin(ph)
            pts.append(z)
        return np.array(pts)

    pairs = (((0, 1), (0,)), ((2, 3), (1,)), ((4, 5), (2,)))
    amb, amb_lie = _torus_maps(6, pairs)
    return ActionModel(
        name="cp2-u1",
        group=g,
        manifold=m,
        amb=amb,
        amb_lie=amb_lie,
        special_points=specials,
        ambient_pairs=pairs,
    )


def _make_s2_zn(n: int) -> ActionModel:
    if not 2 <= n <= 64:
        raise InputError("s2-zn supports 2 <= n <= 64")
    m = sphere(2)
    mats = []
    for j in range(n):
        t = 2.0 * np.pi * j / n
        mats.append(
            np.array(
                [[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]
            )
        )
    g = groups.finite(np.array(mats), name=f"Z_{n}")

    def specials(rng):
        del rng
        return np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])

    return ActionModel(
        name=f"s2-zn({n})",
        group=g,
        manifold=m,
        amb=lambda q: q,
        amb_lie=lambda xi: xi,
        special_points=specials,
        params={"n": n},
    )


def _make_cn_tn(n: int) -> ActionModel:
    if not 1 <= n <= 8:
        raise InputError("cn-tn supports 1 <= n <= 8")
    m = euclidean(2 * n)
    g = groups.torus(n)

    def specials(rng):
        pts = []
        for mask in range(1, 2**n):
            zero = [(mask >> i) & 1 for i in range(n)]
            if all(zero):
                pts.append(np.zeros(2 * n))
                continue
            for _ in range(12):
                z = np.empty(2 * n)
                mags = rng.uniform(0.4, 1.6, size=n)
                phs = rng.uniform(0.0, 2.0 * np.pi, size=n)
                for i in range(n):
                    if zero[i]:
                        z[2 * i] = 0.0
                        z[2 * i + 1] = 0.0
                    else:
                        z[2 * i] = mags[i] * np.cos(phs[i])
                        z[2 * i + 1] = mags[i] * np.sin(phs[i])
                pts.append(z)
        return np.array(pts)

    pairs = tuple(
        ((2 * i, 2 * i + 1), tuple(1 if j == i else 0 for j in range(n)))
        for i in range(n)
    )
    amb, amb_lie = _torus_maps(2 * n, pairs)
    return ActionModel(
        name=f"cn-tn({n})",
        group=g,
        manifold=m,
        amb=amb,
        amb_lie=amb_lie,
        special_points=specials,
        ambient_pairs=pairs,
        params={"n": n},
    )


_PARAM_RE = re.compile(r"^(s2-zn|cn-tn)\((\d+)\)$")


def get_action(action_id: str) -> ActionModel:
    """Resolve a catalog id, including the parametrized families."""
    fixed = {
        "s2xs2-so3": _make_s2xs2,
        "rp2-so2": _make_rp2,
        "cp2-so3": _make_cp2_so3,
        "cp2-u1": _make_cp2_u1,
    }
    if action_id in fixed:
        return fixed[action_id]()
    m = _PARAM_RE.match(action_id)
    if m:
        try:
            n = int(m.group(2))
        except ValueError:
            # past int's digit limit, far outside every family's range
            raise UnknownActionError(f"parameter of {m.group(1)} out of range") from None
        try:
            if m.group(1) == "s2-zn":
                return _make_s2_zn(n)
            return _make_cn_tn(n)
        except InputError as e:
            raise UnknownActionError(str(e)) from e
    raise UnknownActionError(f"no catalog action named {action_id!r}")


def catalog() -> list[ActionModel]:
    """The six named catalog actions with default parameters."""
    return [
        get_action("s2xs2-so3"),
        get_action("rp2-so2"),
        get_action("cp2-so3"),
        get_action("cp2-u1"),
        get_action("s2-zn(5)"),
        get_action("cn-tn(2)"),
    ]


def catalog_ids() -> list[str]:
    return [a.name for a in catalog()]


# ---------------------------------------------------------------------------
# point parsing (used by the command line)
# ---------------------------------------------------------------------------


def _parse_entry(token: str) -> complex:
    token = token.strip()
    if not token:
        raise PointSpecError("empty coordinate")
    try:
        return complex(float(token), 0.0)
    except ValueError:
        pass
    t = token.replace(" ", "")
    m = re.match(
        r"^([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
        r"([+-](?:\d+(?:\.\d*)?|\.\d+)?(?:[eE][+-]?\d+)?)[ij]$",
        t,
    )
    if m:
        re_part = float(m.group(1))
        im_text = m.group(2)
        im_part = float(im_text) if im_text not in ("+", "-") else float(im_text + "1")
        return complex(re_part, im_part)
    m = re.match(r"^([+-]?(?:\d+(?:\.\d*)?|\.\d+)?(?:[eE][+-]?\d+)?)[ij]$", t)
    if m:
        text = m.group(1)
        if text in ("", "+", "-"):
            text += "1"
        return complex(0.0, float(text))
    raise PointSpecError(f"cannot parse coordinate {token!r}")


def parse_point(a: ActionModel, spec: str) -> np.ndarray:
    """Parse a comma-separated point specification into a representative.

    Real entries are plain floats; complex entries use the a+bi form, and
    every entry must be finite. The parsed vector is normalized into a valid
    representative of the action's manifold.
    """
    entries = [_parse_entry(t) for t in spec.split(",")]
    m = a.manifold
    if m.kind == "complex_projective" or (m.kind == "euclidean" and m.ambient_dim % 2 == 0):
        want = m.ambient_dim // 2
        if len(entries) == want:
            vec = from_complex(np.array(entries, dtype=complex))
        elif len(entries) == m.ambient_dim and all(e.imag == 0.0 for e in entries):
            vec = np.array([e.real for e in entries])
        else:
            raise PointSpecError(
                f"expected {want} complex or {m.ambient_dim} real coordinates"
            )
    else:
        if any(e.imag != 0.0 for e in entries):
            raise PointSpecError("this manifold takes real coordinates")
        if len(entries) != m.ambient_dim:
            raise PointSpecError(f"expected {m.ambient_dim} coordinates")
        vec = np.array([e.real for e in entries])
    if not np.all(np.isfinite(vec)):
        raise PointSpecError("point has non-finite entries")
    if m.kind == "euclidean":
        return vec
    # an exact division by the power of two 2^e nearest the largest entry:
    # no norm overflows, and the representative keeps its bits
    e = int(np.frexp(np.abs(vec).max())[1])
    vec, tiny = np.ldexp(vec, -e), np.ldexp(1e-12, -e)
    if np.linalg.norm(vec) < tiny:
        raise PointSpecError("zero vector does not represent a point")
    if m.kind == "product_spheres":
        d1 = m.factors[0]
        if np.linalg.norm(vec[:d1]) < tiny or np.linalg.norm(vec[d1:]) < tiny:
            raise PointSpecError("each sphere factor needs a nonzero vector")
    return normalize(m, vec)

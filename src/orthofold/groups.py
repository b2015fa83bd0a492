"""Compact matrix groups in canonical coordinates.

Each group is described by its canonical matrix size, an explicit basis of
its Lie algebra (antisymmetric matrices), and, for groups with several
components, representative or exhaustive element lists. Lie-algebra data is
always handled through coefficient vectors relative to the stored basis, so
stabilizer kernels, exponentials and adjoints all speak the same coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClassificationError, InputError
from .numerics import Tolerance, DEFAULT_TOL, orthonormalize

# identity-component membership cut: for so3 on |q zeta - zeta|, for the
# torus kinds on the wrapped angle residual off the kernel span, and for a
# finite stabilizer on max |q - 1|. Catalog component classes sit O(1) apart.
COMPONENT_EPS = 1e-5
# bytes of the (B, 3^r, r) shifted-angle block built per chunk of candidates
_SHIFT_CHUNK_BYTES = 4 << 20


def _rot2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class GroupDescriptor:
    """A compact matrix group in its canonical representation.

    kind: one of "so3", "so2", "u1", "o2", "torus", "finite", "product".
    """

    kind: str
    size: int
    lie: np.ndarray  # (k, size, size) antisymmetric generators
    elements: np.ndarray | None = None  # component representatives / full list
    circle_label: str = "SO2"  # label given to one-parameter stabilizer circles
    parts: tuple = ()
    name: str = ""

    @property
    def lie_dim(self) -> int:
        return self.lie.shape[0]

    @property
    def n_components(self) -> int:
        if self.kind == "finite":
            return len(self.elements)
        if self.kind == "o2":
            return 2
        if self.kind == "product":
            n = 1
            for p in self.parts:
                n *= p.n_components
            return n
        return 1

    def identity(self) -> np.ndarray:
        return np.eye(self.size)


def so3() -> GroupDescriptor:
    from .kernels import SO3_GENERATORS

    return GroupDescriptor(kind="so3", size=3, lie=SO3_GENERATORS.copy(), name="SO(3)")


def so2() -> GroupDescriptor:
    return GroupDescriptor(kind="so2", size=2, lie=_J2[None].copy(), name="SO(2)")


def u1() -> GroupDescriptor:
    return GroupDescriptor(
        kind="u1", size=2, lie=_J2[None].copy(), circle_label="U1", name="U(1)"
    )


def o2() -> GroupDescriptor:
    refl = np.diag([1.0, -1.0])
    return GroupDescriptor(
        kind="o2", size=2, lie=_J2[None].copy(), elements=refl[None].copy(), name="O(2)"
    )


def torus(r: int) -> GroupDescriptor:
    if r < 1:
        raise InputError("torus rank must be positive")
    gens = np.zeros((r, 2 * r, 2 * r))
    for j in range(r):
        gens[j, 2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = _J2
    return GroupDescriptor(
        kind="torus", size=2 * r, lie=gens, circle_label="U1", name=f"T^{r}"
    )


def finite(elements, name: str = "finite") -> GroupDescriptor:
    mats = np.asarray(elements, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise InputError("finite group needs a (m, n, n) element array")
    size = mats.shape[1]
    return GroupDescriptor(
        kind="finite", size=size, lie=np.zeros((0, size, size)), elements=mats, name=name
    )


def product(parts) -> GroupDescriptor:
    parts = tuple(parts)
    size = sum(p.size for p in parts)
    k = sum(p.lie_dim for p in parts)
    gens = np.zeros((k, size, size))
    row = 0
    off = 0
    for p in parts:
        for j in range(p.lie_dim):
            gens[row, off : off + p.size, off : off + p.size] = p.lie[j]
            row += 1
        off += p.size
    label = parts[0].circle_label if parts else "SO2"
    return GroupDescriptor(
        kind="product",
        size=size,
        lie=gens,
        circle_label=label,
        parts=parts,
        name=" x ".join(p.name for p in parts),
    )


# ---------------------------------------------------------------------------
# exponential and sampling
# ---------------------------------------------------------------------------


def exp_coeffs(g: GroupDescriptor, c: np.ndarray) -> np.ndarray:
    """exp of the Lie-algebra element with coefficients c in the stored basis."""
    c = np.asarray(c, dtype=np.float64).ravel()
    if c.size != g.lie_dim:
        raise InputError(f"expected {g.lie_dim} coefficients, got {c.size}")
    if g.kind == "so3":
        return _rodrigues_single(c)
    if g.kind in ("so2", "u1", "o2"):
        return _rot2(c[0]) if c.size else g.identity()
    if g.kind == "torus":
        r = g.lie_dim
        out = np.eye(2 * r)
        for j in range(r):
            out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = _rot2(c[j])
        return out
    if g.kind == "product":
        blocks = []
        off = 0
        for p in g.parts:
            blocks.append(exp_coeffs(p, c[off : off + p.lie_dim]))
            off += p.lie_dim
        return _blockdiag(blocks)
    return g.identity()  # finite: the Lie algebra is zero


def exp_coeffs_batch(g: GroupDescriptor, C: np.ndarray) -> np.ndarray:
    """Vectorized exp_coeffs over rows of C."""
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    if g.kind == "so3":
        from .kernels import rodrigues_batch

        return rodrigues_batch(C)
    if g.kind in ("so2", "u1", "o2", "torus"):
        r = g.lie_dim
        out = np.zeros((C.shape[0], g.size, g.size))
        out[:] = np.eye(g.size)
        for j in range(r):
            cos, sin = np.cos(C[:, j]), np.sin(C[:, j])
            out[:, 2 * j, 2 * j] = cos
            out[:, 2 * j, 2 * j + 1] = -sin
            out[:, 2 * j + 1, 2 * j] = sin
            out[:, 2 * j + 1, 2 * j + 1] = cos
        return out
    return np.stack([exp_coeffs(g, c) for c in C])


def _rodrigues_single(w: np.ndarray) -> np.ndarray:
    from .kernels import rodrigues_batch

    return rodrigues_batch(w[None])[0]


def _blockdiag(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    off = 0
    for b in blocks:
        m = b.shape[0]
        out[off : off + m, off : off + m] = b
        off += m
    return out


def sample_elements(g: GroupDescriptor, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw elements of g: Haar for the continuous kinds, the full list for
    finite groups (count is ignored there).
    """
    if g.kind == "finite":
        return g.elements.copy()
    if g.kind == "so3":
        # uniform via unit quaternions
        q = rng.normal(size=(count, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        return _quat_to_mat(q)
    if g.kind in ("so2", "u1"):
        return exp_coeffs_batch(g, rng.uniform(0.0, 2.0 * np.pi, size=(count, 1)))
    if g.kind == "torus":
        return exp_coeffs_batch(g, rng.uniform(0.0, 2.0 * np.pi, size=(count, g.lie_dim)))
    if g.kind == "o2":
        rots = exp_coeffs_batch(g, rng.uniform(0.0, 2.0 * np.pi, size=(count, 1)))
        flip = rng.integers(0, 2, size=count).astype(bool)
        rots[flip] = rots[flip] @ g.elements[0]
        return rots
    if g.kind == "product":
        parts = [sample_elements(p, count, rng) for p in g.parts]
        out = np.zeros((count, g.size, g.size))
        off = 0
        for p, block in zip(g.parts, parts):
            out[:, off : off + p.size, off : off + p.size] = block
            off += p.size
        return out
    raise InputError(f"cannot sample elements of kind {g.kind!r}")


def _quat_to_mat(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((q.shape[0], 3, 3))
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - w * z)
    out[:, 0, 2] = 2 * (x * z + w * y)
    out[:, 1, 0] = 2 * (x * y + w * z)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - w * x)
    out[:, 2, 0] = 2 * (x * z - w * y)
    out[:, 2, 1] = 2 * (y * z + w * x)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


# ---------------------------------------------------------------------------
# structure queries
# ---------------------------------------------------------------------------


def torus_angles(g: GroupDescriptor, q: np.ndarray) -> np.ndarray:
    """Block rotation angles of torus-kind elements, each in (-pi, pi].

    q is one (size, size) element or a (..., size, size) stack; the angles
    sit on the last axis.
    """
    q = np.asarray(q, dtype=np.float64)
    r = g.lie_dim
    return np.stack(
        [np.arctan2(q[..., 2 * j + 1, 2 * j], q[..., 2 * j, 2 * j]) for j in range(r)],
        axis=-1,
    )


def adjoint_coeffs(g: GroupDescriptor, elem: np.ndarray) -> np.ndarray:
    """Matrix of Ad_elem on Lie-algebra coefficient vectors."""
    k = g.lie_dim
    if k == 0:
        return np.zeros((0, 0))
    conj = np.einsum("ab,jbc,dc->jad", elem, g.lie, elem)
    gram = np.einsum("iab,jab->ij", g.lie, g.lie)
    mixed = np.einsum("iab,jab->ij", g.lie, conj)
    return np.linalg.solve(gram, mixed)


def identity_component_mask(
    g: GroupDescriptor, Q: np.ndarray, kernel_coeffs: np.ndarray
) -> np.ndarray:
    """Which of the elements Q (B, size, size) lie on exp(span kernel_coeffs).

    kernel_coeffs has shape (lie_dim, k); k = 0 reduces to an identity test.
    For so3 with a one-dimensional kernel spanned by zeta, exp(span zeta) is
    the set of rotations fixing zeta, so membership is |q zeta - zeta| small,
    which stays well conditioned for every rotation angle, pi included. The
    torus kinds project the block angles onto the kernel span, trying every
    2 pi wrap of each angle.
    """
    Q = np.asarray(Q, dtype=np.float64)
    k = kernel_coeffs.shape[1] if kernel_coeffs.ndim == 2 else 0
    if k == 0:
        return np.abs(Q - g.identity()).max(axis=(1, 2)) <= COMPONENT_EPS
    if g.kind == "so3":
        if k >= 3:
            return np.ones(Q.shape[0], dtype=bool)
        zeta = kernel_coeffs[:, 0] / np.linalg.norm(kernel_coeffs[:, 0])
        return np.linalg.norm(Q @ zeta - zeta, axis=1) <= COMPONENT_EPS
    if g.kind in ("so2", "u1", "torus", "o2"):
        phi = torus_angles(g, Q)
        basis = orthonormalize(kernel_coeffs)
        r = phi.shape[1]
        shifts = 2.0 * np.pi * (np.array(list(np.ndindex(*(3,) * r)), dtype=np.float64) - 1.0)
        step = max(1, _SHIFT_CHUNK_BYTES // (shifts.size * 8))
        best = np.empty(phi.shape[0])
        for lo in range(0, phi.shape[0], step):
            v = phi[lo : lo + step, None, :] + shifts
            resid = v - (v @ basis) @ basis.T
            best[lo : lo + step] = np.linalg.norm(resid, axis=2).min(axis=1)
        inside = best <= COMPONENT_EPS
        if g.kind == "o2":
            inside &= np.linalg.det(Q) >= 0.0
        return inside
    raise InputError(f"identity-component membership unsupported for kind {g.kind!r}")


# ---------------------------------------------------------------------------
# subgroup classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupClass:
    """Conjugacy-class level description of a stabilizer subgroup."""

    label: str  # Trivial | Zn | SO2 | O2 | U1 | FullGroup | Other
    order: int | None  # component count for Zn, None when infinite/unknown
    lie_dim: int
    component_hint: str
    traces: tuple = field(default_factory=tuple)

    def display(self) -> str:
        if self.label == "Zn":
            return f"Zn({self.order})"
        return self.label


def classify_subgroup(
    g: GroupDescriptor,
    lie_kernel: np.ndarray,
    witnesses: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> SubgroupClass:
    """Name the subgroup spanned by a stabilizer's Lie kernel and witnesses.

    lie_kernel: (lie_dim, k) coefficient vectors of the stabilizer algebra.
    witnesses: (m, n, n) component representatives, identity first.

    Labels target the stabilizer types arising in the built-in catalog;
    subgroups outside that vocabulary land in Other, whose comparisons use
    conservative invariants only. In particular non-conjugate subtori of a
    higher-rank torus can share a label; the finer Lie-span data lives on
    the decomposition fingerprints, not here.
    """
    k = int(lie_kernel.shape[1]) if lie_kernel.ndim == 2 else 0
    m = len(witnesses)
    if m == 0:
        raise ClassificationError("witness list must at least contain the identity")
    traces = tuple(sorted(round(float(np.trace(w)), 9) for w in witnesses))

    # every witness must normalize the stabilizer algebra
    if k > 0:
        from .numerics import spans_equal

        span = orthonormalize(lie_kernel)
        for w in witnesses:
            ad = adjoint_coeffs(g, w)
            if not spans_equal(ad @ span, span, tol):
                raise ClassificationError(
                    "witness does not normalize the stabilizer Lie span"
                )

    if k == 0:
        if m == 1:
            return SubgroupClass("Trivial", 1, 0, "connected", traces)
        return SubgroupClass("Zn", m, 0, f"finite({m})", traces)

    if k == 1:
        if m == 1:
            return SubgroupClass(g.circle_label, None, 1, "connected", traces)
        if m == 2:
            span = orthonormalize(lie_kernel)[:, 0]
            ad = adjoint_coeffs(g, witnesses[1])
            if np.allclose(ad @ span, -span, atol=1e-6):
                return SubgroupClass("O2", None, 1, "two_components", traces)
        return SubgroupClass("Other", None, 1, f"components({m})", traces)

    if k == g.lie_dim and m == g.n_components:
        return SubgroupClass("FullGroup", None, k, "full", traces)
    return SubgroupClass("Other", None, k, f"components({m})", traces)


def classes_conjugate(
    a: SubgroupClass, b: SubgroupClass, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Conjugacy at the level of class descriptions.

    Labeled classes compare by label (and order for Zn). Other-vs-Other is a
    conservative invariant match on (lie_dim, component hint, trace multiset):
    equality is only reported on a full match, so distinct but genuinely
    conjugate exotic subgroups may compare unequal.
    """
    if a.label != b.label:
        return False
    if a.label == "Zn":
        return a.order == b.order
    if a.label == "Other":
        if a.lie_dim != b.lie_dim or a.component_hint != b.component_hint:
            return False
        if len(a.traces) != len(b.traces):
            return False
        return bool(
            np.allclose(np.array(a.traces), np.array(b.traces), atol=tol.match_eps)
        )
    return a.lie_dim == b.lie_dim

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
from .kernels import SO3_GENERATORS, rodrigues_batch
from .numerics import MATCH_EPS, orthonormalize, spans_equal

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class GroupDescriptor:
    """A compact matrix group in its canonical representation.

    kind: one of "so3", "torus", "finite". SO(2) and U(1) are the rank-one
    torus; they differ only in circle_label and name.
    """

    kind: str
    size: int
    lie: np.ndarray  # (k, size, size) antisymmetric generators
    elements: np.ndarray | None = None  # finite groups: the full element list
    circle_label: str = "SO2"  # label given to one-parameter stabilizer circles
    name: str = ""

    @property
    def lie_dim(self) -> int:
        return self.lie.shape[0]

    @property
    def n_components(self) -> int:
        if self.kind == "finite":
            return len(self.elements)
        return 1

    def identity(self) -> np.ndarray:
        return np.eye(self.size)


def so3() -> GroupDescriptor:
    return GroupDescriptor(kind="so3", size=3, lie=SO3_GENERATORS.copy(), name="SO(3)")


def so2() -> GroupDescriptor:
    return torus(1, circle_label="SO2", name="SO(2)")


def u1() -> GroupDescriptor:
    return torus(1, name="U(1)")


def torus(r: int, circle_label: str = "U1", name: str = "") -> GroupDescriptor:
    if r < 1:
        raise InputError("torus rank must be positive")
    gens = np.zeros((r, 2 * r, 2 * r))
    for j in range(r):
        gens[j, 2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = _J2
    return GroupDescriptor(
        kind="torus", size=2 * r, lie=gens, circle_label=circle_label, name=name or f"T^{r}"
    )


def finite(elements, name: str = "finite") -> GroupDescriptor:
    mats = np.asarray(elements, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise InputError("finite group needs a (m, n, n) element array")
    size = mats.shape[1]
    return GroupDescriptor(
        kind="finite", size=size, lie=np.zeros((0, size, size)), elements=mats, name=name
    )


# ---------------------------------------------------------------------------
# exponential and sampling
# ---------------------------------------------------------------------------


def exp_coeffs(g: GroupDescriptor, c: np.ndarray) -> np.ndarray:
    """exp of the Lie-algebra element with coefficients c in the stored basis."""
    c = np.asarray(c, dtype=np.float64).ravel()
    if c.size != g.lie_dim:
        raise InputError(f"expected {g.lie_dim} coefficients, got {c.size}")
    return exp_coeffs_batch(g, c[None])[0]


def exp_coeffs_batch(g: GroupDescriptor, C: np.ndarray) -> np.ndarray:
    """exp_coeffs over the rows of C.

    A torus element turns its j-th coordinate plane by C[:, j]; finite
    groups have no coordinates, so every row gives the identity.
    """
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    if g.kind == "so3":
        return rodrigues_batch(C)
    out = np.zeros((C.shape[0], g.size, g.size))
    out[:] = np.eye(g.size)
    for j in range(g.lie_dim):
        cos, sin = np.cos(C[:, j]), np.sin(C[:, j])
        out[:, 2 * j, 2 * j] = cos
        out[:, 2 * j, 2 * j + 1] = -sin
        out[:, 2 * j + 1, 2 * j] = sin
        out[:, 2 * j + 1, 2 * j + 1] = cos
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
    if g.kind == "torus":
        return exp_coeffs_batch(g, rng.uniform(0.0, 2.0 * np.pi, size=(count, g.lie_dim)))
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


def adjoint_coeffs(g: GroupDescriptor, elem: np.ndarray) -> np.ndarray:
    """Matrix of Ad_elem on Lie-algebra coefficient vectors."""
    k = g.lie_dim
    if k == 0:
        return np.zeros((0, 0))
    conj = np.einsum("ab,jbc,dc->jad", elem, g.lie, elem)
    gram = np.einsum("iab,jab->ij", g.lie, g.lie)
    mixed = np.einsum("iab,jab->ij", g.lie, conj)
    return np.linalg.solve(gram, mixed)


def smith_form(W) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer diagonalization U @ W @ V = diag(d) with U and V unimodular.

    W is an (m, n) integer matrix; d holds min(m, n) nonnegative entries,
    the nonzero ones first. Each step pivots on the smallest nonzero entry
    left and reduces its row and column by integer division; a nonzero
    remainder is smaller than the pivot, so the loop ends. The divisibility
    chain of the Smith normal form is not enforced: every diagonal form has
    the same rank and the same product of nonzero entries, and the subgroup
    {psi : d_i psi_i = 0 mod 2 pi} of the torus has that product as its
    number of components.
    """
    A = np.asarray(W, dtype=np.int64)
    m, n = A.shape
    A = [[int(v) for v in row] for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_cols(M, a, b):
        for row in M:
            row[a], row[b] = row[b], row[a]

    for t in range(min(m, n)):
        while True:
            nonzero = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
            if not nonzero:
                break
            _, pi, pj = min(nonzero)
            A[t], A[pi] = A[pi], A[t]
            U[t], U[pi] = U[pi], U[t]
            swap_cols(A, t, pj)
            swap_cols(V, t, pj)
            p = A[t][t]
            clean = True
            for i in range(t + 1, m):
                q = A[i][t] // p
                A[i] = [u - q * v for u, v in zip(A[i], A[t])]
                U[i] = [u - q * v for u, v in zip(U[i], U[t])]
                clean &= A[i][t] == 0
            for j in range(t + 1, n):
                q = A[t][j] // p
                for M in (A, V):
                    for row in M:
                        row[j] -= q * row[t]
                clean &= A[t][j] == 0
            if clean:
                break
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]
            U[t] = [-v for v in U[t]]
    d = [A[t][t] for t in range(min(m, n))]
    return (
        np.array(U, dtype=np.int64).reshape(m, m),
        np.array(d, dtype=np.int64),
        np.array(V, dtype=np.int64).reshape(n, n),
    )


def congruence_solutions(W, B) -> tuple[np.ndarray, int]:
    """Solutions of W psi = b (mod 2 pi), one per component, for each row b of B.

    With U W V = diag(d) from smith_form, psi = V chi solves the congruence
    exactly when d_i chi_i = (U b)_i (mod 2 pi) for every nonzero d_i and
    the rows of U b past them vanish mod 2 pi; callers decide the latter by
    testing the solutions. The other coordinates of chi are free and span
    the identity component of the solution set. Each j in prod [0, d_i)
    gives chi_i = ((U b)_i + 2 pi j_i) / d_i with the free coordinates 0;
    j = 0, the particular solution, comes first. A W without rows
    constrains nothing and is not factored. Returns psi of shape
    (len(B), prod d, n) and the number of free coordinates.
    """
    W = np.asarray(W, dtype=np.int64)
    n = W.shape[1]
    if W.shape[0] == 0:
        return np.zeros((len(B), 1, n)), n
    U, d, V = smith_form(W)
    k = int(np.count_nonzero(d))
    j = np.array(list(np.ndindex(*d[:k])), dtype=np.float64)
    chi = np.zeros((len(B), j.shape[0], n))
    chi[:, :, :k] = (np.stack([U @ b for b in B])[:, None, :k] + 2.0 * np.pi * j) / d[:k]
    return chi @ V.T, n - k


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


def identity_mask(G: np.ndarray) -> np.ndarray:
    """Which matrices of G are the identity, by np.allclose's bound written out."""
    eye = np.eye(G.shape[-1])
    return np.all(np.abs(G - eye) <= 1e-8 + 1e-5 * eye, axis=(-2, -1))


def _has_element_of_order(witnesses: np.ndarray, m: int) -> bool:
    """Whether one of the m witnesses has order m: no power w^j, j a proper
    divisor of m, is the identity (every order divides m)."""
    powers = [np.linalg.matrix_power(witnesses, j) for j in range(1, m) if m % j == 0]
    return bool(np.any(~np.any([identity_mask(p) for p in powers], axis=0)))


def classify_subgroup(
    g: GroupDescriptor,
    lie_kernel: np.ndarray,
    witnesses: np.ndarray,
) -> SubgroupClass:
    """Name the subgroup spanned by a stabilizer's Lie kernel and witnesses.

    lie_kernel: (lie_dim, k) coefficient vectors of the stabilizer algebra.
    witnesses: (m, n, n) component representatives, identity first.

    Labels target the stabilizer types arising in the built-in catalog;
    subgroups outside that vocabulary land in Other, whose comparisons use
    conservative invariants only. In particular non-conjugate subtori of a
    higher-rank torus can share a label; the finer Lie-span data lives on
    the decomposition fingerprints, not here. A finite group of order m is
    Zn(m) only when some witness has order m; a non-cyclic one, such as the
    Klein four-group of half-turns in SO(3), is Other with hint finite(m).
    """
    k = int(lie_kernel.shape[1]) if lie_kernel.ndim == 2 else 0
    m = len(witnesses)
    if m == 0:
        raise ClassificationError("witness list must at least contain the identity")
    traces = tuple(sorted(round(float(np.trace(w)), 9) + 0.0 for w in witnesses))

    # every witness must normalize the stabilizer algebra; Ad is the
    # identity on an abelian group, so only SO(3) can fail this
    if k > 0 and g.kind == "so3":
        span = orthonormalize(lie_kernel)
        for w in witnesses:
            ad = adjoint_coeffs(g, w)
            if not spans_equal(ad @ span, span):
                raise ClassificationError(
                    "witness does not normalize the stabilizer Lie span"
                )

    if k == 0:
        if m == 1:
            return SubgroupClass("Trivial", 1, 0, "connected", traces)
        if _has_element_of_order(witnesses, m):
            return SubgroupClass("Zn", m, 0, f"finite({m})", traces)
        return SubgroupClass("Other", None, 0, f"finite({m})", traces)

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


def classes_conjugate(a: SubgroupClass, b: SubgroupClass) -> bool:
    """Conjugacy at the level of class descriptions.

    Labeled classes compare by label (and order for Zn). Other-vs-Other is a
    conservative invariant match on (lie_dim, component hint, trace multiset):
    equality is only reported on a full match, so distinct but genuinely
    conjugate exotic subgroups may compare unequal. The traces match under
    np.allclose's bound, written out: partition builders ask this once per
    point, and the per-call array set-up would cost more than the test.
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
        return all(abs(x - y) <= MATCH_EPS + 1e-5 * abs(y) for x, y in zip(a.traces, b.traces))
    return a.lie_dim == b.lie_dim

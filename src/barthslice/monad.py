"""Monad-level checks for slice points.

A slice point is packaged as a (2n+2) x 4n matrix gamma with column blocks
C1, C2, C3, C4 (n columns each):

    [  0    I    A1   A2 ]
    [ -I    0    B1   B2 ]
    [  0    0   a1^T a2^T]
    [  0    0   b1^T b2^T]

Pairing the blocks through the symplectic form q = diag(J_2n, J_2) gives the
Gram blocks M_ij = C_i^T q C_j of G = gamma^T q gamma.  The monad condition
M_ii = 0 and M_ij + M_ji = 0 reproduces the slice equations exactly: the
diagonal blocks M_33, M_44 are the first two residuals and M_34 + M_43 the
third, while the remaining conditions hold identically by symmetry of the
A and B blocks.

q pairs row k of gamma with row n + k (k < n), and row 2n with row 2n + 1,
so with U the rows 0..n-1 and 2n and V the rows n..2n-1 and 2n+1,
G = U^T V - V^T U = Z - Z^T for Z = U^T V: one product, and skew by
construction, so no skew assertion is needed.  Its blocks are the slice
equations in the Gram form of `barth._skew_gram`.

The module also checks the two genericity conditions used to certify that a
point yields an honest monad: pointwise injectivity of the linear map
alpha(v) = gamma (v (x) I_n) on a sample of fibre directions, and the rank
condition on the vector pencil (a1 + t a2, b1 + t b2) for all t, including
t = infinity.  All three checks are linear algebra on gamma and on the
wedges a ^ b of the slice equations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .barth import SliceData, _skew_gram, skew_index, wedge
from .errors import DomainError, ShapeError
from .fields import Field
from .linalg import Matrix, kernel_basis, rank


@dataclass(frozen=True)
class GammaMatrix:
    """The (2n+2) x 4n block matrix attached to a slice point."""

    n: int
    body: Matrix

    def __post_init__(self):
        expected = (2 * self.n + 2, 4 * self.n)
        if self.body.shape != expected:
            raise ShapeError(f"gamma body has shape {self.body.shape}, expected {expected}")

    @property
    def field(self) -> Field:
        return self.body.field


def build_gamma(x: SliceData) -> GammaMatrix:
    n, field = x.n, x.field
    h, f = x.half, x.fiber
    z, one = field.zero(), field.one()
    rows = []
    for i in range(n):
        row = [z] * n
        row += [one if j == i else z for j in range(n)]
        row += h.A1.data[i] + h.A2.data[i]
        rows.append(row)
    for i in range(n):
        row = [field.neg(one) if j == i else z for j in range(n)]
        row += [z] * n
        row += f.B1.data[i] + f.B2.data[i]
        rows.append(row)
    rows.append([z] * (2 * n) + list(h.a1) + list(h.a2))
    rows.append([z] * (2 * n) + list(f.b1) + list(f.b2))
    return GammaMatrix(n, Matrix._raw(field, rows, 4 * n))


def monad_condition(gamma: GammaMatrix) -> bool:
    """Whether the Gram blocks vanish in pairs: M_ii = 0, M_ij + M_ji = 0.

    G = gamma^T q gamma is one `_skew_gram` of gamma's paired rows (see the
    module docstring).  For skew G, M_ji = -M_ij^T and each M_ii is skew,
    so the condition holds iff every block M_ij with i <= j is symmetric
    (characteristic != 2), which needs comparisons only.  It is equivalent
    to the residual of the underlying slice point being zero; the
    equivalence is exercised independently by the test suite.
    """
    n, rows = gamma.n, gamma.body.data
    u = Matrix._raw(gamma.field, rows[:n] + [rows[2 * n]], 4 * n)
    v = Matrix._raw(gamma.field, rows[n:2 * n] + [rows[2 * n + 1]], 4 * n)
    d = _skew_gram(u, v).data
    for bi in range(0, 4 * n, n):
        for bj in range(bi, 4 * n, n):
            for k, l in skew_index(n):
                if d[bi + k][bj + l] != d[bi + l][bj + k]:
                    return False
    return True


def evaluate_alpha(gamma: GammaMatrix, v) -> Matrix:
    """The (2n+2) x n matrix sum(v_j C_{j+1}) = gamma (v (x) I_n) at a nonzero v."""
    field, n = gamma.field, gamma.n
    if len(v) != 4:
        raise ShapeError(f"direction vector has length {len(v)}, expected 4")
    z = field.zero()
    coeffs = [field.coerce(c) for c in v]
    if all(c == z for c in coeffs):
        raise DomainError("direction vector must be nonzero")
    kron = [[c if col == k else z for col in range(n)] for c in coeffs for k in range(n)]
    return gamma.body @ Matrix._raw(field, kron, n)


def point_rank_check(gamma: GammaMatrix, v) -> bool:
    """Whether evaluate_alpha(gamma, v) has full rank n (injectivity at v)."""
    return rank(evaluate_alpha(gamma, v)) == gamma.n


@dataclass(frozen=True)
class PencilReport:
    """Rank condition on the vector pencil t -> (a1 + t a2, b1 + t b2).

    finite_ok: the 2 x 2 minors of [a1 + t a2 | b1 + t b2] have no common
    root, so the pencil has rank 2 at every finite parameter t (over the
    algebraic closure).  infinity_ok: the leading pair (a2, b2) is itself
    of rank 2, the t = infinity case.  The two checks are reported
    separately; only their conjunction is invariant under the SL(2) mixing
    of the vector pairs, which moves the point at infinity.
    """

    finite_ok: bool
    infinity_ok: bool

    @property
    def ok(self) -> bool:
        return self.finite_ok and self.infinity_ok


def pencil_check(field: Field, a1, a2, b1, b2) -> PencilReport:
    """Evaluate the pencil rank condition for four length-n vectors.

    The (i, j) minor of [a1 + t a2 | b1 + t b2] is c0 + c1 t + c2 t^2 with
    c0, c1, c2 the (i, j) entries of a1^b1, a1^b2 + a2^b1 and a2^b2, the
    wedges of the slice equations (c1 as one `_skew_gram` of [a1; a2] with
    [b2; b1]).  Stack them as the rows of the n(n-1)/2 x 3 matrix C.  The
    minors share a root r over the algebraic closure iff (1, r, r^2) lies
    in ker C, whose basis, read off one elimination, has 3 - rank C
    vectors:

    * rank C = 3: the kernel is zero, so finite_ok holds;
    * rank C = 2: the kernel is spanned by one vector w, and it contains
      some (1, r, r^2) iff w0 != 0 and w1^2 = w0 w2 (then r = w1 / w0);
    * rank C = 1: every minor is a multiple of one nonzero polynomial,
      which has a root iff it is not constant, i.e. iff column 1 or 2 of
      C is nonzero;
    * rank C = 0: every minor vanishes identically; finite_ok is False,
      which includes n < 2, where there are no minors, by convention.

    infinity_ok holds iff a2 and b2 are independent, i.e. a2^b2 != 0.
    """
    n = len(a1)
    for name, vec in (("a2", a2), ("b1", b1), ("b2", b2)):
        if len(vec) != n:
            raise ShapeError(f"{name} has length {len(vec)}, expected {n}")
    w11 = wedge(field, a1, b1).data
    w12 = _skew_gram(Matrix(field, [a1, a2]), Matrix(field, [b2, b1])).data
    w22 = wedge(field, a2, b2).data
    c = Matrix._raw(field, [[w11[i][j], w12[i][j], w22[i][j]] for i, j in skew_index(n)], 3)
    z = field.zero()
    kernel = kernel_basis(c)
    if not kernel:
        finite_ok = True
    elif len(kernel) == 1:
        (w,) = kernel
        finite_ok = w[0] == z or field.mul(w[1], w[1]) != field.mul(w[0], w[2])
    elif len(kernel) == 2:
        finite_ok = all(row[1] == z and row[2] == z for row in c.data)
    else:
        finite_ok = False
    # column 2 of C holds the entries of a2^b2
    infinity_ok = any(row[2] != z for row in c.data)
    return PencilReport(finite_ok, infinity_ok)

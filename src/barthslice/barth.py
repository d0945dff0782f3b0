"""Algebra of the Barth slice of normalized instanton monads.

A slice point is a tuple (A1, A2, B1, B2, a1, a2, b1, b2) of four symmetric
n x n matrices and four n-vectors subject to three skew-symmetric quadratic
matrix equations:

    [A1, B1] + a1 ^ b1 = 0
    [A2, B2] + a2 ^ b2 = 0
    [A1, B2] + [A2, B1] + a1 ^ b2 + a2 ^ b1 = 0

with [X, Y] = XY - YX and a ^ b = a b^T - b a^T.  The equations are
bilinear in the (A, a) half and the (B, b) half, so freezing the half data
turns them into a linear system in (B1, B2, b1, b2): the fiber system.

Coordinate conventions (fixed for certificate comparability):

* symmetric matrices are vectorized by their upper triangle including the
  diagonal, row-major;
* skew matrices by their strict upper triangle, row-major;
* fiber coordinates are ordered B1, B2, b1, b2 (half coordinates A1, A2,
  a1, a2 mirror this);
* equation rows are ordered first equation, second, third.

The slice carries an O(n) x SL(2) action; the residual transforms by
conjugation under it, so the solution set is invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, InvariantError, SamplingError, ShapeError
from .fields import Field, PrimeField
from .linalg import Matrix, _matmul_mod, _matrix, _ranks_mod, _residues, inverse, matvec

# numpy after .linalg, which loads it too: with no bytecode cache, compiling
# linalg.py before numpy is resident keeps the CLI's peak RSS 0.5 MB lower
import numpy as np  # noqa: E402


def _check_not_char2(field: Field):
    if field.characteristic == 2:
        raise InvariantError("slice algebra requires characteristic != 2")


def _coerce_vector(field: Field, v, n: int) -> tuple:
    if len(v) != n:
        raise ShapeError(f"vector has length {len(v)}, expected {n}")
    return tuple(field.coerce(x) for x in v)


def _check_symmetric(m: Matrix, n: int, name: str):
    if m.shape != (n, n):
        raise ShapeError(f"{name} has shape {m.shape}, expected ({n}, {n})")
    if not m.is_symmetric():
        raise InvariantError(f"{name} is not symmetric")


@dataclass(frozen=True)
class HalfData:
    """The frozen half (A1, A2, a1, a2) of a slice point."""

    n: int
    A1: Matrix
    A2: Matrix
    a1: tuple
    a2: tuple

    def __post_init__(self):
        field = self.A1.field
        _check_not_char2(field)
        if self.A2.field != field:
            raise InvariantError("half data mixes coefficient fields")
        _check_symmetric(self.A1, self.n, "A1")
        _check_symmetric(self.A2, self.n, "A2")
        object.__setattr__(self, "a1", _coerce_vector(field, self.a1, self.n))
        object.__setattr__(self, "a2", _coerce_vector(field, self.a2, self.n))

    @property
    def field(self) -> Field:
        return self.A1.field


@dataclass(frozen=True)
class FiberData:
    """The unknown half (B1, B2, b1, b2) of the linearized equations."""

    B1: Matrix
    B2: Matrix
    b1: tuple
    b2: tuple

    def __post_init__(self):
        n = self.B1.rows
        field = self.B1.field
        _check_not_char2(field)
        if self.B2.field != field:
            raise InvariantError("fiber data mixes coefficient fields")
        _check_symmetric(self.B1, n, "B1")
        _check_symmetric(self.B2, n, "B2")
        object.__setattr__(self, "b1", _coerce_vector(field, self.b1, n))
        object.__setattr__(self, "b2", _coerce_vector(field, self.b2, n))

    @property
    def n(self) -> int:
        return self.B1.rows

    @property
    def field(self) -> Field:
        return self.B1.field


@dataclass(frozen=True)
class SliceData:
    """A full slice point: half data plus fiber data, 2n(n+3) coordinates."""

    half: HalfData
    fiber: FiberData

    def __post_init__(self):
        if self.fiber.n != self.half.n:
            raise ShapeError("half and fiber sizes disagree")
        if self.fiber.field != self.half.field:
            raise InvariantError("half and fiber fields disagree")

    @property
    def n(self) -> int:
        return self.half.n

    @property
    def field(self) -> Field:
        return self.half.field


@dataclass(frozen=True)
class SliceResidual:
    """Left-hand sides of the three slice equations; each is skew-symmetric."""

    R1: Matrix
    R2: Matrix
    R3: Matrix

    def __post_init__(self):
        for name in ("R1", "R2", "R3"):
            r = getattr(self, name)
            if not r.is_skew_symmetric():
                raise InvariantError(f"residual block {name} is not skew-symmetric")

    def is_zero(self) -> bool:
        return self.R1.is_zero() and self.R2.is_zero() and self.R3.is_zero()


@dataclass(frozen=True)
class GroupElement:
    """An element (g, m) of O(n) x SL(2): g orthogonal, det m = 1."""

    g: Matrix
    m: Matrix

    def __post_init__(self):
        field = self.g.field
        _check_not_char2(field)
        n = self.g.rows
        if self.g.cols != n:
            raise ShapeError("orthogonal factor must be square")
        if self.m.field != field:
            raise InvariantError("group element mixes coefficient fields")
        if self.m.shape != (2, 2):
            raise ShapeError("SL(2) factor must be 2x2")
        if (self.g @ self.g.T) != Matrix.identity(field, n):
            raise InvariantError("g is not orthogonal")
        s, t = self.m.data[0]
        u, v = self.m.data[1]
        det = field.sub(field.mul(s, v), field.mul(t, u))
        if det != field.one():
            raise InvariantError("SL(2) factor does not have determinant 1")

    @property
    def field(self) -> Field:
        return self.g.field


# ---------------------------------------------------------------------------
# Residual and vectorization


def _skew_gram(u: Matrix, v: Matrix) -> Matrix:
    """Z - Z^T for Z = u^T v: one product and one transpose-subtract.

    Stacking a symmetric X over the row x^T, and a symmetric Y over y^T,
    gives Z = X Y + x y^T, so Z - Z^T = [X, Y] + x ^ y: every slice
    equation at a point is one of these (`residual`, `monad.monad_condition`,
    `monad.pencil_check`), as every bracket of `_krylov_brackets` is, there
    on stacks of residues mod p.
    """
    z = u.T @ v
    return z - z.T


def wedge(field: Field, a, b) -> Matrix:
    """a b^T - b a^T for two equal-length vectors; always skew-symmetric."""
    if len(a) != len(b):
        raise ShapeError("wedge of vectors with different lengths")
    return _skew_gram(Matrix(field, [a]), Matrix(field, [b]))


def residual(x: SliceData) -> SliceResidual:
    """Evaluate the three slice equations at a point.

    Each is one `_skew_gram` of stacked rows, by [X, Y] + x ^ y = Z - Z^T
    with Z = [X; x^T]^T [Y; y^T] for symmetric X and Y: R1 pairs (A1, a1)
    with (B1, b1), R2 pairs (A2, a2) with (B2, b2), and R3 pairs
    [(A1, a1); (A2, a2)] with [(B2, b2); (B1, b1)], whose Z is the sum of
    the two cross terms.
    """
    h, f = x.half, x.fiber
    a1, a2 = h.A1.data + [list(h.a1)], h.A2.data + [list(h.a2)]
    b1, b2 = f.B1.data + [list(f.b1)], f.B2.data + [list(f.b2)]

    def gram(u, v):
        return _skew_gram(Matrix._raw(x.field, u, x.n), Matrix._raw(x.field, v, x.n))

    return SliceResidual(gram(a1, b1), gram(a2, b2), gram(a1 + a2, b2 + b1))


def sym_index(n: int) -> list[tuple[int, int]]:
    """Upper triangle including the diagonal, row-major."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def skew_index(n: int) -> list[tuple[int, int]]:
    """Strict upper triangle, row-major."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _vec_pair(n: int, m1: Matrix, m2: Matrix, v1: tuple, v2: tuple) -> list:
    idx = sym_index(n)
    out = [m1.data[i][j] for i, j in idx] + [m2.data[i][j] for i, j in idx]
    return out + list(v1) + list(v2)


def vec_fiber(f: FiberData) -> list:
    """Fiber coordinates: vech(B1), vech(B2), b1, b2; length n(n+3)."""
    return _vec_pair(f.n, f.B1, f.B2, f.b1, f.b2)


def vec_half(h: HalfData) -> list:
    """Half coordinates: vech(A1), vech(A2), a1, a2; length n(n+3)."""
    return _vec_pair(h.n, h.A1, h.A2, h.a1, h.a2)


def vec_skew(r: SliceResidual) -> list:
    """Equation values: strict upper triangles of R1, R2, R3, row-major."""
    n = r.R1.rows
    idx = skew_index(n)
    out = [r.R1.data[i][j] for i, j in idx]
    out += [r.R2.data[i][j] for i, j in idx]
    out += [r.R3.data[i][j] for i, j in idx]
    return out


def _symmetric_from_vech(field: Field, n: int, vals: list) -> Matrix:
    z = field.zero()
    data = [[z] * n for _ in range(n)]
    for (i, j), v in zip(sym_index(n), vals):
        data[i][j] = v
        data[j][i] = v
    return Matrix._raw(field, data, n)


def _unvec_pair(field: Field, n: int, v: list, name: str) -> tuple:
    # inverse of _vec_pair: (M1, M2, v1, v2); the matrix entries are coerced
    # here, the vectors by the __post_init__ of HalfData/FiberData
    s = n * (n + 1) // 2
    if len(v) != n * (n + 3):
        raise ShapeError(f"{name} vector has length {len(v)}, expected {n * (n + 3)}")
    vech = [field.coerce(x) for x in v[: 2 * s]]
    return (
        _symmetric_from_vech(field, n, vech[:s]),
        _symmetric_from_vech(field, n, vech[s:]),
        v[2 * s : 2 * s + n],
        v[2 * s + n :],
    )


def fiber_from_vec(field: Field, n: int, v: list) -> FiberData:
    """Inverse of vec_fiber."""
    return FiberData(*_unvec_pair(field, n, v, "fiber"))


def half_from_vec(field: Field, n: int, v: list) -> HalfData:
    """Inverse of vec_half."""
    return HalfData(n, *_unvec_pair(field, n, v, "half"))


# ---------------------------------------------------------------------------
# The linear fiber system


def _place(local: np.ndarray, b: int, n: int) -> np.ndarray:
    """Block-local indices (vech(.) then the vector index offset by s) in
    block b of a pair layout, which holds the matrix at b * s and the vector
    at 2s + b * n."""
    s = n * (n + 1) // 2
    return np.where(local < s, local + b * s, local - s + 2 * s + b * n)


def _vech_positions(n: int) -> np.ndarray:
    """The (n, n) array whose entries (a, b) and (b, a), a <= b, hold the
    position of (a, b) in sym_index(n): h[..., _vech_positions(n)] unpacks
    the symmetric matrices of a stack h of vech rows."""
    vech = np.empty((n, n), dtype=np.intp)
    a, b = np.triu_indices(n)  # the row-major upper triangle of sym_index
    vech[a, b] = vech[b, a] = np.arange(a.size)
    return vech


# one charge at a time: the census runs n by n
@lru_cache(maxsize=1)
def _block_index(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Index arrays of one block L(Y, y) = [X, Y] + x ^ y as a function of
    (vech X, x): (row, col, coord) for the terms +coord and for the terms
    -coord, cols and coords block-local (vech(.) then the vector index
    offset by s).

    Row r = (i, j), i < j, has the terms +X_ik at Y_kj and +x_i at y_j, and
    -X_kj at Y_ik and -x_j at y_i, over the (r, k) grid.  Within one sign no
    two terms share an entry (only X_ii - X_jj at Y_ij meet, with opposite
    signs), so each sign is assembled by one fancy-index update.
    """
    s = n * (n + 1) // 2
    vech = _vech_positions(n)
    i, j = np.array(skew_index(n), dtype=np.intp).reshape(-1, 2).T
    rows, k = np.arange(i.size), np.arange(n)
    r = np.concatenate([np.repeat(rows, n), rows])
    ik = np.concatenate([vech[i[:, None], k].ravel(), s + i])
    kj = np.concatenate([vech[k, j[:, None]].ravel(), s + j])
    return (r, kj, ik), (r, ik, kj)


def _fiber_blocks(n: int, h: np.ndarray) -> np.ndarray:
    """The blocks L1 = L(A1, a1) and L2 = L(A2, a2) of each half vector in a
    (trials, n(n+3)) stack h, as a (trials, 2, n(n-1)/2, n(n+3)/2) stack of
    h's dtype over block-local columns (vech Y, y); entries are signed sums
    of at most two coordinates, not reduced, and 0 where no term reaches."""
    out = np.zeros((h.shape[0], 2, n * (n - 1) // 2, n * (n + 3) // 2), dtype=h.dtype)
    (pr, pc, ph), (mr, mc, mh) = _block_index(n)
    for b in (0, 1):
        out[:, b, pr, pc] = h[:, _place(ph, b, n)]
        out[:, b, mr, mc] -= h[:, _place(mh, b, n)]
    return out


def _krylov_brackets(n: int, h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """M = [L2 K1 | L1 K2] for each half in a (trials, n(n+3)) stack h of
    residues mod p, where L_i = L(A_i, a_i) are the blocks of its fiber
    system and K_i holds 2n Krylov vectors of L_i: a (trials, n(n-1)/2, 4n)
    stack of residues, and a (trials, 2) mask of the blocks for which K_i is
    a basis of ker L_i, those whose a_i is a cyclic vector of A_i mod p.

    Let X be a symmetric matrix over a field, and x a cyclic vector of it:
    the Krylov matrix [x, Xx, ..., X^{n-1} x] has rank n.  Then the minimal
    polynomial of X has degree n (X is nonderogatory), and the matrices that
    commute with X are the polynomials in X (F^n is the cyclic module
    F[t]/(min poly), whose endomorphisms commuting with t are the
    multiplications).  They span n dimensions and are all symmetric, so the
    image of Y -> [X, Y] on Sym(n) has dim n(n+1)/2 - n = n(n-1)/2: it is
    all of Skew(n).  Hence
    L(X, x)(Y, y) = [X, Y] + x ^ y is onto, of rank n(n-1)/2, and its kernel
    has dim n(n+3)/2 - n(n-1)/2 = 2n.  For k = 0..n-1 it holds

        (X^k, 0)                  as [X, X^k] = 0, and
        (Y_k, X^k x)              Y_0 = 0, Y_{k+1} = X Y_k + x (X^k x)^T,

    that is Y_k = sum_{i+j=k-1} X^i x x^T X^j, symmetric, whose bracket
    telescopes to [X, Y_k] = X^k x x^T - x x^T X^k = -(x ^ X^k x).  These
    2n columns are independent: their y parts are the Krylov basis, so a
    relation has no (Y_k, X^k x) term, and then 1, X, ..., X^{n-1} are
    independent because the minimal polynomial has degree n.  So they are a
    basis of the kernel.  All of this holds over GF(p) for the residues of
    A_i and a_i, and every step here is exact mod p, so one rank of the
    n x n Krylov matrix mod p certifies, block by block, that the columns
    are a basis of ker L_i mod p.

    Column 2k of K_i is (X^k, 0) and column 2k + 1 is (Y_k, X^k x), with
    (X, x) = (A_i, a_i).  Neither the blocks nor K_i are built: for
    symmetric A and Y, [A, Y] = A Y - (A Y)^T and a ^ y = a y^T - (a y^T)^T,
    so

        L(A, a)(Y, y) = Z - Z^T,    Z = A Y + a y^T,

    read at the strict upper triangle (the identity `_skew_gram` evaluates
    at a point).  Step k takes Z for columns 2k and 2k + 1 of L_j K_i, j
    the other block, from one stacked `_matmul_mod` of A_j [X^k | Y_k], and
    then [X^{k+1} | Y_{k+1} | X^{k+1} x] from another.
    """
    s, t = n * (n + 1) // 2, h.shape[0]
    vech, (a, b) = _vech_positions(n), np.triu_indices(n, 1)
    x = np.stack([h[:, vech], h[:, s + vech]], axis=1)
    v0 = h[:, 2 * s:].reshape(t, 2, n)
    # columns X^k, Y_k and X^k x of each block
    state = np.zeros((t, 2, n, 2 * n + 1), dtype=h.dtype)
    state[..., :n] = np.eye(n, dtype=h.dtype)
    state[..., 2 * n] = v0
    # M by (trial, row, block i, k, column (X^k, 0) or (Y_k, X^k x))
    m = np.empty((t, a.size, 2, n, 2), dtype=h.dtype)
    krylov = np.empty((t, 2, n, n), dtype=h.dtype)
    for k in range(n):
        v = state[..., 2 * n]
        krylov[..., k] = v
        z = _matmul_mod(x[:, ::-1], state[..., :2 * n], p)  # A_j [X^k | Y_k]
        z[..., n:] += v0[:, ::-1, :, None] * v[..., None, :]  # + a_j (X^k x)^T
        z = z.reshape(t, 2, n, 2, n)
        m[:, :, :, k] = np.moveaxis((z[:, :, a, :, b] - z[:, :, b, :, a]) % p, 0, 1)
        if k < n - 1:
            state = _matmul_mod(x, state, p)
            state[..., n:2 * n] += v0[..., :, None] * v[..., None, :]
            state[..., n:2 * n] %= p
    cyclic = np.array(_ranks_mod(krylov.reshape(2 * t, n, n), p)) == n
    return m.reshape(t, a.size, 4 * n), cyclic.reshape(t, 2)


def _fiber_stack(n: int, blocks: np.ndarray) -> np.ndarray:
    """The fiber systems L = [[L1, 0], [0, L2], [L2, L1]] of a stack of
    blocks from `_fiber_blocks`, as a (trials, 3n(n-1)/2, n(n+3)) stack of
    their dtype in vec_fiber column order."""
    trials, _, q, w = blocks.shape
    cols = [_place(np.arange(w), b, n) for b in (0, 1)]
    out = np.zeros((trials, 3 * q, n * (n + 3)), dtype=blocks.dtype)
    # (equation, fiber block (B_b, b_b), block L_i)
    for e, b, i in ((0, 0, 0), (1, 1, 1), (2, 0, 1), (2, 1, 0)):
        out[:, e * q:(e + 1) * q, cols[b]] = blocks[:, i]
    return out


def _system_array(field: Field, n: int, vecs: list) -> np.ndarray:
    """L(v) for each vector v (vec_half order) of `vecs`, as a stack over
    the field's integers (`_residues`) or Fractions; not reduced."""
    h = np.array(vecs, dtype=object)
    if isinstance(field, PrimeField):
        h = _residues(h, field.p)
    return _fiber_stack(n, _fiber_blocks(n, h))


def fiber_system(half: HalfData) -> Matrix:
    """Matrix L of the equations linearized in the fiber unknowns.

    L has 3n(n-1)/2 rows and n(n+3) columns and satisfies
    vec_skew(residual(half, f)) = L @ vec_fiber(f) for every FiberData f.
    In block form L = [[L1, 0], [0, L2], [L2, L1]] over (B1, b1), (B2, b2),
    where L_i(B, b) = [A_i, B] + a_i ^ b: the blocks come from one index
    table of L(Y, y) = [X, Y] + x ^ y (`_block_index`), filled with (A_i,
    a_i), and are laid out in vec_fiber column order.
    """
    return _matrix(half.field, _system_array(half.field, half.n, [vec_half(half)])[0])


def canonical_fiber_solutions(half: HalfData) -> list[FiberData]:
    """The four fiber solutions present for every half datum.

    (I, 0, 0, 0), (0, I, 0, 0), (A1, A2, 0, 0), (0, 0, a1, a2): identities
    [X, I] = 0, [X, X] = 0, a ^ a = 0 and a1 ^ a2 + a2 ^ a1 = 0 make each
    residual vanish identically; this is asserted.
    """
    n, field = half.n, half.field
    rows = _canonical_stack(n, np.array([vec_half(half)], dtype=object))[0].tolist()
    sols = [fiber_from_vec(field, n, row) for row in rows]
    for f in sols:
        if not residual(SliceData(half, f)).is_zero():
            raise InvariantError("canonical fiber solution has nonzero residual")
    return sols


def _canonical_stack(n: int, h: np.ndarray) -> np.ndarray:
    """The four canonical fiber solutions of each half in a (trials, n(n+3))
    stack of half vectors, as a (trials, 4, n(n+3)) stack of vec_fiber rows:
    vech(I) in the B1 block, vech(I) in the B2 block, the half's matrices
    vech(A1), vech(A2), and its vectors a1, a2."""
    s = n * (n + 1) // 2
    diag = [k for k, (i, j) in enumerate(sym_index(n)) if i == j]
    c = np.zeros((h.shape[0], 4, h.shape[1]), dtype=h.dtype)
    c[:, 0, diag] = 1
    c[:, 1, [s + k for k in diag]] = 1
    c[:, 2, :2 * s] = h[:, :2 * s]
    c[:, 3, 2 * s:] = h[:, 2 * s:]
    return c


# ---------------------------------------------------------------------------
# Group action


def apply_group(x: SliceData, e: GroupElement) -> SliceData:
    """Act by (g, m): conjugate the matrices by g, mix the vector pairs by m."""
    if e.field != x.field or e.g.rows != x.n:
        raise ShapeError("group element does not match the slice point")
    field = x.field
    g = e.g
    gt = g.T
    h, f = x.half, x.fiber
    s, t = e.m.data[0]
    u, v = e.m.data[1]

    ga1, gb1 = matvec(g, h.a1), matvec(g, f.b1)
    ga2, gb2 = matvec(g, h.a2), matvec(g, f.b2)
    add, mul = field.add, field.mul

    def mix(c1, w1, c2, w2):
        return tuple(add(mul(c1, p), mul(c2, q)) for p, q in zip(w1, w2))

    new_half = HalfData(
        x.n,
        g @ h.A1 @ gt,
        g @ h.A2 @ gt,
        mix(s, ga1, u, gb1),
        mix(s, ga2, u, gb2),
    )
    new_fiber = FiberData(
        g @ f.B1 @ gt,
        g @ f.B2 @ gt,
        mix(t, ga1, v, gb1),
        mix(t, ga2, v, gb2),
    )
    return SliceData(new_half, new_fiber)


def compose_group(e2: GroupElement, e1: GroupElement) -> GroupElement:
    """Composite element so that acting by e1 then e2 equals acting by it.

    The orthogonal factors compose as g2 g1; the SL(2) factors act on the
    right of the vector pairs and therefore compose as m1 m2.
    """
    return GroupElement(e2.g @ e1.g, e1.m @ e2.m)


def random_orthogonal(rng, field: Field, n: int) -> Matrix:
    """Exactly orthogonal matrix from the Cayley transform of a random skew S.

    Returns (I - S)(I + S)^{-1} composed with a random signed permutation,
    so all components of O(n) are reachable.  Resamples S when I + S is
    singular, then gives up with SamplingError after 16 attempts.
    """
    _check_not_char2(field)
    if n < 1:
        raise DomainError("orthogonal matrices need n >= 1")
    eye = Matrix.identity(field, n)
    for _ in range(16):
        z = field.zero()
        data = [[z] * n for _ in range(n)]
        for i, j in skew_index(n):
            v = field.sample(rng)
            data[i][j] = v
            data[j][i] = field.neg(v)
        skew = Matrix._raw(field, data, n)
        try:
            cayley = (eye - skew) @ inverse(eye + skew)
        except DomainError:
            continue
        perm = rng.permutation(n)
        one = field.one()
        signs = [one if rng.integers(2) == 0 else field.neg(one) for _ in range(n)]
        pdata = [[z] * n for _ in range(n)]
        for i in range(n):
            pdata[i][perm[i]] = signs[i]
        return Matrix._raw(field, pdata, n) @ cayley
    raise SamplingError("no invertible I + S found in 16 attempts")


def random_sl2(rng, field: Field) -> Matrix:
    """Random 2x2 matrix of determinant one (top-left entry kept nonzero).

    Resamples a zero top-left entry, then gives up with SamplingError.
    """
    for _ in range(64):
        s = field.sample(rng)
        if s != field.zero():
            break
    else:
        raise SamplingError("no nonzero top-left entry found in 64 attempts")
    t = field.sample(rng)
    u = field.sample(rng)
    v = field.div(field.add(field.one(), field.mul(t, u)), s)
    return Matrix._raw(field, [[s, t], [u, v]], 2)


def random_group_element(rng, field: Field, n: int) -> GroupElement:
    return GroupElement(random_orthogonal(rng, field, n), random_sl2(rng, field))


# ---------------------------------------------------------------------------
# Jacobian


def jacobian(x: SliceData) -> Matrix:
    """Exact derivative of vec_skew(residual) in the full coordinates.

    Shape (3n(n-1)/2) x 2n(n+3), half-block columns first.  By bilinearity
    the fiber block is fiber_system(x.half).  The half block is the same
    system with (B, b) frozen instead, negated: [X, Y] + x ^ y changes sign
    when (X, x) and (Y, y) swap, so it is -L(vec_fiber(x.fiber)), built as
    L(-vec_fiber(x.fiber)).
    """
    minus_fiber = [x.field.neg(c) for c in vec_fiber(x.fiber)]
    systems = _system_array(x.field, x.n, [minus_fiber, vec_half(x.half)])
    return _matrix(x.field, np.hstack([*systems]))

"""Dense exact matrices over an active coefficient field.

Storage is row-major (list of row lists) with entries in the field's
canonical form.  Products and eliminations run on numpy integer arrays:

* products (`Matrix.__matmul__`; `matvec` is the product with one column):
  over GF(p) `_matmul_mod` of the residues; over QQ the Python-int product
  of the left factor cleared row by row and the right factor cleared by one
  common denominator, divided back into reduced Fractions;
* elimination mod p, for every prime: int64 arrays for p < 2**31, and
  arrays of Python ints (``dtype=object``) for larger p, where every step
  is exact as it stands.  Matrices with at most two panels' worth of rows
  or columns run a rank-1 loop, one outer-product update per pivot.
  Larger ones run a blocked, rank-profile elimination (Dumas, Giorgi &
  Pernet, "FFLAS and FFPACK", TOMS 2008; Jeannerod, Pernet & Storjohann,
  JSC 2013): the same loop finds the pivots of one panel, and every other
  row is updated by a matrix product.  On int64 that product runs in
  float64 on 16-bit limbs, exact for inner dims up to 2**21 (the bounds
  are written at the constants below).  Rows are updated a panel height at
  a time, so the float64 temporaries stay a few hundred kB instead of
  copies of the whole matrix;
* over QQ, through one of those images: integer rows with the same row
  space are reduced mod a prime below 2**31, and the image is lifted
  p-adically, one digit per step (Dixon, Numer. Math. 1982), and read back
  by rational reconstruction (Wang 1981; Monagan, ISSAC 2004) until the
  candidate is an echelon form whose kernel annihilates the rows exactly;
  an unlucky prime fails that check and the next prime is tried (see
  below);
* for stacks of small matrices whose ranks alone are needed (the census),
  `_ranks_mod` eliminates the whole stack at once, forward only, on the
  same dtypes.

The pivot rule is fixed: first nonzero entry, top to bottom.  The reduced
row echelon form is unique whatever the pivot order, blocking or primes, so
ranks, kernels and canonical forms agree between all fields and backends.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, InvariantError, ShapeError
from .fields import DEFAULT_PRIME, Field, PrimeField, is_prime

# Exactness bounds for p < 2**31, where entries sit below 2**31:
# * int64 rank-1 update: a pivot-column entry times a pivot-row entry is
#   below 2**62, so every intermediate stays below 2**63;
# * float64 limb product (`_matmul_mod`): with x = x1 * 2**16 + x0, every
#   limb product is below 2**32, so a sum of at most 2**21 of them stays
#   below 2**53 and is exact in a double.
# Past these limits numpy holds Python ints (dtype=object), exact for any p.
_FAST_PRIME_LIMIT = 1 << 31
_FAST_INNER_LIMIT = 1 << 21
# Column panel width of the blocked elimination.  A matrix with at most
# 2 * _PANEL rows or columns runs the rank-1 loop alone: with that few
# pivots the panel inverses cost more than the products save (the 63 x 140
# Jacobian at n = 7 reduces in 12 ms unblocked, 16 ms blocked).
_PANEL = 64
# Entry budget of one stack of the batched rank elimination (`_ranks_mod`):
# callers split their trials into stacks of at most this many entries (256 kB
# of int64), so the few stack-sized temporaries keep peak memory flat in the
# number of trials.  The census counts all the stacks of a chunk against it
# (`_census_ranks`): its n = 4..8 with 100 trials peaks at 34.6 MB RSS as a CLI
# process, against 35.4 MB when only a chunk's largest stack counts (2-CPU VM,
# Python 3.11, numpy 2.4).
_STACK_ENTRIES = 1 << 15


class Matrix:
    """Immutable-by-convention dense matrix over one field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Sequence[Sequence], cols: int | None = None):
        rows = len(data)
        if rows == 0:
            if cols is None:
                cols = 0
        else:
            if cols is None:
                cols = len(data[0])
        out = []
        for row in data:
            if len(row) != cols:
                raise ShapeError("ragged rows in matrix constructor")
            out.append([field.coerce(x) for x in row])
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = out

    @classmethod
    def _raw(cls, field: Field, data: list[list], cols: int | None = None) -> "Matrix":
        # entries must already be canonical for `field`
        m = object.__new__(cls)
        m.field = field
        m.rows = len(data)
        m.cols = cols if cols is not None else (len(data[0]) if data else 0)
        m.data = data
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls._raw(field, [[z] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        data = [[o if i == j else z for j in range(n)] for i in range(n)]
        return cls._raw(field, data, n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def T(self) -> "Matrix":
        data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return Matrix._raw(self.field, data, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def _check_same_shape(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise ShapeError("expected a Matrix operand")
        if self.field != other.field:
            raise ShapeError("operands live over different fields")
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        add = self.field.add
        data = [
            [add(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ]
        return Matrix._raw(self.field, data, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        sub = self.field.sub
        data = [
            [sub(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ]
        return Matrix._raw(self.field, data, self.cols)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix._raw(self.field, [[neg(a) for a in row] for row in self.data], self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Exact product, one integer-array product for every field.

        Over GF(p) the residues are multiplied by `_matmul_mod`.  Over QQ
        each row i of the left factor is cleared by the lcm l_i of its
        denominators, the whole right factor by one common denominator d,
        and entry (i, j) is the integer product's entry over l_i * d.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ShapeError("matmul operands live over different fields")
        if self.cols != other.rows:
            raise ShapeError(
                f"matmul shape mismatch: {self.shape} @ {other.shape}"
            )
        field = self.field
        if isinstance(field, PrimeField):
            return _from_np(field, _matmul_mod(_integers(self), _integers(other), field.p))
        a, lcms = _cleared(self.data)
        (b,), (d,) = _cleared([[x for row in other.data for x in row]])
        a = np.array(a, dtype=object).reshape(self.rows, self.cols)
        b = np.array(b, dtype=object).reshape(other.rows, other.cols)
        data = [[Fraction(x, k * d) for x in row] for row, k in zip((a @ b).tolist(), lcms)]
        return Matrix._raw(field, data, other.cols)

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for row in self.data for x in row)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_skew_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        neg = self.field.neg
        z = self.field.zero()
        for i in range(self.rows):
            if self.data[i][i] != z:
                return False
            for j in range(i + 1, self.cols):
                if self.data[i][j] != neg(self.data[j][i]):
                    return False
        return True

    def submatrix(self, row0: int, row1: int, col0: int, col1: int) -> "Matrix":
        data = [row[col0:col1] for row in self.data[row0:row1]]
        return Matrix._raw(self.field, data, col1 - col0)

    @staticmethod
    def hstack(blocks: Sequence["Matrix"]) -> "Matrix":
        if not blocks:
            raise ShapeError("hstack of no blocks")
        field = blocks[0].field
        rows = blocks[0].rows
        for b in blocks:
            if b.rows != rows or b.field != field:
                raise ShapeError("hstack blocks disagree in row count or field")
        data = [sum((b.data[i] for b in blocks), []) for i in range(rows)]
        return Matrix._raw(field, data, sum(b.cols for b in blocks))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def matvec(m: Matrix, v: Sequence) -> list:
    """Matrix times column vector, returned as a list: the product with one
    column."""
    if len(v) != m.cols:
        raise ShapeError(f"matvec length mismatch: {m.shape} @ {len(v)}")
    return [row[0] for row in (m @ Matrix(m.field, [[x] for x in v], 1)).data]


# ---------------------------------------------------------------------------
# GF(p) backend (numpy: int64 for p < 2**31, Python ints past it)


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """The integers `a` mod p, as int64 below 2**31 (the bounds above) and
    as Python ints past it."""
    return (a % p).astype(np.int64 if p < _FAST_PRIME_LIMIT else object)


def _from_np(field: Field, arr: np.ndarray) -> Matrix:
    return Matrix._raw(field, arr.tolist(), arr.shape[1])


def _matmul_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y mod p for entries in [0, p), stacked over leading axes.

    int64 operands are split into 16-bit limbs and multiplied by four
    float64 (BLAS) products, each exact for inner dims up to 2**21
    (`_FAST_INNER_LIMIT`); the limb sums are recombined mod p in int64.
    Past that inner dim they are cast to Python ints.  Python-int
    (``dtype=object``) operands are multiplied exactly as they stand.
    """
    if x.dtype != object and x.shape[-1] > _FAST_INNER_LIMIT:
        return _matmul_mod(x.astype(object), y.astype(object), p).astype(np.int64)
    if x.dtype == object:
        return (x @ y) % p
    x0, x1 = (x & 0xFFFF).astype(np.float64), (x >> 16).astype(np.float64)
    y0, y1 = (y & 0xFFFF).astype(np.float64), (y >> 16).astype(np.float64)
    hi = (x1 @ y1).astype(np.int64) % p
    mid = (x0 @ y1).astype(np.int64) + (x1 @ y0).astype(np.int64)
    acc = ((hi << 16) + mid) % p
    return ((acc << 16) + (x0 @ y0).astype(np.int64)) % p


def _eliminate(a: np.ndarray, p: int, rows: np.ndarray | None = None) -> list[int]:
    """The rank-1 loop: reduce `a` (entries in [0, p)) in place to its
    reduced row echelon form and return the pivot columns.

    Each row swap is mirrored on `rows`, when given, so a caller that
    eliminates a copy of a column panel keeps its whole rows in step.
    """
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            if rows is not None:
                rows[[r, pr]] = rows[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return pivots


def _rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p and its pivot columns.

    Large matrices are reduced one column panel at a time.  The rank-1 loop
    on a copy of the panel's remaining rows finds the panel's pivot columns
    `pcols` and moves k independent rows to the top of the remainder.  With
    U their entries at `pcols`, U^-1 times those rows is the panel's part
    of the reduced echelon form (the unique basis of their span that is the
    identity at `pcols`), and every other row sheds its `pcols` entries by
    subtracting row[pcols] @ (U^-1 rows), which are matrix products.
    """
    a = a % p
    m, n = a.shape
    if min(m, n) <= 2 * _PANEL:
        return a, _eliminate(a, p)
    pivots: list[int] = []
    r = 0
    for c0 in range(0, n, _PANEL):
        if r == m:
            break
        panel = a[r:, c0:c0 + _PANEL].copy()
        pcols = _eliminate(panel, p, rows=a[r:])  # relative to c0
        k = len(pcols)
        if k == 0:
            continue
        aug = np.concatenate([a[r:r + k, c0:][:, pcols], np.eye(k, dtype=a.dtype)], axis=1)
        _eliminate(aug, p)
        top = _matmul_mod(aug[:, k:], a[r:r + k, c0:], p)
        a[r:r + k, c0:] = top
        for lo, hi in ((0, r), (r + k, m)):
            for i in range(lo, hi, _PANEL):
                block = a[i:min(i + _PANEL, hi), c0:]
                block -= _matmul_mod(block[:, pcols], top, p)
                block %= p
        pivots += [c0 + c for c in pcols]
        r += k
    return a, pivots


def _free_kernel(a: np.ndarray, pivots: list[int], zero=0, one=1) -> np.ndarray:
    """Kernel basis of a reduced row echelon form `a` with pivot columns
    `pivots`, as the columns of a (cols, cols - rank) array of a's dtype:
    one column per free column f, in increasing order, `one` at f, -a[i][f]
    at the i-th pivot column and `zero` elsewhere.  Not reduced: over GF(p)
    take it mod p."""
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    k = np.full((a.shape[1], free.size), zero, dtype=a.dtype)
    k[free, np.arange(free.size)] = one
    k[pivots] = -a[:len(pivots), free]
    return k


def _inverses_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of the residues in x, 0 for 0, with a single modular
    inverse (Montgomery's trick): invert the product of the nonzero entries,
    then peel the factors off in reverse.  Over the 3561 steps of the
    n = 4..8 census with 100 trials this takes 27 ms of CPU, against 55 ms
    for one pow per entry; a vectorized Fermat power costs some 120 numpy
    calls, about 160 us, per step."""
    vals = x.tolist()
    prefix, acc = [], 1
    for v in vals:
        prefix.append(acc)
        if v:
            acc = acc * v % p
    inv, out = pow(acc, -1, p), [0] * len(vals)
    for k in reversed(range(len(vals))):
        if vals[k]:
            out[k], inv = inv * prefix[k] % p, inv * vals[k] % p
    return np.array(out, dtype=x.dtype)


def _ranks_mod(a: np.ndarray, p: int) -> list[int]:
    """Ranks mod p of a (trials, m, w) stack with entries in [0, p); `a` is
    overwritten.

    Forward elimination of every trial at once, rank only.  A wide stack is
    read as its transpose, which has the same ranks, so that generic systems
    of full row rank never lack a pivot in their column.  Step k pivots at
    (k, k) of each trial and updates only the trailing block below and right
    of it.  A trial with a zero there first swaps in the first nonzero column
    of its active block, and that column's first nonzero row: after k steps
    the rank is k plus the rank of the active block (a Schur complement),
    which no permutation of its rows or columns changes.  A trial whose
    active block is zero keeps a zero pivot, and its rank stops growing.

    The update is exact on int64: factor and pivot-row entries are residues
    below p < 2**31, so each product is below 2**62, block - f * prow stays
    above -2**62, and one % per update is enough.  Stacks of matrices with
    more than 2 * _PANEL rows and columns go to `_rref_mod` one at a time,
    short side as rows, so no panel updates more rows than the rank reaches.
    """
    trials, m, w = a.shape
    if min(m, w) > 2 * _PANEL:
        return [len(_rref_mod(x.T if m > w else x, p)[1]) for x in a]
    if m < w:
        a, m, w = a.transpose(0, 2, 1), w, m
    ranks = np.zeros(trials, dtype=np.intp)
    for k in range(w):
        stuck = np.flatnonzero(a[:, k, k] == 0)
        if stuck.size:
            _swap_in_pivots(a[:, k:, k:], stuck)
        pivots = a[:, k, k]
        live = pivots != 0
        if not live.any():
            break
        ranks += live
        prow = a[:, k, None, k + 1:] * _inverses_mod(pivots, p)[:, None, None] % p
        block = a[:, k + 1:, k + 1:]
        block -= a[:, k + 1:, k, None] * prow
        block %= p
    return ranks.tolist()


def _swap_in_pivots(act: np.ndarray, stuck: np.ndarray):
    """Give each `stuck` trial of the active blocks `act` (a view) a nonzero
    at (0, 0) where its block has one: first the first nonzero column, if
    column 0 is zero, then that column's first nonzero row."""
    col = act[stuck, :, 0] != 0
    empty = ~col.any(axis=1)
    if empty.any():
        t = stuck[empty]
        j = (act[t] != 0).any(axis=1).argmax(axis=1)  # 0 for a zero block
        act[t, :, 0], act[t, :, j] = act[t, :, j], act[t, :, 0]
        col[empty] = act[t, :, 0] != 0
    i = col.argmax(axis=1)
    act[stuck, 0], act[stuck, i] = act[stuck, i], act[stuck, 0]


# ---------------------------------------------------------------------------
# QQ: the reduced echelon form lifted p-adically from one GF(p) image
#
# Dixon, "Exact solution of linear equations using p-adic expansions", Numer.
# Math. 40 (1982).  Let A be the cleared integer rows, R their RREF over QQ
# with r pivots P and free columns F, and X = R[:r, F].  Every row of A is a
# combination of R's rows with its own entries at P as coefficients, so
# A[:, P] X = A[:, F].  The image of A mod p, if it has the pivots P, has
# X mod p at F: that is the first digit X_0.  Further digits need T with
# T A[:, P] = I mod p, which the RREF of [A[:, P] | I] holds in the rows of
# the pivots (every row of A is carried, so no independent rows need
# choosing).  With B_0 = A[:, F], B_{k+1} = (B_k - A[:, P] X_k) / p, exactly,
# and X_{k+1} = T B_{k+1} mod p, the sum X_0 + X_1 p + ... + X_k p**k is X mod
# p**(k+1), and rational reconstruction reads X back from it.  A residual
# B_k - A[:, P] X_k that p does not divide shows that A[:, F] is not A[:, P]
# times a p-integral X: the prime is unlucky.
#
# Certificate for a candidate R with r pivots P and denominator d.  Rank mod
# p is at most rank over QQ, so the image gives rank A >= r.  K, R's kernel
# in free-column form (column f: d at f, -d R[i][f] at P[i], 0 elsewhere),
# has cols - r independent columns, so A K == 0 gives rank A <= r.  Then
# ker A = span K fixes the row space, and R, which annihilates K, is the
# identity at P and zero left of each pivot, is its RREF.  An image with
# other pivots, a zero image of a nonzero A included, fails the check.  A
# prime is unlucky (fewer or later pivots) only if it divides D, a nonzero
# r x r minor of A at the true pivots; for every other prime X is p-integral
# and its digits converge.  D and each D R[i][f] are minors, at most the
# Hadamard bound H, so a lucky prime certifies once p**k passes 2 H**2, and
# fewer than log_p H primes are unlucky: past a product H of primes tried, a
# failure is a bug, not bad luck.


def _cleared(rows: list[list[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row of Fractions times the lcm of its denominators, as Python
    ints, and those lcms."""
    lcms = [math.lcm(*{x.denominator for x in row}) for row in rows]
    return [[x.numerator for x in row] if k == 1 else [x.numerator * (k // x.denominator) for x in row]
            for row, k in zip(rows, lcms)], lcms


def _integers(m: Matrix) -> np.ndarray:
    """`m` as integers: over GF(p) its `_residues`, over QQ each row times the
    lcm of its denominators (Python ints), which keeps the row space."""
    if isinstance(m.field, PrimeField):
        return _residues(np.array(m.data, dtype=object).reshape(m.rows, m.cols), m.field.p)
    return np.array(_cleared(m.data)[0], dtype=object).reshape(m.rows, m.cols)


def _primes() -> Iterator[int]:
    """Every prime below 2**31 from DEFAULT_PRIME down, a fixed sequence:
    QQ results are fixed."""
    return filter(is_prime, range(DEFAULT_PRIME, 1, -2))


def _reconstruct(block: np.ndarray, modulus: int) -> tuple[int, np.ndarray] | None:
    """Denominator d and numerators d x of the fractions x in `block` mod `modulus`, or
    None: Wang's reconstruction of each entry that the running d leaves above `bound`."""
    bound = math.isqrt((modulus - 1) // 2)  # unique fractions up to bound / bound
    d = 1
    while True:
        num = block * d % modulus
        num[num > modulus // 2] -= modulus
        big = np.flatnonzero(abs(num) > bound)
        if big.size == 0:
            return d, num
        r0, r1, s0, s1 = modulus, num.flat[big[0]] % modulus, 0, 1
        while r1 > bound:  # r_i == s_i * y (mod modulus) throughout
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if math.gcd(r1, s1) != 1 or d * abs(s1) > bound:
            return None
        d *= abs(s1)


def _certified(ints: np.ndarray, pivots: list, free: list, d: int, num: np.ndarray) -> bool:
    """The candidate (d, num) is zero left of each pivot, and A K == 0 in
    Python ints for K read off it."""
    left = np.array(free, dtype=np.intp)[None, :] < np.array(pivots, dtype=np.intp)[:, None]
    return not num[left].any() and np.array_equal(ints[:, free] * d, ints[:, pivots] @ num)


def _lifted(ints: np.ndarray, a: np.ndarray, red: np.ndarray, pivots: list, p: int,
            big: int, limit: int) -> tuple[int, np.ndarray] | None:
    """The certified (d, num) of X = R[:r, free], lifted from the image `red`
    of the residues `a` of A = `ints` mod p (see above), reconstructed after
    1, 2, 4, ... digits and once p**k passes `limit`; None if p turns out
    unlucky.  `big` bounds every |entry| of A."""
    r = len(pivots)
    free = sorted(set(range(a.shape[1])) - set(pivots))
    lhs, b = ints[:, pivots], ints[:, free]
    # int64 while |B_k - A[:, P] X_k| <= |B_0| + r big p stays below 2**63
    # (then every |B_k| <= max(|B_0|, r big)); Python ints past it
    if r * big * p + big < 1 << 63:
        lhs, b = lhs.astype(np.int64), b.astype(np.int64)
    # the image is X mod p, the first digit: an RREF one digit tall needs no T
    xk, t = red[:r, free], None
    x, modulus, steps = np.zeros(xk.shape, dtype=object), 1, 0
    while True:
        b = b - lhs @ xk
        if (b % p).any():  # A[:, free] is not in the span of A[:, pivots] over Z_(p)
            return None
        b //= p
        x, modulus, steps = x + xk.astype(object) * modulus, modulus * p, steps + 1
        if steps & (steps - 1) == 0 or modulus > limit:
            found = _reconstruct(x, modulus)
            if found and _certified(ints, pivots, free, *found):
                return found
            if modulus > limit:
                return None
        if t is None:  # T A[:, P] = I mod p, from the RREF of [A[:, P] | I]
            aug = np.concatenate([a[:, pivots], np.eye(len(a), dtype=a.dtype)], axis=1)
            t = _rref_mod(aug, p)[0][:r, r:]
        xk = _matmul_mod(t, _residues(b, p), p)


def _image(ints: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The residues of `ints` mod p, their RREF and its pivots."""
    a = _residues(ints, p)
    return (a, *_rref_mod(a, p))


def _rref_qq(ints: np.ndarray, image: tuple | None = None) -> tuple[int, np.ndarray, list[int]]:
    """The RREF over QQ of the integer matrix `ints` as d, its numerators d
    R[:r, free] (Python ints) at the free columns, and its pivots: lifted
    from the first prime that is not unlucky.  `image` is the `_image` of
    `ints` mod the first prime, when the caller has it."""
    norms = [math.isqrt(sum(v * v for v in row)) + 1 for row in ints.tolist()]
    hadamard = math.prod(norms)
    tried = 1
    for p in _primes():
        a, red, pivots = image or _image(ints, p)
        image = None
        found = _lifted(ints, a, red, pivots, p, max(norms, default=0), 2 * hadamard ** 2)
        if found:
            return (*found, pivots)
        tried *= p
        if tried > hadamard:
            raise InvariantError("QQ echelon form not certified within the Hadamard bound")


def _rref_array(m: Matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form as an array of canonical entries (residues,
    or Fractions), and its pivot columns."""
    if isinstance(m.field, PrimeField):
        return _rref_mod(_integers(m), m.field.p)
    d, num, pivots = _rref_qq(_integers(m))
    out = np.full((m.rows, m.cols), Fraction(0), dtype=object)
    out[:len(pivots), sorted(set(range(m.cols)) - set(pivots))] = np.frompyfunc(Fraction, 2, 1)(num, d)
    out[range(len(pivots)), pivots] = Fraction(1)
    return out, pivots


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns (both canonical)."""
    arr, pivots = _rref_array(m)
    return _from_np(m.field, arr), pivots


def _exact_rank(field: Field, ints: np.ndarray) -> int:
    """Exact rank over `field` of the matrix with `_integers` image `ints`:
    the rank mod p over GF(p); over QQ the rank mod the first prime where it
    is full, as it is at most the rank, and else the lift of that image."""
    if isinstance(field, PrimeField):
        return len(_rref_mod(ints, field.p)[1])
    image = _image(ints, next(_primes()))
    if len(image[2]) == min(ints.shape):
        return len(image[2])
    return len(_rref_qq(ints, image)[2])


def rank(m: Matrix) -> int:
    """Exact rank over the matrix's field."""
    return _exact_rank(m.field, _integers(m))


def kernel_basis(m: Matrix) -> list[list]:
    """Canonical basis of the right kernel, read off a single elimination.

    Returns exactly ``cols - rank`` vectors v with m @ v = 0, one per free
    (non-pivot) column f of the reduced row echelon form R, in increasing
    order of f: v is 1 at f, 0 at the other free columns, and -R[i][f] at
    the i-th pivot column.  R and its pivots depend only on the row space
    of m, which the kernel determines, so two kernels coincide as subspaces
    iff the returned bases are equal.
    """
    field = m.field
    k = _free_kernel(*_rref_array(m), field.zero(), field.one())
    if isinstance(field, PrimeField):
        k %= field.p
    return k.T.tolist()


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; DomainError if the matrix is singular."""
    if m.rows != m.cols:
        raise ShapeError("only square matrices can be inverted")
    n = m.rows
    aug = Matrix.hstack([m, Matrix.identity(m.field, n)])
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise DomainError("matrix is singular")
    return red.submatrix(0, n, n, 2 * n)


def spans_match(field: Field, vectors_a: Iterable[Sequence], vectors_b: Iterable[Sequence], length: int) -> bool:
    """Subspace equality of two spans, decided by their RREFs without zero rows."""
    red_a, pivots_a = rref(Matrix(field, [list(v) for v in vectors_a], length))
    red_b, pivots_b = rref(Matrix(field, [list(v) for v in vectors_b], length))
    return red_a.data[:len(pivots_a)] == red_b.data[:len(pivots_b)]

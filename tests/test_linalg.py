import math
from fractions import Fraction

import pytest

from barthslice.errors import DomainError, ShapeError
from barthslice.fields import PrimeField, RationalField
from barthslice.linalg import (
    Matrix,
    inverse,
    kernel_basis,
    matvec,
    rank,
    rref,
    spans_match,
)
from barthslice.rng import SeededRng

GF = PrimeField()
QQ = RationalField()


def random_matrix(field, rng, rows, cols):
    return Matrix(field, [[field.sample(rng) for _ in range(cols)] for _ in range(rows)])


def test_constructor_rejects_ragged():
    with pytest.raises(ShapeError):
        Matrix(QQ, [[1, 2], [3]])


def test_shape_and_indexing():
    m = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)
    assert m.data[1][2] == 6
    assert m.data[0] == [1, 2, 3]
    assert m.T.data[1] == [2, 5]


def test_identity_neutral():
    rng = SeededRng(1)
    a = random_matrix(GF, rng, 5, 5)
    assert a @ Matrix.identity(GF, 5) == a
    assert Matrix.identity(GF, 5) @ a == a


def test_transpose_law_on_random_pairs():
    rng = SeededRng(2)
    for field in (GF, QQ):
        for _ in range(5):
            a = random_matrix(field, rng, 5, 5)
            b = random_matrix(field, rng, 5, 5)
            assert (a @ b).T == b.T @ a.T


def test_matmul_oracle():
    a = Matrix(QQ, [[0, 1], [1, 0]])
    b = Matrix(QQ, [[1, 0], [0, -1]])
    assert (a @ b).data == [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]


def test_matmul_fast_path_matches_generic():
    # same product through the int64 backend and through a big-prime field
    rng = SeededRng(3)
    big = PrimeField(2**61 - 1)  # beyond the fast-path limit
    ints = [[rng.integers(1000) for _ in range(7)] for _ in range(6)]
    jnts = [[rng.integers(1000) for _ in range(4)] for _ in range(7)]
    fast = Matrix(GF, ints) @ Matrix(GF, jnts)
    slow = Matrix(big, ints) @ Matrix(big, jnts)
    plain = [
        [sum(ints[i][k] * jnts[k][j] for k in range(7)) for j in range(4)]
        for i in range(6)
    ]
    assert fast.data == [[v % GF.p for v in row] for row in plain]
    assert slow.data == [[v % big.p for v in row] for row in plain]


def test_matmul_shape_and_field_mismatch():
    with pytest.raises(ShapeError):
        Matrix(GF, [[1, 2]]) @ Matrix(GF, [[1, 2]])
    with pytest.raises(ShapeError):
        Matrix(GF, [[1]]) @ Matrix(QQ, [[1]])


def _oracle_matmul(a: Matrix, b: Matrix) -> Matrix:
    """The per-entry product in the field's own arithmetic, the loop the
    integer-array product replaced, kept here as an oracle."""
    field = a.field
    add, mul = field.add, field.mul
    out = [[field.zero()] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for k in range(a.cols):
            aik = a.data[i][k]
            if aik == 0:
                continue
            for j in range(b.cols):
                bkj = b.data[k][j]
                if bkj != 0:
                    out[i][j] = add(out[i][j], mul(aik, bkj))
    return Matrix._raw(field, out, b.cols)


def _mixed_matrix(field, rng, rows, cols) -> Matrix:
    """Negative numerators up to 2^80, denominators from 1 to past 2^64
    (over GF(p) reduced to residues), and every third row zero."""
    def entry():
        num = rng.integers(2 ** rng.integers(81) + 1) * (-1) ** rng.integers(2)
        den = [1, 1, 2, 6, 35, 2**64 + 13][rng.integers(6)]
        x = Fraction(num, den)
        return x if field == QQ else x.numerator * pow(x.denominator, -1, field.p)
    return Matrix(field, [[0 if i % 3 == 2 else entry() for _ in range(cols)] for i in range(rows)], cols)


# (rows, inner, cols): generic ones, and the empty shapes 0 x k @ k x m,
# k x 0 @ 0 x m and m x k @ k x 0
PRODUCT_SHAPES = [(1, 1, 1), (4, 6, 5), (7, 3, 1), (1, 9, 4), (0, 4, 3), (3, 0, 2), (2, 4, 0)]


@pytest.mark.parametrize("field", [QQ, GF, PrimeField(2**61 - 1)], ids=["QQ", "GF31", "GF61"])
def test_matmul_and_matvec_match_the_entry_loop(field):
    rng = SeededRng(19)
    for rows, inner, cols in PRODUCT_SHAPES * 3:
        a = _mixed_matrix(field, rng, rows, inner)
        b = _mixed_matrix(field, rng, inner, cols)
        prod = a @ b
        assert prod == _oracle_matmul(a, b) and prod.shape == (rows, cols)
        v = [row[0] for row in b.data] if cols else [field.one()] * inner
        assert matvec(a, v) == [x for x, in _oracle_matmul(a, Matrix(field, [[x] for x in v], 1)).data]
        if field == QQ:
            entries = [x for row in prod.data for x in row] + matvec(a, v)
            assert all(type(x) is Fraction and x.denominator > 0
                       and math.gcd(x.numerator, x.denominator) == 1 for x in entries)
    # numerators and denominators past 2^64 really are drawn
    drawn = [x for row in _mixed_matrix(QQ, rng, 9, 9).data for x in row]
    assert any(abs(x.numerator) > 2**64 for x in drawn) and any(x.denominator > 2**64 for x in drawn)


def test_matvec_coerces_and_rejects_like_the_constructor():
    m = Matrix(QQ, [[1, Fraction(1, 2)], [0, 3]])
    assert matvec(m, [2, -4]) == [Fraction(0), Fraction(-12)]
    assert matvec(Matrix(GF, [[1, 1]]), [-1, -1]) == [GF.p - 2]
    assert matvec(Matrix(QQ, [[]] * 3), []) == [Fraction(0)] * 3
    for field in (QQ, GF):
        with pytest.raises(ShapeError):
            matvec(Matrix(field, [[1, 2]]), [1])
        with pytest.raises(DomainError):
            matvec(Matrix(field, [[1, 2]]), [1, 0.5])


def test_rank_examples():
    assert rank(Matrix(QQ, [[0] * 4] * 3)) == 0
    assert rank(Matrix.identity(QQ, 5)) == 5
    assert rank(Matrix(QQ, [[1, 2], [2, 4]])) == 1
    assert rank(Matrix(GF, [[1, 2], [2, 4]])) == 1


def test_kernel_oracle_1x2():
    # free-column basis: 1 at the free column, minus the RREF entry at the pivot
    m = Matrix(QQ, [[1, 1]])
    assert kernel_basis(m) == [[Fraction(-1), Fraction(1)]]
    mp = Matrix(GF, [[1, 1]])
    assert kernel_basis(mp) == [[GF.p - 1, 1]]


@pytest.mark.parametrize("field", [GF, QQ])
def test_kernel_free_column_unit_pattern(field):
    # rank 1: pivot column 0, free columns 1, 2, 3
    m = Matrix(field, [[1, 2, 0, 3], [2, 4, 0, 6]])
    basis = kernel_basis(m)
    free = [1, 2, 3]
    assert len(basis) == len(free)
    for f, v in zip(free, basis):
        assert [v[c] for c in free] == [field.one() if c == f else field.zero() for c in free]
        assert all(x == field.zero() for x in matvec(m, v))
    assert [v[0] for v in basis] == [field.coerce(-2), field.zero(), field.coerce(-3)]


def test_kernel_of_identity_empty():
    assert kernel_basis(Matrix.identity(GF, 4)) == []


@pytest.mark.parametrize("field", [GF, QQ])
def test_rank_nullity_random(field):
    rng = SeededRng(4)
    for _ in range(10):
        m = random_matrix(field, rng, 6, 9)
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == 9
        for v in basis:
            assert all(x == field.zero() for x in matvec(m, v))


def test_rref_is_canonical_across_row_scrambles():
    rng = SeededRng(6)
    m = random_matrix(QQ, rng, 4, 6)
    shuffled = Matrix(QQ, [m.data[2], m.data[0], m.data[3], m.data[1]])
    assert rref(m) == rref(shuffled)


def test_rational_and_modular_backends_agree():
    # identical integer input: same pivots, and the mod-p image of the
    # rational echelon equals the modular echelon
    rng = SeededRng(7)
    p = GF.p
    for trial in range(30):
        ints = [[rng.integers(19) - 9 for _ in range(6)] for _ in range(5)]
        if trial % 3 == 0:
            ints[4] = [2 * x for x in ints[0]]
        rq, pivots_q = rref(Matrix(QQ, ints))
        rp, pivots_p = rref(Matrix(GF, ints))
        assert pivots_q == pivots_p
        for rowq, rowp in zip(rq.data, rp.data):
            for x, y in zip(rowq, rowp):
                assert (x.numerator * pow(x.denominator, p - 2, p)) % p == y


def test_rational_rref_with_fraction_entries():
    m = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert red == Matrix.identity(QQ, 2)


def test_rank_deficient_rational_uses_exact_fallback():
    # not full rank, so the modular shortcut cannot answer
    m = Matrix(QQ, [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 6), Fraction(1, 3)]])
    assert rank(m) == 1


def test_empty_shapes():
    for field in (GF, QQ):
        m = Matrix(field, [], cols=3)
        assert m.shape == (0, 3)
        assert rank(m) == 0
        assert len(kernel_basis(m)) == 3
        assert rref(m) == (m, [])
        no_cols = Matrix(field, [[], []], cols=0)
        assert rank(no_cols) == 0
        assert kernel_basis(no_cols) == []
        assert rref(no_cols) == (no_cols, [])


def test_inverse_round_trip_and_singular():
    rng = SeededRng(8)
    for field in (GF, QQ):
        m = random_matrix(field, rng, 4, 4)
        while rank(m) < 4:
            m = random_matrix(field, rng, 4, 4)
        assert m @ inverse(m) == Matrix.identity(field, 4)
    with pytest.raises(DomainError):
        inverse(Matrix(QQ, [[1, 2], [2, 4]]))
    with pytest.raises(ShapeError):
        inverse(Matrix(QQ, [[1, 2]]))


def test_hstack_vstack():
    a = Matrix(GF, [[1, 2], [3, 4]])
    b = Matrix(GF, [[5], [6]])
    assert Matrix.hstack([a, b]).data == [[1, 2, 5], [3, 4, 6]]
    c = Matrix(GF, [[7, 8]])
    assert Matrix.hstack([a.T, c.T]).T.data == [[1, 2], [3, 4], [7, 8]]
    with pytest.raises(ShapeError):
        Matrix.hstack([a, c])


def test_submatrix_and_blocks():
    m = Matrix(QQ, [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]])
    assert m.submatrix(1, 3, 1, 3).data == [
        [Fraction(6), Fraction(7)],
        [Fraction(10), Fraction(11)],
    ]


def test_symmetry_predicates():
    assert Matrix(QQ, [[1, 2], [2, 3]]).is_symmetric()
    assert not Matrix(QQ, [[1, 2], [0, 3]]).is_symmetric()
    assert Matrix(QQ, [[0, 5], [-5, 0]]).is_skew_symmetric()
    assert not Matrix(QQ, [[1, 5], [-5, 0]]).is_skew_symmetric()


def test_spans_match():
    assert spans_match(QQ, [[1, 0], [0, 1]], [[1, 1], [1, -1]], 2)
    assert not spans_match(QQ, [[1, 0]], [[0, 1]], 2)
    assert spans_match(GF, [[1, 2, 3]], [[2, 4, 6]], 3)


def test_spans_match_ignores_zero_and_dependent_rows():
    for field in (QQ, GF):
        assert spans_match(field, [[1, 2], [2, 4], [0, 0]], [[3, 6]], 2)
        assert spans_match(field, [[0, 0, 0]], [], 3)
        assert not spans_match(field, [[1, 2], [2, 4], [0, 0]], [[1, 2], [0, 1]], 2)


def test_scale_and_neg():
    m = Matrix(QQ, [[1, -2], [3, 4]])
    half = Matrix(QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert (m @ half).data == [
        [Fraction(1, 2), Fraction(-1)],
        [Fraction(3, 2), Fraction(2)],
    ]

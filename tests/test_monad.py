from fractions import Fraction

import pytest

from barthslice.barth import (
    FiberData,
    HalfData,
    SliceData,
    SliceResidual,
    _skew_gram,
    residual,
    skew_index,
    wedge,
)
from barthslice import linalg
from barthslice.census import sample_half
from barthslice.errors import DomainError, ShapeError
from barthslice.fields import PrimeField, RationalField
from barthslice.linalg import Matrix, rank
from barthslice.monad import (
    GammaMatrix,
    PencilReport,
    build_gamma,
    evaluate_alpha,
    monad_condition,
    pencil_check,
    point_rank_check,
)
from barthslice.rng import SeededRng
from barthslice.selftest import _kernel_point

GF = PrimeField()
QQ = RationalField()


def zero_slice(field, n):
    z = Matrix.zeros(field, n, n)
    zv = tuple(field.zero() for _ in range(n))
    return SliceData(HalfData(n, z, z, zv, zv), FiberData(z, z, zv, zv))


def random_slice(rng, field, n):
    half = sample_half(rng, field, n)
    other = sample_half(rng, field, n)
    return SliceData(half, FiberData(other.A1, other.A2, other.a1, other.a2))


def kernel_slice(rng, field, n):
    half = sample_half(rng, field, n)
    return SliceData(half, _kernel_point(rng, field, half))


# ---------------------------------------------------------------------------
# gamma construction


def test_gamma_shape():
    for n in (1, 3, 6):
        x = zero_slice(QQ, n)
        assert build_gamma(x).body.shape == (2 * n + 2, 4 * n)


def test_gamma_zero_slice_n1():
    g = build_gamma(zero_slice(QQ, 1)).body
    assert g.shape == (4, 4)
    assert g.data == [
        [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(-1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
    ]


def test_gamma_block_round_trip():
    rng = SeededRng(80)
    n = 3
    x = random_slice(rng, GF, n)
    body = build_gamma(x).body
    h, f = x.half, x.fiber
    assert body.submatrix(0, n, 2 * n, 3 * n) == h.A1
    assert body.submatrix(0, n, 3 * n, 4 * n) == h.A2
    assert body.submatrix(n, 2 * n, 2 * n, 3 * n) == f.B1
    assert body.submatrix(n, 2 * n, 3 * n, 4 * n) == f.B2
    assert body.data[2 * n][2 * n : 3 * n] == list(h.a1)
    assert body.data[2 * n][3 * n :] == list(h.a2)
    assert body.data[2 * n + 1][2 * n : 3 * n] == list(f.b1)
    assert body.data[2 * n + 1][3 * n :] == list(f.b2)
    # fixed identity blocks
    assert body.submatrix(0, n, 0, n).is_zero()
    assert body.submatrix(0, n, n, 2 * n) == Matrix.identity(GF, n)
    assert body.submatrix(n, 2 * n, 0, n) == -Matrix.identity(GF, n)


def test_gamma_matrix_validates_shape():
    with pytest.raises(ShapeError):
        GammaMatrix(2, Matrix.zeros(QQ, 5, 8))


# ---------------------------------------------------------------------------
# symplectic form and Gram blocks


def symplectic_form(field, n):
    """q = diag(J_2n, J_2) with J_2k = [[0, I_k], [-I_k, 0]]; size 2n+2."""
    z, one = field.zero(), field.one()
    neg_one = field.neg(one)
    size = 2 * n + 2
    data = [[z] * size for _ in range(size)]
    for i in range(n):
        data[i][n + i] = one
        data[n + i][i] = neg_one
    data[2 * n][2 * n + 1] = one
    data[2 * n + 1][2 * n] = neg_one
    return Matrix(field, data, size)


def oracle_gram(gamma):
    # the q-sandwich, two products
    return gamma.body.T @ symplectic_form(gamma.field, gamma.n) @ gamma.body


def gram_blocks(gamma):
    """Block reader for gamma^T q gamma: block(i, j) is M_ij = C_i^T q C_j."""
    n = gamma.n
    g = oracle_gram(gamma)

    def block(i, j):
        return g.submatrix(i * n, (i + 1) * n, j * n, (j + 1) * n)

    return block


def test_symplectic_form_structure():
    q = symplectic_form(QQ, 2)
    assert q.T == -q
    assert q @ q == -Matrix.identity(QQ, 6)


def test_gram_fixed_blocks():
    rng = SeededRng(81)
    x = random_slice(rng, GF, 3)
    g = gram_blocks(build_gamma(x))
    eye = Matrix.identity(GF, 3)
    assert g(0, 0).is_zero() and g(1, 1).is_zero()
    assert g(0, 1) == eye
    assert g(1, 0) == -eye


def test_gram_diagonal_blocks_are_residuals():
    rng = SeededRng(82)
    x = random_slice(rng, QQ, 3)
    g = gram_blocks(build_gamma(x))
    r = residual(x)
    assert g(2, 2) == r.R1
    assert g(3, 3) == r.R2
    assert g(2, 3) + g(3, 2) == r.R3


def test_gram_zero_gamma():
    g = gram_blocks(GammaMatrix(2, Matrix.zeros(QQ, 6, 8)))
    for i in range(4):
        for j in range(4):
            assert g(i, j).is_zero()


def test_gram_skew_pairing():
    rng = SeededRng(83)
    x = random_slice(rng, GF, 4)
    g = gram_blocks(build_gamma(x))
    for i in range(4):
        for j in range(4):
            assert g(i, j).T == -g(j, i)


# ---------------------------------------------------------------------------
# monad condition


def test_monad_condition_zero_slice():
    assert monad_condition(build_gamma(zero_slice(GF, 2)))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_monad_condition_iff_residual_zero(n):
    rng = SeededRng(84)
    for trial in range(10):
        sub = rng.substream(f"k/{n}/{trial}")
        x = kernel_slice(sub, GF, n)
        assert residual(x).is_zero()
        assert monad_condition(build_gamma(x))
    for trial in range(10):
        sub = rng.substream(f"r/{n}/{trial}")
        x = random_slice(sub, GF, n)
        assert monad_condition(build_gamma(x)) == residual(x).is_zero()


def test_monad_condition_detects_perturbation():
    rng = SeededRng(85)
    x = kernel_slice(rng, GF, 3)
    b1 = [row[:] for row in x.fiber.B1.data]
    b1[0][1] = GF.add(b1[0][1], 1)
    b1[1][0] = b1[0][1]
    bad = SliceData(x.half, FiberData(Matrix(GF, b1), x.fiber.B2, x.fiber.b1, x.fiber.b2))
    if residual(bad).is_zero():  # perturbation direction happened to stay in the kernel
        pytest.skip("perturbation stayed on the slice")
    assert not monad_condition(build_gamma(bad))


# ---------------------------------------------------------------------------
# pointwise rank


def test_evaluate_alpha_e1_has_rank_n():
    rng = SeededRng(86)
    x = random_slice(rng, GF, 3)
    gamma = build_gamma(x)
    alpha = evaluate_alpha(gamma, [1, 0, 0, 0])
    assert alpha == gamma.body.submatrix(0, 8, 0, 3)
    assert point_rank_check(gamma, [1, 0, 0, 0])  # contains -I
    assert rank(alpha) == 3


def test_evaluate_alpha_linearity():
    rng = SeededRng(87)
    gamma = build_gamma(random_slice(rng, GF, 3))
    v = [2, 3, 5, 7]
    w = [1, 0, 4, 9]
    vw = [GF.add(a, b) for a, b in zip(v, w)]
    assert evaluate_alpha(gamma, vw) == evaluate_alpha(gamma, v) + evaluate_alpha(gamma, w)


@pytest.mark.parametrize("field", [GF, QQ])
def test_evaluate_alpha_is_sum_of_column_blocks(field):
    # reference: alpha(v) = sum_j v_j C_{j+1}, each block read with submatrix
    rng = SeededRng(90)
    n = 4
    gamma = build_gamma(random_slice(rng, field, n))
    body = gamma.body
    for _ in range(5):
        v = [field.sample(rng) for _ in range(4)]
        if all(c == 0 for c in v):
            continue
        expected = Matrix.zeros(field, 2 * n + 2, n)
        for j in range(4):
            block = body.submatrix(0, 2 * n + 2, j * n, (j + 1) * n).data
            expected = expected + Matrix(field, [[field.mul(v[j], x) for x in row] for row in block])
        assert evaluate_alpha(gamma, v) == expected


def test_evaluate_alpha_rejects_zero_direction():
    gamma = build_gamma(zero_slice(QQ, 2))
    with pytest.raises(DomainError):
        evaluate_alpha(gamma, [0, 0, 0, 0])
    with pytest.raises(ShapeError):
        evaluate_alpha(gamma, [1, 0, 0])


def test_point_rank_check_zero_slice_e3_fails():
    gamma = build_gamma(zero_slice(QQ, 2))
    assert not point_rank_check(gamma, [0, 0, 1, 0])


def test_point_rank_bounded_by_n():
    rng = SeededRng(88)
    gamma = build_gamma(random_slice(rng, GF, 4))
    for _ in range(5):
        v = [GF.sample(rng) for _ in range(4)]
        if all(c == 0 for c in v):
            continue
        assert rank(evaluate_alpha(gamma, v)) <= 4


# ---------------------------------------------------------------------------
# pencil


def test_pencil_constant_minor():
    rep = pencil_check(QQ, (1, 0), (0, 0), (0, 1), (0, 0))
    assert rep.finite_ok
    assert not rep.infinity_ok
    assert not rep.ok


def test_pencil_identical_columns():
    rep = pencil_check(QQ, (1, 2, 3), (0, 1, 0), (1, 2, 3), (0, 1, 0))
    assert not rep.finite_ok


def test_pencil_minor_with_finite_roots():
    # single minor 1 - t^2, roots at t = 1 and t = -1
    rep = pencil_check(QQ, (1, 0), (0, 1), (0, 1), (1, 0))
    assert not rep.finite_ok
    assert rep.infinity_ok


def planted_pencil(rng, field, n):
    # b1 + r b2 = c (a1 + r a2): the pencil drops rank at t = r
    a1, a2, b2 = ([field.sample(rng) for _ in range(n)] for _ in range(3))
    r, c = field.sample(rng), field.sample(rng)
    b1 = [
        field.sub(field.mul(c, field.add(x, field.mul(r, y))), field.mul(r, z))
        for x, y, z in zip(a1, a2, b2)
    ]
    return a1, a2, b1, b2


@pytest.mark.parametrize("field", [GF, QQ])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pencil_planted_common_root(field, n):
    rng = SeededRng(91).substream(f"{field.describe()}/{n}")
    for _ in range(5):
        a1, a2, b1, b2 = planted_pencil(rng, field, n)
        rep = pencil_check(field, a1, a2, b1, b2)
        assert not rep.finite_ok
        assert rep.infinity_ok
        assert pencil_check(field, a1, a2, [field.sample(rng) for _ in range(n)], b2).ok


@pytest.mark.parametrize("field", [GF, QQ])
def test_pencil_with_a_common_root_eliminates_c_once(field, monkeypatch):
    # rank C = 2: C's kernel is read off the one elimination that ranks it
    calls = []
    rref_mod = linalg._rref_mod

    def counted(a, p):
        out = rref_mod(a, p)
        calls.append((a.shape, len(out[1])))
        return out

    monkeypatch.setattr(linalg, "_rref_mod", counted)
    n = 5
    a1, a2, b2 = (1, 2, 0, -1, 3), (0, 1, 4, 2, -2), (2, -1, 1, 0, 5)
    b1 = [3 * (x + 2 * y) - 2 * z for x, y, z in zip(a1, a2, b2)]  # root t = 2
    rep = pencil_check(field, a1, a2, b1, b2)
    assert not rep.finite_ok and rep.infinity_ok
    assert [call for call in calls if call[0] == (n * (n - 1) // 2, 3)] == [((10, 3), 2)]


@pytest.mark.parametrize("field", [GF, QQ])
def test_pencil_minor_with_roots_only_over_closure(field):
    # single minor 1 + t^2: no root in QQ or in GF(2^31 - 1) (p = 3 mod 4)
    rep = pencil_check(field, (1, 0), (0, 1), (0, 1), (-1, 0))
    assert not rep.finite_ok
    assert rep.infinity_ok


@pytest.mark.parametrize("field", [GF, QQ])
def test_pencil_minors_span_t_and_t2(field):
    # minors t, t^2, 0: common root t = 0
    rep = pencil_check(field, (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert not rep.finite_ok
    assert rep.infinity_ok


@pytest.mark.parametrize("field", [GF, QQ])
def test_pencil_minors_span_1_and_t(field):
    # minors 1, t, 0: no common root at any finite t
    rep = pencil_check(field, (1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1))
    assert rep.finite_ok
    assert not rep.infinity_ok


@pytest.mark.parametrize("field", [GF, QQ])
def test_pencil_all_minors_zero(field):
    rep = pencil_check(field, (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert not rep.finite_ok
    assert not rep.infinity_ok


def test_pencil_generic_passes():
    rng = SeededRng(89)
    hits = 0
    for _ in range(10):
        vecs = [[GF.sample(rng) for _ in range(4)] for _ in range(4)]
        rep = pencil_check(GF, *vecs)
        hits += rep.ok
    assert hits == 10  # failures have codimension >= 1


def test_pencil_length_mismatch():
    with pytest.raises(ShapeError):
        pencil_check(QQ, (1, 0), (0, 1, 1), (0, 1), (1, 0))


def test_pencil_n1_no_minors():
    rep = pencil_check(QQ, (1,), (1,), (1,), (1,))
    assert not rep.finite_ok
    assert not rep.infinity_ok


# ---------------------------------------------------------------------------
# the Gram form against the entrywise evaluations it replaced

GRAM_FIELDS = [
    PrimeField(2**31 - 1),
    PrimeField(2**61 - 1),
    RationalField(sample_window=1),
    RationalField(sample_window=100),
]


def oracle_wedge(field, a, b):
    a = [field.coerce(x) for x in a]
    b = [field.coerce(x) for x in b]
    n = len(a)
    rows = [[field.sub(field.mul(a[i], b[j]), field.mul(b[i], a[j])) for j in range(n)] for i in range(n)]
    return Matrix(field, rows, n)


def oracle_residual(x):
    # six commutator products and four entrywise wedges
    h, f, field = x.half, x.fiber, x.field

    def bracket(p, q):
        return p @ q - q @ p

    return SliceResidual(
        bracket(h.A1, f.B1) + oracle_wedge(field, h.a1, f.b1),
        bracket(h.A2, f.B2) + oracle_wedge(field, h.a2, f.b2),
        bracket(h.A1, f.B2) + bracket(h.A2, f.B1)
        + oracle_wedge(field, h.a1, f.b2) + oracle_wedge(field, h.a2, f.b1),
    )


def oracle_monad_condition(gamma):
    n, g = gamma.n, oracle_gram(gamma)
    assert g.T == -g
    return all(
        g.data[bi + k][bj + l] == g.data[bi + l][bj + k]
        for bi in range(0, 4 * n, n)
        for bj in range(bi, 4 * n, n)
        for k, l in skew_index(n)
    )


def oracle_pencil_check(field, a1, a2, b1, b2):
    # C from four entrywise wedges, ranked and read as in pencil_check
    w11 = oracle_wedge(field, a1, b1).data
    w12 = (oracle_wedge(field, a1, b2) + oracle_wedge(field, a2, b1)).data
    w22 = oracle_wedge(field, a2, b2).data
    c = Matrix(field, [[w11[i][j], w12[i][j], w22[i][j]] for i, j in skew_index(len(a1))], 3)
    z, r = field.zero(), rank(c)
    if r == 3:
        finite_ok = True
    elif r == 2:
        (w,) = linalg.kernel_basis(c)
        finite_ok = w[0] == z or field.mul(w[1], w[1]) != field.mul(w[0], w[2])
    elif r == 1:
        finite_ok = all(row[1] == z and row[2] == z for row in c.data)
    else:
        finite_ok = False
    return PencilReport(finite_ok, any(row[2] != z for row in c.data))


@pytest.mark.parametrize("field", GRAM_FIELDS, ids=lambda f: f.describe())
@pytest.mark.parametrize("n", range(1, 9))
def test_gram_evaluations_match_the_entrywise_oracles(field, n):
    rng = SeededRng(92).substream(f"{field.describe()}/{n}")
    on = kernel_slice(rng, field, n)
    b2 = [field.sample(rng) for _ in range(n)]
    # random points, a kernel point, and that point with b2 redrawn (only
    # the second and third equations move)
    points = [random_slice(rng, field, n), random_slice(rng, field, n), on,
              SliceData(on.half, FiberData(on.fiber.B1, on.fiber.B2, on.fiber.b1, b2))]
    for x in points:
        h, f = x.half, x.fiber
        got, want = residual(x), oracle_residual(x)
        assert (got.R1, got.R2, got.R3) == (want.R1, want.R2, want.R3)
        assert wedge(field, h.a1, f.b2) == oracle_wedge(field, h.a1, f.b2)
        gamma = build_gamma(x)
        rows = gamma.body.data
        u = Matrix(field, rows[:n] + [rows[2 * n]], 4 * n)
        v = Matrix(field, rows[n:2 * n] + [rows[2 * n + 1]], 4 * n)
        assert _skew_gram(u, v) == oracle_gram(gamma)
        assert monad_condition(gamma) == oracle_monad_condition(gamma)
        assert pencil_check(field, h.a1, h.a2, f.b1, f.b2) == oracle_pencil_check(
            field, h.a1, h.a2, f.b1, f.b2
        )
    assert monad_condition(build_gamma(on)) and residual(on).is_zero()


@pytest.mark.parametrize("field", GRAM_FIELDS, ids=lambda f: f.describe())
@pytest.mark.parametrize("n", range(1, 9))
def test_pencil_planted_common_root_matches_the_oracle(field, n):
    rng = SeededRng(94).substream(f"{field.describe()}/{n}")
    for _ in range(3):
        vecs = planted_pencil(rng, field, n)
        rep = pencil_check(field, *vecs)
        assert rep == oracle_pencil_check(field, *vecs)
        assert not rep.finite_ok


@pytest.mark.parametrize("field", [GF, QQ])
def test_each_slice_equation_is_one_product(field, monkeypatch):
    # residual: one product per equation; monad_condition: one Gram product
    x = kernel_slice(SeededRng(93), field, 4)
    gamma = build_gamma(x)
    calls = []
    matmul = Matrix.__matmul__

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    residual(x)
    assert calls == [((4, 5), (5, 4))] * 2 + [((4, 10), (10, 4))]
    calls.clear()
    monad_condition(gamma)
    assert calls == [((16, 5), (5, 16))]
    calls.clear()
    wedge(field, x.half.a1, x.fiber.b1)
    assert calls == [((4, 1), (1, 4))]

from fractions import Fraction

import pytest

from barthslice.barth import FiberData, HalfData, SliceData, residual
from barthslice import linalg
from barthslice.census import sample_half
from barthslice.errors import DomainError, ShapeError
from barthslice.fields import PrimeField, RationalField
from barthslice.linalg import Matrix, rank
from barthslice.monad import (
    GammaMatrix,
    build_gamma,
    evaluate_alpha,
    monad_condition,
    pencil_check,
    point_rank_check,
    symplectic_form,
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


def gram_blocks(gamma):
    """Block reader for gamma^T q gamma: block(i, j) is M_ij = C_i^T q C_j."""
    n = gamma.n
    g = gamma.body.T @ symplectic_form(gamma.field, n) @ gamma.body

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


@pytest.mark.parametrize("field", [GF, QQ])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pencil_planted_common_root(field, n):
    # b1 + r b2 = c (a1 + r a2): the pencil drops rank at t = r
    rng = SeededRng(91).substream(f"{field.describe()}/{n}")
    for _ in range(5):
        a1, a2, b2 = ([field.sample(rng) for _ in range(n)] for _ in range(3))
        r, c = field.sample(rng), field.sample(rng)
        b1 = [
            field.sub(field.mul(c, field.add(x, field.mul(r, y))), field.mul(r, z))
            for x, y, z in zip(a1, a2, b2)
        ]
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

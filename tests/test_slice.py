import subprocess
import sys
from fractions import Fraction

import pytest

from barthslice.barth import (
    FiberData,
    GroupElement,
    HalfData,
    SliceData,
    SliceResidual,
    apply_group,
    canonical_fiber_solutions,
    compose_group,
    fiber_from_vec,
    fiber_system,
    half_from_vec,
    jacobian,
    random_group_element,
    random_orthogonal,
    random_sl2,
    residual,
    skew_index,
    sym_index,
    vec_fiber,
    vec_half,
    vec_skew,
    wedge,
)
from barthslice.census import sample_half
from barthslice.errors import DomainError, InvariantError, SamplingError, ShapeError
from barthslice.fields import PrimeField, RationalField
from barthslice.linalg import Matrix, kernel_basis, matvec, rank
from barthslice.rng import SeededRng

GF = PrimeField()
QQ = RationalField()


def sample_fiber(rng, field, n):
    half = sample_half(rng, field, n)
    return FiberData(half.A1, half.A2, half.a1, half.a2)


def zero_fiber(field, n):
    z = Matrix.zeros(field, n, n)
    zv = tuple(field.zero() for _ in range(n))
    return FiberData(z, z, zv, zv)


def zero_slice(field, n):
    z = Matrix.zeros(field, n, n)
    zv = tuple(field.zero() for _ in range(n))
    return SliceData(HalfData(n, z, z, zv, zv), zero_fiber(field, n))


# ---------------------------------------------------------------------------
# data types


def test_half_data_requires_symmetry():
    with pytest.raises(InvariantError):
        HalfData(2, Matrix(QQ, [[0, 1], [0, 0]]), Matrix.zeros(QQ, 2, 2), (0, 0), (0, 0))


def test_half_data_rejects_char2():
    f2 = PrimeField(2, allow_small=True)
    with pytest.raises(InvariantError):
        HalfData(1, Matrix(f2, [[1]]), Matrix(f2, [[0]]), (1,), (0,))


def test_half_data_shape_checks():
    with pytest.raises(ShapeError):
        HalfData(2, Matrix.zeros(QQ, 2, 2), Matrix.zeros(QQ, 2, 2), (0, 0, 0), (0, 0))
    with pytest.raises(ShapeError):
        HalfData(3, Matrix.zeros(QQ, 2, 2), Matrix.zeros(QQ, 2, 2), (0, 0, 0), (0, 0, 0))


def test_slice_data_field_mismatch():
    h = HalfData(1, Matrix(QQ, [[1]]), Matrix(QQ, [[0]]), (0,), (0,))
    f = FiberData(Matrix(GF, [[1]]), Matrix(GF, [[0]]), (0,), (0,))
    with pytest.raises(InvariantError):
        SliceData(h, f)


def test_residual_blocks_must_be_skew():
    with pytest.raises(InvariantError):
        SliceResidual(
            Matrix(QQ, [[1, 0], [0, 0]]),
            Matrix.zeros(QQ, 2, 2),
            Matrix.zeros(QQ, 2, 2),
        )


def test_group_element_validation():
    with pytest.raises(InvariantError):
        GroupElement(Matrix(QQ, [[2]]), Matrix.identity(QQ, 2))
    with pytest.raises(InvariantError):
        GroupElement(Matrix(QQ, [[1]]), Matrix(QQ, [[2, 0], [0, 1]]))
    GroupElement(Matrix(QQ, [[-1]]), Matrix(QQ, [[2, 0], [0, Fraction(1, 2)]]))


# ---------------------------------------------------------------------------
# wedge and residual


def test_wedge_examples():
    assert wedge(QQ, (1, 2), (1, 2)).is_zero()
    assert wedge(QQ, (1, 0), (0, 1)).data == [
        [Fraction(0), Fraction(1)],
        [Fraction(-1), Fraction(0)],
    ]
    with pytest.raises(ShapeError):
        wedge(QQ, (1, 2), (1, 2, 3))


def test_wedge_antisymmetric_random():
    rng = SeededRng(10)
    for _ in range(10):
        a = [GF.sample(rng) for _ in range(4)]
        b = [GF.sample(rng) for _ in range(4)]
        assert wedge(GF, a, b) == -wedge(GF, b, a)


def test_residual_zero_slice():
    assert residual(zero_slice(QQ, 3)).is_zero()


def test_residual_identity_fiber_is_zero():
    rng = SeededRng(11)
    half = sample_half(rng, GF, 4)
    eye = Matrix.identity(GF, 4)
    z = Matrix.zeros(GF, 4, 4)
    zv = (0, 0, 0, 0)
    assert residual(SliceData(half, FiberData(eye, z, zv, zv))).is_zero()


def test_residual_oracle_n2():
    # A1=[[0,1],[1,0]], B1=[[1,0],[0,-1]], everything else zero
    a1 = Matrix(QQ, [[0, 1], [1, 0]])
    b1 = Matrix(QQ, [[1, 0], [0, -1]])
    z = Matrix.zeros(QQ, 2, 2)
    x = SliceData(
        HalfData(2, a1, z, (0, 0), (0, 0)),
        FiberData(b1, z, (0, 0), (0, 0)),
    )
    r = residual(x)
    assert r.R1.data == [[Fraction(0), Fraction(-2)], [Fraction(2), Fraction(0)]]
    assert r.R2.is_zero() and r.R3.is_zero()


def test_residual_vanishes_on_half_only_or_fiber_only():
    rng = SeededRng(12)
    half = sample_half(rng, GF, 3)
    h1 = SliceData(half, zero_fiber(GF, 3))
    assert residual(h1).is_zero()
    z = Matrix.zeros(GF, 3, 3)
    zv = (0, 0, 0)
    h2 = SliceData(HalfData(3, z, z, zv, zv), sample_fiber(rng, GF, 3))
    assert residual(h2).is_zero()


# ---------------------------------------------------------------------------
# vectorization


def test_index_orders():
    assert sym_index(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert skew_index(3) == [(0, 1), (0, 2), (1, 2)]


def test_vec_fiber_ordering_pin():
    f = FiberData(
        Matrix(QQ, [[1, 2], [2, 3]]),
        Matrix(QQ, [[4, 5], [5, 6]]),
        (7, 8),
        (9, 10),
    )
    assert vec_fiber(f) == [Fraction(k) for k in range(1, 11)]
    assert fiber_from_vec(QQ, 2, vec_fiber(f)) == f


def test_vec_half_and_slice_ordering():
    h = HalfData(
        2,
        Matrix(QQ, [[1, 2], [2, 3]]),
        Matrix(QQ, [[4, 5], [5, 6]]),
        (7, 8),
        (9, 10),
    )
    assert vec_half(h) == [Fraction(k) for k in range(1, 11)]
    assert half_from_vec(QQ, 2, vec_half(h)) == h


@pytest.mark.parametrize("n", [1, 2, 5])
def test_from_vec_coerces_each_coordinate_once(n):
    class CountingField(PrimeField):
        calls = 0

        def coerce(self, x):
            CountingField.calls += 1
            return super().coerce(x)

    field = CountingField()
    v = list(range(n * (n + 3)))
    for from_vec in (lambda: half_from_vec(field, n, v), lambda: fiber_from_vec(field, n, v)):
        CountingField.calls = 0
        from_vec()
        assert CountingField.calls == n * (n + 3)


def test_vec_skew_ordering():
    r = SliceResidual(
        Matrix(QQ, [[0, 1], [-1, 0]]),
        Matrix(QQ, [[0, 2], [-2, 0]]),
        Matrix(QQ, [[0, 3], [-3, 0]]),
    )
    assert vec_skew(r) == [Fraction(1), Fraction(2), Fraction(3)]


def test_fiber_from_vec_length_check():
    with pytest.raises(ShapeError):
        fiber_from_vec(QQ, 2, [0] * 9)


# ---------------------------------------------------------------------------
# fiber system


# hand expansion of the three equations for this half datum (single row
# pair (0,1) each); columns B1_00 B1_01 B1_11 B2_00 B2_01 B2_11 b1 b2
PINNED_HALF = ([[1, 2], [2, 3]], [[0, 1], [1, 0]], (1, 0), (0, 1))
PINNED_SYSTEM = [
    [-2, -2, 2, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, -1, 0, 1, 0, 0, -1, 0],
    [-1, 0, 1, -2, -2, 2, -1, 0, 0, 1],
]


@pytest.mark.parametrize("field", [GF, QQ])
def test_fiber_system_pinned_oracle(field):
    a1m, a2m, a1, a2 = PINNED_HALF
    half = HalfData(2, Matrix(field, a1m), Matrix(field, a2m), a1, a2)
    assert fiber_system(half) == Matrix(field, PINNED_SYSTEM)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 12])
def test_fiber_system_shape(n):
    half = sample_half(SeededRng(n), GF, n)
    assert fiber_system(half).shape == (3 * n * (n - 1) // 2, n * (n + 3))


def test_fiber_system_zero_half():
    z = Matrix.zeros(GF, 3, 3)
    half = HalfData(3, z, z, (0, 0, 0), (0, 0, 0))
    assert fiber_system(half).is_zero()


@pytest.mark.parametrize("field,n_list", [(GF, [2, 3, 4, 5, 8]), (QQ, [2, 3, 4])])
def test_fiber_system_defining_property(field, n_list):
    # dual route: the residual computed from matrices must match the
    # matrix-vector product of the assembled linear system
    rng = SeededRng(20)
    for n in n_list:
        for trial in range(100 // (n * n) + 3):
            sub = rng.substream(f"{field.describe()}/n={n}/t={trial}")
            half = sample_half(sub, field, n)
            fib = sample_fiber(sub, field, n)
            lhs = matvec(fiber_system(half), vec_fiber(fib))
            assert lhs == vec_skew(residual(SliceData(half, fib)))


def split_blocks(m, n):
    """3 x 2 blocks of a fiber-shaped system: equation rows by column
    groups (vech Y1, y1) and (vech Y2, y2)."""
    p, s = n * (n - 1) // 2, n * (n + 1) // 2
    group1 = list(range(s)) + list(range(2 * s, 2 * s + n))
    group2 = list(range(s, 2 * s)) + list(range(2 * s + n, 2 * s + 2 * n))
    blocks = []
    for k in range(3):
        rows = m.data[k * p : (k + 1) * p]
        blocks.append([[[row[c] for c in cols] for row in rows] for cols in (group1, group2)])
    return blocks


@pytest.mark.parametrize("field", [GF, QQ])
def test_fiber_system_block_form(field):
    # L = [[L1, 0], [0, L2], [L2, L1]]
    rng = SeededRng(22)
    for n in range(2, 7):
        half = sample_half(rng.substream(f"{field.describe()}/n={n}"), field, n)
        (l1, zero12), (zero21, l2), (l2_again, l1_again) = split_blocks(fiber_system(half), n)
        zero = [[field.zero()] * (n * (n + 3) // 2) for _ in range(n * (n - 1) // 2)]
        assert zero12 == zero and zero21 == zero
        assert l1 != zero and l2 != zero
        assert l2_again == l2 and l1_again == l1


def test_canonical_solutions_satisfy_system():
    for n in (1, 2, 5, 9):
        rng = SeededRng(30 + n)
        half = sample_half(rng, GF, n)
        system = fiber_system(half)
        sols = canonical_fiber_solutions(half)
        assert len(sols) == 4
        for sol in sols:
            assert residual(SliceData(half, sol)).is_zero()
            assert all(x == 0 for x in matvec(system, vec_fiber(sol)))


def test_canonical_solutions_dependent_when_A_is_identity():
    eye = Matrix.identity(QQ, 3)
    half = HalfData(3, eye, eye, (1, 0, 0), (0, 1, 0))
    sols = canonical_fiber_solutions(half)
    coords = Matrix(QQ, [vec_fiber(s) for s in sols])
    assert rank(coords) == 3  # third solution = first + second


def test_canonical_solutions_independent_generically():
    for n in (2, 4, 8):
        half = sample_half(SeededRng(40 + n), GF, n)
        coords = Matrix(GF, [vec_fiber(s) for s in canonical_fiber_solutions(half)])
        assert rank(coords) == 4


# ---------------------------------------------------------------------------
# group action


def test_apply_group_identity():
    rng = SeededRng(50)
    half = sample_half(rng, GF, 3)
    x = SliceData(half, sample_fiber(rng, GF, 3))
    e = GroupElement(Matrix.identity(GF, 3), Matrix.identity(GF, 2))
    assert apply_group(x, e) == x


def test_apply_group_sign_flip_preserves_structure():
    rng = SeededRng(51)
    half = sample_half(rng, QQ, 3)
    fib = kernel_fiber(rng, QQ, half)
    x = SliceData(half, fib)
    g = Matrix(QQ, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    e = GroupElement(g, Matrix.identity(QQ, 2))
    y = apply_group(x, e)
    assert y.half.A1.is_symmetric() and y.fiber.B2.is_symmetric()
    assert residual(y).is_zero()


def kernel_fiber(rng, field, half):
    n = half.n
    basis = kernel_basis(fiber_system(half))
    width = n * (n + 3)
    point = [field.zero()] * width
    for vec in basis:
        c = field.sample(rng)
        for k in range(width):
            point[k] = field.add(point[k], field.mul(c, vec[k]))
    return fiber_from_vec(field, n, point)


def test_group_action_preserves_solutions():
    rng = SeededRng(52)
    for trial in range(10):
        sub = rng.substream(f"t{trial}")
        half = sample_half(sub, GF, 4)
        x = SliceData(half, kernel_fiber(sub, GF, half))
        assert residual(x).is_zero()
        e = random_group_element(sub, GF, 4)
        assert residual(apply_group(x, e)).is_zero()


def test_residual_transforms_by_conjugation():
    rng = SeededRng(53)
    half = sample_half(rng, GF, 3)
    x = SliceData(half, sample_fiber(rng, GF, 3))
    e = random_group_element(rng, GF, 3)
    r = residual(x)
    ri = residual(apply_group(x, e))
    g, gt = e.g, e.g.T
    assert ri.R1 == g @ r.R1 @ gt
    assert ri.R2 == g @ r.R2 @ gt
    assert ri.R3 == g @ r.R3 @ gt


def test_compose_group_matches_sequential_action():
    rng = SeededRng(54)
    half = sample_half(rng, GF, 3)
    x = SliceData(half, sample_fiber(rng, GF, 3))
    e1 = random_group_element(rng, GF, 3)
    e2 = random_group_element(rng, GF, 3)
    assert apply_group(apply_group(x, e1), e2) == apply_group(x, compose_group(e2, e1))


def test_apply_group_size_mismatch():
    rng = SeededRng(55)
    half = sample_half(rng, GF, 3)
    x = SliceData(half, sample_fiber(rng, GF, 3))
    with pytest.raises(ShapeError):
        apply_group(x, random_group_element(rng, GF, 4))


# ---------------------------------------------------------------------------
# random group elements


def test_random_orthogonal_exact():
    rng = SeededRng(60)
    for field in (GF, QQ):
        for n in (1, 2, 5):
            g = random_orthogonal(rng, field, n)
            assert g @ g.T == Matrix.identity(field, n)


def test_random_orthogonal_n1_is_sign():
    rng = SeededRng(61)
    seen = {random_orthogonal(rng, QQ, 1).data[0][0] for _ in range(20)}
    assert seen == {Fraction(1), Fraction(-1)}


def test_random_sl2_determinant_one():
    rng = SeededRng(63)
    for field in (GF, QQ):
        for _ in range(10):
            m = random_sl2(rng, field)
            s, t = m.data[0]
            u, v = m.data[1]
            assert field.sub(field.mul(s, v), field.mul(t, u)) == field.one()


def test_random_orthogonal_gives_up_in_char_where_impossible():
    f2 = PrimeField(2, allow_small=True)
    with pytest.raises(InvariantError):
        random_orthogonal(SeededRng(0), f2, 2)


def test_cayley_of_zero_skew_is_identity():
    class StubRng:
        def integers(self, bound):
            return 0

        def permutation(self, n):
            return list(range(n))

    qq0 = RationalField(sample_window=0)
    g = random_orthogonal(StubRng(), qq0, 2)
    assert g == Matrix.identity(QQ, 2)


def test_sampling_error_after_exhausted_attempts(monkeypatch):
    import barthslice.barth as barth

    def always_singular(m):
        raise DomainError("singular")

    monkeypatch.setattr(barth, "inverse", always_singular)
    with pytest.raises(SamplingError):
        random_orthogonal(SeededRng(0), GF, 3)


@pytest.mark.parametrize("call", [
    "barthslice.barth.random_sl2(SeededRng(0), RationalField(sample_window=0))",
    "barthslice.census._sample_direction(SeededRng(0), RationalField(sample_window=0))",
    "barthslice.census._nonzero_kernel_point("
    "SeededRng(0), RationalField(sample_window=0), [[1]], 1)",
])
def test_resampling_loops_give_up(call):
    # Window 0 only ever draws zero.  The call runs in a child process so
    # that an unbounded loop fails the test by timeout instead of hanging.
    script = (
        "import barthslice.barth, barthslice.census\n"
        "from barthslice.errors import SamplingError\n"
        "from barthslice.fields import RationalField\n"
        "from barthslice.rng import SeededRng\n"
        "try:\n"
        f"    {call}\n"
        "except SamplingError:\n"
        "    print('gave up')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30
    )
    assert result.stdout == "gave up\n", result.stderr


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_shape_and_fiber_block():
    rng = SeededRng(70)
    for n in (2, 4):
        half = sample_half(rng, GF, n)
        x = SliceData(half, sample_fiber(rng, GF, n))
        j = jacobian(x)
        rows = 3 * n * (n - 1) // 2
        width = n * (n + 3)
        assert j.shape == (rows, 2 * width)
        assert j.submatrix(0, rows, width, 2 * width) == fiber_system(half)


@pytest.mark.parametrize("field", [GF, QQ])
def test_jacobian_half_block_is_negated_swapped_fiber_system(field):
    # the fiber data read as half data gives the half block, negated
    rng = SeededRng(72)
    for n in range(2, 7):
        sub = rng.substream(f"{field.describe()}/n={n}")
        half = sample_half(sub, field, n)
        fib = sample_fiber(sub, field, n)
        rows, width = 3 * n * (n - 1) // 2, n * (n + 3)
        swapped = HalfData(n, fib.B1, fib.B2, fib.b1, fib.b2)
        half_block = jacobian(SliceData(half, fib)).submatrix(0, rows, 0, width)
        assert half_block == -fiber_system(swapped)


def test_jacobian_zero_point():
    assert jacobian(zero_slice(GF, 3)).is_zero()


@pytest.mark.parametrize("field", [GF, QQ])
def test_jacobian_directional_identity(field):
    # exact quadratic expansion: residual(x+h) - residual(x) - cross(h)
    # equals the jacobian applied to vec(h)
    rng = SeededRng(71)
    for trial in range(5):
        sub = rng.substream(f"{field.describe()}/{trial}")
        n = 3
        half_x = sample_half(sub, field, n)
        fib_x = sample_fiber(sub, field, n)
        half_h = sample_half(sub, field, n)
        fib_h = sample_fiber(sub, field, n)
        x = SliceData(half_x, fib_x)
        h = SliceData(half_h, fib_h)
        xh = SliceData(
            HalfData(
                n,
                half_x.A1 + half_h.A1,
                half_x.A2 + half_h.A2,
                tuple(field.add(a, b) for a, b in zip(half_x.a1, half_h.a1)),
                tuple(field.add(a, b) for a, b in zip(half_x.a2, half_h.a2)),
            ),
            FiberData(
                fib_x.B1 + fib_h.B1,
                fib_x.B2 + fib_h.B2,
                tuple(field.add(a, b) for a, b in zip(fib_x.b1, fib_h.b1)),
                tuple(field.add(a, b) for a, b in zip(fib_x.b2, fib_h.b2)),
            ),
        )
        lhs = [
            field.sub(field.sub(a, b), c)
            for a, b, c in zip(
                vec_skew(residual(xh)),
                vec_skew(residual(x)),
                vec_skew(residual(h)),
            )
        ]
        assert lhs == matvec(jacobian(x), vec_half(h.half) + vec_fiber(h.fiber))

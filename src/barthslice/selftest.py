"""Built-in invariant suite.

Runs exact consistency checks across the whole stack at n in {2, 4, 8}:
field axioms, rank-nullity, the coordinate conventions of the fiber system
(pinned against a hand-expanded 2 x 2 instance), bilinearity of the
residual, the monad condition / residual-zero equivalence, membership of
the canonical solutions in every fiber, and the group action axioms.  All
randomness is drawn from labeled substreams of one seed, so a selftest run
is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .barth import (
    FiberData,
    HalfData,
    SliceData,
    apply_group,
    canonical_fiber_solutions,
    compose_group,
    fiber_from_vec,
    fiber_system,
    half_from_vec,
    random_group_element,
    residual,
    vec_fiber,
    vec_half,
    vec_skew,
)
from .census import _nonzero_kernel_point, sample_half
from .fields import Field, PrimeField, RationalField
from .linalg import Matrix, kernel_basis, matvec, rank
from .monad import build_gamma, monad_condition
from .rng import SeededRng

SELFTEST_SIZES = (2, 4, 8)

# Fiber system of the half datum A1=[[1,2],[2,3]], A2=[[0,1],[1,0]],
# a1=(1,0), a2=(0,1), expanded by hand from the three equations at the
# single index pair (0,1).  Columns: B1_00 B1_01 B1_11 B2_00 B2_01 B2_11
# b1_0 b1_1 b2_0 b2_1.
_PINNED_HALF = ([[1, 2], [2, 3]], [[0, 1], [1, 0]], (1, 0), (0, 1))
_PINNED_SYSTEM = [
    [-2, -2, 2, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, -1, 0, 1, 0, 0, -1, 0],
    [-1, 0, 1, -2, -2, 2, -1, 0, 0, 1],
]


@dataclass(frozen=True)
class SelftestResult:
    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _sample_fiber(rng: SeededRng, field: Field, n: int) -> FiberData:
    # a fiber datum has the shape of a half datum, drawn in the same order
    h = sample_half(rng, field, n)
    return FiberData(h.A1, h.A2, h.a1, h.a2)


def _check_field_axioms(field: Field, rng: SeededRng, count: int) -> bool:
    one = field.one()
    for _ in range(count):
        a = field.sample(rng)
        b = field.sample(rng)
        c = field.sample(rng)
        if field.add(field.add(a, b), c) != field.add(a, field.add(b, c)):
            return False
        if field.mul(a, field.add(b, c)) != field.add(field.mul(a, b), field.mul(a, c)):
            return False
        if a != field.zero() and field.mul(a, field.inv(a)) != one:
            return False
    return True


def _check_rank_nullity(field: Field, rng: SeededRng, rows: int, cols: int,
                        count: int) -> bool:
    for _ in range(count):
        m = Matrix(field, [[field.sample(rng) for _ in range(cols)] for _ in range(rows)])
        basis = kernel_basis(m)
        if rank(m) + len(basis) != cols:
            return False
        z = field.zero()
        for vec in basis:
            if any(e != z for e in matvec(m, vec)):
                return False
    return True


def _check_fiber_conventions(prime_field: Field, rng: SeededRng) -> bool:
    # ordering pin: vech(B1), vech(B2), b1, b2 row-major
    qq = RationalField()
    f = FiberData(
        Matrix(qq, [[1, 2], [2, 3]]),
        Matrix(qq, [[4, 5], [5, 6]]),
        (7, 8),
        (9, 10),
    )
    if vec_fiber(f) != [Fraction(k) for k in range(1, 11)]:
        return False
    if fiber_from_vec(qq, 2, vec_fiber(f)) != f:
        return False

    # frozen hand-expanded system, checked over both coefficient fields
    a1m, a2m, a1, a2 = _PINNED_HALF
    for field in (qq, prime_field):
        half = HalfData(2, Matrix(field, a1m), Matrix(field, a2m), a1, a2)
        if fiber_system(half) != Matrix(field, _PINNED_SYSTEM):
            return False

    # defining property: the system reproduces the residual on random data
    for n in SELFTEST_SIZES:
        sub = rng.substream(f"conventions/n={n}")
        half = sample_half(sub, prime_field, n)
        fib = _sample_fiber(sub, prime_field, n)
        lhs = matvec(fiber_system(half), vec_fiber(fib))
        if lhs != vec_skew(residual(SliceData(half, fib))):
            return False
    return True


def _check_bilinearity(field: Field, rng: SeededRng, n: int, count: int) -> bool:
    # on coordinates: each residual block is skew, so vec_skew determines it
    add, mul = field.add, field.mul

    def res(h: list, f: list) -> list:
        x = SliceData(half_from_vec(field, n, h), fiber_from_vec(field, n, f))
        return vec_skew(residual(x))

    for trial in range(count):
        sub = rng.substream(f"bilinear/n={n}/trial={trial}")
        h = vec_half(sample_half(sub, field, n))
        f1 = vec_fiber(_sample_fiber(sub, field, n))
        f2 = vec_fiber(_sample_fiber(sub, field, n))
        c = field.sample(sub)
        r1 = res(h, f1)
        r_sum = [add(p, q) for p, q in zip(r1, res(h, f2))]
        if res(h, [add(p, q) for p, q in zip(f1, f2)]) != r_sum:
            return False
        r_scaled = [mul(c, p) for p in r1]
        if res(h, [mul(c, p) for p in f1]) != r_scaled:
            return False
        if res([mul(c, p) for p in h], f1) != r_scaled:
            return False
    return True


def _kernel_point(rng: SeededRng, field: Field, half: HalfData) -> FiberData:
    """Random point of the fiber over `half`: a nonzero random combination of
    its kernel basis, possibly in the span of the canonical solutions."""
    n = half.n
    basis = kernel_basis(fiber_system(half))
    return fiber_from_vec(field, n, _nonzero_kernel_point(rng, field, basis, n * (n + 3)))


def _check_monad_equivalence(field: Field, rng: SeededRng, n: int,
                             kernel_count: int, random_count: int) -> bool:
    for trial in range(kernel_count):
        sub = rng.substream(f"monad/kernel/n={n}/trial={trial}")
        half = sample_half(sub, field, n)
        x = SliceData(half, _kernel_point(sub, field, half))
        zero = residual(x).is_zero()
        if not zero:
            return False
        if monad_condition(build_gamma(x)) != zero:
            return False
    for trial in range(random_count):
        sub = rng.substream(f"monad/random/n={n}/trial={trial}")
        half = sample_half(sub, field, n)
        x = SliceData(half, _sample_fiber(sub, field, n))
        if monad_condition(build_gamma(x)) != residual(x).is_zero():
            return False
    return True


def _check_canonical_membership(field: Field, rng: SeededRng, n: int,
                                count: int) -> bool:
    z = field.zero()
    for trial in range(count):
        sub = rng.substream(f"canonical/n={n}/trial={trial}")
        half = sample_half(sub, field, n)
        system = fiber_system(half)
        for sol in canonical_fiber_solutions(half):
            if any(e != z for e in matvec(system, vec_fiber(sol))):
                return False
    return True


def _check_group_action(field: Field, rng: SeededRng, n: int, count: int) -> bool:
    eye = Matrix.identity(field, n)
    one = field.one()
    for trial in range(count):
        sub = rng.substream(f"group/n={n}/trial={trial}")
        half = sample_half(sub, field, n)
        x = SliceData(half, _sample_fiber(sub, field, n))
        e1 = random_group_element(sub, field, n)
        e2 = random_group_element(sub, field, n)
        if e1.g @ e1.g.T != eye:
            return False
        s, t = e1.m.data[0]
        u, v = e1.m.data[1]
        if field.sub(field.mul(s, v), field.mul(t, u)) != one:
            return False
        # residual transforms by conjugation with the orthogonal factor
        r = residual(x)
        ri = residual(apply_group(x, e1))
        g, gt = e1.g, e1.g.T
        if ri.R1 != g @ r.R1 @ gt or ri.R2 != g @ r.R2 @ gt or ri.R3 != g @ r.R3 @ gt:
            return False
        # acting twice equals acting by the composite
        if apply_group(apply_group(x, e1), e2) != apply_group(x, compose_group(e2, e1)):
            return False
        # solutions map to solutions
        y = SliceData(half, _kernel_point(sub, field, half))
        if not residual(apply_group(y, e1)).is_zero():
            return False
    return True


def run_selftest(seed: int = 0) -> list[SelftestResult]:
    """Run every invariant check; returns one result per check."""
    rng = SeededRng(seed)
    gf = PrimeField()
    qq = RationalField(sample_window=10)
    results = []

    def record(name: str, passed: bool, detail: str):
        results.append(SelftestResult(name, passed, detail))

    record(
        "field-axioms-prime",
        _check_field_axioms(gf, rng.substream("fields/prime"), 10_000),
        f"10000 random triples over {gf.describe()}",
    )
    record(
        "field-axioms-rational",
        _check_field_axioms(qq, rng.substream("fields/rational"), 10_000),
        f"10000 random triples over {qq.describe()}",
    )
    record(
        "rank-nullity-prime",
        _check_rank_nullity(gf, rng.substream("linalg/prime"), 8, 12, 25),
        "25 random 8x12 matrices",
    )
    record(
        "rank-nullity-rational",
        _check_rank_nullity(qq, rng.substream("linalg/rational"), 5, 8, 5),
        "5 random 5x8 matrices",
    )
    record(
        "fiber-system-conventions",
        _check_fiber_conventions(gf, rng.substream("conventions")),
        "pinned 2x2 expansion and defining property",
    )
    bilinear_ok = all(
        _check_bilinearity(gf, rng.substream("bilinear"), n, 5) for n in SELFTEST_SIZES
    ) and _check_bilinearity(qq, rng.substream("bilinear/qq"), 2, 3)
    record("residual-bilinearity", bilinear_ok, f"n in {SELFTEST_SIZES} and rational n=2")
    monad_ok = all(
        _check_monad_equivalence(gf, rng.substream("monad"), n, 10, 10)
        for n in SELFTEST_SIZES
    )
    record("monad-residual-equivalence", monad_ok, f"10+10 points per n in {SELFTEST_SIZES}")
    canonical_ok = all(
        _check_canonical_membership(gf, rng.substream("canonical"), n, 5)
        for n in SELFTEST_SIZES
    ) and _check_canonical_membership(qq, rng.substream("canonical/qq"), 2, 2)
    record("canonical-kernel-membership", canonical_ok, f"n in {SELFTEST_SIZES} and rational n=2")
    group_ok = all(
        _check_group_action(gf, rng.substream("group"), n, 5) for n in SELFTEST_SIZES
    ) and _check_group_action(qq, rng.substream("group/qq"), 2, 2)
    record("group-action-axioms", group_ok, f"n in {SELFTEST_SIZES} and rational n=2")
    return results

"""Differential tests: the two eliminations and their numpy dtypes must agree.

* ``_rref_mod`` on int64 and on Python ints (``dtype=object``, the generic
  path every prime past 2^31 takes) gives the same reduced echelon form and
  pivots over GF(2^31 - 1); the object run is exact, so it catches int64
  overflow;
* ranks agree between GF(2^31 - 1), GF(2^61 - 1) and QQ;
* the fraction-free QQ reduced echelon form and kernel basis, reduced mod p,
  equal the GF(p) ones for p = 2^31 - 1 (int64) and p = 2^61 - 1 (object),
  which needs the ranks to agree, as asserted above.

Inputs are small-entry integer matrices: random ones, rank-deficient
products of random r x k and k x c factors, and fiber systems for n = 4..7.
"""

from fractions import Fraction

import numpy as np
import pytest

from barthslice.barth import fiber_system
from barthslice.census import sample_half
from barthslice.fields import PrimeField, RationalField
from barthslice.linalg import Matrix, _rref_mod, _to_np, kernel_basis, rank, rref
from barthslice.rng import SeededRng

P31 = 2**31 - 1
P61 = 2**61 - 1
GF31 = PrimeField(P31)
GF61 = PrimeField(P61)
QQ = RationalField(sample_window=3)


def _mod(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


def _over(field, m: Matrix) -> Matrix:
    """The integer matrix `m` (over QQ) read over `field`."""
    return Matrix(field, [[int(x) for x in row] for row in m.data], m.cols)


def _random(rng, rows, cols) -> Matrix:
    return Matrix(QQ, [[QQ.sample(rng) for _ in range(cols)] for _ in range(rows)], cols)


def _low_rank(rng, rows, cols, k) -> Matrix:
    return _random(rng, rows, k) @ _random(rng, k, cols)


_RNG = SeededRng(2024)
RANDOM = {
    f"random-{r}x{c}": _random(_RNG.substream(f"random/{r}x{c}"), r, c)
    for r, c in [(1, 1), (3, 7), (7, 3), (6, 6), (9, 12), (12, 9)]
}
# label -> (matrix, rank of the product)
LOW_RANK = {
    f"rank{k}-{r}x{c}": (_low_rank(_RNG.substream(f"product/{r}x{c}/{k}"), r, c, k), k)
    for r, c, k in [(5, 5, 1), (6, 8, 3), (10, 7, 4), (12, 12, 6), (4, 9, 0)]
}
FIBER = {
    f"fiber-n{n}": fiber_system(sample_half(_RNG.substream(f"fiber/{n}"), QQ, n))
    for n in (4, 5, 6, 7)
}
CASES = [*RANDOM.items(), *((label, m) for label, (m, _) in LOW_RANK.items()), *FIBER.items()]


@pytest.mark.parametrize("label, m", CASES, ids=[label for label, _ in CASES])
def test_int64_and_generic_rref_agree(label, m):
    gf = _over(GF31, m)
    fast = _to_np(gf)
    assert fast.dtype == np.int64
    arr, pivots_fast = _rref_mod(fast, P31)
    exact, pivots_exact = _rref_mod(np.array(gf.data, dtype=object).reshape(gf.shape), P31)
    assert exact.dtype == object
    assert pivots_fast == pivots_exact
    assert arr.tolist() == exact.tolist()


@pytest.mark.parametrize("label, m", CASES, ids=[label for label, _ in CASES])
def test_ranks_agree_across_fields(label, m):
    r31 = rank(_over(GF31, m))
    assert rank(_over(GF61, m)) == r31
    assert rank(m) == r31 == len(rref(m)[1])


@pytest.mark.parametrize("label, m", CASES, ids=[label for label, _ in CASES])
def test_rational_results_reduce_to_modular_ones(label, m):
    red_qq, pivots_qq = rref(m)
    kernel = kernel_basis(m)
    for field in (GF31, GF61):
        gf, p = _over(field, m), field.p
        red_gf, pivots_gf = rref(gf)
        assert pivots_qq == pivots_gf
        assert [[_mod(x, p) for x in row] for row in red_qq.data] == red_gf.data
        assert [[_mod(x, p) for x in vec] for vec in kernel] == kernel_basis(gf)


def test_low_rank_products_have_the_inner_rank():
    # the rank-deficient cases really are deficient, so columns get skipped
    for label, (m, k) in LOW_RANK.items():
        assert rank(m) == k, label

"""Differential tests: the one elimination, its numpy dtypes and its QQ
reconstruction must agree with independent code paths.

* ``_rref_mod`` on int64 and on Python ints (``dtype=object``, the generic
  path every prime past 2^31 takes) gives the same reduced echelon form and
  pivots over GF(2^31 - 1) as the unblocked rank-1 loop kept here as an
  oracle; the object run is exact, so it catches int64 overflow, and the
  oracle catches a blocked update that goes wrong on both dtypes;
* the QQ reduced echelon form, lifted p-adically from one ``_rref_mod``
  image and read back by rational reconstruction, equals the fraction-free
  elimination kept here as an oracle, which shares no code with
  ``_rref_mod``; that includes inputs whose first one, two or three primes
  are unlucky, rank-deficient tall and wide inputs lifted over many digits,
  entries past 2^31 (the Python-int residual), a zero image of a nonzero
  matrix, the zero matrix and an RREF of over 400 bits, and a
  reconstruction that never certifies ends in InvariantError;
* ranks agree between GF(2^31 - 1), GF(2^61 - 1) and QQ, and
  ``_exact_rank`` of each field's ``_integers`` image equals the oracles'
  ranks, the unlucky cases mod p included; ``_integers`` is int64 below
  2^31 and Python ints past it and over QQ;
* the QQ reduced echelon form and kernel basis, reduced mod p, equal the
  GF(p) ones for p = 2^31 - 1 (int64) and p = 2^61 - 1 (object), which
  needs the ranks to agree, as asserted above;
* the float64-limb ``_matmul_mod`` is exact at the worst-case entries, and
  the blocked elimination runs exactly where it should: on wide systems,
  not on the small census and witness ones.

Inputs are small-entry integer matrices: random ones, rank-deficient
products of random r x k and k x c factors, fiber systems for n = 4..7,
and matrices with more than two panels' worth of rows and columns
(``WIDE``), which take the blocked path.
"""

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from barthslice import linalg
from barthslice.barth import SliceData, fiber_from_vec, fiber_system, jacobian
from barthslice.census import sample_half, witness_certificate
from barthslice.errors import InvariantError
from barthslice.fields import DEFAULT_PRIME, PrimeField, RationalField, is_prime
from barthslice.linalg import (Matrix, _PANEL, _exact_rank, _free_kernel, _from_np, _integers, _matmul_mod,
                               _residues, _rref_array, _rref_mod, kernel_basis, rank, rref)
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


def _random(rng, rows, cols, window=3) -> Matrix:
    field = RationalField(sample_window=window)
    return Matrix(QQ, [[field.sample(rng) for _ in range(cols)] for _ in range(rows)], cols)


def _low_rank(rng, rows, cols, k, window=3) -> Matrix:
    return _random(rng, rows, k, window) @ _random(rng, k, cols, window)


def _zero_panel(rng, rows, cols, k) -> Matrix:
    """Rank-k product with the first column panel all zero."""
    m = _low_rank(rng, rows, cols, k)
    return Matrix(QQ, [[0] * _PANEL + row[_PANEL:] for row in m.data], cols)


def _oracle_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The unblocked elimination: one rank-1 update per pivot column."""
    a = a % p
    m, n = a.shape
    pivots, r = [], 0
    for c in range(n):
        nz = np.nonzero(a[r:, c])[0]
        if r == m or nz.size == 0:
            continue
        pr = r + int(nz[0])
        a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _oracle_rref_qq(m: Matrix) -> tuple[list[list], list[int]]:
    """Fraction-free elimination over QQ: integer rows, cross-multiplied and
    divided by their content after each update."""
    a = []
    for row in m.data:
        lcm = math.lcm(*(x.denominator for x in row))
        a.append([int(x * lcm) for x in row])
    pivots, r = [], 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        for i in range(m.rows):
            f = a[i][c]
            if i != r and f:
                new = [pv * x - f * y for x, y in zip(a[i], a[r])]
                g = math.gcd(*new) or 1
                a[i] = [v // g for v in new]
        pivots.append(c)
        r += 1
    data = [[Fraction(x, row[c]) for x in row] for row, c in zip(a, pivots)]
    return data + [[Fraction(0)] * m.cols for _ in range(m.rows - r)], pivots


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
# more than 2 * _PANEL rows and columns: the blocked elimination
WIDE = {
    **{
        f"fiber-n{n}": fiber_system(sample_half(_RNG.substream(f"fiber/{n}"), QQ, n))
        for n in (10, 12, 16)
    },
    "zero-panel-130x200": _zero_panel(_RNG.substream("zero-panel/130x200"), 130, 200, 20),
    "tall-400x150": _random(_RNG.substream("random/400x150"), 400, 150),
}
LOW_RANK["rank20-140x136"] = (_low_rank(_RNG.substream("product/140x136/20"), 140, 136, 20), 20)
CASES = [
    *RANDOM.items(),
    *((label, m) for label, (m, _) in LOW_RANK.items()),
    *FIBER.items(),
    *WIDE.items(),
]
# The fraction-free oracle takes seconds on the wide fiber systems (34 s at
# n = 16); the other differential tests still cover them over QQ.
ORACLE_SLOW = {"fiber-n10", "fiber-n12", "fiber-n16", "tall-400x150"}
# the first primes of the QQ elimination's sequence, which the test below checks
PRIMES = list(islice(filter(is_prime, range(DEFAULT_PRIME, 1, -2)), 4))
P1, P2, P3 = PRIMES[:3]
# label -> (matrix, how many primes of the sequence are unlucky for it):
# a pivot or a minor divisible by the first one, two and three primes
UNLUCKY = {
    "pivot-p1": (Matrix(QQ, [[P1, 1]]), 1),
    "late-pivot-p1": (Matrix(QQ, [[1, 1, 0], [0, P1, 1]]), 1),
    "entry-p1p2": (Matrix(QQ, [[P1 * P2, 3], [1, 1]]), 0),
    "pivot-p1p2": (Matrix(QQ, [[2, 1, 1], [0, P1 * P2, 3]]), 2),
    "minor-p1p2": (Matrix(QQ, [[1, 1], [1, 1 + P1 * P2]]), 2),
    "pivot-p1p2p3": (Matrix(QQ, [[P1 * P2 * P3, 1]]), 3),
    "minor-p1p2p3": (Matrix(QQ, [[1, 1, 1], [1, 1 + P1 * P2 * P3, 2]]), 3),
}
# an RREF hundreds of bits tall: more than 16 lifting steps
TALL = fiber_system(sample_half(SeededRng(1).substream("fiber/7"), RationalField(sample_window=100), 7))
# the lifting past its first digit: products of rank 3 with entries up to
# 10^6, a tall one and a wide one, whose RREFs are ratios of 3 x 3 minors
# near 2^120; and entries past 2^31, where r max|A| p passes 2^63 and the
# residual runs on Python ints
LIFTED = {
    "rank3-9x6-lifted": _low_rank(_RNG.substream("lifted/9x6"), 9, 6, 3, 10**6),
    "rank3-5x12-lifted": _low_rank(_RNG.substream("lifted/5x12"), 5, 12, 3, 10**6),
    "random-6x8-past-2^31": _random(_RNG.substream("lifted/6x8"), 6, 8, 2**40),
}
# a zero image: every entry a multiple of the first prime; a minor L[S, P]
# singular mod the first prime only; the zero matrix
EDGES = {
    "multiple-of-p1": Matrix(QQ, [[P1 * x for x in row] for row in RANDOM["random-3x7"].data]),
    "minor-p1": Matrix(QQ, [[1, 1, 2], [1, 1 + P1, 3], [2, 2 + P1, 5]]),
    "zero-3x4": Matrix(QQ, [[0] * 4] * 3),
}
ORACLE_CASES = [
    *((label, m) for label, m in CASES if label not in ORACLE_SLOW),
    *((label, m) for label, (m, _) in UNLUCKY.items()),
    *LIFTED.items(),
    *EDGES.items(),
    ("tall-n7-window100", TALL),
]


# label -> RREF array and pivots over GF(2^61 - 1), which two tests read:
# the Python-int elimination takes seconds on the wide cases
_RREF61 = {}


def _rref61(label: str, m: Matrix) -> tuple[np.ndarray, list[int]]:
    if label not in _RREF61:
        _RREF61[label] = _rref_array(_over(GF61, m))
    return _RREF61[label]


def _count_primes(monkeypatch) -> list:
    """The primes the QQ elimination draws, recorded as it draws them."""
    drawn = []
    primes = linalg._primes

    def counted():
        for p in primes():
            drawn.append(p)
            yield p

    monkeypatch.setattr(linalg, "_primes", counted)
    return drawn


def _count_moduli(monkeypatch) -> list:
    """The moduli p^k of every rational reconstruction."""
    moduli = []
    reconstruct = linalg._reconstruct

    def counted(block, modulus):
        moduli.append(modulus)
        return reconstruct(block, modulus)

    monkeypatch.setattr(linalg, "_reconstruct", counted)
    return moduli


@pytest.mark.parametrize("label, m", CASES, ids=[label for label, _ in CASES])
def test_int64_and_generic_rref_agree(label, m):
    gf = _over(GF31, m)
    fast = _integers(gf)
    assert fast.dtype == np.int64
    arr, pivots_fast = _rref_mod(fast, P31)
    exact, pivots_exact = _rref_mod(np.array(gf.data, dtype=object).reshape(gf.shape), P31)
    assert exact.dtype == object
    assert pivots_fast == pivots_exact
    assert arr.tolist() == exact.tolist()
    oracle, pivots_oracle = _oracle_rref(fast, P31)
    assert pivots_fast == pivots_oracle
    assert arr.tolist() == oracle.tolist()


@pytest.mark.parametrize("label, m", CASES, ids=[label for label, _ in CASES])
def test_ranks_agree_across_fields(label, m):
    r31 = rank(_over(GF31, m))
    assert len(_rref61(label, m)[1]) == r31  # rank over GF(p) is the pivot count
    assert rank(m) == r31 == len(rref(m)[1])


@pytest.mark.parametrize("label, m", ORACLE_CASES, ids=[label for label, _ in ORACLE_CASES])
def test_rational_rref_matches_fraction_free_oracle(label, m):
    red, pivots = rref(m)
    data, pivots_oracle = _oracle_rref_qq(m)
    assert pivots == pivots_oracle
    assert red.data == data


@pytest.mark.parametrize("field", [GF31, GF61, QQ], ids=["GF31", "GF61", "QQ"])
@pytest.mark.parametrize("label, m", ORACLE_CASES, ids=[label for label, _ in ORACLE_CASES])
def test_exact_rank_matches_the_oracles(label, m, field):
    # full rank and rank-deficient: the rank of the integer image over each
    # field; mod p the unlucky and edge cases drop rank, and the unblocked
    # oracle sees it, while every other case has its QQ rank mod p
    expected = len(_oracle_rref_qq(m)[1])
    if field is not QQ:
        m = _over(field, m)
        oracle = len(_oracle_rref(np.array(m.data, dtype=object).reshape(m.shape), field.p)[1])
        assert oracle == expected or label not in dict(CASES)
        expected = oracle
    assert _exact_rank(field, _integers(m)) == expected


def test_integers_are_int64_below_2_31_and_python_ints_past_it_and_over_qq():
    m = Matrix(QQ, [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(2), Fraction(-3, 4)], [0, 0]])
    assert _integers(m).dtype == object
    assert _integers(m).tolist() == [[3, -2], [8, -3], [0, 0]]
    data = [[int(x) for x in row] for row in RANDOM["random-3x7"].data]
    for field, dtype in ((GF31, np.int64), (PrimeField(2**31 + 11), object), (GF61, object)):
        image = _integers(Matrix(field, data, 7))
        assert image.dtype == dtype and image.shape == (3, 7)
        assert image.tolist() == [[x % field.p for x in row] for row in data]
        if dtype is object:
            assert all(type(x) is int for row in image.tolist() for x in row)
    assert _integers(Matrix(GF31, [], 4)).shape == (0, 4)


@pytest.mark.parametrize("label", UNLUCKY)
def test_unlucky_primes_are_dropped(label, monkeypatch):
    m, unlucky = UNLUCKY[label]
    drawn = _count_primes(monkeypatch)
    red, pivots = rref(m)
    # the first `unlucky` primes have other pivots, and the lifting moved on
    assert drawn == PRIMES[:unlucky + 1]
    ints = _integers(m)
    assert [_rref_mod(_residues(ints, p), p)[1] != pivots for p in drawn] == [True] * unlucky + [False]
    assert (red.data, pivots) == _oracle_rref_qq(m)
    assert rank(m) == len(pivots)


def test_tall_rref_needs_more_than_16_primes(monkeypatch):
    # more than 16 lifting steps of one prime: the p-adic digits take the
    # place of the CRT's primes
    drawn, moduli = _count_primes(monkeypatch), _count_moduli(monkeypatch)
    red = rref(TALL)[0]
    assert drawn == [P1]
    assert moduli[-1] > P1**16
    assert max(abs(x.numerator).bit_length() for row in red.data for x in row) >= 400


def test_uncertified_reconstruction_raises_instead_of_looping(monkeypatch):
    drawn = _count_primes(monkeypatch)
    monkeypatch.setattr(linalg, "_certified", lambda *args: False)
    for m, _ in UNLUCKY.values():
        drawn.clear()
        with pytest.raises(InvariantError):
            rref(m)
        # every Hadamard bound H here is below 2^95, and the primes are past
        # 2^30: the primes tried multiply past H within four
        assert 0 < len(drawn) <= 4


@pytest.mark.parametrize("label", [*LIFTED, "minor-p1", "multiple-of-p1"])
def test_lifting_runs_past_the_first_digit_or_prime(label, monkeypatch):
    m = {**LIFTED, **EDGES}[label]
    drawn, moduli = _count_primes(monkeypatch), _count_moduli(monkeypatch)
    red, pivots = rref(m)
    assert (red.data, pivots) == _oracle_rref_qq(m)
    if label in LIFTED:  # one prime, reconstructed after 1, 2, 4, ... digits
        assert drawn == [P1] and moduli[:2] == [P1, P1**2]
    else:  # the first prime's image has other pivots; the second certifies
        assert drawn == [P1, P2]
    if label == "random-6x8-past-2^31":
        big = max(math.isqrt(sum(v * v for v in row)) + 1 for row in _integers(m).tolist())
        assert len(pivots) * big * P1 >= 2**63


def _rref_mod_calls(monkeypatch) -> list:
    """The shape and prime of every `_rref_mod` call, in order."""
    calls = []
    rref_mod = linalg._rref_mod

    def counted(a, p):
        calls.append((a.shape, p))
        return rref_mod(a, p)

    monkeypatch.setattr(linalg, "_rref_mod", counted)
    return calls


def test_qq_rank_makes_one_image_of_a_rank_deficient_matrix(monkeypatch):
    # the full-rank exit's image mod the first prime is the QQ elimination's
    # first image, not made again
    calls = _rref_mod_calls(monkeypatch)
    assert rank(_low_rank(_RNG.substream("product/6x9/3"), 6, 9, 3)) == 3
    assert calls == [((6, 9), P1)]


def test_rational_witness_past_the_full_rank_exit(monkeypatch):
    # at n = 10 the 135 x 260 Jacobian is not full rank, so its QQ rank goes
    # through rref, lifted from the one image of the full-rank exit
    calls = _rref_mod_calls(monkeypatch)
    with pytest.warns(UserWarning):
        report = witness_certificate(10, SeededRng(1), RationalField(sample_window=5)).witness
    assert report.fiber_dim == 4
    assert report.jacobian_rank == 126
    assert not report.jacobian_full
    assert calls.count(((135, 260), P1)) == 1


@pytest.mark.parametrize("label, m", CASES, ids=[label for label, _ in CASES])
def test_rational_results_reduce_to_modular_ones(label, m):
    red_qq, pivots_qq = rref(m)
    kernel = kernel_basis(m)
    gf = _over(GF31, m)
    arr, pivots = _rref61(label, m)
    # over GF(2^61 - 1), rref and kernel_basis as read off the shared elimination
    modular = [(P31, *rref(gf), kernel_basis(gf)),
               (P61, _from_np(GF61, arr), pivots, (_free_kernel(arr, pivots) % P61).T.tolist())]
    for p, red_gf, pivots_gf, kernel_gf in modular:
        assert pivots_qq == pivots_gf
        assert [[_mod(x, p) for x in row] for row in red_qq.data] == red_gf.data
        assert [[_mod(x, p) for x in vec] for vec in kernel] == kernel_gf


def test_low_rank_products_have_the_inner_rank():
    # the rank-deficient cases really are deficient, so columns get skipped
    for label, (m, k) in LOW_RANK.items():
        assert rank(m) == k, label


def test_wide_cases_are_blocked_and_exercise_the_panel_edges():
    # past two panels both ways, rank falling inside a panel, an empty panel
    wide = [*WIDE.values(), LOW_RANK["rank20-140x136"][0]]
    assert all(min(m.shape) > 2 * _PANEL for m in wide)
    pivots = _rref_mod(_integers(_over(GF31, WIDE["zero-panel-130x200"])), P31)[1]
    assert pivots == list(range(_PANEL, _PANEL + 20))


@pytest.mark.parametrize("p", [P31, 2**31 - 19])
@pytest.mark.parametrize("inner", [1, 64, 4096])
def test_limb_matmul_is_exact(p, inner):
    rng = np.random.default_rng(inner)
    worst = (np.full((3, inner), p - 1), np.full((inner, 4), p - 1))
    drawn = (rng.integers(0, p, size=(5, inner)), rng.integers(0, p, size=(inner, 6)))
    for x, y in (worst, drawn):
        exact = (x.astype(object) @ y.astype(object)) % p
        assert _matmul_mod(x, y, p).tolist() == exact.tolist()


def test_matmul_agrees_with_its_python_int_path(monkeypatch):
    # an inner-dim limit of 0 sends every int64 `_matmul_mod` product
    # through Python ints, where GF(2^61 - 1) runs anyway
    for gf in (GF31, GF61):
        rng = SeededRng(11)
        a = Matrix(gf, [[gf.p - 1] * 70] + [[gf.sample(rng) for _ in range(70)] for _ in range(5)])
        b = Matrix(gf, [[gf.p - 1] * 4 if i % 7 else [gf.sample(rng) for _ in range(4)]
                        for i in range(70)])
        fast = a @ b
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_FAST_INNER_LIMIT", 0)
            assert fast == a @ b
    # the (trials, 2, n, n) stacks of the Krylov kernels, worst entries first
    x, y = np.random.default_rng(11).integers(0, P31, size=(2, 3, 2, 7, 7))
    x[0] = y[0] = P31 - 1
    fast = _matmul_mod(x, y, P31)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_FAST_INNER_LIMIT", 0)
        slow = _matmul_mod(x, y, P31)
    assert fast.dtype == slow.dtype == np.int64 and fast.shape == (3, 2, 7, 7)
    assert np.array_equal(fast, slow)
    assert slow.tolist() == ((x.astype(object) @ y.astype(object)) % P31).tolist()


def test_blocked_elimination_runs_on_wide_systems_only(monkeypatch):
    calls = []

    def counted(x, y, p):
        calls.append(x.shape)
        return _matmul_mod(x, y, p)

    monkeypatch.setattr(linalg, "_matmul_mod", counted)
    gf = PrimeField(DEFAULT_PRIME)
    rng = SeededRng(3)
    # every census-gate charge, and the witness fiber system and Jacobian
    # (63 x 140, wide but with at most 63 pivots) at n = 7
    for n in (4, 5, 6, 7, 8):
        kernel_basis(fiber_system(sample_half(rng.substream(f"census/n={n}"), gf, n)))
    half = sample_half(rng.substream("witness/n=7/half"), gf, 7)
    basis = kernel_basis(fiber_system(half))
    assert rank(jacobian(SliceData(half, fiber_from_vec(gf, 7, basis[0])))) == 63
    assert calls == []
    kernel_basis(fiber_system(sample_half(rng.substream("family/n=24"), gf, 24)))
    assert calls

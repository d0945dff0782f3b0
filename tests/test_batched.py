"""The census engine on arrays, against code paths that share none of it.

* assembly: by bilinearity, column j of `fiber_system(half)` is
  vec_skew(residual(half, e_j)), and column j of the Jacobian's half block
  is vec_skew(residual(e_j, fiber)); neither reads the index arrays, and
  the entries come back as Python ints or Fractions.  The stacked assembly
  (`_fiber_blocks`, then `_fiber_stack`) gives each trial its own
  `fiber_system`, on int64, Python-int and Fraction stacks;
* batched ranks: `_census_ranks` equals `rank(fiber_system(half))` trial by
  trial over GF(2^31 - 1) (int64 stacks), GF(2^61 - 1) (Python-int stacks)
  and QQ, on stacks that mix generic halves with planted deficient ones in
  one chunk, and across chunk boundaries;
* block ranks: `_census_ranks` ranks L by M = [L2 K1 | L1 K2] where both
  blocks are cyclic and whole otherwise, and equals
  `rank(fiber_system(half))` on halves planted so that either block, both
  or neither vanish;
* Krylov brackets: the 2n Krylov vectors of a block, built here from the
  recursion, lie in its kernel in integers; `_krylov_brackets`' M equals
  the dense blocks times them mod p and, over QQ, in integers; they are
  independent when the mask says a_i is cyclic; and ranks equal
  `rank(fiber_system(half))` on planted derogatory and non-cyclic halves
  and over small primes, where both kinds of trial run;
* over QQ, a trial whose rank mod p and canonical solutions add up to the
  width is settled without an `_exact_rank` call;
* the family verdict (dim 4 and the four canonical solutions independent)
  equals the kernel-span comparison it replaced, kept here as the oracle;
* no stack the census builds or eliminates holds more than
  `_STACK_ENTRIES` entries, and a family trial at n = 64 traces under
  32 MiB;
* witness point ranks: the batched mod-p ranks of every alpha(v) give the
  same `point_ranks_ok` and `points_checked` as the exact per-direction
  loop they replaced, kept here as the oracle, over QQ windows 1, 2 and 5,
  GF(2^31 - 1) and GF(2^61 - 1); a planted rank drop stops the loop at its
  direction, and a drop mod p only runs the exact check and passes.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from barthslice import barth as barth_module
from barthslice import census as census_module
from barthslice import linalg
from barthslice.barth import (SliceData, _block_index, _fiber_blocks, _fiber_stack, _krylov_brackets,
                              canonical_fiber_solutions, fiber_from_vec, fiber_system, half_from_vec,
                              jacobian, residual, sym_index, vec_fiber, vec_half, vec_skew)
from barthslice.census import _census_ranks, _point_ranks, _sample_direction, fiber_census, sample_half
from barthslice.fields import PrimeField, RationalField
from barthslice.linalg import (_STACK_ENTRIES, Matrix, _exact_rank, _ranks_mod, kernel_basis, rank,
                               spans_match)
from barthslice.monad import GammaMatrix, build_gamma, evaluate_alpha, point_rank_check
from barthslice.rng import SeededRng

P31 = 2**31 - 1
P61 = 2**61 - 1
GF31 = PrimeField(P31)
GF61 = PrimeField(P61)
QQ = RationalField(sample_window=5)
FIELDS = [GF31, GF61, QQ]
IDS = ["GF31-int64", "GF61-object", "QQ"]


def _unit(width: int, j: int) -> list:
    e = [0] * width
    e[j] = 1
    return e


def _column(m: Matrix, j: int) -> list:
    return [row[j] for row in m.data]


def _entry_type(field):
    return Fraction if isinstance(field, RationalField) else int


# ---------------------------------------------------------------------------
# assembly


@pytest.mark.parametrize("field", [GF31, GF61, QQ], ids=IDS)
def test_assembly_matches_the_residual_column_by_column(field):
    rng = SeededRng(80)
    for n in range(1, 8):
        sub = rng.substream(f"n={n}")
        half = sample_half(sub, field, n)
        fiber = fiber_from_vec(field, n, [field.sample(sub) for _ in range(n * (n + 3))])
        width, rows = n * (n + 3), 3 * n * (n - 1) // 2
        system = fiber_system(half)
        jac = jacobian(SliceData(half, fiber))
        assert system.shape == (rows, width) and jac.shape == (rows, 2 * width)
        for j in range(width):
            e = _unit(width, j)
            fiber_col = vec_skew(residual(SliceData(half, fiber_from_vec(field, n, e))))
            half_col = vec_skew(residual(SliceData(half_from_vec(field, n, e), fiber)))
            assert _column(system, j) == fiber_col
            assert _column(jac, width + j) == fiber_col
            assert _column(jac, j) == half_col
        kind = _entry_type(field)
        assert all(type(x) is kind for m in (system, jac) for row in m.data for x in row)


def test_each_sign_reaches_an_entry_at_most_once():
    # the assembly writes each sign of a block with one fancy-index update,
    # which would drop a repeated entry
    for n in range(1, 13):
        for row, col, coord in _block_index(n):
            assert len(set(zip(row.tolist(), col.tolist()))) == row.size
            assert (row < n * (n - 1) // 2).all()
            assert (col < n * (n + 3) // 2).all() and (coord < n * (n + 3) // 2).all()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_stacked_assembly_gives_each_trial_its_fiber_system(field):
    # a block or a placement taken from the wrong trial changes some row
    for n in range(1, 11):
        halves = _planted(field, n, SeededRng(79).substream(f"n={n}"))
        h = np.array(halves, dtype=np.int64 if field is GF31 else object)
        stack = _fiber_stack(n, _fiber_blocks(n, h))
        if isinstance(field, PrimeField):
            stack %= field.p
        assert stack.shape == (len(halves), 3 * n * (n - 1) // 2, n * (n + 3))
        for t, vec in enumerate(halves):
            assert stack[t].tolist() == fiber_system(half_from_vec(field, n, vec)).data


# ---------------------------------------------------------------------------
# batched ranks


def _planted(field, n: int, rng: SeededRng) -> list[list]:
    """Half vectors, generic ones between planted deficient ones."""
    s = n * (n + 1) // 2
    width = n * (n + 3)

    def generic(label):
        return vec_half(sample_half(rng.substream(label), field, n))

    no_eq2 = generic("no-eq2")  # A2 = 0 and a2 = 0: equation 2 vanishes
    no_eq2[s:2 * s] = [0] * s
    no_eq2[2 * s + n:] = [0] * n
    swap = generic("swap")  # L[0][0] = -A1_01 = 0: the first pivot needs a swap
    swap[1 % s] = 0
    sparse = [0] * width  # a1 ^ y alone: a low rank of its own
    sparse[2 * s] = 1
    halves = [generic("g0"), no_eq2, generic("g1"), [0] * width, swap, generic("g2"), sparse]
    return [[field.coerce(x) for x in h] for h in halves]


def _integer_stack(field, halves: list[list]) -> np.ndarray:
    if isinstance(field, RationalField):
        return np.array([[int(x) for x in h] for h in halves], dtype=object)
    return np.array(halves, dtype=np.int64 if field.p < 2**31 else object)


def _expected_ranks(field, n: int, halves: list[list]) -> list[int]:
    return [rank(fiber_system(half_from_vec(field, n, h))) for h in halves]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("n", [1, 2, 4, 7, 9])
def test_batched_ranks_equal_rank_trial_by_trial(field, n):
    halves = _planted(field, n, SeededRng(81))
    ranks, _ = _census_ranks(field, n, _integer_stack(field, halves), False)
    expected = _expected_ranks(field, n, halves)
    assert ranks == expected
    if n >= 4:
        assert len(set(expected)) >= 4  # the stack ends at different ranks


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_batched_ranks_across_chunk_boundaries(field, monkeypatch):
    n = 5
    halves = _planted(field, n, SeededRng(82)) * 2  # 14 trials
    # a trial takes 200 + 110 + 100 + 160 entries of M, the Krylov state, the
    # brackets and the canonical solutions: chunks 3, 3, ..., 2
    monkeypatch.setattr(census_module, "_STACK_ENTRIES", 3 * 570)
    ranks, _ = _census_ranks(field, n, _integer_stack(field, halves), False)
    assert ranks == _expected_ranks(field, n, halves)


def test_rational_ranks_look_past_an_unlucky_image():
    # coordinates that are multiples of the first prime vanish mod p, where
    # every rank is 0; over QQ the halves are generic
    n = 8
    rng = SeededRng(88)
    halves = [[x * P31 for x in vec_half(sample_half(rng.substream(f"t={t}"), QQ, n))]
              for t in range(2)]
    ranks, _ = _census_ranks(QQ, n, _integer_stack(QQ, halves), False)
    assert ranks == _expected_ranks(QQ, n, halves) == [n * (n + 3) - 4] * 2
    assert _census_ranks(QQ, n, _integer_stack(QQ, halves), True) == (ranks, [4, 4])


def test_wide_stacks_go_to_rref_one_matrix_at_a_time(monkeypatch):
    # a cyclic trial never reaches `_rref_mod`: its M is ranked in a stack up
    # to n = 32, and alone past it; a trial with a non-cyclic block (L2 = 0
    # in no-eq2, the zero half and the lone a1) is ranked whole, alone; both
    # reach `_rref_mod` transposed, with their short side as rows
    calls = []
    rref_mod = linalg._rref_mod

    def counted(a, p):
        calls.append(a.shape)
        return rref_mod(a, p)

    monkeypatch.setattr(linalg, "_rref_mod", counted)
    halves = _planted(GF31, 10, SeededRng(83))
    ranks, _ = _census_ranks(GF31, 10, _integer_stack(GF31, halves), False)
    assert calls == [(130, 135)] * 3  # L on its short side
    assert ranks == _expected_ranks(GF31, 10, halves)
    n, generic = 33, vec_half(sample_half(SeededRng(83), GF31, 33))
    calls.clear()
    assert _census_ranks(GF31, n, _integer_stack(GF31, [generic]), False)[0] == [n * (n + 3) - 4]
    assert calls == [(4 * n, n * (n - 1) // 2)]  # M on its short side, never 3n(n-1)/2 rows


def _planted_blocks(field, n: int, rng: SeededRng) -> list[list]:
    """Generic halves between halves with A2 = 0 and a2 = 0 (L2 = 0, so
    K2 = I), A1 = 3 I and a1 = 0 (L1 = 0), all zero, and a1 = a2 = 0."""
    s = n * (n + 1) // 2
    diag = [k for k, (i, j) in enumerate(sym_index(n)) if i == j]
    no_eq1 = vec_half(sample_half(rng.substream("no-eq1"), field, n))
    no_eq1[:s] = [3 if k in diag else 0 for k in range(s)]
    no_eq1[2 * s:2 * s + n] = [0] * n
    no_vectors = vec_half(sample_half(rng.substream("no-vectors"), field, n))
    no_vectors[2 * s:] = [0] * (2 * n)
    return _planted(field, n, rng)[:4] + [[field.coerce(x) for x in h] for h in (no_eq1, no_vectors)]


@pytest.mark.parametrize("field, n", [(GF31, 10), (GF31, 11), (GF31, 12), (GF31, 17),
                                      (GF61, 10), (GF61, 11)],
                         ids=["GF31-10", "GF31-11", "GF31-12", "GF31-17", "GF61-10", "GF61-11"])
def test_block_ranks_equal_rank_trial_by_trial(field, n):
    halves = _planted_blocks(field, n, SeededRng(89))
    ranks, _ = _census_ranks(field, n, _integer_stack(field, halves), False)
    expected = _expected_ranks(field, n, halves)
    assert ranks == expected
    assert len(set(expected)) >= 4


def test_rational_trials_are_settled_by_the_canonical_solutions(monkeypatch):
    n = 8
    s = n * (n + 1) // 2
    calls = []

    def counted(field, ints):
        calls.append(ints.shape)
        return _exact_rank(field, ints)

    monkeypatch.setattr(census_module, "_exact_rank", counted)
    generic = vec_half(sample_half(SeededRng(90), QQ, n))
    assert _census_ranks(QQ, n, _integer_stack(QQ, [generic]), True) == ([n * (n + 3) - 4], [4])
    assert calls == []  # rank mod p + 4 == width settles the trial
    no_vectors = generic[:2 * s] + [Fraction(0)] * (2 * n)  # the fourth solution is zero
    ranks, independent = _census_ranks(QQ, n, _integer_stack(QQ, [no_vectors]), True)
    assert calls
    assert (ranks, independent) == (_expected_ranks(QQ, n, [no_vectors]), [3])


def test_ranks_mod_on_low_rank_products():
    # random products of known rank, tall and wide, int64 and Python ints
    gen = np.random.default_rng(84)
    for m, w in [(6, 9), (9, 6), (7, 7), (1, 5), (5, 1)]:
        stack, expected = [], []
        for k in range(min(m, w) + 1):
            a = gen.integers(-3, 4, size=(m, k)) @ gen.integers(-3, 4, size=(k, w))
            stack.append(a % P31)
            expected.append(rank(Matrix(GF31, a.tolist(), w)))
        stack = np.array(stack, dtype=np.int64)
        assert _ranks_mod(stack.astype(object), P31) == expected
        assert _ranks_mod(stack, P31) == expected


# ---------------------------------------------------------------------------
# Krylov kernels


P521 = 2**521 - 1  # a Mersenne prime past every integer of the QQ checks below


def _krylov_halves(field, n: int, rng: SeededRng) -> list[list]:
    """`_planted` and `_planted_blocks` halves, and one with A1 = 3 I and a
    generic a1: for n >= 2 a derogatory A1, which has no cyclic vector."""
    s = n * (n + 1) // 2
    diag = [k for k, (i, j) in enumerate(sym_index(n)) if i == j]
    scalar = vec_half(sample_half(rng.substream("scalar"), field, n))
    scalar[:s] = [3 if k in diag else 0 for k in range(s)]
    return (_planted(field, n, rng) + _planted_blocks(field, n, rng)[4:]
            + [[field.coerce(x) for x in scalar]])


def _naive_krylov(n: int, row: np.ndarray) -> np.ndarray:
    """The 2n Krylov columns of each block of one half row, from the
    recursion in Python ints: a (2, n(n+3)/2, 2n) array whose column 2k is
    (X^k, 0) and column 2k + 1 is (Y_k, X^k x), over block-local (vech Y,
    y), with Y_0 = 0 and Y_{k+1} = X Y_k + x (X^k x)^T."""
    s = n * (n + 1) // 2
    a, b = np.triu_indices(n)
    out = np.zeros((2, s + n, 2 * n), dtype=object)
    for i in (0, 1):
        x = np.zeros((n, n), dtype=object)
        x[a, b] = x[b, a] = row[i * s:(i + 1) * s]
        v = vec = row[2 * s + i * n:2 * s + (i + 1) * n]
        power, y = np.eye(n, dtype=object), np.zeros((n, n), dtype=object)
        for k in range(n):
            out[i, :s, 2 * k], out[i, :s, 2 * k + 1], out[i, s:, 2 * k + 1] = power[a, b], y[a, b], v
            power, y, v = x @ power, x @ y + np.outer(vec, v), x @ v
    return out


def _naive_brackets(n: int, h: np.ndarray) -> np.ndarray:
    """[L2 K1 | L1 K2] in Python ints, from the dense blocks and
    `_naive_krylov`; asserts that L_i K_i = 0, cyclic or not."""
    blocks = _fiber_blocks(n, h.astype(object))
    kernels = np.array([_naive_krylov(n, row) for row in h.astype(object)])
    assert not (blocks @ kernels != 0).any()
    return np.concatenate([blocks[:, 1] @ kernels[:, 0], blocks[:, 0] @ kernels[:, 1]], axis=2)


@pytest.mark.parametrize("field", [GF31, GF61], ids=["GF31-int64", "GF61-object"])
def test_krylov_kernels_lie_in_the_kernel_mod_p(field):
    for n in range(1, 13):
        h = _integer_stack(field, _krylov_halves(field, n, SeededRng(91).substream(f"n={n}")))
        m, cyclic = _krylov_brackets(n, h, field.p)
        assert m.dtype == h.dtype and m.shape == (len(h), n * (n - 1) // 2, 4 * n)
        assert (m == _naive_brackets(n, h) % field.p).all()
        assert cyclic[0].all() and not cyclic[3].any()  # a generic half; the zero half


@pytest.mark.parametrize("window", [1, 5])
def test_krylov_kernels_lie_in_the_kernel_in_integers(window):
    # M mod a prime past every entry, lifted to (-P/2, P/2), is M of the
    # cleared half in integers, whether or not a_i is cyclic
    field = RationalField(sample_window=window)
    for n in range(1, 13):
        h = census_module._census_halves(SeededRng(92), field, n, 3)
        expected = _naive_brackets(n, h)
        assert not (abs(expected) > P521 // 2).any()
        m, _ = _krylov_brackets(n, h % P521, P521)
        assert (np.where(m > P521 // 2, m - P521, m) == expected).all()
        assert expected.any() or n == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, P31])
def test_krylov_columns_are_independent_when_the_check_passes(p):
    field = PrimeField(p, allow_small=True)
    passed = 0
    for n in range(1, 9):
        halves = [vec_half(sample_half(SeededRng(93).substream(f"n={n}/t={t}"), field, n))
                  for t in range(6)]
        h = _integer_stack(field, halves)
        _, cyclic = _krylov_brackets(n, h, p)
        blocks = _fiber_blocks(n, h) % p
        for t, i in zip(*np.nonzero(cyclic)):
            kernel = _naive_krylov(n, h[t].astype(object))[i] % p
            assert rank(Matrix(field, kernel.T.tolist())) == 2 * n
            assert rank(Matrix(field, blocks[t, i].tolist(), n * (n + 3) // 2)) == n * (n - 1) // 2
            passed += 1
    assert passed


@pytest.mark.parametrize("field, sizes", [(GF31, [*range(1, 13), 17, 24]), (GF61, range(1, 9))],
                         ids=["GF31", "GF61"])
def test_krylov_and_fallback_ranks_equal_rank_trial_by_trial(field, sizes):
    for n in sizes:
        halves = _krylov_halves(field, n, SeededRng(94).substream(f"n={n}"))
        ranks, _ = _census_ranks(field, n, _integer_stack(field, halves), False)
        assert ranks == _expected_ranks(field, n, halves)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_small_primes_take_both_kernel_sources(p, monkeypatch):
    # every trial is settled by its Krylov brackets or, with a non-cyclic
    # block, ranked whole: never both, and at small primes both kinds occur
    field = PrimeField(p, allow_small=True)
    krylov, blocks = census_module._krylov_brackets, census_module._fiber_blocks
    taken = {"krylov": 0, "whole": 0}

    def counted_krylov(n, h, q):
        m, cyclic = krylov(n, h, q)
        taken["krylov"] += int(cyclic.all(axis=1).sum())
        return m, cyclic

    def counted_whole(n, h):
        taken["whole"] += len(h)
        return blocks(n, h)

    monkeypatch.setattr(census_module, "_krylov_brackets", counted_krylov)
    monkeypatch.setattr(census_module, "_fiber_blocks", counted_whole)
    for n in range(2, 11):
        rng = SeededRng(95).substream(f"n={n}")
        halves = [vec_half(sample_half(rng.substream(f"t={t}"), field, n)) for t in range(8)]
        ranks, _ = _census_ranks(field, n, _integer_stack(field, halves), False)
        assert ranks == _expected_ranks(field, n, halves)
    assert taken["krylov"] and taken["whole"]
    assert taken["krylov"] + taken["whole"] == 9 * 8


# ---------------------------------------------------------------------------
# family verdict


def _oracle_family(half) -> bool:
    """The census's family check before the rank verdict: the kernel basis
    spans the canonical solutions."""
    basis = kernel_basis(fiber_system(half))
    canonical = [vec_fiber(f) for f in canonical_fiber_solutions(half)]
    return len(basis) == 4 and spans_match(half.field, basis, canonical, half.n * (half.n + 3))


def _family_verdicts(field, n: int, halves: list[list]) -> list[bool]:
    ranks, independent = _census_ranks(field, n, _integer_stack(field, halves), True)
    return [r == n * (n + 3) - 4 and k == 4 for r, k in zip(ranks, independent)]


@pytest.mark.parametrize("field", [GF31, QQ], ids=["GF31", "QQ"])
def test_family_verdict_matches_kernel_span_on_planted_halves(field):
    n = 8
    s = n * (n + 1) // 2
    diag = [k for k, (i, j) in enumerate(sym_index(n)) if i == j]
    rng = SeededRng(85)
    base = [vec_half(sample_half(rng.substream(f"t={t}"), field, n)) for t in range(4)]
    no_vectors = list(base[0])  # a1 = a2 = 0: the fourth canonical solution is zero
    no_vectors[2 * s:] = [0] * (2 * n)
    no_matrices = list(base[1])  # A1 = A2 = 0
    no_matrices[:2 * s] = [0] * (2 * s)
    scalar = list(base[2])  # A1 = 3 I
    scalar[:s] = [3 if k in diag else 0 for k in range(s)]
    halves = [[field.coerce(x) for x in h] for h in (no_vectors, base[3], no_matrices, scalar)]
    oracle = [_oracle_family(half_from_vec(field, n, h)) for h in halves]
    assert oracle == [False, True, False, False]
    assert _family_verdicts(field, n, halves) == oracle


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
def test_family_verdict_matches_kernel_span_on_generic_halves(n):
    rng = SeededRng(86)
    halves = [vec_half(sample_half(rng.substream(f"t={t}"), GF31, n)) for t in range(2)]
    oracle = [_oracle_family(half_from_vec(GF31, n, h)) for h in halves]
    assert oracle == [True, True]
    assert _family_verdicts(GF31, n, halves) == oracle


# ---------------------------------------------------------------------------
# memory


def test_census_stacks_stay_within_the_entry_budget(monkeypatch):
    # the Krylov products (`_matmul_mod` in `_krylov_brackets`), the stacks
    # of Krylov matrices, and those the census ranks: M and the canonical
    # solutions; no trial is ranked whole, so the blocks are never built
    shapes = {"products": [], "krylov": [], "census": [], "blocks": []}

    def recorder(kind, f):
        def recorded(*args):
            out = f(*args)
            a = out if kind in ("products", "blocks") else args[0]
            shapes[kind].append((a.shape, a.dtype))
            return out
        return recorded

    monkeypatch.setattr(barth_module, "_matmul_mod", recorder("products", barth_module._matmul_mod))
    monkeypatch.setattr(barth_module, "_ranks_mod", recorder("krylov", _ranks_mod))
    monkeypatch.setattr(census_module, "_ranks_mod", recorder("census", _ranks_mod))
    monkeypatch.setattr(census_module, "_fiber_blocks", recorder("blocks", _fiber_blocks))
    for n in range(4, 9):
        fiber_census(n, 100, SeededRng(87), GF31)
    stacks = [s for kind in shapes.values() for s in kind]
    assert all(np.prod(shape) <= _STACK_ENTRIES for shape, _ in stacks)
    assert all(dtype == np.int64 for _, dtype in stacks)
    assert shapes["blocks"] == []
    assert sum(shape[1:] == (28, 32) for shape, _ in shapes["census"]) > 1  # n = 8 runs in chunks
    assert sum(shape[0] for shape, _ in shapes["census"]) == 500  # M alone: no family check
    assert sum(shape[0] for shape, _ in shapes["krylov"]) == 1000  # two blocks a trial
    for kind in shapes.values():
        kind.clear()
    fiber_census(8, 3, SeededRng(87), GF61, check_family=True)
    products = [object] * (2 * 8 - 1)  # A_j [X^k | Y_k] at each step, the next state at all but the last
    assert [[dtype for _, dtype in shapes[kind]] for kind in shapes] == [products, [object], [object] * 2, []]


def test_family_trial_at_n_64_stays_small():
    # M is 2016 x 256 there; the dense blocks alone would be 2 x 2016 x 2144
    tracemalloc.start()
    try:
        cert = fiber_census(64, 1, SeededRng(1), PrimeField(), check_family=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.family_check is True
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# witness point ranks


def _loop_point_ranks(gamma: GammaMatrix, rng: SeededRng, points: int) -> tuple[bool, int]:
    """The per-direction loop the batched ranks replaced: draw a direction,
    rank alpha(v) exactly, stop at the first that falls short."""
    for i in range(points):
        if not point_rank_check(gamma, _sample_direction(rng, gamma.field)):
            return False, i + 1
    return True, points


POINT_FIELDS = [RationalField(sample_window=1), RationalField(sample_window=2), QQ, GF31, GF61]


def _planted_gamma(field, n: int, rng: SeededRng, v: list, shift: int) -> GammaMatrix:
    """A random gamma whose column blocks satisfy sum_j v_j C_j[:, 0] = shift
    * (1, 2, 3, ...): alpha(v) has the column shift * (1, 2, ...) first, zero
    for shift 0."""
    body = [[field.sample(rng) for _ in range(4 * n)] for _ in range(2 * n + 2)]
    for a, row in enumerate(body):
        rest = field.zero()
        for j in range(3):
            rest = field.add(rest, field.mul(v[j], row[j * n]))
        row[3 * n] = field.div(field.sub(field.coerce(shift * (a + 1)), rest), v[3])
    return GammaMatrix(n, Matrix(field, body))


@pytest.mark.parametrize("field", POINT_FIELDS, ids=["QQ1", "QQ2", "QQ5", "GF31-int64", "GF61-object"])
def test_batched_point_ranks_equal_the_loop(field):
    # the rank condition reads gamma alone, so the points need not lie on the
    # slice; at seeds 0, 3 and 6 alpha(v) at one drawn direction gets the
    # first column 0, P31 * (1, 2, ...) or 2 P31 * (1, 2, ...)
    for n in range(2, 9):
        for seed in range(8):
            rng = SeededRng(seed).substream(f"points/n={n}")
            if seed % 3 == 0:
                draw = rng.substream("directions")
                directions = [_sample_direction(draw, field) for _ in range(32)]
                i = next(k for k in range(4 * seed, 32) if directions[k][3] != field.zero())
                gamma = _planted_gamma(field, n, rng.substream("gamma"), directions[i], seed // 3 * P31)
            else:
                half = sample_half(rng.substream("half"), field, n)
                fiber = fiber_from_vec(field, n, [field.sample(rng) for _ in range(n * (n + 3))])
                gamma = build_gamma(SliceData(half, fiber))
            expected = _loop_point_ranks(gamma, rng.substream("directions"), 32)
            assert _point_ranks(gamma, rng.substream("directions"), 32) == expected, (n, seed)


@pytest.mark.parametrize("field", [QQ, GF31, GF61], ids=["QQ", "GF31-int64", "GF61-object"])
def test_planted_rank_drop_stops_the_points_at_its_direction(field, monkeypatch):
    n, points = 5, 32
    rng = SeededRng(91)
    draw = rng.substream("directions")
    directions = [_sample_direction(draw, field) for _ in range(points)]
    i = next(k for k in range(9, points) if directions[k][3] != field.zero())
    gamma = _planted_gamma(field, n, rng.substream("gamma"), directions[i], 0)
    assert _loop_point_ranks(gamma, rng.substream("directions"), points) == (False, i + 1)
    if field is not QQ:  # the rank mod p is the exact one: a second rank raises NameError
        monkeypatch.delattr(census_module, "_exact_rank")
    assert _point_ranks(gamma, rng.substream("directions"), points) == (False, i + 1)


def test_rank_short_mod_p_only_runs_the_exact_check(monkeypatch):
    # alpha(v) at direction i has the first column P31 * (1, 2, ...): zero
    # mod the first prime, where the rank falls short, and full rank over QQ
    n, points = 5, 32
    rng = SeededRng(92)
    draw = rng.substream("directions")
    directions = [_sample_direction(draw, QQ) for _ in range(points)]
    i = next(k for k in range(9, points) if directions[k][3] != 0)
    gamma = _planted_gamma(QQ, n, rng.substream("gamma"), directions[i], P31)
    exact = []
    exact_rank = census_module._exact_rank

    def counted(field, ints):
        exact.append((ints, exact_rank(field, ints)))
        return exact[-1][1]

    monkeypatch.setattr(census_module, "_exact_rank", counted)
    assert _point_ranks(gamma, rng.substream("directions"), points) == (True, points)
    # one exact rank, of the integer alpha at direction i: its rows are
    # multiples of alpha(v)'s rows, short of rank n mod P31 and of full rank
    alpha = evaluate_alpha(gamma, directions[i])
    [(ints, r)] = exact
    assert all(rank(Matrix(QQ, [row, list(a)])) <= 1 for row, a in zip(ints.tolist(), alpha.data))
    assert rank(Matrix(GF31, ints.tolist())) < n == r == rank(alpha)

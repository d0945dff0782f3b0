"""Census, witness, and family certification engines.

Everything here is exact and deterministic: given (field, n, trials, seed)
the emitted certificate is byte-identical across runs and platforms.  Wall
clock readings would break that, so certificates carry zeroed timings
unless measurement is explicitly requested; measured stage times always go
to the log, never silently into a certificate that is expected to be
reproducible.
"""

from __future__ import annotations

import sys
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .barth import (
    HalfData,
    SliceData,
    _canonical_stack,
    _fiber_blocks,
    _fiber_stack,
    _krylov_brackets,
    fiber_from_vec,
    fiber_system,
    half_from_vec,
    jacobian,
    residual,
    vec_half,
)
from .errors import DomainError, SamplingError
from .fields import Field, PrimeField
from .linalg import (_STACK_ENTRIES, Matrix, _exact_rank, _integers, _matmul_mod, _primes, _ranks_mod,
                     _residues, kernel_basis, rank)
from .monad import GammaMatrix, PencilReport, build_gamma, monad_condition, pencil_check, point_rank_check
from .rng import ALGORITHM_ID, SeededRng

CERTIFICATE_VERSION = f"{__version__}+{ALGORITHM_ID}"

# census pass bar: at least this fraction of trials at the expected dimension
CENSUS_PASS_NUM = 99
CENSUS_PASS_DEN = 100


def _require_count(value, what: str):
    """Reject anything but a plain int >= 1 (bool is an int subclass)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DomainError(f"{what} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class DimensionRecord:
    """Dimension bookkeeping for one n.

    moduli_dim + symmetry_group_dim = slice_component_dim holds for all n;
    base_dim + expected_fiber_dim = slice_component_dim for n <= 8; and
    base_dim + 4 = canonical_component_dim, which takes over for n >= 8.
    At n = 8 all three component counts meet at the same value.
    """

    n: int
    moduli_dim: int
    symmetry_group_dim: int
    slice_component_dim: int
    expected_fiber_dim: int
    equation_count: int
    fiber_unknowns: int
    full_unknowns: int
    base_dim: int
    canonical_component_dim: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def dimension_formulas(n: int) -> DimensionRecord:
    """Closed-form dimension counts for charge n, with consistency asserted."""
    _require_count(n, "charge n")
    rec = DimensionRecord(
        n=n,
        moduli_dim=8 * n - 3,
        symmetry_group_dim=n * (n - 1) // 2 + 3,
        slice_component_dim=8 * n + n * (n - 1) // 2,
        expected_fiber_dim=expected_kernel_dim(n),
        equation_count=3 * n * (n - 1) // 2,
        fiber_unknowns=n * (n + 3),
        full_unknowns=2 * n * (n + 3),
        base_dim=n * (n + 3),
        canonical_component_dim=n * (n + 3) + 4,
    )
    assert rec.moduli_dim + rec.symmetry_group_dim == rec.slice_component_dim
    assert rec.fiber_unknowns == rec.base_dim
    assert rec.full_unknowns == 2 * rec.base_dim
    if n <= 8:
        assert rec.base_dim + rec.expected_fiber_dim == rec.slice_component_dim
    if n >= 8:
        assert rec.base_dim + 4 == rec.canonical_component_dim
    return rec


def expected_kernel_dim(n: int) -> int:
    """Expected fiber dimension at a generic half datum."""
    _require_count(n, "charge n")
    return n * (9 - n) // 2 if n <= 8 else 4


@dataclass(frozen=True)
class WitnessReport:
    """All verdicts for a single certified point."""

    fiber_dim: int
    residual_zero: bool
    pencil: PencilReport
    monad_ok: bool
    point_ranks_ok: bool
    points_checked: int
    jacobian_rank: int
    jacobian_full: bool

    @property
    def ok(self) -> bool:
        return (
            self.residual_zero
            and self.pencil.finite_ok
            and self.pencil.infinity_ok
            and self.monad_ok
            and self.point_ranks_ok
            and self.jacobian_full
        )

    def to_json_dict(self) -> dict:
        return {
            "fiber_dim": self.fiber_dim,
            "residual_zero": self.residual_zero,
            "pencil_finite_ok": self.pencil.finite_ok,
            "pencil_infinity_ok": self.pencil.infinity_ok,
            "monad_ok": self.monad_ok,
            "point_ranks_ok": self.point_ranks_ok,
            "points_checked": self.points_checked,
            "jacobian_rank": self.jacobian_rank,
            "jacobian_full": self.jacobian_full,
        }


@dataclass(frozen=True)
class Certificate:
    """One certified computation; serializes to canonical JSON."""

    version: str
    seed: int
    field: str
    n: int
    trials: int
    fiber_dims: dict
    family_check: object
    witness: object
    timings_ms: dict

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "seed": str(self.seed),
            "field": self.field,
            "n": self.n,
            "trials": self.trials,
            "fiber_dims": {str(d): self.fiber_dims[d] for d in sorted(self.fiber_dims)},
            "family_check": self.family_check,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "timings_ms": self.timings_ms,
        }


def _log(message: str):
    print(message, file=sys.stderr)


def _timings_ms(start: float, measure: bool) -> dict:
    """One wall-clock reading since `start`; zero unless measuring."""
    if not measure:
        return {"total": 0}
    return {"total": int(round((time.perf_counter() - start) * 1000))}


# ---------------------------------------------------------------------------
# Sampling


def sample_half(rng: SeededRng, field: Field, n: int) -> HalfData:
    """Uniform half datum, from the draws of `_half_draws`."""
    return half_from_vec(field, n, _half_draws(rng, field, n))


def _half_draws(rng: SeededRng, field: Field, n: int) -> list:
    """Uniform half coordinates, drawn in vec_half order: vech(A1), vech(A2),
    a1, a2 (triangles row-major)."""
    return [field.sample(rng) for _ in range(n * (n + 3))]


# ---------------------------------------------------------------------------
# Census


def fiber_census(n: int, trials: int, rng: SeededRng, field: Field, *,
                 check_family: bool = False, measure_timings: bool = False) -> Certificate:
    """Histogram of fiber dimensions over random half data.

    Each trial draws from its own substream, so certificates do not depend
    on trial scheduling.  A trial's dimension is n(n+3) - rank L, with rank
    L read off n x n brackets with Krylov vectors where both a_i are cyclic
    (`_census_ranks`); L is built only for the other trials.  With
    check_family=True (n >= 8 only) every trial additionally verifies that
    the kernel equals the span of the four canonical solutions.  These
    always lie in the kernel (`canonical_fiber_solutions` asserts it), so
    that holds exactly when the dimension is 4 and they are independent.
    """
    _require_count(n, "charge n")
    _require_count(trials, "trials")
    if check_family and n < 8:
        raise DomainError("family verification applies to n >= 8 only")

    start = time.perf_counter()
    ranks, independent = _census_ranks(field, n, _census_halves(rng, field, n, trials),
                                       check_family)
    width = n * (n + 3)
    hist: dict[int, int] = {}
    for r in ranks:
        hist[width - r] = hist.get(width - r, 0) + 1
    family_ok = None
    if check_family:
        family_ok = all(r == width - 4 and k == 4 for r, k in zip(ranks, independent))
    cert = Certificate(
        version=CERTIFICATE_VERSION,
        seed=rng.seed,
        field=field.describe(),
        n=n,
        trials=trials,
        fiber_dims=hist,
        family_check=family_ok,
        witness=None,
        timings_ms=_timings_ms(start, measure_timings),
    )
    if measure_timings:
        _log(f"census n={n}: {cert.timings_ms['total']} ms over {trials} trials")
    return cert


def _census_halves(rng: SeededRng, field: Field, n: int, trials: int) -> np.ndarray:
    """Row t holds trial t's half coordinates, drawn by `_half_draws` from
    substream census/n=../trial=t, as `_integers`: residues over GF(p), and
    over QQ the row cleared of denominators (Python ints), which scales L
    and the canonical solutions without changing a rank.  Each trial is
    cleared alone, so no temporary spans all the draws."""
    width = n * (n + 3)
    rows = []
    for trial in range(trials):
        draws = _half_draws(rng.substream(f"census/n={n}/trial={trial}"), field, n)
        rows.append(_integers(Matrix._raw(field, [draws], width))[0])
    return np.array(rows)


def _census_ranks(field: Field, n: int, h: np.ndarray, check_family: bool) -> tuple[list, list]:
    """Exact ranks of L, and with check_family (or over QQ) of the four
    canonical solutions, for each half row of the integer stack `h`.

    Trials are ranked mod p in chunks, from the blocks L1, L2 of L =
    [[L1, 0], [0, L2], [L2, L1]], each n(n-1)/2 x n(n+3)/2.  With K_i a
    basis of ker L_i, (x, y) is in ker L exactly when x = K1 u and y = K2 v
    with M (u, v) = 0, M = [L2 K1 | L1 K2], for unique u and v.  So (u, v) ->
    (K1 u, K2 v) maps ker M one to one onto ker L, and counting dimensions

        rank L = rank L1 + rank L2 + rank M

    over any field, so mod every p.  A block whose a_i is a cyclic vector
    of A_i mod p has rank n(n-1)/2, and 2n Krylov vectors span its kernel
    (`_krylov_brackets`, where the argument is written out).  A trial whose
    two blocks are cyclic has rank L = n(n-1) + rank M, with M n(n-1)/2 x 4n
    from n x n brackets; the chunk's Ms are ranked together.  Any other
    trial is ranked whole and alone, which happens at small n, where L is
    small.  Either way each number is rank_p L exactly: nothing is assumed
    about the draw.  A chunk holds as many trials as fit in _STACK_ENTRIES
    entries of the stacks it builds, at least one; a trial adds 4n n(n-1)/2
    to M, 2n(2n+1) to the Krylov state, 4n^2 to the brackets and 4n(n+3) to
    the canonical solutions.

    Over QQ, p is the first prime of the QQ elimination.  The canonical
    solutions lie in ker L over QQ, and a rank mod p is at most the rank
    over QQ, so

        rank_p L <= rank L <= width - rank C <= width - rank_p C

    for their matrix C: a trial with rank_p L + rank_p C == width, or of full
    rank mod p, is settled, and only the others are ranked again, exactly,
    by `_exact_rank` on the integer L or C of the trial's row of `h`.
    """
    q = n * (n - 1) // 2
    rows, width = 3 * q, n * (n + 3)
    prime = isinstance(field, PrimeField)
    p = field.p if prime else next(_primes())
    residues = _residues(h, p)
    step = max(1, _STACK_ENTRIES // (4 * n * q + 2 * n * (2 * n + 1) + 4 * n * n + 4 * n * (n + 3)))
    ranks, independent = [], []
    for lo in range(0, len(h), step):
        chunk = residues[lo:lo + step]
        m, cyclic = _krylov_brackets(n, chunk, p)
        chunk_ranks = [n * (n - 1) + r for r in _ranks_mod(m, p)]
        for t in np.flatnonzero(~cyclic.all(axis=1)):  # ranked whole, alone
            chunk_ranks[t] = _ranks_mod(_fiber_stack(n, _fiber_blocks(n, chunk[t:t + 1]) % p), p)[0]
        ranks += chunk_ranks
        if check_family or not prime:
            independent += _ranks_mod(_canonical_stack(n, chunk), p)
    if not prime:
        for t in range(len(h)):
            if ranks[t] + independent[t] == width:
                continue
            if ranks[t] < min(rows, width):
                ranks[t] = _exact_rank(field, _fiber_stack(n, _fiber_blocks(n, h[t:t + 1]))[0])
            if check_family and independent[t] < 4:
                independent[t] = _exact_rank(field, _canonical_stack(n, h[t:t + 1])[0])
    return ranks, independent


def census_threshold(trials: int) -> int:
    """Minimum number of trials that must land on the expected dimension."""
    return -(-CENSUS_PASS_NUM * trials // CENSUS_PASS_DEN)


def certificate_ok(cert: Certificate) -> bool:
    """Whether a certificate meets its expectation (drives CLI exit codes)."""
    if cert.witness is not None:
        return cert.witness.ok
    if cert.family_check is not None:
        if cert.family_check is not True:
            return False
    expected = expected_kernel_dim(cert.n)
    return cert.fiber_dims.get(expected, 0) >= census_threshold(cert.trials)


# ---------------------------------------------------------------------------
# Witness


def _nonzero_kernel_point(rng: SeededRng, field: Field, basis: list, width: int) -> list:
    """Random field combination of kernel basis vectors, resampled if zero:
    a 1 x len(basis) row of draws times the basis."""
    z = field.zero()
    vectors = Matrix._raw(field, basis, width)
    for _ in range(64):
        draws = Matrix._raw(field, [[field.sample(rng) for _ in basis]], len(basis))
        point = (draws @ vectors).data[0]
        if any(e != z for e in point):
            return point
    raise SamplingError("could not sample a nonzero kernel point in 64 attempts")


def _sample_direction(rng: SeededRng, field: Field) -> list:
    z = field.zero()
    for _ in range(64):
        v = [field.sample(rng) for _ in range(4)]
        if any(c != z for c in v):
            return v
    raise SamplingError("could not sample a nonzero direction in 64 attempts")


def _point_ranks(gamma: GammaMatrix, rng: SeededRng, points: int) -> tuple[bool, int]:
    """Whether alpha(v) has full rank n at `points` directions v drawn in
    order from `rng`, and how many were checked: up to the first that fails.

    alpha(v) = gamma (v (x) I_n) is linear in v, and row a of alpha(v) comes
    from row a of gamma, so scaling a row of gamma or a whole v changes no
    rank.  Every alpha(v) of a stack of directions is built from the cleared
    integer gamma and directions mod p by one `_matmul_mod`, and ranked by
    one `_ranks_mod`.  Over GF(p) that is the exact rank.  Over QQ p is the
    first prime of the QQ elimination: full rank mod p is full rank, and
    only a direction short mod p is ranked again, exactly
    (`point_rank_check`).  So every verdict is the exact one.  A stack holds
    at most _STACK_ENTRIES entries of alpha.
    """
    field, n = gamma.field, gamma.n
    prime = isinstance(field, PrimeField)
    p = field.p if prime else next(_primes())
    # (4, (2n+2) n): row j is the column block C_{j+1} of gamma, flattened
    blocks = _residues(_integers(gamma.body), p).reshape(2 * n + 2, 4, n).transpose(1, 0, 2)
    blocks = blocks.reshape(4, -1)
    step = max(1, _STACK_ENTRIES // blocks.shape[1])
    for lo in range(0, points, step):
        directions = [_sample_direction(rng, field) for _ in range(min(step, points - lo))]
        v = _residues(_integers(Matrix._raw(field, directions, 4)), p)
        ranks = _ranks_mod(_matmul_mod(v, blocks, p).reshape(len(directions), 2 * n + 2, n), p)
        for i, (r, direction) in enumerate(zip(ranks, directions)):
            if r < n and (prime or not point_rank_check(gamma, direction)):
                return False, lo + i + 1
    return True, points


def witness_certificate(n: int, rng: SeededRng, field: Field, *,
                        points: int = 32, measure_timings: bool = False) -> Certificate:
    """Certify one random point of the slice at charge n.

    Draws a half datum, solves the fiber system exactly, picks a random
    kernel point, and checks: the residual vanishes, the vector pencil has
    rank 2 everywhere including infinity, the Gram blocks of gamma satisfy
    the monad condition, gamma(v) has full rank at `points` random
    directions v, and the Jacobian of the slice equations at the point has
    full row rank 3n(n-1)/2.  The directions are ranked together mod p,
    and over QQ exactly where short mod p (`_point_ranks`); the first that
    fails ends the check.  While the kernel is larger than the span of the
    canonical solutions, a point in that span, where b_i is a multiple of
    a_i and the pencil fails, is drawn again, at most 64 times.  The
    verdicts are the certificate's `witness`.
    """
    _require_count(n, "charge n")
    _require_count(points, "points")
    if not 4 <= n <= 7:
        warnings.warn(
            f"witness certification is calibrated for 4 <= n <= 7, got n={n}; "
            "the pencil and rank conditions may fail generically",
            stacklevel=2,
        )
    start = time.perf_counter()
    half = sample_half(rng.substream(f"witness/n={n}/half"), field, n)
    # never empty: (I, 0, 0, 0) solves every fiber system ([A, I] = 0, a ^ 0 = 0)
    basis = kernel_basis(fiber_system(half))
    width = n * (n + 3)
    canonical = _canonical_stack(n, np.array([vec_half(half)], dtype=object))[0].tolist()
    span = rank(Matrix(field, canonical, width))
    coeff_rng = rng.substream(f"witness/n={n}/coeffs")
    for _ in range(64):
        point = _nonzero_kernel_point(coeff_rng, field, basis, width)
        if len(basis) == span or rank(Matrix(field, canonical + [point], width)) > span:
            break
    else:
        raise SamplingError("could not sample a kernel point off the canonical span in 64 attempts")
    fiber = fiber_from_vec(field, n, point)
    x = SliceData(half, fiber)

    gamma = build_gamma(x)
    points_ok, checked = _point_ranks(gamma, rng.substream(f"witness/n={n}/points"), points)
    jac_rank = rank(jacobian(x))
    report = WitnessReport(
        fiber_dim=len(basis),
        residual_zero=residual(x).is_zero(),
        pencil=pencil_check(field, half.a1, half.a2, fiber.b1, fiber.b2),
        monad_ok=monad_condition(gamma),
        point_ranks_ok=points_ok,
        points_checked=checked,
        jacobian_rank=jac_rank,
        jacobian_full=jac_rank == 3 * n * (n - 1) // 2,
    )
    cert = Certificate(
        version=CERTIFICATE_VERSION,
        seed=rng.seed,
        field=field.describe(),
        n=n,
        trials=1,
        fiber_dims={len(basis): 1},
        family_check=None,
        witness=report,
        timings_ms=_timings_ms(start, measure_timings),
    )
    if measure_timings:
        _log(f"witness n={n}: {cert.timings_ms['total']} ms")
    return cert

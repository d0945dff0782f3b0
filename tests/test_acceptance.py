"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines;
any assertion failure marks the corresponding criterion as failed.
"""

import hashlib
import subprocess
import sys
import time

from barthslice.barth import (
    FiberData,
    SliceData,
    apply_group,
    fiber_system,
    random_group_element,
    residual,
)
from barthslice.census import (
    dimension_formulas,
    fiber_census,
    sample_half,
    witness_certificate,
)
from barthslice.fields import PrimeField, RationalField
from barthslice.linalg import Matrix
from barthslice.monad import build_gamma, monad_condition
from barthslice.rng import SeededRng
from barthslice.selftest import _kernel_point
from test_golden import GOLDEN

GF = PrimeField(2147483647)


def test_criterion_1_fiber_dimension_census():
    expected = {4: 10, 5: 10, 6: 9, 7: 7}
    start = time.perf_counter()
    rng = SeededRng(1)
    for n, dim in expected.items():
        cert = fiber_census(n, 100, rng, GF)
        hits = cert.fiber_dims.get(dim, 0)
        assert hits >= 99, (n, cert.fiber_dims)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"census took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 fiber-dimension census (dims 10,10,9,7; {elapsed:.2f}s): PASS")


def test_criterion_2_shape_bookkeeping():
    start = time.perf_counter()
    rng = SeededRng(2)
    for n in range(1, 13):
        half = sample_half(rng.substream(f"n={n}"), GF, n)
        assert fiber_system(half).shape == (3 * n * (n - 1) // 2, n * (n + 3))
        rec = dimension_formulas(n)
        assert rec.slice_component_dim == rec.moduli_dim + rec.symmetry_group_dim
    rec8 = dimension_formulas(8)
    assert rec8.slice_component_dim == 92 and rec8.canonical_component_dim == 92
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"shape checks took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2 shape bookkeeping (n=1..12, n=8 -> 92; {elapsed:.2f}s): PASS")


def test_criterion_3_witness_reproduction_rational():
    qq = RationalField(sample_window=5)
    worst = 0.0
    for n in range(4, 8):
        start = time.perf_counter()
        rep = witness_certificate(n, SeededRng(1), qq, points=32).witness
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert rep.residual_zero, n
        assert rep.pencil.finite_ok, n
        assert rep.monad_ok, n
        assert rep.point_ranks_ok and rep.points_checked == 32, n
        assert elapsed < 60.0, f"witness n={n} took {elapsed:.2f}s"
    print(f"ACCEPTANCE 3 rational witness n=4..7 (all stages true; worst {worst:.2f}s): PASS")


def test_criterion_4_jacobian_transversality():
    qq = RationalField(sample_window=5)
    expected = {4: 18, 5: 30, 6: 45, 7: 63}
    for n, target in expected.items():
        rep = witness_certificate(n, SeededRng(1), qq, points=32).witness
        assert rep.jacobian_rank == target, (n, rep.jacobian_rank)
        assert rep.jacobian_full
    print("ACCEPTANCE 4 jacobian ranks 18,30,45,63 at n=4..7: PASS")


def test_criterion_5_large_n_family():
    start = time.perf_counter()
    for n in range(8, 13):
        rng = SeededRng(1)
        cert = fiber_census(n, 20, rng, GF, check_family=True)
        assert cert.fiber_dims == {4: 20}, (n, cert.fiber_dims)
        assert cert.family_check is True, n
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"family checks took {elapsed:.2f}s"
    print(f"ACCEPTANCE 5 n=8..12 family (dim 4, canonical span; {elapsed:.2f}s): PASS")


def test_criterion_6_monad_equivalence():
    discrepancies = 0
    for n in (2, 4, 8):
        rng = SeededRng(6).substream(f"n={n}")
        for trial in range(100):
            sub = rng.substream(f"zero/{trial}")
            half = sample_half(sub, GF, n)
            x = SliceData(half, _kernel_point(sub, GF, half))
            if monad_condition(build_gamma(x)) != residual(x).is_zero():
                discrepancies += 1
        for trial in range(100):
            sub = rng.substream(f"generic/{trial}")
            half = sample_half(sub, GF, n)
            other = sample_half(sub.substream("fiber"), GF, n)
            x = SliceData(half, FiberData(other.A1, other.A2, other.a1, other.a2))
            if monad_condition(build_gamma(x)) != residual(x).is_zero():
                discrepancies += 1
    assert discrepancies == 0
    print("ACCEPTANCE 6 monad condition iff residual zero (600 points, 0 discrepancies): PASS")


def test_criterion_7_group_invariance():
    rng = SeededRng(7)
    eye = Matrix.identity(GF, 4)
    for trial in range(100):
        sub = rng.substream(f"t{trial}")
        half = sample_half(sub, GF, 4)
        x = SliceData(half, _kernel_point(sub, GF, half))
        assert residual(x).is_zero()
        e = random_group_element(sub, GF, 4)
        assert e.g @ e.g.T == eye
        s, t = e.m.data[0]
        u, v = e.m.data[1]
        assert GF.sub(GF.mul(s, v), GF.mul(t, u)) == GF.one()
        assert residual(apply_group(x, e)).is_zero()
    print("ACCEPTANCE 7 group invariance (100 points, exact): PASS")


def test_criterion_8_byte_identical_certificates():
    # a fresh process must reproduce the pinned bytes of this census
    command = "census --n-min 4 --n-max 8 --trials 100 --seed 1"
    cmd = [sys.executable, "-m", "barthslice.cli", *command.split()]
    result = subprocess.run(cmd, capture_output=True, timeout=300)
    assert result.returncode == 0
    assert len(result.stdout) > 0
    assert hashlib.sha256(result.stdout).hexdigest() == dict(GOLDEN)[command]
    print("ACCEPTANCE 8 byte-identical census certificates across runs: PASS")

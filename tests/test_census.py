import json

import numpy as np
import pytest

from barthslice import census as census_module
from barthslice.barth import _fiber_blocks, _fiber_stack, canonical_fiber_solutions, fiber_system, vec_fiber, vec_half
from barthslice.census import (
    CERTIFICATE_VERSION,
    census_threshold,
    certificate_ok,
    dimension_formulas,
    expected_kernel_dim,
    fiber_census,
    sample_half,
    witness_certificate,
)
from barthslice.errors import DomainError, SamplingError
from barthslice.fields import PrimeField, RationalField
from barthslice.linalg import Matrix, _kernel, kernel_basis, spans_match
from barthslice.rng import SeededRng

GF = PrimeField()


# ---------------------------------------------------------------------------
# dimension records


def test_dimension_formulas_n4():
    rec = dimension_formulas(4)
    assert rec.moduli_dim == 29
    assert rec.equation_count == 18
    assert rec.fiber_unknowns == 28
    assert rec.expected_fiber_dim == 10


def test_dimension_formulas_n8_coincidence():
    rec = dimension_formulas(8)
    assert rec.expected_fiber_dim == 4
    assert rec.slice_component_dim == 92
    assert rec.canonical_component_dim == 92


def test_dimension_identities_all_n():
    for n in range(1, 13):
        rec = dimension_formulas(n)
        assert rec.moduli_dim + rec.symmetry_group_dim == rec.slice_component_dim
        if n <= 8:
            assert rec.base_dim + rec.expected_fiber_dim == rec.slice_component_dim
        if n >= 8:
            assert rec.base_dim + 4 == rec.canonical_component_dim


def test_dimension_formulas_rejects_n0():
    for bad in (0, True, 4.0):
        with pytest.raises(DomainError):
            dimension_formulas(bad)
        with pytest.raises(DomainError):
            expected_kernel_dim(bad)


def test_expected_kernel_dim_values():
    assert [expected_kernel_dim(n) for n in range(1, 13)] == [
        4, 7, 9, 10, 10, 9, 7, 4, 4, 4, 4, 4,
    ]
    # the paper's "even >= 7" window
    assert all(expected_kernel_dim(n) >= 7 for n in range(4, 8))


# ---------------------------------------------------------------------------
# sampling


def test_sample_half_draw_order():
    # A1 upper triangle row-major, then A2, then a1, a2
    rng = SeededRng(17)
    half = sample_half(rng, GF, 2)
    replay = SeededRng(17)
    draws = [GF.sample(replay) for _ in range(10)]
    assert half.A1.data == [[draws[0], draws[1]], [draws[1], draws[2]]]
    assert half.A2.data == [[draws[3], draws[4]], [draws[4], draws[5]]]
    assert half.a1 == (draws[6], draws[7])
    assert half.a2 == (draws[8], draws[9])


# ---------------------------------------------------------------------------
# census


def test_fiber_census_n4_histogram():
    cert = fiber_census(4, 100, SeededRng(1), GF)
    assert cert.fiber_dims == {10: 100}
    assert certificate_ok(cert)
    assert cert.family_check is None and cert.witness is None
    assert cert.timings_ms == {"total": 0}


def test_fiber_census_n9_histogram():
    cert = fiber_census(9, 100, SeededRng(1), GF)
    assert cert.fiber_dims == {4: 100}


def test_fiber_census_n1_zero_equations():
    cert = fiber_census(1, 20, SeededRng(2), GF)
    assert cert.fiber_dims == {4: 20}


def test_census_trials_independent_of_scheduling():
    # per-trial substreams: the histogram from one 50-trial run matches
    # the dimensions recomputed trial by trial
    rng = SeededRng(33)
    cert = fiber_census(5, 50, rng, GF)
    hist = {}
    for trial in range(50):
        sub = SeededRng(33).substream(f"census/n=5/trial={trial}")
        half = sample_half(sub, GF, 5)
        d = len(kernel_basis(fiber_system(half)))
        hist[d] = hist.get(d, 0) + 1
    assert hist == cert.fiber_dims


def test_census_threshold_values():
    assert census_threshold(100) == 99
    assert census_threshold(20) == 20
    assert census_threshold(1) == 1


def test_census_validates_inputs():
    with pytest.raises(DomainError):
        fiber_census(0, 10, SeededRng(1), GF)
    with pytest.raises(DomainError):
        fiber_census(4, 0, SeededRng(1), GF)
    with pytest.raises(DomainError):
        fiber_census(5, 10, SeededRng(1), GF, check_family=True)
    # bool is an int subclass: True would certify n = 1 as "n": true
    for n, trials in ((True, 1), (4, True), (4.0, 1), (4, 1.5)):
        with pytest.raises(DomainError):
            fiber_census(n, trials, SeededRng(1), GF)


# ---------------------------------------------------------------------------
# family


def test_family_check_n8_and_n10():
    for n in (8, 10):
        cert = fiber_census(n, 20, SeededRng(5), GF, check_family=True)
        assert cert.family_check is True, n


def test_family_check_rejects_small_n():
    with pytest.raises(DomainError):
        fiber_census(7, 5, SeededRng(5), GF, check_family=True)


def test_family_negative_control_zero_half():
    # the all-zero half datum has full kernel, far above the canonical span
    z = Matrix(GF, [[0] * 8] * 8)
    from barthslice.barth import HalfData

    half = HalfData(8, z, z, (0,) * 8, (0,) * 8)
    basis = kernel_basis(fiber_system(half))
    assert len(basis) == 8 * 11  # everything
    canonical = [vec_fiber(f) for f in canonical_fiber_solutions(half)]
    assert not spans_match(GF, basis, canonical, 8 * 11)


def test_family_certificate_fields():
    cert = fiber_census(8, 5, SeededRng(6), GF, check_family=True)
    assert cert.family_check is True
    assert certificate_ok(cert)


# ---------------------------------------------------------------------------
# witness


def test_witness_pipeline_n4_rational_window5():
    rep = witness_certificate(4, SeededRng(7), RationalField(sample_window=5)).witness
    assert rep.fiber_dim == 10
    assert rep.residual_zero
    assert rep.pencil.finite_ok and rep.pencil.infinity_ok
    assert rep.monad_ok
    assert rep.point_ranks_ok and rep.points_checked == 32
    assert rep.jacobian_rank == 18 and rep.jacobian_full
    assert rep.ok


def test_witness_pipeline_n7_modular():
    rep = witness_certificate(7, SeededRng(8), GF).witness
    assert rep.fiber_dim == 7
    assert rep.jacobian_rank == 63
    assert rep.ok


def _counted_kernel_points(monkeypatch, fixed=None) -> list:
    calls = []
    draw = census_module._nonzero_kernel_point

    def counted(rng, field, k):
        calls.append(k.shape)
        point = draw(rng, field, k)
        return point if fixed is None else np.array(fixed)

    monkeypatch.setattr(census_module, "_nonzero_kernel_point", counted)
    return calls


def test_witness_draws_again_off_the_canonical_solutions(monkeypatch):
    # the first kernel point at this seed lies in the span of the four
    # canonical solutions: b_i is a multiple of a_i, and the pencil fails
    calls = _counted_kernel_points(monkeypatch)
    rep = witness_certificate(7, SeededRng(501), RationalField(sample_window=5)).witness
    assert len(calls) == 2
    assert rep.pencil.finite_ok and rep.pencil.infinity_ok and rep.ok


def test_witness_gives_up_on_the_canonical_solutions(monkeypatch):
    half = sample_half(SeededRng(12).substream("witness/n=5/half"), GF, 5)
    on_span = vec_fiber(canonical_fiber_solutions(half)[3])  # (0, 0, a1, a2)
    calls = _counted_kernel_points(monkeypatch, on_span)
    with pytest.raises(SamplingError):
        witness_certificate(5, SeededRng(12), GF)
    assert len(calls) == 64


def _oracle_kernel_point(rng: SeededRng, field, half) -> list:
    """The witness's draw before the integer kernel: the Fraction (or
    residue) basis of `kernel_basis`, and a Matrix product of the draws."""
    basis = kernel_basis(fiber_system(half))
    for _ in range(64):
        draws = Matrix(field, [[field.sample(rng) for _ in basis]], len(basis))
        point = (draws @ Matrix(field, basis, half.n * (half.n + 3))).data[0]
        if any(e != field.zero() for e in point):
            return point
    raise SamplingError("no nonzero kernel point")


@pytest.mark.parametrize("field", [RationalField(sample_window=1), RationalField(sample_window=5),
                                   RationalField(sample_window=100), GF, PrimeField(2**61 - 1)],
                         ids=["QQ1", "QQ5", "QQ100", "GF31", "GF61"])
def test_integer_kernel_point_over_d_is_the_fraction_draw(field):
    for n in range(2, 9):
        rng = SeededRng(n).substream("integer-point")
        h = census_module._integer_draws(rng.substream("half"), field, n * (n + 3))
        system = _fiber_stack(n, _fiber_blocks(n, h[None]))[0]
        k, d = _kernel(field, system)
        point = census_module._nonzero_kernel_point(rng.substream("coeffs"), field, k)
        product = system.astype(object) @ point.astype(object)
        assert not (product % field.p if isinstance(field, PrimeField) else product).any()
        half = sample_half(rng.substream("half"), field, n)
        assert vec_half(half) == h.tolist()  # QQ draws are integers
        expected = _oracle_kernel_point(rng.substream("coeffs"), field, half)
        assert vec_fiber(census_module._fiber_point(field, n, point, d)) == expected, n


def test_witness_warns_outside_calibrated_range():
    with pytest.warns(UserWarning):
        witness_certificate(2, SeededRng(9), GF)


def test_witness_warning_points_at_the_caller():
    with pytest.warns(UserWarning) as caught:
        witness_certificate(2, SeededRng(9), GF)
    assert [w.filename for w in caught] == [__file__]


def test_witness_certificate_schema():
    cert = witness_certificate(4, SeededRng(10), GF)
    d = cert.to_json_dict()
    assert list(d) == [
        "version",
        "seed",
        "field",
        "n",
        "trials",
        "fiber_dims",
        "family_check",
        "witness",
        "timings_ms",
    ]
    assert d["version"] == CERTIFICATE_VERSION
    assert d["seed"] == "10"
    assert d["trials"] == 1
    assert d["fiber_dims"] == {"10": 1}
    assert d["witness"]["jacobian_full"] is True
    assert certificate_ok(cert)


def test_witness_validates_inputs():
    with pytest.raises(DomainError):
        witness_certificate(0, SeededRng(1), GF)
    with pytest.raises(DomainError):
        witness_certificate(4, SeededRng(1), GF, points=0)
    for n, points in ((True, 32), (4, True), (4, 1.5)):
        with pytest.raises(DomainError):
            witness_certificate(n, SeededRng(1), GF, points=points)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_json_is_canonical():
    cert = fiber_census(4, 10, SeededRng(12), GF)
    text = json.dumps(cert.to_json_dict(), indent=2)
    again = json.dumps(fiber_census(4, 10, SeededRng(12), GF).to_json_dict(), indent=2)
    assert text == again
    parsed = json.loads(text)
    assert parsed["field"] == f"GF({GF.p})"
    assert list(parsed["fiber_dims"]) == sorted(parsed["fiber_dims"], key=int)


def test_certificate_fiber_dims_keys_sorted():
    cert = fiber_census(2, 5, SeededRng(13), GF)
    d = cert.to_json_dict()
    keys = [int(k) for k in d["fiber_dims"]]
    assert keys == sorted(keys)


@pytest.mark.parametrize("run", [
    lambda: fiber_census(4, 2, SeededRng(14), GF, measure_timings=True),
    lambda: witness_certificate(4, SeededRng(14), GF, measure_timings=True),
], ids=["census", "witness"])
def test_measured_timing_is_read_once(run, monkeypatch, capsys):
    # a clock that advances 10 ms per reading: certificate and log must agree
    ticks = iter(range(1000))
    monkeypatch.setattr(census_module.time, "perf_counter", lambda: next(ticks) / 100)
    cert = run()
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert cert.timings_ms == {"total": 10}
    assert ": 10 ms" in err


def test_measured_timings_change_only_timings(capsys):
    a = fiber_census(4, 5, SeededRng(14), GF, measure_timings=True)
    err = capsys.readouterr().err
    assert "census n=4" in err
    b = fiber_census(4, 5, SeededRng(14), GF)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("timings_ms")
    db.pop("timings_ms")
    assert da == db

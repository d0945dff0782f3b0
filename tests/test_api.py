"""The public API, pinned: adding or removing a name shows up as an edit here."""

import barthslice

PUBLIC_API = [
    "ALGORITHM_ID",
    "BarthSliceError",
    "CERTIFICATE_VERSION",
    "Certificate",
    "DEFAULT_PRIME",
    "DimensionRecord",
    "DomainError",
    "FiberData",
    "GammaMatrix",
    "GroupElement",
    "HalfData",
    "InvariantError",
    "Matrix",
    "PencilReport",
    "PrimeField",
    "RationalField",
    "SamplingError",
    "SeededRng",
    "SelftestResult",
    "ShapeError",
    "SliceData",
    "SliceResidual",
    "WitnessReport",
    "WitnessUnavailable",
    "__version__",
    "apply_group",
    "build_gamma",
    "canonical_fiber_solutions",
    "census_threshold",
    "certificate_ok",
    "compose_group",
    "dimension_formulas",
    "evaluate_alpha",
    "expected_kernel_dim",
    "fiber_census",
    "fiber_from_vec",
    "fiber_system",
    "half_from_vec",
    "inverse",
    "jacobian",
    "kernel_basis",
    "matvec",
    "monad_condition",
    "pencil_check",
    "point_rank_check",
    "random_group_element",
    "random_orthogonal",
    "random_sl2",
    "rank",
    "residual",
    "rref",
    "run_selftest",
    "sample_half",
    "skew_index",
    "spans_match",
    "sym_index",
    "symplectic_form",
    "vec_fiber",
    "vec_half",
    "vec_skew",
    "wedge",
    "witness_certificate",
    "witness_pipeline",
]


def test_public_api_is_pinned():
    assert sorted(barthslice.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in barthslice.__all__:
        assert hasattr(barthslice, name), name

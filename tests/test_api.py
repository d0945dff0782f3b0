"""The public API, pinned: adding or removing a name shows up as an edit here."""

import barthslice
from barthslice.linalg import Matrix

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
    "vec_fiber",
    "vec_half",
    "vec_skew",
    "wedge",
    "witness_certificate",
]

# Matrix's public attributes and operator methods: a test-only method added
# back shows up as an edit here
MATRIX_API = [
    "T",
    "__add__",
    "__eq__",
    "__init__",
    "__matmul__",
    "__neg__",
    "__repr__",
    "__sub__",
    "cols",
    "data",
    "field",
    "hstack",
    "identity",
    "is_skew_symmetric",
    "is_symmetric",
    "is_zero",
    "rows",
    "shape",
    "submatrix",
    "zeros",
]


def test_public_api_is_pinned():
    assert sorted(barthslice.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in barthslice.__all__:
        assert hasattr(barthslice, name), name


def test_matrix_api_is_pinned():
    names = [
        name for name in vars(Matrix)
        if not name.startswith("_") or name.startswith("__") and callable(getattr(Matrix, name))
    ]
    assert sorted(names) == MATRIX_API

"""Exact certification of the Barth slice of instanton monads.

The package reconstructs the normalized slice coordinates, solves the
linear fiber systems over GF(p) or the rationals with exact arithmetic,
and emits reproducible JSON certificates for fiber dimensions, the pencil
rank condition, monad-level checks, Jacobian transversality, and the
canonical four-dimensional solution family at large charge.

Each public name is loaded from its module when first read (PEP 562), so
``import barthslice.rng`` imports neither numpy nor the other modules.
"""

from importlib import import_module

from ._version import __version__

# the public names by defining module
_PUBLIC = {
    "barth": ("FiberData", "GroupElement", "HalfData", "SliceData", "SliceResidual", "apply_group",
              "canonical_fiber_solutions", "compose_group", "fiber_from_vec", "fiber_system", "half_from_vec",
              "jacobian", "random_group_element", "random_orthogonal", "random_sl2", "residual", "skew_index",
              "sym_index", "vec_fiber", "vec_half", "vec_skew", "wedge"),
    "census": ("CERTIFICATE_VERSION", "Certificate", "DimensionRecord", "WitnessReport", "census_threshold",
               "certificate_ok", "dimension_formulas", "expected_kernel_dim", "fiber_census", "sample_half",
               "witness_certificate"),
    "errors": ("BarthSliceError", "DomainError", "InvariantError", "SamplingError", "ShapeError"),
    "fields": ("DEFAULT_PRIME", "PrimeField", "RationalField"),
    "linalg": ("Matrix", "inverse", "kernel_basis", "matvec", "rank", "rref", "spans_match"),
    "monad": ("GammaMatrix", "PencilReport", "build_gamma", "evaluate_alpha", "monad_condition", "pencil_check",
              "point_rank_check"),
    "rng": ("ALGORITHM_ID", "SeededRng"),
    "selftest": ("SelftestResult", "run_selftest"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _PUBLIC:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""The public API, pinned: adding or removing a name shows up as an edit here.

The package loads each public name from its module on first use; the
boundary tests run in fresh interpreters, so that no earlier import hides
what a bare import loads.
"""

import re
import subprocess
import sys
from pathlib import Path

import barthslice
from barthslice.linalg import Matrix

README = Path(__file__).resolve().parents[1] / "README.md"

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


def _fresh(script: str) -> str:
    """The stdout of `script` run in a fresh interpreter, which must exit 0."""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_stdlib_modules_load_without_numpy():
    # a checker built on rng, fields and errors alone starts without numpy
    out = _fresh(
        "import sys, barthslice, barthslice.rng, barthslice.fields, barthslice.errors\n"
        "barthslice.__version__, barthslice.SeededRng, barthslice.PrimeField, barthslice.DomainError\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('barthslice')))\n"
    )
    assert out == ("False ['barthslice', 'barthslice._version', 'barthslice.errors', 'barthslice.fields', "
                   "'barthslice.rng']\n")


def test_cli_import_leaves_selftest_unloaded():
    assert _fresh("import sys, barthslice.cli\nprint('barthslice.selftest' in sys.modules)") == "False\n"


def test_star_import_binds_exactly_all():
    out = _fresh(
        "import barthslice, importlib\n"
        "ns = {}\n"
        "exec('from barthslice import *', ns)\n"
        "del ns['__builtins__']\n"
        "print(sorted(ns) == sorted(barthslice.__all__))\n"
        "print(all(ns[name] is getattr(importlib.import_module(f'barthslice.{module}'), name)\n"
        "          for module, names in barthslice._PUBLIC.items() for name in names))\n"
    )
    assert out == "True\nTrue\n"


def test_submodule_resolves_after_a_bare_import():
    assert _fresh("import barthslice\nprint(barthslice.linalg.__name__)") == "barthslice.linalg\n"


def test_unknown_name_raises_attribute_error():
    out = _fresh(
        "import barthslice\n"
        "try:\n"
        "    barthslice.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    assert out == "module 'barthslice' has no attribute 'no_such_name'\n"


def test_dir_lists_every_public_name():
    out = _fresh("import barthslice\nprint(sorted(set(barthslice.__all__) - set(dir(barthslice))))")
    assert out == "[]\n"


def test_readme_library_example_gives_its_commented_results():
    # each line `expression   # result` of README.md's "Library entry points"
    # example is printed, in a fresh interpreter, and must print its result
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library entry points", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines, expected = [], []
    for line in block.splitlines():
        match = re.fullmatch(r"([^#\s].*?)\s+# (\S+)", line)
        lines.append(f"print({match[1]})" if match else line)
        expected += [match[2]] if match else []
    assert expected == ["10", "True", "True"]
    assert _fresh("\n".join(lines)).splitlines() == expected

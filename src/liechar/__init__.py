"""Exact-arithmetic engine for simple Lie algebras.

Root-system combinatorics, Freudenthal weight multiplicities, Klimyk tensor
decompositions, irreducible characters as integer polynomials in the
fundamental characters, and the unit-coupling trigonometric quantum
many-body operator that is diagonal on them.

The public names are read from their modules when first used (PEP 562), so
``import liechar`` loads no submodule, and a CLI request loads only the
modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "BudgetError",
    "CACHE_ENV_VAR",
    "CartanMatrix",
    "CharacterCache",
    "Decomposition",
    "Delta1Operator",
    "DimReport",
    "DEFAULT_TENSOR_BUDGET",
    "EigenReport",
    "ExponentRangeError",
    "FixtureRecord",
    "LiecharError",
    "OperatorIncompleteError",
    "ParseError",
    "RankMismatchError",
    "Root",
    "Weight",
    "WeightMultiplicityTable",
    "ZPolynomial",
    "a_coeff",
    "b_coeffs",
    "build_cartan",
    "build_delta1",
    "dim_identity",
    "epsilon",
    "format_fixture_record",
    "parse_poly",
    "print_poly",
    "read_fixture_file",
    "read_fixture_text",
    "verify_eigen",
]

# the module that defines each public name
_HOME = {name: module for module, names in {
    "charlib": ("CACHE_ENV_VAR", "CharacterCache", "DimReport", "EigenReport",
                "dim_identity", "verify_eigen"),
    "csop": ("Delta1Operator", "a_coeff", "b_coeffs", "build_delta1"),
    "errors": ("BudgetError", "ExponentRangeError", "LiecharError",
               "OperatorIncompleteError", "ParseError", "RankMismatchError"),
    "repth": ("DEFAULT_TENSOR_BUDGET", "Algebra", "Decomposition",
              "WeightMultiplicityTable", "epsilon"),
    "rootsys": ("CartanMatrix", "Root", "Weight", "build_cartan"),
    "zpoly": ("FixtureRecord", "ZPolynomial", "format_fixture_record",
              "parse_poly", "print_poly", "read_fixture_file",
              "read_fixture_text"),
}.items() for name in names}


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

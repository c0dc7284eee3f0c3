"""Exact-arithmetic engine for simple Lie algebras.

Root-system combinatorics, Freudenthal weight multiplicities, Klimyk tensor
decompositions, irreducible characters as integer polynomials in the
fundamental characters, and the unit-coupling trigonometric quantum
many-body operator that is diagonal on them.
"""

from .charlib import (CACHE_ENV_VAR, CharacterCache, DimReport, EigenReport,
                      FixtureDiff, compare_fixture, dim_identity,
                      load_fixtures, verify_eigen)
from .csop import (Delta1Operator, a_coeff, apply_delta1, b_coeffs,
                   build_delta1, epsilon, ground_energy, level_energy)
from .errors import (BudgetError, ExponentRangeError, LiecharError,
                     OperatorIncompleteError, ParseError, RankMismatchError)
from .repth import (DEFAULT_TENSOR_BUDGET, Algebra, Decomposition,
                    WeightMultiplicityTable)
from .rootsys import (CartanMatrix, RationalMatrix, Root, Weight,
                      build_cartan, inner_product, inverse_cartan,
                      positive_roots, weyl_vector)
from .zpoly import (FixtureRecord, ZPolynomial, format_fixture_record,
                    parse_poly, print_poly, read_fixture_file,
                    read_fixture_text)

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
    "FixtureDiff",
    "FixtureRecord",
    "LiecharError",
    "OperatorIncompleteError",
    "ParseError",
    "RankMismatchError",
    "RationalMatrix",
    "Root",
    "Weight",
    "WeightMultiplicityTable",
    "ZPolynomial",
    "a_coeff",
    "apply_delta1",
    "b_coeffs",
    "build_cartan",
    "build_delta1",
    "compare_fixture",
    "dim_identity",
    "epsilon",
    "format_fixture_record",
    "ground_energy",
    "inner_product",
    "inverse_cartan",
    "level_energy",
    "load_fixtures",
    "parse_poly",
    "positive_roots",
    "print_poly",
    "read_fixture_file",
    "read_fixture_text",
    "verify_eigen",
    "weyl_vector",
]

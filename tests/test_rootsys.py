import random
import re
import time
from fractions import Fraction
from math import gcd, lcm
from operator import add

import pytest
import sympy

import oracles
from liechar import Algebra, CartanMatrix, Weight, build_cartan
from liechar.rootsys import MAX_RANK

E8_EXPECTED = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]

ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "A6": 21,
    "B2": 4, "B3": 9, "C3": 9, "C4": 16, "D4": 12, "D5": 20,
    "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
}


class TestBuild:
    def test_a1(self):
        assert build_cartan("A1").entries == ((2,),)

    def test_a2(self):
        assert build_cartan("A2").entries == ((2, -1), (-1, 2))

    def test_e8_matches_diagram(self):
        cm = build_cartan("E8")
        assert [list(row) for row in cm.entries] == E8_EXPECTED

    def test_case_insensitive(self):
        assert build_cartan("e8") == build_cartan("E8")

    @pytest.mark.parametrize("bad", ["E9", "E5", "F5", "G3", "H3", "A0", "B1", "q"])
    def test_unknown_types(self, bad):
        with pytest.raises(ValueError):
            build_cartan(bad)

    def test_raw_matrix(self):
        cm = build_cartan([[2, -1], [-1, 2]])
        assert cm.label is None
        assert cm.rank == 2

    @pytest.mark.parametrize("entries", [
        [[2, -1]],                    # not square
        [[1]],                        # bad diagonal
        [[2, 1], [1, 2]],             # positive off-diagonal
        [[2, -1], [0, 2]],            # asymmetric zero pattern
        [[2, -2], [-2, 2]],           # determinant 0 (affine)
        [[2, -1], [-5, 2]],           # determinant < 0
        [[2, -1.5], [-1, 2]],         # non-integer entry
        [[2.0, -1], [-1, 2]],         # float entry, even if integral
        [["2", -1], [-1, 2]],         # string entry
        # det 25 > 0, but two hyperbolic blocks: minor of order 2 is -5
        [[2, -3, 0, 0], [-3, 2, 0, 0], [0, 0, 2, -3], [0, 0, -3, 2]],
    ])
    def test_invalid_matrices(self, entries):
        with pytest.raises(ValueError):
            CartanMatrix(entries)

    @pytest.mark.parametrize("digits", [5000, 4000, 21])
    def test_over_long_rank_is_refused_unread(self, digits):
        # int() refuses more than 4300 digits, and the error names no digit
        start = time.monotonic()
        for spec in ("A" + "9" * digits, "e" + "0" * 9000 + "1" * digits):
            with pytest.raises(ValueError) as info:
                build_cartan(spec)
            assert str(info.value) == (f"rank of {digits} digits is above "
                                       "the largest supported rank 100")
        assert time.monotonic() - start < 1.0

    def test_rank_of_20_digits_is_echoed(self):
        with pytest.raises(ValueError) as info:
            build_cartan("B" + "0" * 9000 + "9" * 20)
        assert str(info.value) == (f"rank {'9' * 20} is above the largest "
                                   "supported rank 100")

    def test_leading_zeros_are_not_digits_of_the_rank(self):
        assert build_cartan("A" + "0" * 5000 + "2") == build_cartan("A2")
        assert build_cartan("D0100").rank == 100
        with pytest.raises(ValueError, match="A0 is out of range"):
            build_cartan("A000")

    def test_rank_bound(self):
        assert build_cartan(f"D{MAX_RANK}").rank == MAX_RANK
        for spec in (f"A{MAX_RANK + 1}", "A99999999", "e999999999999"):
            with pytest.raises(ValueError, match="largest supported rank"):
                build_cartan(spec)
        n = MAX_RANK + 1
        rows = [[2 if i == j else -(abs(i - j) == 1) for j in range(n)]
                for i in range(n)]
        with pytest.raises(ValueError, match="largest supported rank"):
            CartanMatrix(rows)


ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "C4", "D4", "D5",
             "G2", "F4", "E6", "E7", "E8"]


class TestInverse:
    # the inverse is held as (det A, adj A), adj A = det A · A^-1
    def test_a1(self):
        cm = build_cartan("A1")
        assert (cm.determinant, cm.adjugate) == (2, ((1,),))

    def test_a2(self):
        cm = build_cartan("A2")
        assert (cm.determinant, cm.adjugate) == (3, ((2, 1), (1, 2)))

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_exactness(self, name):
        cm = build_cartan(name)
        n = cm.rank
        for i in range(n):
            for j in range(n):
                value = sum(cm.entries[i][k] * cm.adjugate[k][j]
                            for k in range(n))
                assert type(value) is int
                assert value == (cm.determinant if i == j else 0)

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_against_sympy(self, name):
        cm = build_cartan(name)
        oracle = sympy.Matrix(cm.entries)
        assert cm.determinant == oracle.det()
        assert sympy.Matrix(cm.adjugate) == oracle.adjugate()

    def test_e8_integral_unimodular(self):
        cm = build_cartan("E8")
        assert cm.determinant == 1
        assert all(type(x) is int for row in cm.adjugate for x in row)


class TestRoots:
    @pytest.mark.parametrize("name,count", sorted(ROOT_COUNTS.items()))
    def test_counts(self, name, count):
        assert len(build_cartan(name).positive_roots) == count

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_coefficients_nonnegative(self, name):
        for root in build_cartan(name).positive_roots:
            assert all(c >= 0 for c in root.coeffs)

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_labels_consistent(self, name):
        cm = build_cartan(name)
        for root in cm.positive_roots:
            expected = tuple(
                sum(c * cm.entries[i][k] for i, c in enumerate(root.coeffs))
                for k in range(cm.rank))
            assert root.labels == expected

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_rho_is_half_sum(self, name):
        # 2ρ in the root basis equals the sum of all positive roots
        cm = build_cartan(name)
        n = cm.rank
        total = [0] * n
        for root in cm.positive_roots:
            for i, c in enumerate(root.coeffs):
                total[i] += c
        rho_coords = [Fraction(sum(cm.adjugate[k][m] for k in range(n)),
                               cm.determinant) for m in range(n)]
        assert [2 * x for x in rho_coords] == total

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_deterministic_order(self, name):
        roots = build_cartan(name).positive_roots
        keyed = [(r.height, r.coeffs) for r in roots]
        assert keyed == sorted(keyed)


class TestInnerProduct:
    def test_zero_vector(self):
        assert Algebra("D4").weight_form([0] * 4, [1, 2, 3, 4]) == 0

    def test_e8_values(self):
        e8 = Algebra("E8")
        rho = e8.rho
        lam8 = [0, 0, 0, 0, 0, 0, 0, 1]
        assert e8.weight_form(rho, rho) == 620
        # strange-formula cross-check: h * dim / 12 with h = 30, dim = 248
        assert e8.weight_form(rho, rho) == Fraction(30 * 248, 12)
        assert e8.weight_form(lam8, rho) == 29
        assert e8.weight_form(lam8, lam8) == 2

    def test_symmetry_bilinearity(self):
        rng = random.Random(7)
        form = Algebra("D4").weight_form
        for _ in range(200):
            x = [rng.randint(-6, 6) for _ in range(4)]
            y = [rng.randint(-6, 6) for _ in range(4)]
            z = [rng.randint(-6, 6) for _ in range(4)]
            a = rng.randint(-3, 3)
            assert form(x, y) == form(y, x)
            combo = [a * xi + zi for xi, zi in zip(x, z)]
            assert form(combo, y) == a * form(x, y) + form(z, y)

    def test_rank_check(self):
        a2 = Algebra("A2")
        with pytest.raises(ValueError):
            a2.weight_form([1], [1, 2])
        with pytest.raises(ValueError):
            a2.weight_form([1, 2], [1, 2, 3])


class TestWeylVector:
    def test_values(self):
        assert tuple(Algebra("A1").rho) == (1,)
        assert tuple(Algebra("E8").rho) == (1,) * 8


LENGTH_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])
# B2 and G2 side by side: two components, scaled independently
TWO_COMPONENTS = ((2, -2, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -3, 2))
# a 3-cycle with d_2 = 2 d_1 by one path and d_2 = d_1 by the other
NOT_SYMMETRIZABLE = ((2, -1, -1), (-2, 2, -1), (-1, -1, 2))


class TestRootLengths:
    """The integer half root lengths against the Fraction BFS they
    replaced, kept in ``oracles.fraction_symmetrizer``."""

    @pytest.mark.parametrize("spec", LENGTH_TYPES + [TWO_COMPONENTS])
    def test_integer_lengths_match_fraction_bfs(self, spec):
        cm = build_cartan(spec)
        lengths = cm._lengths
        reference = oracles.fraction_symmetrizer(cm.entries)
        assert all(type(x) is int and x > 0 for x in lengths)
        assert gcd(*lengths) == 1
        assert tuple(x / max(lengths) for x in map(Fraction, lengths)) \
            == reference
        assert cm.symmetrizer == reference
        assert all(type(x) is Fraction for x in cm.symmetrizer)

    @pytest.mark.parametrize("spec", LENGTH_TYPES + [TWO_COMPONENTS])
    def test_algebra_constants_unchanged(self, spec):
        # the values Algebra derived from the Fraction symmetrizer
        alg = Algebra(spec)
        d = oracles.fraction_symmetrizer(alg.cartan.entries)
        scale = lcm(*(x.denominator for x in d))
        lengths = tuple(int(x * scale) for x in d)
        det = alg.cartan.determinant
        assert alg._lengths == lengths
        assert alg._unit == det * scale
        assert alg._short_norm == 2 * det * min(lengths)
        assert alg.cartan.is_simply_laced == all(x == 1 for x in d)

    @pytest.mark.parametrize("attr", ["_lengths", "symmetrizer",
                                      "is_simply_laced"])
    def test_non_symmetrizable_matrix_raises(self, attr):
        # no such matrix passes the constructor's finite-type test, so the
        # rows are set on a bare instance
        with pytest.raises(ValueError, match="not symmetrizable"):
            oracles.fraction_symmetrizer(NOT_SYMMETRIZABLE)
        cm = object.__new__(CartanMatrix)
        cm.entries, cm.rank = NOT_SYMMETRIZABLE, 3
        with pytest.raises(ValueError, match="not symmetrizable"):
            getattr(cm, attr)


# A1-A12, B2-B10, C2-C10, D3-D10, every exceptional type and A40
DIFFERENTIAL_TYPES = sorted(set(
    ALL_TYPES + [f"A{n}" for n in range(1, 13)]
    + [f"B{n}" for n in range(2, 11)] + [f"C{n}" for n in range(2, 11)]
    + [f"D{n}" for n in range(3, 11)] + ["E6", "E7", "E8", "F4", "G2", "A40"]))


class TestRootClosure:
    """The closure under simple-reflection steps against the root-string
    walk it replaced, kept in ``oracles.string_roots``."""

    @pytest.mark.parametrize("spec", DIFFERENTIAL_TYPES + [TWO_COMPONENTS])
    def test_roots_match_string_walk(self, spec):
        cm = build_cartan(spec)
        assert cm.positive_roots == oracles.string_roots(cm)

    @pytest.mark.parametrize("spec", DIFFERENTIAL_TYPES + [TWO_COMPONENTS])
    def test_steps_add_a_simple_root(self, spec):
        cm = build_cartan(spec)
        roots, steps = cm._root_steps
        assert roots is cm.positive_roots
        assert len(steps) == len(roots) - cm.rank
        for root, (p, s) in zip(roots[cm.rank:], steps):
            assert roots[s].height == 1
            assert tuple(map(add, roots[p].coeffs, roots[s].coeffs)) \
                == root.coeffs
            assert tuple(map(add, roots[p].labels, roots[s].labels)) \
                == root.labels

    @pytest.mark.parametrize("name,count", [("A100", 5050), ("D100", 9900)])
    def test_rank_100_builds_quickly(self, name, count):
        # the rank MAX_RANK admits: about 0.2 and 0.3 s on 2 cores
        start = time.monotonic()
        alg = Algebra(name)
        elapsed = time.monotonic() - start
        assert len(alg.roots) == count
        assert elapsed < 1.5, elapsed


class TestJson:
    def test_matrix_entries_are_strings(self):
        data = build_cartan("A2").to_json_dict()
        assert data["entries"] == [["2", "-1"], ["-1", "2"]]
        assert data["type"] == "A2"


class TestWeight:
    @pytest.mark.parametrize("labels, bad", [
        ((1.5, 0.9), "1.5"), ((1, 0.0), "0.0"), ((Fraction(1, 2), 0), "Fraction(1, 2)"),
        ((2, "3"), "'3'"), ((None,), "None")])
    def test_non_integer_label_is_refused(self, labels, bad):
        with pytest.raises(ValueError,
                           match=re.escape(f"weight label {bad} is not an integer")):
            Weight(labels)

    @pytest.mark.parametrize("labels", [5, None, 2.0])
    def test_non_iterable_labels_are_refused(self, labels):
        with pytest.raises(ValueError, match=re.escape(
                f"weight {labels!r} is not a sequence of labels")):
            Weight(labels)

    def test_integer_types_are_accepted(self):
        import numpy as np
        w = Weight((np.int64(3), np.uint8(0), True, 2))
        assert w == (3, 0, 1, 2) and repr(w) == "Weight(3,0,1,2)"
        assert all(type(x) is int for x in w)

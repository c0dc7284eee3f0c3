import random
from fractions import Fraction

import pytest
import sympy

from liechar import Algebra, CartanMatrix, build_cartan

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
        # det 25 > 0, but two hyperbolic blocks: minor of order 2 is -5
        [[2, -3, 0, 0], [-3, 2, 0, 0], [0, 0, 2, -3], [0, 0, -3, 2]],
    ])
    def test_invalid_matrices(self, entries):
        with pytest.raises(ValueError):
            CartanMatrix(entries)


ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "C4", "D4", "D5",
             "G2", "F4", "E6", "E7", "E8"]


class TestInverse:
    def test_a1(self):
        assert build_cartan("A1").inverse.entries == ((Fraction(1, 2),),)

    def test_a2(self):
        inv = build_cartan("A2").inverse
        third = Fraction(1, 3)
        assert inv.entries == ((2 * third, third), (third, 2 * third))

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_exactness(self, name):
        cm = build_cartan(name)
        inv = cm.inverse
        n = cm.rank
        for i in range(n):
            for j in range(n):
                value = sum(cm.entries[i][k] * inv.entries[k][j] for k in range(n))
                assert value == (1 if i == j else 0)
                value = sum(cm.entries[i][k] * cm.adjugate[k][j]
                            for k in range(n))
                assert type(value) is int
                assert value == (cm.determinant if i == j else 0)

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_against_sympy(self, name):
        cm = build_cartan(name)
        oracle = sympy.Matrix(cm.entries).inv()
        for i in range(cm.rank):
            for j in range(cm.rank):
                entry = oracle[i, j]
                assert cm.inverse.entries[i][j] == Fraction(int(entry.p), int(entry.q))

    def test_e8_integral_unimodular(self):
        cm = build_cartan("E8")
        assert cm.determinant == 1
        assert all(x.denominator == 1 for row in cm.inverse.entries for x in row)


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
        rho_coords = [
            sum(cm.inverse.entries[k][m] for k in range(n)) for m in range(n)]
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


class TestJson:
    def test_matrix_entries_are_strings(self):
        data = build_cartan("A2").to_json_dict()
        assert data["entries"] == [["2", "-1"], ["-1", "2"]]
        assert data["type"] == "A2"

    def test_inverse_entries(self):
        data = build_cartan("A2").inverse.to_json_dict()
        assert data["entries"][0][0] == "2/3"

import itertools
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liechar
import oracles
from liechar import Algebra, BudgetError, CharacterCache, epsilon, repth

E8_FUNDAMENTAL_DIMS = [3875, 147250, 6696000, 6899079264, 146325270,
                       2450240, 30380, 248]


@pytest.fixture(scope="module")
def d4():
    return Algebra("D4")


@pytest.fixture(scope="module")
def a3():
    return Algebra("A3")


class TestRootNorms:
    @pytest.mark.parametrize("name", ["A3", "D4", "D5", "E6", "E7", "E8"])
    def test_simply_laced_root_norms(self, name):
        alg = Algebra(name)
        for root in alg.roots:
            assert alg.weight_form(root.labels, root.labels) == 2
        assert alg._short_norm == 2 * alg._unit

    @pytest.mark.parametrize("name, short, long_count, short_count", [
        ("B2", 1, 2, 2), ("B3", 1, 6, 3), ("C3", 1, 3, 6), ("F4", 1, 12, 12),
        ("G2", Fraction(2, 3), 3, 3)])
    def test_long_and_short_root_norms(self, name, short, long_count,
                                       short_count):
        alg = Algebra(name)
        norms = [alg.weight_form(root.labels, root.labels)
                 for root in alg.roots]
        assert norms.count(2) == long_count
        assert norms.count(short) == short_count
        assert len(norms) == long_count + short_count
        assert alg._short_norm == short * alg._unit

    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2",
                                      "E8"])
    def test_weight_form_matches_oracle(self, name):
        alg = Algebra(name)
        rng = random.Random(41)
        vectors = [alg.fundamental(i) for i in range(1, alg.rank + 1)]
        vectors += [tuple(rng.randint(-4, 4) for _ in range(alg.rank))
                    for _ in range(6)]
        for x in vectors:
            for y in vectors:
                value = alg.weight_form(x, y)
                assert isinstance(value, Fraction)
                assert value == oracles.invariant_form(alg, x, y)


class TestDominantReflect:
    # a zero label in the dominant representative is a nontrivial
    # stabilizer; for ρ-shifted inputs it is the wall-cancellation test
    def test_already_dominant(self, a2):
        w, _ = a2._reflect([2, 1])
        assert (w, 0 in w) == ((2, 1), False)

    def test_zero_label_is_singular(self, a2):
        w, _ = a2._reflect([1, 0])
        assert 0 in w

    def test_single_reflection(self, a2):
        # s1 acts by (m1, m2) -> (-m1, m2 + m1)
        w, _ = a2._reflect([-1, 1])
        assert w == (1, 0)
        assert 0 in w  # the arrival weight sits on a wall

    def test_regular_orbit_signs(self, a2):
        # (-2, -1) = s1 s2 s1 (1, 2), the longest element's image
        w, _ = a2._reflect([-2, -1])
        assert w == (1, 2)
        assert 0 not in w

    def test_randomized_results_dominant(self, d4):
        rng = random.Random(11)
        for _ in range(300):
            v = [rng.randint(-8, 8) for _ in range(4)]
            w, _ = d4._reflect(v)
            assert all(x >= 0 for x in w)

    @pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "D4", "F4",
                                      "E6"])
    def test_root_is_carried_by_the_same_reflections(self, name):
        # replayed on label vectors: s_i x = x - x_i A[i], at the first
        # negative label of the weight each time
        alg = Algebra(name)
        rows = alg.cartan.entries
        rng = random.Random(13)
        n = len(alg.roots)
        for _ in range(200):
            v = [rng.randint(-6, 6) for _ in range(alg.rank)]
            r = rng.randrange(-n, n)  # ~r, below 0, is -roots[r]
            w, image = alg._reflect(list(v), r)
            x = v
            y = (alg.roots[r].labels if r >= 0
                 else tuple(-c for c in alg.roots[~r].labels))
            while any(c < 0 for c in x):
                i = next(k for k, c in enumerate(x) if c < 0)
                x = [a - x[i] * b for a, b in zip(x, rows[i])]
                y = [a - y[i] * b for a, b in zip(y, rows[i])]
            assert w == tuple(x)
            assert tuple(y) == (alg.roots[image].labels if image >= 0 else
                                tuple(-c for c in alg.roots[~image].labels))

    @pytest.mark.parametrize("name", ["A1", "B2", "G2", "D4", "E8"])
    def test_root_reflections_permute_the_roots(self, name):
        alg = Algebra(name)
        n = len(alg.roots)
        for i, row in enumerate(alg._root_reflections):
            assert sorted(row) == list(range(-n, n))
            for r, root in enumerate(alg.roots):
                # only α_i goes negative, and s_i is an involution
                assert (row[r] < 0) == (root.coeffs[i] == 1
                                        and root.height == 1)
                assert row[row[r]] == r and row[~r] == ~row[r]


class TestLabels:
    @pytest.mark.parametrize("w", [(1.5, 0.9), (0.7, 0), (Fraction(1, 2), 0),
                                   (1, Fraction(3, 2))])
    def test_non_integral_label_is_refused(self, a2, w):
        calls = [lambda: a2.weyl_dim(w),
                 lambda: a2.tensor_decompose(w, (1, 0)),
                 lambda: CharacterCache(a2).character_poly(w),
                 lambda: epsilon(a2, w, 1)]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(
                    f"weight {w} has a label that is not an integer")):
                call()

    @pytest.mark.parametrize("w", [5, None, 1.5])
    def test_non_iterable_weight_is_refused(self, a2, w):
        calls = [lambda: a2.weyl_dim(w),
                 lambda: a2.tensor_decompose(w, (1, 0)),
                 lambda: CharacterCache(a2).character_poly(w),
                 lambda: epsilon(a2, w, 1)]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(
                    f"weight {w!r} is not a sequence of labels")):
                call()

    @pytest.mark.parametrize("index", [0, 3])
    def test_fundamental_index_is_refused(self, a2, index):
        with pytest.raises(ValueError, match=re.escape(
                f"index {index} out of range 1..2")):
            a2.fundamental(index)

    def test_integer_types_are_accepted(self, a2):
        import numpy as np
        assert a2.weyl_dim((True, np.int64(1))) == 8
        assert a2.tensor_decompose((np.int32(1), False), (1, 0)) == \
            a2.tensor_decompose((1, 0), (1, 0))
        assert epsilon(a2, (np.uint8(1), 1), 1) == epsilon(a2, (1, 1), 1)


class TestWeylDim:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_a1_line(self, n):
        assert Algebra("A1").weyl_dim((n,)) == n + 1

    def test_a2_formula(self, a2):
        for a in range(5):
            for b in range(5):
                assert a2.weyl_dim((a, b)) == \
                    (a + 1) * (b + 1) * (a + b + 2) // 2

    def test_trivial_rep(self, e8):
        assert e8.weyl_dim((0,) * 8) == 1

    def test_e8_fundamentals(self, e8):
        dims = [e8.weyl_dim(e8.fundamental(i)) for i in range(1, 9)]
        assert dims == E8_FUNDAMENTAL_DIMS

    def test_known_small_algebras(self):
        assert Algebra("D4").weyl_dim((1, 0, 0, 0)) == 8
        assert Algebra("D4").weyl_dim((0, 1, 0, 0)) == 28
        assert Algebra("D4").weyl_dim((0, 0, 1, 0)) == 8
        assert Algebra("B2").weyl_dim((1, 0)) == 5
        assert Algebra("B2").weyl_dim((0, 1)) == 4
        assert Algebra("C3").weyl_dim((1, 0, 0)) == 6
        assert Algebra("G2").weyl_dim((1, 0)) == 7
        assert Algebra("G2").weyl_dim((0, 1)) == 14
        assert Algebra("F4").weyl_dim((0, 0, 0, 1)) == 26
        assert Algebra("F4").weyl_dim((1, 0, 0, 0)) == 52
        assert Algebra("E6").weyl_dim((1, 0, 0, 0, 0, 0)) == 27
        assert Algebra("E7").weyl_dim((0, 0, 0, 0, 0, 0, 1)) == 56

    def test_rank2_oracle(self, a2):
        for a in range(4):
            for b in range(4):
                assert a2.weyl_dim((a, b)) == oracles.dim_of(a2, (a, b))

    def test_rejects_non_dominant(self, a2):
        with pytest.raises(ValueError):
            a2.weyl_dim((-1, 0))

    @pytest.mark.parametrize("name", ["A1", "A4", "B2", "B3", "C3", "C4",
                                      "D4", "D5", "G2", "F4", "E6", "E7",
                                      "E8"])
    def test_matches_per_root_support_sum(self, name):
        # each factor from the root one step lower, against the factor
        # summed over the root's support, on a fresh algebra's first calls
        alg = Algebra(name)
        rng = random.Random(name)
        weights = [tuple(rng.randint(0, 6) for _ in range(alg.rank))
                   for _ in range(100)] + [(0,) * alg.rank]
        for w in weights:
            assert alg.weyl_dim(w) == oracles.weyl_dim_by_support(alg, w)

    def test_shipped_e8_weights_match_per_root_support_sum(
            self, order2_chars, higher_chars):
        e8 = Algebra("E8")
        for m in [*order2_chars, *higher_chars]:
            assert e8.weyl_dim(m) == oracles.weyl_dim_by_support(e8, m)


class TestOrbits:
    def test_origin(self, e8):
        assert e8.orbit_size((0,) * 8) == 1

    def test_a2_regular(self, a2):
        assert a2.orbit_size((1, 1)) == 6

    def test_e8_highest_root(self, e8):
        assert e8.orbit_size((0, 0, 0, 0, 0, 0, 0, 1)) == 240

    def test_e8_first_fundamental(self, e8):
        assert e8.orbit_size((1, 0, 0, 0, 0, 0, 0, 0)) == 2160

    def test_weyl_orders(self, a2, d4, e8):
        assert a2.weyl_order() == 6
        assert d4.weyl_order() == 192
        assert e8.weyl_order() == 696729600
        assert Algebra("G2").weyl_order() == 12
        assert Algebra("F4").weyl_order() == 1152
        assert Algebra("B3").weyl_order() == 48
        assert Algebra("C4").weyl_order() == 384
        assert Algebra("D6").weyl_order() == 23040
        assert Algebra("E6").weyl_order() == 51840
        assert Algebra("E7").weyl_order() == 2903040

    def test_enumeration_matches_size(self, d4):
        rng = random.Random(3)
        for _ in range(40):
            w = [rng.randint(0, 2) for _ in range(4)]
            orbit = list(d4.weyl_orbit(w))
            assert len(orbit) == len(set(orbit)) == d4.orbit_size(w)

    @staticmethod
    def closure(alg, w):
        """The orbit by every simple reflection, with a visited set."""
        rows = alg.cartan.entries
        seen = {tuple(w)}
        todo = [tuple(w)]
        while todo:
            v = todo.pop()
            for i in range(alg.rank):
                # s_i v = v - <v, α_i^∨> α_i, and row i holds α_i's labels
                u = tuple(x - v[i] * a for x, a in zip(v, rows[i]))
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return seen

    @pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "D4"])
    def test_tree_walk_on_small_labels(self, name):
        alg = Algebra(name)
        for w in itertools.product(range(3), repeat=alg.rank):
            orbit = list(alg.weyl_orbit(w))
            assert len(orbit) == len(set(orbit)) == alg.orbit_size(w)
            assert set(orbit) == self.closure(alg, w)

    @pytest.mark.parametrize("name, samples", [("F4", 8), ("E6", 4)])
    def test_tree_walk_on_random_weights(self, name, samples):
        alg = Algebra(name)
        rng = random.Random(7)
        for _ in range(samples):
            w = tuple(rng.randint(0, 1) for _ in range(alg.rank))
            orbit = list(alg.weyl_orbit(w))
            assert len(orbit) == len(set(orbit)) == alg.orbit_size(w)
            assert set(orbit) == self.closure(alg, w)


class TestDominanceOrder:
    @pytest.mark.parametrize("name, det", [
        ("A2", 3), ("B3", 2), ("G2", 1), ("D4", 4), ("E6", 3)])
    def test_integer_rule_matches_fraction_gap(self, name, det):
        alg = Algebra(name)
        assert alg._det == det
        rng = random.Random(23)
        seen = set()
        for _ in range(400):
            high = tuple(rng.randint(0, 3) for _ in range(alg.rank))
            low = tuple(rng.randint(0, 3) for _ in range(alg.rank))
            gap = alg.dominance_gap(high, low)
            integral = all(x.denominator == 1 for x in gap)
            below = integral and all(x >= 0 for x in gap)
            assert oracles.below(alg, high, low) == below
            seen.add((integral, below))
        # both outcomes occur, and so do gaps that are not integral
        # wherever det(A) > 1
        assert (True, True) in seen and (True, False) in seen
        assert ((False, False) in seen) == (det > 1)


class TestFreudenthal:
    def test_a1_triplet(self):
        table = Algebra("A1").freudenthal((2,))
        assert table.entries == {(2,): 1, (0,): 1}

    def test_a2_adjoint(self, a2):
        table = a2.freudenthal((1, 1))
        assert table[(1, 1)] == 1
        assert table[(0, 0)] == 2

    def test_e8_adjoint(self, e8):
        table = e8.freudenthal((0, 0, 0, 0, 0, 0, 0, 1))
        assert table.entries == {(0, 0, 0, 0, 0, 0, 0, 1): 1,
                                 (0, 0, 0, 0, 0, 0, 0, 0): 8}

    def test_highest_weight_present(self, a2):
        assert a2.freudenthal((3, 2))[(3, 2)] == 1

    def test_keys_dominant_and_below_highest(self, d4):
        table = d4.freudenthal((2, 1, 0, 1))
        for w in table.entries:
            assert all(x >= 0 for x in w)
            assert oracles.below(d4, (2, 1, 0, 1), w)

    def test_dimension_sums(self, a2, a3, d4):
        rng = random.Random(5)
        # labels up to 2 on F4 and E6, where 3 gives tables of up to 10^4
        # weights
        for alg, top in ((a2, 3), (a3, 3), (d4, 3), (Algebra("B3"), 3),
                         (Algebra("C3"), 3), (Algebra("G2"), 3),
                         (Algebra("F4"), 2), (Algebra("E6"), 2)):
            for _ in range(25):
                w = [rng.randint(0, top) for _ in range(alg.rank)]
                table = alg.freudenthal(w)
                total = sum(m * alg.orbit_size(v) for v, m in table.items())
                assert total == alg.weyl_dim(w)

    def test_e8_3875_zero_weight(self, e8):
        # dim 3875 = 2160 + 240*m(theta) + 8*m(0) fixes the inner mults
        table = e8.freudenthal((1, 0, 0, 0, 0, 0, 0, 0))
        total = sum(m * e8.orbit_size(v) for v, m in table.items())
        assert total == 3875

    @pytest.mark.parametrize("index", [2, 7])
    def test_e8_big_factor_weight_systems(self, e8, index):
        # the weight systems iterated by the deep tensor products must
        # account for the full module dimension
        lam = e8.fundamental(index)
        table = e8.freudenthal(lam)
        total = sum(m * e8.orbit_size(v) for v, m in table.items())
        assert total == e8.weyl_dim(lam)

    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3", "C3"])
    def test_rank2_oracle(self, name):
        alg = Algebra(name)
        for lam in itertools.product(range(3), repeat=alg.rank):
            table = alg.freudenthal(lam)
            oracle = oracles.weight_multiplicities(alg, lam)
            for w, mult in table.items():
                assert oracle.get(tuple(w), 0) == mult
            # every dominant oracle weight is in the table
            for w, mult in oracle.items():
                if all(x >= 0 for x in w):
                    assert table.get(w, 0) == mult

    @pytest.mark.parametrize("name, lam", [("G2", (9, 7)), ("A1", (200,))])
    def test_long_strings_oracle(self, name, lam):
        # root strings of up to 200 weights, none of which is walked: each
        # string sum is the one above the next dominant weight, carried
        # through the reflection that makes it dominant
        alg = Algebra(name)
        oracle = {w: m for w, m in oracles.weight_multiplicities(
            alg, lam).items() if all(x >= 0 for x in w)}
        assert alg.freudenthal(lam).entries == oracle

    @pytest.mark.parametrize("name", ["A4", "B4", "C4", "D4", "D5", "E6",
                                      "E7", "E8", "F4", "G2"])
    def test_fundamentals_match_the_string_sums(self, name):
        alg = Algebra(name)
        for i in range(1, alg.rank + 1):
            lam = alg.fundamental(i)
            # equal tables, in the same insertion order
            assert (list(alg.freudenthal(lam).entries.items())
                    == list(oracles.freudenthal_strings(alg, lam).items()))

    @pytest.mark.parametrize("name", ["A4", "B4", "C4", "D4", "F4", "G2"])
    def test_random_weights_match_the_string_sums(self, name):
        alg = Algebra(name)
        rng = random.Random(23)
        for _ in range(10):
            lam = tuple(rng.randint(0, 2) for _ in range(alg.rank))
            assert (list(alg.freudenthal(lam).entries.items())
                    == list(oracles.freudenthal_strings(alg, lam).items()))

    def test_long_strings_take_linear_time(self):
        # a root string walked term by term makes V_4000 of A1 quadratic,
        # about 1 s, and 12λ8 of E8 about 1.5 s
        a1 = Algebra("A1")
        start = time.perf_counter()
        table = a1.freudenthal((4000,))
        assert time.perf_counter() - start < 0.25
        assert len(table) == 2001 and set(table.entries.values()) == {1}
        e8 = Algebra("E8")
        lam = (0, 0, 0, 0, 0, 0, 0, 12)
        start = time.perf_counter()
        table = e8.freudenthal(lam)
        assert time.perf_counter() - start < 1.0
        assert len(table) == 843
        assert (sum(m * e8.orbit_size(v) for v, m in table.items())
                == e8.weyl_dim(lam))


class TestTensor:
    def test_a1_square(self):
        dec = Algebra("A1").tensor_decompose((1,), (1,))
        assert dec.entries == {(2,): 1, (0,): 1}

    def test_e8_adjoint_square(self, e8):
        lam8 = e8.fundamental(8)
        dec = e8.tensor_decompose(lam8, lam8)
        assert dec.entries == {
            (0, 0, 0, 0, 0, 0, 0, 2): 1,
            (1, 0, 0, 0, 0, 0, 0, 0): 1,
            (0, 0, 0, 0, 0, 0, 1, 0): 1,
            (0, 0, 0, 0, 0, 0, 0, 1): 1,
            (0, 0, 0, 0, 0, 0, 0, 0): 1,
        }

    def test_e8_3875_times_adjoint(self, e8):
        dec = e8.tensor_decompose(e8.fundamental(1), e8.fundamental(8))
        assert dec.entries == {
            (1, 0, 0, 0, 0, 0, 0, 1): 1,
            (1, 0, 0, 0, 0, 0, 0, 0): 1,
            (0, 1, 0, 0, 0, 0, 0, 0): 1,
            (0, 0, 0, 0, 0, 0, 1, 0): 1,
            (0, 0, 0, 0, 0, 0, 0, 1): 1,
        }

    def test_d4_vector_square(self, d4):
        dec = d4.tensor_decompose((1, 0, 0, 0), (1, 0, 0, 0))
        assert dec.entries == {(2, 0, 0, 0): 1, (0, 1, 0, 0): 1,
                               (0, 0, 0, 0): 1}

    def test_commutativity_and_dim_sums(self, a2, a3, d4):
        rng = random.Random(13)
        a1 = Algebra("A1")
        for alg in (a1, a2, a3, d4):
            for _ in range(15):
                x = tuple(rng.randint(0, 2) for _ in range(alg.rank))
                y = tuple(rng.randint(0, 2) for _ in range(alg.rank))
                dec = alg.tensor_decompose(x, y)
                assert dec.entries == alg.tensor_decompose(y, x).entries
                total = sum(m * alg.weyl_dim(w) for w, m in dec.items())
                assert total == alg.weyl_dim(x) * alg.weyl_dim(y)
                top = tuple(a + b for a, b in zip(x, y))
                assert dec[top] == 1

    def test_rank2_oracle_spot(self, a2):
        dec = a2.tensor_decompose((2, 1), (1, 2))
        assert dec.entries == oracles.tensor_oracle(a2, (2, 1), (1, 2))

    def test_budget_error(self, e8):
        # the budget counts the distinct weights of V_λ4, not its dimension
        # 6,899,079,264
        lam4 = e8.fundamental(4)
        with pytest.raises(BudgetError) as err:
            e8.tensor_decompose(lam4, lam4, budget=3_207_120)
        assert err.value.cost == 3_207_121
        assert err.value.budget == 3_207_120

    def test_budget_override(self):
        # V_(1,1) of A2 has dimension 8 and 7 distinct weights
        fresh = Algebra("A2")  # bypass the session memo
        with pytest.raises(BudgetError):
            fresh.tensor_decompose((1, 1), (1, 1), budget=6)
        with pytest.raises(BudgetError):
            Algebra("A2", tensor_budget=6).tensor_decompose((1, 1), (1, 1))

    @pytest.mark.parametrize("bad", [2.7, 7.0, "7", 0, -1])
    def test_budget_is_a_positive_integer(self, bad):
        # the per-call budget is positional, as wrappers pass it
        with pytest.raises(ValueError, match="tensor budget"):
            Algebra("A2", tensor_budget=bad)
        with pytest.raises(ValueError, match="tensor budget"):
            Algebra("A2").tensor_decompose((1, 1), (1, 1), bad)

    def test_budget_counts_distinct_weights(self, a2):
        # dimension 8 is over a budget of 7, the 7 distinct weights are not
        dec = Algebra("A2", tensor_budget=7).tensor_decompose((1, 1), (1, 1))
        assert dec == a2.tensor_decompose((1, 1), (1, 1))

    def test_orbit_sizes_taken_once_per_factor(self, monkeypatch):
        calls = []
        orbit_size = Algebra.orbit_size

        def counted(self, w):
            calls.append(tuple(w))
            return orbit_size(self, w)

        monkeypatch.setattr(Algebra, "orbit_size", counted)
        # dimension 8 is over the budget, so each call counts the weights
        fresh = Algebra("A2", tensor_budget=7)
        fresh.tensor_decompose((1, 1), (1, 1))
        assert calls
        calls.clear()
        fresh.tensor_decompose((1, 1), (1, 1))
        assert calls == []

    def test_budget_checked_on_cached_products(self):
        fresh = Algebra("A2")
        fresh.tensor_decompose((1, 1), (1, 1))
        with pytest.raises(BudgetError):
            fresh.tensor_decompose((1, 1), (1, 1), budget=6)
        # after V_(3,0) ⊗ V_(2,2), the memo holds the orbit sums of (1,1)
        # and (0,0) against (2,2), all that V_(1,1) ⊗ V_(2,2) needs; the
        # product still costs the 7 distinct weights of V_(1,1)
        fresh.tensor_decompose((3, 0), (2, 2))
        assert all((mu, (2, 2)) in fresh._orbit_sums
                   for mu in fresh.freudenthal((1, 1)).entries)
        refusals = []
        for alg in (fresh, Algebra("A2")):
            with pytest.raises(BudgetError) as err:
                alg.tensor_decompose((1, 1), (2, 2), budget=6)
            refusals.append(err.value.cost)
        assert refusals == [7, 7]

    def test_non_dominant_rejected(self, a2):
        with pytest.raises(ValueError):
            a2.tensor_decompose((-1, 0), (1, 0))


class TestEmitters:
    def test_decomposition_iterates_sorted_items(self, a2):
        dec = a2.tensor_decompose((1, 0), (0, 1))
        assert list(dec) == [((0, 0), 1), ((1, 1), 1)] == dec.items()

    def test_decomposition_json(self, a2):
        data = a2.tensor_decompose((1, 0), (0, 1)).to_json_dict()
        assert {"labels": [1, 1], "mult": "1"} in data
        assert all(isinstance(rec["mult"], str) for rec in data)

    def test_table_json(self, a2):
        data = a2.freudenthal((1, 1)).to_json_dict()
        assert data["highest"] == [1, 1]
        assert {"labels": [0, 0], "mult": "2"} in data["entries"]


# FORCE_LOOP sends every product to the Python loop, FORCE_ARRAY every
# product whose keys fit the array kernel's 64 bits to that kernel
FORCE_LOOP = 2 ** 200
FORCE_ARRAY = 0


def refuse(*args):
    raise AssertionError("array kernel called")


@pytest.fixture(scope="module")
def e8_fresh():
    return Algebra("E8")


@pytest.fixture
def kernel_calls(monkeypatch):
    """The set of dominant weights whose orbits each call of the array
    kernel sums."""
    calls = []
    array_kernel = repth._klimyk_array

    def spy(*args):
        calls.append(set(args[1]))
        return array_kernel(*args)

    monkeypatch.setattr(repth, "_klimyk_array", spy)
    return calls


# per algebra, the products that test_kernels_agree takes beside its own:
# they share larger factors ν, and the smaller factors of each ν have nested
# Freudenthal tables, so which orbit sums a product finds in the memo
# depends on the order of the products
MEMO_SEQUENCES = {
    "A2": [((2, 2), (3, 0)), ((1, 1), (2, 2)), ((2, 2), (0, 3)),
           ((2, 2), (2, 2)), ((1, 1), (2, 1)), ((2, 1), (1, 0))],
    "B3": [((1, 0, 2), (0, 0, 2)), ((0, 1, 0), (1, 0, 2)),
           ((1, 0, 2), (1, 0, 0)), ((0, 0, 1), (0, 1, 1))],
    "G2": [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (1, 1)),
           ((1, 1), (1, 1))],
    "D4": [((2, 0, 0, 0), (1, 0, 0, 1)), ((0, 1, 0, 0), (1, 0, 0, 1)),
           ((1, 0, 0, 1), (0, 0, 0, 1))],
    "E6": [((0, 0, 0, 0, 0, 1), (1, 0, 0, 1, 0, 0)),
           ((0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1)),
           ((0, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1))],
}


class TestKlimykKernels:
    @pytest.mark.parametrize("name, left, right", [
        ("A2", (2, 1), (1, 2)),
        ("B3", (1, 0, 1), (0, 1, 1)),
        ("C3", (1, 1, 0), (0, 1, 1)),
        ("G2", (2, 1), (1, 1)),
        ("D4", (1, 0, 0, 1), (0, 1, 0, 0)),
        ("F4", (0, 0, 1, 1), (1, 0, 0, 1)),
        ("E6", (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 1)),
        ("E7", (0, 0, 0, 0, 0, 1, 1), (1, 0, 0, 0, 0, 0, 1)),
        ("E8", (0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0)),
        ("E8", (0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
        ("E8", (0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0)),
    ])
    def test_kernels_agree(self, monkeypatch, name, left, right):
        # each path takes the products in a shuffled order and in its
        # reverse, each order on a fresh algebra
        products = [(left, right), *MEMO_SEQUENCES.get(name, ())]
        order = random.Random(len(products)).sample(products, len(products))
        results = []
        for threshold in (FORCE_LOOP, FORCE_ARRAY):
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", threshold)
            for pairs in (order, order[::-1]):
                alg = Algebra(name)
                results.append({pair: alg.tensor_decompose(*pair)
                                for pair in pairs})
        assert all(result == results[0] for result in results)
        if name in ("A2", "B3", "C3", "G2", "D4"):
            for (left, right), dec in results[0].items():
                assert dec.entries == oracles.tensor_oracle(
                    Algebra(name), left, right)

    @pytest.mark.parametrize("index", [4, 5])
    def test_array_kernel_on_the_largest_e8_squares(self, kernel_calls,
                                                    e8_fresh, index):
        lam = e8_fresh.fundamental(index)
        dec = e8_fresh.tensor_decompose(lam, lam)
        assert kernel_calls == [set(e8_fresh.freudenthal(lam).entries)]
        total = sum(m * e8_fresh.weyl_dim(w) for w, m in dec.items())
        assert total == e8_fresh.weyl_dim(lam) ** 2
        top = tuple(2 * x for x in lam)
        assert dec[top] == 1

    @pytest.mark.parametrize("chunk", [1, 7, 4096, 2 ** 16])
    @pytest.mark.parametrize("name, left, right", [
        ("A2", (2, 1), (1, 2)),
        ("B3", (1, 0, 1), (0, 1, 1)),
        ("G2", (2, 1), (1, 1)),
        ("F4", (0, 0, 1, 1), (1, 0, 0, 1)),
        ("E6", (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 1)),
    ])
    def test_batch_size_does_not_change_the_sum(self, monkeypatch,
                                                kernel_calls, chunk, name,
                                                left, right):
        # a batch of one key, batches that cut levels and batches that
        # hold several levels or the whole walk
        monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", FORCE_LOOP)
        expected = Algebra(name).tensor_decompose(left, right)
        monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", FORCE_ARRAY)
        monkeypatch.setattr(repth, "_ARRAY_CHUNK", chunk)
        assert Algebra(name).tensor_decompose(left, right) == expected
        assert len(kernel_calls) == 1

    def test_crossover_halves_once_numpy_is_loaded(self):
        # largest orbits: λ3 69,120 weights, λ6 60,480, λ2 17,280.  In a
        # fresh process λ6 takes the loop and numpy stays out; after a λ3
        # product has imported it, a λ6 product takes the kernel and λ2
        # still takes the loop.  Each answer equals the loop's
        code = (
            "import sys\n"
            "from liechar import Algebra, repth\n"
            "calls, kernel = [], repth._klimyk_array\n"
            "def spy(alg, orbits, *rest):\n"
            "    calls.append(set(orbits))\n"
            "    return kernel(alg, orbits, *rest)\n"
            "repth._klimyk_array = spy\n"
            "e8 = Algebra('E8')\n"
            "l2, l3, l5, l6 = map(e8.fundamental, (2, 3, 5, 6))\n"
            "x3, x6, x2 = (max(e8._orbit_sizes(lam).values())\n"
            "              for lam in (l3, l6, l2))\n"
            "least = repth._ARRAY_MIN_ORBIT\n"
            "assert x3 >= least > x6 >= least // 2 > x2\n"
            "products = [(l6, l6), (l3, l3), (l6, l5), (l2, l2)]\n"
            "results, seen = [], []\n"
            "for pair in products:\n"
            "    results.append(e8.tensor_decompose(*pair))\n"
            "    seen.append(('numpy' in sys.modules, len(calls)))\n"
            "assert seen == [(False, 0), (True, 1), (True, 2), (True, 2)]\n"
            "tables = [set(e8.freudenthal(lam).entries) for lam in (l3, l6)]\n"
            "assert calls == tables\n"
            "repth._ARRAY_MIN_ORBIT = 2 ** 200\n"
            "loop = Algebra('E8')\n"
            "assert results == [loop.tensor_decompose(*p) for p in products]\n"
            "assert calls == tables\n")
        src = str(Path(liechar.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0, out.stderr

    def test_lambda6_character_request_does_not_import_numpy(self):
        # the CLI computes χ(3λ7) through λ6⊗λ6, which stays on the loop;
        # a threshold of 2^15 would import numpy here
        code = (
            "import sys, liechar.cli\n"
            "assert liechar.cli.main(['char', 'E8', '0,0,0,0,0,0,3,0']) == 0\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n")
        src = str(Path(liechar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("LIECHAR_CACHE", None)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stderr.strip() == "False"

    @pytest.mark.parametrize("name, big, small", [
        ("A2", (2, 1), (1, 2)),
        ("B3", (1, 0, 1), (0, 1, 1)),
        ("C3", (0, 2, 0), (1, 0, 1)),
        ("G2", (2, 1), (1, 1)),
        ("G2", (0, 3), (2, 0)),
    ])
    def test_label_bound_holds_on_every_weyl_image(self, name, big, small):
        alg = Algebra(name)
        shifted = tuple(x + 1 for x in big)
        bits = alg._lane_width(shifted, small)
        worst = 0
        for mu in alg.freudenthal(small).entries:
            for u in alg.weyl_orbit(mu):
                x = tuple(b + 1 + v for b, v in zip(big, u))
                for y in alg.weyl_orbit(alg._reflect(list(x))[0]):
                    worst = max(worst, max(abs(v) for v in y))
        # the Cauchy-Schwarz bound of _lane_width for two weights:
        # (α, α) worst^2 <= 4 * 2 * ((ν + ρ, ν + ρ) + (small, small))
        square = 8 * (alg._form(shifted, shifted) + alg._form(small, small))
        assert 0 < worst
        assert alg._short_norm * worst * worst <= square
        assert worst < 1 << bits - 1

    @pytest.mark.parametrize("name, big, small", [
        # a label beyond int32 takes 64-bit lanes, 128-bit keys
        ("A2", (2 ** 31, 0), (1, 1)),
        # _lane_width bounds E8's labels by 846 here, so its lanes take 16
        # bits and its keys 128
        ("E8", (200, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
        # E7's by 166: 16-bit lanes, 112-bit keys
        ("E7", (50, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)),
    ])
    def test_labels_beyond_the_kernel_integers_take_the_loop(
            self, monkeypatch, name, big, small):
        alg = Algebra(name)
        bits = alg._lane_width(tuple(x + 1 for x in big), small)
        assert alg.rank * bits > 64
        monkeypatch.setattr(repth, "_klimyk_array", refuse)
        results = []
        for threshold in (FORCE_LOOP, FORCE_ARRAY):
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", threshold)
            results.append(Algebra(name).tensor_decompose(big, small))
        assert results[0] == results[1]
        # the loop skips the runs that meet big's zero labels; reading
        # every run gives the same sum
        assert alg.tensor_decompose(big, small) == results[0]
        assert_runs(alg)
        assert skipped_keys(alg, big, small, bits) > 0
        unskipped_loop(monkeypatch)
        assert Algebra(name).tensor_decompose(big, small) == results[0]

    def test_labels_beyond_the_walk_lanes_take_the_loop(self, monkeypatch):
        # 4λ1 has the labels ±4, so they are not all below 4 while those of
        # λ1 are; the lanes take 8 bits, and A20's 20 lanes make 160-bit
        # keys, beyond the kernel's uint64
        a20 = Algebra("A20")
        small = tuple(4 * x for x in a20.fundamental(1))
        big = a20.fundamental(5)
        assert a20.weyl_dim(big) > a20.weyl_dim(small)
        for lam, top in ((small, 4), (a20.fundamental(1), 1)):
            assert max(abs(x) for mu in a20.freudenthal(lam).entries
                       for u in a20.weyl_orbit(mu) for x in u) == top
        assert a20._lane_width(tuple(x + 1 for x in big), small) == 8
        monkeypatch.setattr(repth, "_klimyk_array", refuse)
        results = []
        for threshold in (FORCE_LOOP, FORCE_ARRAY):
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", threshold)
            results.append(Algebra("A20").tensor_decompose(big, small))
        assert results[0] == results[1]
        assert a20.tensor_decompose(big, small) == results[0]
        assert_runs(a20)
        assert skipped_keys(a20, big, small, 8) > 0
        unskipped_loop(monkeypatch)
        assert Algebra("A20").tensor_decompose(big, small) == results[0]
        # Pieri: e_5 h_4 = s_(5,1^4) + s_(4,1^5)
        hooks = [tuple(a + b for a, b in zip(small, big)),
                 tuple(3 * x + y for x, y in zip(a20.fundamental(1),
                                                  a20.fundamental(6)))]
        assert results[0].entries == {w: 1 for w in hooks}

    def test_lane_guard_decides_where_the_sum_labels_fit(self, monkeypatch):
        # k λ1 ⊗ the adjoint of A3: 8 ((kλ1 + ρ)^2 + (small, small)) /
        # (α, α) is just below 2^30 for k = 18,916, so 16-bit lanes hold
        # its labels, 48-bit keys; k = 18,917 passes 2^30 and takes 32-bit
        # lanes, 96-bit keys, on the loop
        calls = []
        array_kernel = repth._klimyk_array

        def spy(*args):
            calls.append(args[3])
            return array_kernel(*args)

        monkeypatch.setattr(repth, "_klimyk_array", spy)
        small = (1, 0, 1)
        for k, bits, kernel in ((18_916, 16, True), (18_917, 32, False)):
            a3 = Algebra("A3")
            big = (k, 0, 0)
            assert a3.weyl_dim(big) > a3.weyl_dim(small)
            assert a3._lane_width((k + 1, 1, 1), small) == bits
            calls.clear()
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", FORCE_ARRAY)
            forced = a3.tensor_decompose(big, small)
            assert calls == ([bits] if kernel else [])
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", FORCE_LOOP)
            assert forced == Algebra("A3").tensor_decompose(big, small)

    @pytest.mark.parametrize("name, left, right", [
        ("A2", (2, 1), (1, 2)),
        ("A2", (200, 0), (1, 1)),
        ("B3", (1, 0, 1), (0, 1, 1)),
        ("G2", (2, 1), (1, 1)),
        ("F4", (0, 0, 1, 1), (1, 0, 0, 1)),
        ("E6", (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 1)),
        ("E8", (0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
    ])
    def test_both_paths_receive_the_same_lanes(self, monkeypatch, name,
                                                left, right):
        received = []
        loop, array_kernel = Algebra._klimyk_loop, repth._klimyk_array

        def loop_spy(self, table, missing, shifted, bits):
            received.append(("loop", bits))
            return loop(self, table, missing, shifted, bits)

        def kernel_spy(*args):
            received.append(("kernel", args[3]))
            return array_kernel(*args)

        monkeypatch.setattr(Algebra, "_klimyk_loop", loop_spy)
        monkeypatch.setattr(repth, "_klimyk_array", kernel_spy)
        results = []
        for threshold in (FORCE_LOOP, FORCE_ARRAY):
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", threshold)
            results.append(Algebra(name).tensor_decompose(left, right))
        alg = Algebra(name)
        big, small = sorted((left, right), key=alg.weyl_dim, reverse=True)
        bits = alg._lane_width(tuple(x + 1 for x in big), small)
        assert received == [("loop", bits), ("kernel", bits)]
        assert results[0] == results[1]

    def test_long_orbit_with_wide_labels_takes_the_loop(self, monkeypatch):
        # λ8 of A20 has an orbit of 203,490 weights, beyond the threshold,
        # but A20's 20 lanes of 8 bits make 160-bit keys
        monkeypatch.setattr(repth, "_klimyk_array", refuse)
        a20 = Algebra("A20")
        lam8 = a20.fundamental(8)
        assert a20.orbit_size(lam8) >= repth._ARRAY_MIN_ORBIT
        seven = tuple(7 * x for x in a20.fundamental(1))
        dec = a20.tensor_decompose(lam8, seven)
        # Pieri: e_8 h_7 = s_(8,1^7) + s_(7,1^8)
        hooks = [tuple(a + b for a, b in zip(seven, lam8)),
                 tuple(6 * x + y for x, y in zip(a20.fundamental(1),
                                                  a20.fundamental(9)))]
        assert dec.entries == {w: 1 for w in hooks}

    def test_small_products_do_not_import_numpy(self):
        code = (
            "import sys, liechar, liechar.cli\n"
            "assert 'hashlib' not in sys.modules\n"
            "e8 = liechar.Algebra('E8')\n"
            "e8.tensor_decompose(e8.fundamental(8), e8.fundamental(7))\n"
            "print('numpy' in sys.modules)\n")
        src = str(Path(liechar.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False"


def assert_keys_fit(alg):
    """array('Q') holds the keys of a weight system, and its runs' -1 lanes
    and ends, only when every key, rank times the lane width in bits, is
    below 2^64."""
    from array import array
    for (_, bits), system in alg._weight_systems.items():
        for _, keys, ones, ends in system:
            for seq in (keys, ones, ends):
                assert isinstance(seq, array) == (alg.rank * bits <= 64)
            assert max(keys) < 1 << alg.rank * bits


def assert_runs(alg):
    """The runs of each orbit cover its keys in order, and run r holds the
    weights whose label is -1 exactly on the lanes of ones[r]."""
    for (_, bits), system in alg._weight_systems.items():
        for _, keys, ones, ends in system:
            assert len(ones) == len(ends)
            assert list(ends) == sorted(set(ends)) and ends[-1] == len(keys)
            start = 0
            for lanes, end in zip(ones, ends):
                labels = repth._decode(keys[start:end], bits, alg.rank,
                                       1 << bits - 1)
                for u in labels:
                    assert lanes == sum(1 << bits * (k + 1) - 1
                                        for k, x in enumerate(u) if x == -1)
                start = end


def assert_dimension_and_casimir(alg, left, right, dec):
    """The dimension sum, sum N_mu dim V_mu = dim V_left dim V_right, and
    the Casimir sum, sum N_mu eps_mu dim V_mu = (eps_left + eps_right)
    dim V_left dim V_right, hold on ``dec``, the product's constituents."""
    dims = {mu: alg.weyl_dim(mu) for mu in dec.entries}
    product = alg.weyl_dim(left) * alg.weyl_dim(right)
    assert sum(n * dims[mu] for mu, n in dec.items()) == product
    assert sum(n * epsilon(alg, mu) * dims[mu] for mu, n in dec.items()) == \
        (epsilon(alg, left) + epsilon(alg, right)) * product


def skipped_keys(alg, big, small, bits):
    """How many keys of V_small's weight system lie in runs whose -1 lanes
    meet a label 0 of ``big``."""
    zeros = sum(1 << bits * (k + 1) - 1 for k, x in enumerate(big) if x == 0)
    count = 0
    for _, keys, ones, ends in alg._weight_systems[tuple(small), bits]:
        for lanes, start, end in zip(ones, [0, *ends], ends):
            count += (end - start) * bool(lanes & zeros)
    return count


def unskipped_loop(monkeypatch):
    """Make the loop read each orbit as one run with no -1 lane, so that it
    skips nothing."""
    build = Algebra._weight_system

    def whole(self, table, bits):
        return [(mu, keys, [0], [len(keys)])
                for mu, keys, _, _ in build(self, table, bits)]

    monkeypatch.setattr(Algebra, "_weight_system", whole)


class TestKeyLoop:
    def test_lane_width_table(self):
        e8 = Algebra("E8")
        for j, k in itertools.combinations_with_replacement(range(1, 9), 2):
            big, small = sorted((e8.fundamental(j), e8.fundamental(k)),
                                key=e8.weyl_dim, reverse=True)
            assert e8._lane_width(tuple(x + 1 for x in big), small) == 8
        for name, big, small in (("E8", (200,) + (0,) * 7, (0,) * 7 + (1,)),
                                 ("E7", (50,) + (0,) * 6, (0,) * 6 + (1,))):
            alg = Algebra(name)
            assert alg._lane_width(tuple(x + 1 for x in big), small) == 16

    def test_wide_e8_labels_take_16_bit_lanes(self):
        e8 = Algebra("E8")
        big = (200, 0, 0, 0, 0, 0, 0, 0)
        lam8 = e8.fundamental(8)
        assert e8._lane_width(lam8) == 8
        assert e8._lane_width(tuple(x + 1 for x in big), lam8) == 16
        dec = e8.tensor_decompose(big, lam8)
        assert list(e8._weight_systems) == [(lam8, 16)]
        for _, keys, _, _ in e8._weight_systems[lam8, 16]:
            assert type(keys) is list
            assert max(keys) >= 1 << 64
        assert_keys_fit(e8)
        assert_runs(e8)
        assert sum(m * e8.weyl_dim(w) for w, m in dec.items()) == \
            e8.weyl_dim(big) * 248

    def test_a20_takes_160_bit_keys(self):
        a20 = Algebra("A20")
        small = tuple(4 * x for x in a20.fundamental(1))
        big = a20.fundamental(5)
        dec = a20.tensor_decompose(big, small)
        assert list(a20._weight_systems) == [(small, 8)]
        for _, keys, _, _ in a20._weight_systems[small, 8]:
            assert type(keys) is list
        assert_keys_fit(a20)
        assert_runs(a20)
        # Pieri: e_5 h_4 = s_(5,1^4) + s_(4,1^5)
        hooks = [tuple(a + b for a, b in zip(small, big)),
                 tuple(3 * x + y for x, y in zip(a20.fundamental(1),
                                                  a20.fundamental(6)))]
        assert dec.entries == {w: 1 for w in hooks}

    @pytest.mark.parametrize("name, top", [("A2", 3), ("B3", 2), ("C3", 2),
                                           ("G2", 2), ("D4", 1), ("F4", 1)])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_loop_on_random_pairs(self, name, top, data):
        # dominant weights with labels summing to at most ``top``
        rank = Algebra(name).rank
        weight = st.lists(st.integers(0, top), min_size=rank,
                          max_size=rank).filter(lambda w: sum(w) <= top)
        left, right = data.draw(weight), data.draw(weight)
        results = []
        with pytest.MonkeyPatch.context() as mp:
            for threshold in (FORCE_LOOP, FORCE_ARRAY):
                mp.setattr(repth, "_ARRAY_MIN_ORBIT", threshold)
                alg = Algebra(name)
                results.append(alg.tensor_decompose(left, right))
                if threshold == FORCE_LOOP:
                    assert_keys_fit(alg)
        assert results[0] == results[1]
        assert_dimension_and_casimir(Algebra(name), left, right, results[0])
        if name != "F4":
            assert results[0].entries == oracles.tensor_oracle(
                Algebra(name), left, right)

    @pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "D4", "F4",
                                      "E6"])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_skipped_runs_on_random_pairs(self, name, data):
        # ν takes each label from 0 to 2, so the loop skips the runs that
        # meet its zeros and reads the others; the loop that skips nothing
        # and the kernel read every weight.  The oracle peels whole
        # characters, seconds for F4 2λ4 ⊗ λ4, so it checks the smaller
        # products of ranks up to 4
        rank = Algebra(name).rank
        nu = tuple(data.draw(st.lists(st.integers(0, 2), min_size=rank,
                                      max_size=rank)))
        small = Algebra(name).fundamental(data.draw(st.integers(1, rank)))
        results = []
        with pytest.MonkeyPatch.context() as mp:
            for threshold in (FORCE_LOOP, FORCE_ARRAY):
                mp.setattr(repth, "_ARRAY_MIN_ORBIT", threshold)
                alg = Algebra(name)
                results.append(alg.tensor_decompose(nu, small))
                if threshold == FORCE_LOOP:
                    assert_runs(alg)
            mp.setattr(repth, "_ARRAY_MIN_ORBIT", FORCE_LOOP)
            unskipped_loop(mp)
            results.append(Algebra(name).tensor_decompose(nu, small))
        assert results[0] == results[1] == results[2]
        alg = Algebra(name)
        assert_dimension_and_casimir(alg, nu, small, results[0])
        if rank <= 4 and alg.weyl_dim(nu) * alg.weyl_dim(small) <= 200:
            assert results[0].entries == oracles.tensor_oracle(alg, nu, small)


class TestPackedWalk:
    @pytest.mark.parametrize("name, left, right", [
        # 9 orbits, 186,481 weights
        ("E8", (0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0)),
        # asymmetric Cartan rows: a transposed K(α_i) walks wrong weights
        ("B3", (1, 0, 1), (0, 1, 1)),
        ("C3", (1, 1, 0), (0, 1, 1)),
        ("F4", (0, 0, 1, 1), (1, 0, 0, 1)),
        ("G2", (2, 1), (1, 1)),
    ])
    def test_walk_yields_each_orbit_once(self, monkeypatch, name, left,
                                         right):
        levels = []
        walk = repth._packed_orbits

        def spy(alg, weights, bits):
            levels.append((list(weights), bits))
            for keys, origin in walk(alg, weights, bits):
                levels.append((keys.copy(), origin.copy()))
                yield keys, origin

        monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", FORCE_ARRAY)
        monkeypatch.setattr(repth, "_packed_orbits", spy)
        alg = Algebra(name)
        alg.tensor_decompose(left, right)
        (weights, bits), *levels = levels
        small = left if alg.weyl_dim(left) <= alg.weyl_dim(right) else right
        assert sorted(weights) == sorted(alg.freudenthal(small).entries)
        walked = {mu: [] for mu in weights}
        for keys, origin in levels:
            labels = repth._decode(keys.tolist(), bits, alg.rank,
                                   1 << bits - 1)
            for u, i in zip(labels, origin.tolist()):
                walked[weights[i]].append(tuple(u))
        for mu, orbit in walked.items():
            assert len(orbit) == alg.orbit_size(mu)
            assert set(orbit) == set(alg.weyl_orbit(mu))

    def test_e8_keys_use_the_top_bit(self, monkeypatch):
        # E8's 8 lanes of 8 bits fill a uint64 key; the key of u has bit 63
        # set exactly when u_8 >= 0
        import numpy as np

        tops = []
        walk = repth._packed_orbits

        def spy(alg, weights, bits):
            for keys, origin in walk(alg, weights, bits):
                assert keys.dtype == np.uint64
                tops.append(int(keys.max()))
                yield keys, origin

        monkeypatch.setattr(repth, "_packed_orbits", spy)
        e8 = Algebra("E8")
        lam = e8.fundamental(4)
        e8.tensor_decompose(lam, lam)
        assert tops and max(tops) >= 1 << 63

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_kernel_checks_each_orbit_length(self, delta):
        b3 = Algebra("B3")
        big, small = (1, 0, 1), (0, 1, 1)
        bits = b3._lane_width((2, 1, 2), small)
        orbits = dict(b3._orbit_sizes(small))
        mu = max(orbits, key=orbits.get)
        orbits[mu] += delta
        with pytest.raises(AssertionError, match="orbit of"):
            repth._klimyk_array(b3, orbits, (2, 1, 2), bits)

    def test_overrun_orbit_stops_the_walk(self, monkeypatch):
        # after the whole walk, the first level comes again and overruns
        # every orbit; the kernel must stop there, not ask for more
        walk = repth._packed_orbits

        def overrun(alg, weights, bits):
            levels = walk(alg, weights, bits)
            first = next(levels)
            yield first
            yield from levels
            yield first
            raise RuntimeError("the walk went on past an overrun orbit")

        monkeypatch.setattr(repth, "_packed_orbits", overrun)
        b3 = Algebra("B3")
        big, small = (1, 0, 1), (0, 1, 1)
        bits = b3._lane_width((2, 1, 2), small)
        with pytest.raises(AssertionError, match="orbit of"):
            repth._klimyk_array(b3, b3._orbit_sizes(small), (2, 1, 2), bits)

    def test_working_set_of_the_lambda5_square(self, e8_fresh):
        # the 763,681 keys of λ5 alone take 6.1 MB, so a kernel that
        # holds the whole weight system at once fails this bound
        import tracemalloc

        import numpy  # noqa: F401

        lam = e8_fresh.fundamental(5)
        orbits = e8_fresh._orbit_sizes(lam)
        shifted = tuple(x + 1 for x in lam)
        bits = e8_fresh._lane_width(shifted, lam)
        tracemalloc.start()
        try:
            repth._klimyk_array(e8_fresh, orbits, shifted, bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestWeightSystemCache:
    def test_each_weight_system_walked_once(self, monkeypatch):
        walked = []
        keys = repth.WeylOrbit.keys

        def counted(self, bits):
            walked.append(self.highest)
            return keys(self, bits)

        monkeypatch.setattr(repth.WeylOrbit, "keys", counted)
        e8 = Algebra("E8")
        lam1, lam7, lam8 = (e8.fundamental(i) for i in (1, 7, 8))
        e8.tensor_decompose(lam8, lam7)
        assert sorted(walked) == sorted(e8.freudenthal(lam8).entries)
        e8.tensor_decompose(lam8, lam1)
        assert len(walked) == 2

    @pytest.mark.parametrize("k, code", [(40, "b"), (127, "b"), (128, "h"),
                                         (200, "h"), (300, "h")])
    def test_labels_beyond_a_signed_byte(self, k, code):
        from array import array
        a1 = Algebra("A1")
        dec = a1.tensor_decompose((k,), (k + 1,))
        assert dec.entries == {(j,): 1 for j in range(1, 2 * k + 2, 2)}
        # the labels ±k alone fit the lanes of the narrowest signed code;
        # the product's lanes also hold every label its sum forms, up to
        # 2k + 2, so only k = 40 keeps 8-bit lanes
        assert a1._lane_width((k,)) == 8 * array(code).itemsize
        bits = a1._lane_width((k + 2,), (k,))
        assert bits == (8 if k == 40 else 16)
        system = a1._weight_system(a1.freudenthal((k,)), bits)
        bias = 1 << bits - 1
        labels = []
        for _, keys, _, _ in system:
            assert isinstance(keys, array)
            labels += [key - bias for key in keys]
        assert sorted(labels) == list(range(-k, k + 1, 2))

    def test_memory_of_the_lambda6_weight_system(self):
        # its 117,361 keys take 8 bytes each; a list of ints per orbit, or
        # a flag per key beside the keys, would take far more
        import tracemalloc

        e8 = Algebra("E8")
        lam = e8.fundamental(6)
        table = e8.freudenthal(lam)
        e8._orbit_sizes(lam)
        tracemalloc.start()
        try:
            system = e8._weight_system(table, 8)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        count = sum(len(keys) for _, keys, _, _ in system)
        assert count == 117_361
        assert kept <= 1.2 * 8 * count
        assert peak <= 1.25 * 8 * count

    def test_orbit_length_is_checked(self, monkeypatch):
        orbit_size = Algebra.orbit_size
        monkeypatch.setattr(Algebra, "orbit_size",
                            lambda self, w: orbit_size(self, w) + 1)
        with pytest.raises(AssertionError, match="orbit of"):
            Algebra("A2").tensor_decompose((1, 1), (1, 0))


class TestOrbitSums:
    def test_product_with_every_sum_in_the_memo_walks_nothing(
            self, monkeypatch):
        # every dominant weight of V_λ6 is one of V_λ5, so λ5⊗λ5 leaves in
        # the memo every orbit sum against λ5 that λ6⊗λ5 needs
        def walked(*args):
            raise AssertionError("a product whose sums are all in the memo "
                                 "walked an orbit")

        e8 = Algebra("E8")
        lam5, lam6 = e8.fundamental(5), e8.fundamental(6)
        e8.tensor_decompose(lam5, lam5)
        assert set(e8.freudenthal(lam6).entries) <= \
            set(e8.freudenthal(lam5).entries)
        sums = dict(e8._orbit_sums)
        monkeypatch.setattr(Algebra, "_klimyk_loop", walked)
        monkeypatch.setattr(Algebra, "_weight_system", walked)
        monkeypatch.setattr(repth, "_klimyk_array", walked)
        dec = e8.tensor_decompose(lam6, lam5)
        assert e8._orbit_sums == sums
        monkeypatch.undo()
        assert dec == Algebra("E8").tensor_decompose(lam6, lam5)

    @pytest.mark.parametrize("path", ["kernel", "loop"])
    def test_a_failed_product_leaves_no_sum(self, monkeypatch, path):
        # V_(0,1,1) ⊗ V_(1,0,2) of B3 after V_(0,0,1) ⊗ V_(1,0,2): the sum
        # of the orbit of (0,0,1) is in the memo, and those of (0,1,1) and
        # (1,0,1) fail their orbit-length check
        big, small = (1, 0, 2), (0, 1, 1)
        b3 = Algebra("B3")
        b3.tensor_decompose((0, 0, 1), big)
        sums = dict(b3._orbit_sums)
        if path == "kernel":
            # the overrun walk of test_overrun_orbit_stops_the_walk, in
            # batches of 7 keys, so that batches are summed before the
            # overrun level
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", FORCE_ARRAY)
            monkeypatch.setattr(repth, "_ARRAY_CHUNK", 7)
            owner, name, walk = repth, "_packed_orbits", repth._packed_orbits

            def broken(alg, weights, bits):
                levels = walk(alg, weights, bits)
                first = next(levels)
                yield first
                yield from levels
                yield first
        else:
            # the loop's weight system misses a weight of the orbit of
            # (1,0,1), as in test_orbit_length_is_checked, but by a walk
            # that can be restored: orbit sizes are cached per factor
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", FORCE_LOOP)
            owner, name, walk = repth.WeylOrbit, "keys", repth.WeylOrbit.keys

            def broken(self, bits):
                keys = walk(self, bits)
                if self.highest == (1, 0, 1):
                    next(keys)
                return keys

        monkeypatch.setattr(owner, name, broken)
        with pytest.raises(AssertionError, match="orbit of"):
            b3.tensor_decompose(small, big)
        assert b3._orbit_sums == sums
        monkeypatch.setattr(owner, name, walk)
        assert b3.tensor_decompose(small, big) == \
            Algebra("B3").tensor_decompose(small, big)


class TestSharedAlgebra:
    def test_threads_on_one_algebra(self):
        # eight threads share one Algebra's memo tables, switching every 10
        # microseconds; each answer is that of a fresh single-threaded one
        import threading
        rng = random.Random(37)
        weights = [tuple(rng.randint(0, 2) for _ in range(3))
                   for _ in range(10)]
        shared = Algebra("A3")
        results = [None] * 8

        def worker(idx):
            pick = random.Random(idx).choice
            out = []
            for _ in range(12):
                lam, nu = pick(weights), pick(weights)
                out.append((lam, nu, shared.tensor_decompose(lam, nu),
                            shared.freudenthal(lam), shared.weyl_dim(nu)))
            results[idx] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        reference = Algebra("A3")
        for out in results:
            assert out is not None and len(out) == 12
            for lam, nu, product, table, dim in out:
                assert product == reference.tensor_decompose(lam, nu)
                assert table == reference.freudenthal(lam)
                assert dim == reference.weyl_dim(nu)

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liechar
import oracles
from liechar import Algebra, BudgetError, repth

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
    def test_already_dominant(self, a2):
        w, sign, singular = a2.dominant_reflect((2, 1))
        assert (tuple(w), sign, singular) == ((2, 1), 1, False)

    def test_zero_label_is_singular(self, a2):
        _, _, singular = a2.dominant_reflect((1, 0))
        assert singular

    def test_single_reflection(self, a2):
        # s1 acts by (m1, m2) -> (-m1, m2 + m1)
        w, sign, singular = a2.dominant_reflect((-1, 1))
        assert tuple(w) == (1, 0)
        assert sign == -1
        assert singular  # the arrival weight sits on a wall

    def test_regular_orbit_signs(self, a2):
        w, sign, singular = a2.dominant_reflect((-2, -1))
        assert tuple(w) == (1, 2) or tuple(w) == (2, 1)
        assert not singular
        assert sign in (1, -1)

    def test_randomized_results_dominant(self, d4):
        rng = random.Random(11)
        for _ in range(300):
            v = [rng.randint(-8, 8) for _ in range(4)]
            w, sign, _ = d4.dominant_reflect(v)
            assert all(x >= 0 for x in w)
            assert sign in (1, -1)


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
            assert alg.is_dominance_below(low, high) == below
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
            assert d4.is_dominance_below(w, (2, 1, 0, 1))

    def test_dimension_sums(self, a2, a3, d4):
        rng = random.Random(5)
        for alg in (a2, a3, d4):
            for _ in range(25):
                w = [rng.randint(0, 3) for _ in range(alg.rank)]
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

    def test_non_dominant_rejected(self, a2):
        with pytest.raises(ValueError):
            a2.tensor_decompose((-1, 0), (1, 0))


class TestEmitters:
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
    """The highest weight of each table that the array kernel sums."""
    calls = []
    array_kernel = repth._klimyk_array

    def spy(*args):
        calls.append(args[1].highest)
        return array_kernel(*args)

    monkeypatch.setattr(repth, "_klimyk_array", spy)
    return calls


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
    ])
    def test_kernels_agree(self, monkeypatch, name, left, right):
        results = []
        for threshold in (FORCE_LOOP, FORCE_ARRAY):
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", threshold)
            results.append(Algebra(name).tensor_decompose(left, right))
        assert results[0] == results[1]
        if name in ("A2", "B3", "C3", "G2", "D4"):
            assert results[1].entries == oracles.tensor_oracle(
                Algebra(name), left, right)

    @pytest.mark.parametrize("index", [4, 5])
    def test_array_kernel_on_the_largest_e8_squares(self, monkeypatch,
                                                    e8_fresh, index):
        calls = []
        array_kernel = repth._klimyk_array

        def spy(*args):
            calls.append(args[1].highest)
            return array_kernel(*args)

        monkeypatch.setattr(repth, "_klimyk_array", spy)
        lam = e8_fresh.fundamental(index)
        dec = e8_fresh.tensor_decompose(lam, lam)
        assert calls == [lam]
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

    def test_crossover_sends_lambda3_to_the_kernel(self, kernel_calls):
        # largest orbits: λ3 69,120 weights, λ6 60,480, λ2 17,280
        e8 = Algebra("E8")
        lam2, lam3, lam6 = (e8.fundamental(i) for i in (2, 3, 6))
        assert (max(e8._orbit_sizes(lam3).values()) >= repth._ARRAY_MIN_ORBIT
                > max(e8._orbit_sizes(lam6).values()))
        for lam in (lam3, lam6, lam2):
            e8.tensor_decompose(lam, lam)
        assert kernel_calls == [lam3]

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
        bound = alg._label_bound(big, small)
        worst = 0
        for mu in alg.freudenthal(small).entries:
            for u in alg.weyl_orbit(mu):
                x = tuple(b + 1 + v for b, v in zip(big, u))
                for y in alg.weyl_orbit(alg._reflect(list(x))[0]):
                    worst = max(worst, max(abs(v) for v in y))
        assert 0 < worst <= bound

    @pytest.mark.parametrize("name, big, small", [
        # a label beyond int32 takes 64-bit lanes, 128-bit keys
        ("A2", (2 ** 31, 0), (1, 1)),
        # E8's label bound is 847 here, so its lanes take 16 bits and its
        # keys 128
        ("E8", (200, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
        # E7's is 167: 16-bit lanes, 112-bit keys
        ("E7", (50, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)),
    ])
    def test_labels_beyond_the_kernel_integers_take_the_loop(
            self, monkeypatch, name, big, small):
        alg = Algebra(name)
        bits = alg._lane_width(small, alg._label_bound(big, small))
        assert alg.rank * bits > 64
        monkeypatch.setattr(repth, "_klimyk_array", refuse)
        results = []
        for threshold in (FORCE_LOOP, FORCE_ARRAY):
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", threshold)
            results.append(Algebra(name).tensor_decompose(big, small))
        assert results[0] == results[1]

    def test_labels_beyond_the_walk_lanes_take_the_loop(self, monkeypatch):
        # 4λ1 has the labels ±4, so they are not all below 4 while those of
        # λ1 are; the lanes take 8 bits, and A20's 20 lanes make 160-bit
        # keys, beyond the kernel's uint64
        a20 = Algebra("A20")
        small = tuple(4 * x for x in a20.fundamental(1))
        big = a20.fundamental(5)
        assert a20.weyl_dim(big) > a20.weyl_dim(small)
        assert not a20._labels_below(small, 4)
        assert a20._labels_below(a20.fundamental(1), 4)
        assert a20._lane_width(small, a20._label_bound(big, small)) == 8
        monkeypatch.setattr(repth, "_klimyk_array", refuse)
        results = []
        for threshold in (FORCE_LOOP, FORCE_ARRAY):
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", threshold)
            results.append(Algebra("A20").tensor_decompose(big, small))
        assert results[0] == results[1]
        # Pieri: e_5 h_4 = s_(5,1^4) + s_(4,1^5)
        hooks = [tuple(a + b for a, b in zip(small, big)),
                 tuple(3 * x + y for x, y in zip(a20.fundamental(1),
                                                  a20.fundamental(6)))]
        assert results[0].entries == {w: 1 for w in hooks}

    def test_lane_guard_decides_where_the_sum_labels_fit(self, monkeypatch):
        # k λ1 ⊗ the adjoint of A3 has the label bound 32,767 for
        # k = 18,916, which 16-bit lanes hold, 48-bit keys; k = 18,917 has
        # 32,769 and takes 32-bit lanes, 96-bit keys, on the loop
        calls = []
        array_kernel = repth._klimyk_array

        def spy(*args):
            calls.append(args[4])
            return array_kernel(*args)

        monkeypatch.setattr(repth, "_klimyk_array", spy)
        small = (1, 0, 1)
        for k, bits, kernel in ((18_916, 16, True), (18_917, 32, False)):
            a3 = Algebra("A3")
            big = (k, 0, 0)
            assert a3.weyl_dim(big) > a3.weyl_dim(small)
            assert a3._lane_width(small, a3._label_bound(big, small)) == bits
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

        def loop_spy(self, table, shifted, bits):
            received.append(("loop", bits))
            return loop(self, table, shifted, bits)

        def kernel_spy(*args):
            received.append(("kernel", args[4]))
            return array_kernel(*args)

        monkeypatch.setattr(Algebra, "_klimyk_loop", loop_spy)
        monkeypatch.setattr(repth, "_klimyk_array", kernel_spy)
        results = []
        for threshold in (FORCE_LOOP, FORCE_ARRAY):
            monkeypatch.setattr(repth, "_ARRAY_MIN_ORBIT", threshold)
            results.append(Algebra(name).tensor_decompose(left, right))
        alg = Algebra(name)
        big, small = sorted((left, right), key=alg.weyl_dim, reverse=True)
        bits = alg._lane_width(small, alg._label_bound(big, small))
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
    """array('Q') holds the keys of a weight system only when every key,
    rank times the lane width in bits, is below 2^64."""
    from array import array
    for (_, bits), system in alg._weight_systems.items():
        for _, keys, parts, _ in system:
            packed = alg.rank * bits <= 64
            assert isinstance(keys, array) == isinstance(parts, array) == packed
            assert max(keys) < 1 << alg.rank * bits


class TestKeyLoop:
    def test_wide_e8_labels_take_16_bit_lanes(self):
        e8 = Algebra("E8")
        big = (200, 0, 0, 0, 0, 0, 0, 0)
        lam8 = e8.fundamental(8)
        bound = e8._label_bound(big, lam8)
        assert bound == 847
        assert e8._lane_width(lam8, bound) == 16
        dec = e8.tensor_decompose(big, lam8)
        assert list(e8._weight_systems) == [(lam8, 16)]
        for _, keys, _, _ in e8._weight_systems[lam8, 16]:
            assert type(keys) is list
            assert max(keys) >= 1 << 64
        assert_keys_fit(e8)
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
        if name != "F4":
            assert results[0].entries == oracles.tensor_oracle(
                Algebra(name), left, right)


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
        bits = b3._lane_width(small, b3._label_bound(big, small))
        orbits = dict(b3._orbit_sizes(small))
        mu = max(orbits, key=orbits.get)
        orbits[mu] += delta
        with pytest.raises(AssertionError, match="orbit of"):
            repth._klimyk_array(b3, b3.freudenthal(small), orbits,
                                (2, 1, 2), bits)

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
        bits = b3._lane_width(small, b3._label_bound(big, small))
        with pytest.raises(AssertionError, match="orbit of"):
            repth._klimyk_array(b3, b3.freudenthal(small),
                                b3._orbit_sizes(small), (2, 1, 2), bits)

    def test_working_set_of_the_lambda5_square(self, e8_fresh):
        # the 763,681 keys of λ5 alone take 6.1 MB, so a kernel that
        # holds the whole weight system at once fails this bound
        import tracemalloc

        import numpy  # noqa: F401

        lam = e8_fresh.fundamental(5)
        table = e8_fresh.freudenthal(lam)
        orbits = e8_fresh._orbit_sizes(lam)
        shifted = tuple(x + 1 for x in lam)
        bits = e8_fresh._lane_width(lam, e8_fresh._label_bound(lam, lam))
        tracemalloc.start()
        try:
            repth._klimyk_array(e8_fresh, table, orbits, shifted, bits)
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
        bits = a1._lane_width((k,), a1._label_bound((k + 1,), (k,)))
        assert bits == (8 if k == 40 else 16)
        # each weight is indexed by its negative part min(u, 0), up to -k
        system = a1._weight_system(a1.freudenthal((k,)), bits)
        bias = 1 << bits - 1
        labels = []
        for _, keys, parts, ids in system:
            assert isinstance(keys, array) and isinstance(parts, array)
            labels += [key - bias for key in keys]
            assert [parts[i] - bias for i in ids] == \
                [min(key - bias, 0) for key in keys]
        assert sorted(labels) == list(range(-k, k + 1, 2))

    @pytest.mark.parametrize("code", "bhiq")
    def test_negative_parts_in_every_code(self, code):
        # lanes of the widths of the codes b, h, i and q, 8 to 64 bits; 700
        # rows of 3 labels, and the extremes -B and B - 1 test the sign
        # bits; keys of up to 64 bits come in an array('Q')
        from array import array
        rng = random.Random(31)
        bits = 8 * array(code).itemsize
        bias = 1 << bits - 1
        rows = [tuple(rng.choice((-bias, bias - 1, -1, 0, 1,
                                  rng.randrange(-bias, bias)))
                      for _ in range(3)) for _ in range(700)]

        def key(row):
            return sum(x + bias << bits * k for k, x in enumerate(row))

        keys = [key(row) for row in rows]
        if 3 * bits <= 64:
            keys = array("Q", keys)
        held, parts, ids = repth._negative_parts(iter(keys), bits, 3)
        negative = [key(tuple(min(x, 0) for x in row)) for row in rows]
        assert type(held) is type(parts) is type(keys)
        assert held == keys
        assert len(parts) == len(set(negative))
        assert [parts[i] for i in ids] == negative

    def test_part_ids_beyond_two_bytes(self):
        # 2^16 + 1 weights whose labels are all negative, so each is its
        # own negative part, and the part ids need more than two bytes
        rows = [(-1 - a % 128, -1 - a // 128 % 128, -1 - a // 16384)
                for a in range(2 ** 16 + 1)]
        keys = [sum(x + 128 << 8 * k for k, x in enumerate(row))
                for row in rows]
        held, parts, ids = repth._negative_parts(iter(keys), 8, 3)
        assert ids.itemsize > 2
        assert len(parts) == len(keys)
        assert [parts[i] for i in ids] == list(held) == keys

    @pytest.mark.parametrize("big, small", [(7, 8), (6, 1)])
    def test_only_sums_off_a_wall_are_reflected(self, monkeypatch, big, small):
        e8 = Algebra("E8")
        nu, lam = e8.fundamental(big), e8.fundamental(small)
        shifted = [x + 1 for x in nu]
        passed = []
        off_wall = repth._off_wall

        def spy(*args):
            for mult, keys in off_wall(*args):
                keys = list(keys)
                passed.extend(keys)
                yield mult, keys

        monkeypatch.setattr(repth, "_off_wall", spy)
        e8.tensor_decompose(lam, nu)
        # E8's fundamental products take 8-bit lanes
        assert e8._lane_width(lam, e8._label_bound(nu, lam)) == 8
        weights = [tuple((key >> 8 * k & 255) - 128 for k in range(8))
                   for key in passed]
        off = [u for mu in e8.freudenthal(lam).entries
               for u in e8.weyl_orbit(mu)
               if all(x != -s for x, s in zip(u, shifted))]
        assert sorted(weights) == sorted(off)

    def test_orbit_length_is_checked(self, monkeypatch):
        orbit_size = Algebra.orbit_size
        monkeypatch.setattr(Algebra, "orbit_size",
                            lambda self, w: orbit_size(self, w) + 1)
        with pytest.raises(AssertionError, match="orbit of"):
            Algebra("A2").tensor_decompose((1, 1), (1, 0))

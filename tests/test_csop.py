import itertools
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from liechar import (Algebra, BudgetError, CharacterCache, Delta1Operator,
                     ExponentRangeError, OperatorIncompleteError,
                     RankMismatchError, Weight, ZPolynomial, a_coeff,
                     b_coeffs, build_delta1, epsilon, parse_poly,
                     verify_eigen)
from liechar.csop import ColumnStore
from liechar.repth import _epsilon_int
from liechar.zpoly import _SPAN, MAX_EXPONENT

E8_B = (192, 288, 392, 600, 480, 360, 240, 120)


class TestSpectrum:
    def test_ground_state_offset(self, e8):
        for kappa in (0, 1, Fraction(3, 7)):
            assert epsilon(e8, (0,) * 8, kappa) == 0

    def test_e8_fundamental_energies(self, e8):
        assert epsilon(e8, e8.fundamental(1), 1) == 192
        assert epsilon(e8, e8.fundamental(8), 1) == 120

    def test_e8_second_order(self, e8):
        # 2(2λ8, 2λ8 + 2ρ) with (λ8,λ8) = 2 and (λ8,ρ) = 29
        assert epsilon(e8, (0, 0, 0, 0, 0, 0, 0, 2), 1) == 248

    def test_a1(self):
        a1 = Algebra("A1")
        assert epsilon(a1, (1,), 1) == 3
        assert epsilon(a1, (2,), 1) == 8

    def test_rational_coupling(self, e8):
        assert epsilon(e8, e8.fundamental(8), Fraction(1, 2)) == \
            2 * 2 + 4 * Fraction(1, 2) * 29

    def test_ground_energy(self, e8):
        # the oracle that the next test and criterion 7 check epsilon by
        assert oracles.ground_energy(e8, 0) == 0
        assert oracles.ground_energy(e8, 1) == 1240
        assert oracles.ground_energy(e8, Fraction(1, 2)) == 310

    def test_level_minus_ground_is_epsilon(self, e8, a2):
        rng = random.Random(23)
        others = [Algebra(name) for name in ("B3", "C3", "F4", "G2")]
        for alg in [a2, e8] + others:
            for _ in range(50):
                m = [rng.randint(0, 4) for _ in range(alg.rank)]
                kappa = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                assert oracles.level_energy(alg, m, kappa) \
                    - oracles.ground_energy(alg, kappa) \
                    == epsilon(alg, m, kappa)

    @pytest.mark.parametrize("name, weights", [
        ("B3", "cube"), ("C3", "cube"), ("G2", "cube"), ("F4", "fundamentals")])
    def test_dynkin_index_identity(self, name, weights):
        # sum over the weights of V_λ of (μ, μ), times dim g, equals
        # dim V_λ * rank * (λ, λ + 2ρ), and (λ, λ + 2ρ) = eps_λ(1) / 2
        alg = Algebra(name)
        if weights == "cube":
            lams = list(itertools.product((0, 1), repeat=alg.rank))
        else:
            lams = [(0,) * alg.rank] + [alg.fundamental(i)
                                        for i in range(1, alg.rank + 1)]
        dim_g = alg.rank + 2 * len(alg.roots)
        for lam in lams:
            total = sum(mult * alg.orbit_size(mu)
                        * oracles.invariant_form(alg, mu, mu)
                        for mu, mult in alg.freudenthal(lam).items())
            assert total * dim_g == \
                alg.weyl_dim(lam) * alg.rank * epsilon(alg, lam, 1) / 2

    def test_nonnegative_and_zero_only_at_origin(self, e8, a2):
        rng = random.Random(29)
        for alg in (a2, e8):
            for _ in range(60):
                m = tuple(rng.randint(0, 5) for _ in range(alg.rank))
                kappa = Fraction(rng.randint(0, 8), rng.randint(1, 4))
                value = epsilon(alg, m, kappa)
                assert value >= 0
                assert (value == 0) == (not any(m))


class TestIntegerEpsilon:
    """``repth._epsilon_int``, which the operator and ``verify_eigen``
    read, is ``epsilon`` at kappa = 1 computed in integers."""

    @staticmethod
    def _agrees(alg, m):
        value = epsilon(alg, m, 1)
        if value.denominator == 1:
            assert _epsilon_int(alg, m) == value
            return True
        message = (f"eps_{tuple(m)}(1) = {value} is not integral; the "
                   "unit-coupling operator is not integer-valued in these "
                   "variables")
        with pytest.raises(ValueError) as err:
            _epsilon_int(alg, m)
        assert str(err.value) == message
        return False

    def test_shipped_weights(self, e8, order2_chars, higher_chars):
        weights = {**order2_chars, **higher_chars}
        assert len(weights) == 187
        assert all(self._agrees(e8, m) for m in weights)

    @pytest.mark.parametrize("name", ["A4", "D5", "E6", "E7", "E8"])
    def test_random_dominant_weights(self, name):
        alg = Algebra(name)
        rng = random.Random(sum(map(ord, name)))
        integral = sum(
            self._agrees(alg, tuple(rng.randint(0, 4)
                                    for _ in range(alg.rank)))
            for _ in range(200))
        # A4, D5 and E6 have weights of both kinds, E7 and E8 only integral
        # ones
        assert 0 < integral <= 200
        assert (integral == 200) == (name in ("E7", "E8"))


class TestBCoeffs:
    def test_e8(self, e8):
        assert b_coeffs(e8) == E8_B

    def test_a1(self):
        assert b_coeffs(Algebra("A1")) == (3,)

    def test_equals_fundamental_epsilon(self, e8):
        for alg in (Algebra("A1"), Algebra("D4"), Algebra("E7"), e8):
            assert b_coeffs(alg) == tuple(
                epsilon(alg, alg.fundamental(j), 1)
                for j in range(1, alg.rank + 1))

    def test_requires_simply_laced(self):
        with pytest.raises(ValueError):
            b_coeffs(Algebra("B2"))

    def test_non_integral_operator_rejected(self, a2):
        # eps_1(1) = 16/3 on A2: no integer operator in these variables
        with pytest.raises(ValueError, match="not integral"):
            b_coeffs(a2)


class TestACoeff:
    def test_a1_hand_oracle(self):
        # z^2 = chi_2 + 1, eps_2(1) = 8, b = 3: 2a = 8(z^2 - 1) - 6 z^2
        a1 = Algebra("A1")
        assert a_coeff(a1, 1, 1, CharacterCache(a1)) == parse_poly("z1^2 - 4", 1)

    def test_e8_diagonal(self, e8, operator_fixtures):
        cache = CharacterCache(e8)
        assert a_coeff(e8, 8, 8, cache) == operator_fixtures.a[(8, 8)]

    def test_e8_mixed(self, e8, operator_fixtures):
        cache = CharacterCache(e8)
        assert a_coeff(e8, 1, 8, cache) == operator_fixtures.a[(1, 8)]

    def test_symmetric_in_indices(self, e8):
        cache = CharacterCache(e8)
        assert a_coeff(e8, 1, 8, cache) == a_coeff(e8, 8, 1, cache)

    def test_budget_propagates(self):
        # V_λ4 ⊗ V_λ4 visits 3,207,121 distinct weights of V_λ4
        tight = Algebra("E8", tensor_budget=3_207_120)
        with pytest.raises(BudgetError) as err:
            a_coeff(tight, 4, 4, CharacterCache(tight))
        assert err.value.cost == 3_207_121

    def test_index_range(self, e8):
        with pytest.raises(ValueError):
            a_coeff(e8, 0, 9, CharacterCache(e8))


_A1 = Algebra("A1")

# each call reads its argument as a rank or a 1-based index
_INTEGER_READS = {
    "fundamental": lambda x: _A1.fundamental(x),
    "rank": lambda x: ZPolynomial(x),
    "rank-with-terms": lambda x: ZPolynomial(x, {(1,): 1}),
    "variable": lambda x: ZPolynomial.variable(3, x),
    "derivative": lambda x: ZPolynomial.variable(3, 1).partial_derivative(x),
    "parse-rank": lambda x: parse_poly("z1", x),
    "a_coeff": lambda x: a_coeff(_A1, x, 1, CharacterCache(_A1)),
}


class TestIntegerArguments:
    @pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(1, 2), "1", None])
    @pytest.mark.parametrize("read", _INTEGER_READS.values(),
                             ids=list(_INTEGER_READS))
    def test_non_integers_refused(self, read, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            read(bad)

    @pytest.mark.parametrize("read", _INTEGER_READS.values(),
                             ids=list(_INTEGER_READS))
    def test_integer_types_accepted(self, read):
        import numpy as np
        assert read(True) == read(np.int64(1)) == read(1)


@pytest.fixture(scope="module")
def partial_op(e8):
    cache = CharacterCache(e8)
    return build_delta1(
        e8, cache, pairs=[(8, 8), (1, 8), (1, 1), (7, 8), (1, 7), (7, 7)])


class TestOperator:

    def test_annihilates_constants(self, partial_op):
        assert partial_op.apply(ZPolynomial.const(8, 5)).is_zero

    def test_first_order_action(self, partial_op):
        z8 = ZPolynomial.variable(8, 8)
        assert partial_op.apply(z8) == 120 * z8

    def test_eigenvector(self, e8, partial_op):
        chi = parse_poly("-1 - z1 - z7 - z8 + z8^2", 8)
        assert partial_op.apply(chi) == 248 * chi

    def test_linearity(self, e8, partial_op, order2_chars):
        p = order2_chars[Weight((0, 0, 0, 0, 0, 0, 0, 2))]
        q = order2_chars[Weight((1, 0, 0, 0, 0, 0, 0, 1))]
        combo = 3 * p - 7 * q
        assert partial_op.apply(combo) == \
            3 * partial_op.apply(p) - 7 * partial_op.apply(q)

    def test_rank_mismatch_is_typed(self, partial_op):
        with pytest.raises(RankMismatchError) as err:
            partial_op.apply(ZPolynomial.variable(7, 1))
        assert isinstance(err.value, ValueError)

    def test_missing_entry(self, partial_op):
        with pytest.raises(OperatorIncompleteError) as err:
            partial_op.apply(parse_poly("z2^2", 8))
        assert err.value.pair == (2, 2)
        # the first missing pair in (j, k) order is named, whatever the
        # order of the monomials that need them
        mixed = parse_poly("z2^2 + z8^3 + z1*z2 - 2*z1*z8", 8)
        with pytest.raises(OperatorIncompleteError) as err:
            partial_op.apply(mixed)
        with pytest.raises(OperatorIncompleteError) as oracle_err:
            oracles.delta1_apply(partial_op, mixed)
        assert err.value.pair == oracle_err.value.pair == (1, 2)
        assert str(err.value) == str(oracle_err.value)
        # after the failed call, the monomials it shared with a call
        # inside the populated pairs still map as the oracle says
        inside = parse_poly("z8^3 - 2*z1*z8 + 5*z7*z8 + z1^2 - 3", 8)
        assert partial_op.apply(inside) == \
            oracles.delta1_apply(partial_op, inside)

    def test_provenance_tracking(self, e8, e8_build, operator_fixtures):
        # with a character provider every pair is computed, records or not
        op = build_delta1(e8, e8_build.cache,
                          fixture_records=operator_fixtures.records,
                          pairs=[(8, 8), (4, 4)])
        assert op.provenance == {(8, 8): "computed", (4, 4): "computed"}
        assert op.a(4, 4) == operator_fixtures.a[(4, 4)]
        assert op.entries.keys() == {(8, 8), (4, 4)}

    def test_fixture_only_build(self, e8, operator_fixtures):
        op = build_delta1(e8, None, fixture_records=operator_fixtures.records)
        assert len(op.entries) == 36
        assert set(op.provenance.values()) == {"loaded-from-fixture"}

    def test_over_budget_pair_raises(self, operator_fixtures):
        # records never stand in for a product the budget refuses
        tight = Algebra("E8", tensor_budget=3_207_120)
        with pytest.raises(BudgetError) as err:
            build_delta1(tight, CharacterCache(tight),
                         fixture_records=operator_fixtures.records,
                         pairs=[(4, 4), (8, 8)])
        assert err.value.pair == ((0, 0, 0, 1, 0, 0, 0, 0),) * 2

    def test_over_budget_pair_raises_before_any_character(self):
        # (1, 8) comes first in (j, k) order, and its constituent λ1 + λ8
        # is expanded from z1 z8; (4, 4) is refused before that, so the
        # cache holds only the identity and the 8 fundamentals it starts
        # with
        tight = Algebra("E8", tensor_budget=3_207_120)
        cache = CharacterCache(tight)
        with pytest.raises(BudgetError) as err:
            build_delta1(tight, cache, pairs=[(4, 4), (8, 1)])
        assert err.value.pair == ((0, 0, 0, 1, 0, 0, 0, 0),) * 2
        assert err.value.cost == 3_207_121
        assert len(cache._mem) == 9

    @pytest.mark.parametrize("name", ["D4", "E7"])
    def test_every_pair_product_comes_first(self, monkeypatch, name):
        # the 36 products of E8 from nothing, taken before the character
        # recursion, import numpy for λ3 before λ6 is multiplied
        events = []
        product, expand = Algebra.tensor_decompose, CharacterCache._expand

        def product_spy(self, left, right, *args):
            events.append((tuple(left), tuple(right)))
            return product(self, left, right, *args)

        def expand_spy(self, *args):
            events.append("expand")
            return expand(self, *args)

        monkeypatch.setattr(Algebra, "tensor_decompose", product_spy)
        monkeypatch.setattr(CharacterCache, "_expand", expand_spy)
        alg = Algebra(name)
        op = build_delta1(alg, CharacterCache(alg))
        pairs = sorted(op.entries)
        assert len(pairs) == alg.rank * (alg.rank + 1) // 2
        assert events[:len(pairs)] == [
            (tuple(alg.fundamental(j)), tuple(alg.fundamental(k)))
            for j, k in pairs]
        assert "expand" in events[len(pairs):]

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 9)], "indices (0, 9) out of range 1..8"),
        ([(9, 9)], "indices (9, 9) out of range 1..8"),
        ([(1, 1), (9, 9)], "indices (9, 9) out of range 1..8"),
        ([(1, 1), (2, 2.5)], "index 2.5 is not an integer"),
    ])
    @pytest.mark.parametrize("computed", [False, True],
                             ids=["fixture", "provider"])
    def test_bad_pair_is_refused_first(self, e8, operator_fixtures, pairs,
                                       message, computed):
        class Untouched:
            def character_poly(self, m):
                raise AssertionError("a character was read before the check")

        provider = Untouched() if computed else None
        with pytest.raises(ValueError, match=re.escape(message)):
            build_delta1(e8, provider, fixture_records=operator_fixtures.records,
                         pairs=pairs)

    @pytest.mark.parametrize("j, k, outcome", [
        (9, 9, "indices (9, 9) out of range 1..8"),
        (0, 1, "indices (0, 1) out of range 1..8"),
        (1, 2.5, "index 2.5 is not an integer"),
        (8, 1, (1, 8)),
        (2, 2, OperatorIncompleteError),
    ])
    def test_a_reads_its_indices_as_a_coeff_does(self, partial_op, j, k,
                                                   outcome):
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match=re.escape(outcome)) as err:
                partial_op.a(j, k)
            assert not isinstance(err.value, OperatorIncompleteError)
        elif isinstance(outcome, tuple):
            assert partial_op.a(j, k) is partial_op.a(*outcome)
        else:
            with pytest.raises(outcome) as err:
                partial_op.a(j, k)
            assert err.value.pair == (j, k)

    def test_hand_built_a_record_out_of_range(self, e8):
        from liechar.zpoly import FixtureRecord
        bad = FixtureRecord("a", (9, 1), parse_poly("z1", 8))
        with pytest.raises(ValueError, match=re.escape(
                "indices (9, 1) out of range 1..8")):
            build_delta1(e8, None, fixture_records=[bad], pairs=[])

    def test_b_fixture_mismatch_rejected(self, e8):
        from liechar.zpoly import FixtureRecord
        bad = FixtureRecord("b", (8,), parse_poly("121*z8", 8))
        with pytest.raises(ValueError):
            build_delta1(e8, None, fixture_records=[bad], pairs=[])

    def test_monomials_bounded_by_top_weight(self, e8, e8_build):
        # regression: every monomial of a_jk lies below λ_j + λ_k in
        # dominance order (it comes from a character of that module)
        for (j, k), poly in e8_build.operator.entries.items():
            top = tuple((1 if i == j - 1 else 0) + (1 if i == k - 1 else 0)
                        for i in range(8))
            for exps in poly.terms:
                assert oracles.below(e8, top, exps)

    def test_requires_simply_laced(self):
        b2 = Algebra("B2")
        with pytest.raises(ValueError):
            build_delta1(b2, CharacterCache(b2))


def _fixture_operator(e8, operator_fixtures):
    return build_delta1(e8, None, fixture_records=operator_fixtures.records)


@pytest.fixture(scope="module")
def fixture_op(e8, operator_fixtures):
    return _fixture_operator(e8, operator_fixtures)


rank8_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 8),
    st.integers(-10 ** 6, 10 ** 6).filter(bool), max_size=8)


class TestColumns:
    """``apply`` sums cached per-monomial columns; the derivative form in
    ``oracles.delta1_apply`` is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(rank8_polys)
    def test_matches_derivative_oracle(self, fixture_op, terms):
        p = ZPolynomial(8, terms)
        assert fixture_op.apply(p) == oracles.delta1_apply(fixture_op, p)

    def test_follows_replaced_entry_and_b(self, e8, operator_fixtures,
                                          order2_chars):
        op = _fixture_operator(e8, operator_fixtures)
        chi = order2_chars[Weight((0, 0, 0, 0, 0, 0, 1, 1))]
        before = op.apply(chi)
        assert before == oracles.delta1_apply(op, chi)
        op.entries[(7, 8)] = op.entries[(7, 8)] + ZPolynomial.variable(8, 1)
        after_entry = op.apply(chi)
        assert after_entry != before
        assert after_entry == oracles.delta1_apply(op, chi)
        op.b = op.b[:7] + (op.b[7] + 1,)
        after_b = op.apply(chi)
        assert after_b != after_entry
        assert after_b == oracles.delta1_apply(op, chi)
        # a b held in a list and changed in place is followed too
        op.b = list(op.b)
        op.apply(chi)
        op.b[6] -= 5
        assert op.apply(chi) == oracles.delta1_apply(op, chi)

    def test_two_threads_share_one_operator(self, e8, operator_fixtures,
                                            higher_chars):
        op = _fixture_operator(e8, operator_fixtures)
        chars = [higher_chars[m] for m in sorted(higher_chars)[:40]]
        expected = [oracles.delta1_apply(op, chi) for chi in chars]
        results = [None, None]

        def work(slot, order):
            results[slot] = {i: op.apply(chars[i]) for i in order}

        order = list(range(len(chars)))
        threads = [threading.Thread(target=work, args=(0, order)),
                   threading.Thread(target=work, args=(1, order[::-1]))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for result in results:
            assert [result[i] for i in order] == expected

    def test_exponent_at_the_limit_is_refused(self, e8, operator_fixtures):
        op = _fixture_operator(e8, operator_fixtures)
        # d8^2 lowers z8^MAX by two and a[8,8] = ... + 4*z8^2 raises it back
        top = ZPolynomial.monomial(8, (0,) * 7 + (MAX_EXPONENT,))
        assert op.apply(top) == oracles.delta1_apply(op, top)
        # d1^2 leaves z8^MAX alone and a[1,1] = ... - 76*z8^2 lifts it over
        over = ZPolynomial.monomial(8, (2,) + (0,) * 6 + (MAX_EXPONENT,))
        with pytest.raises(ExponentRangeError):
            op.apply(over)
        with pytest.raises(ExponentRangeError):
            oracles.delta1_apply(op, over)
        below = ZPolynomial.monomial(8, (2, 0, 0, 0, 0, 0, 0, 3))
        assert op.apply(below) == oracles.delta1_apply(op, below)


class TestPackedColumns:
    """``apply`` packs a column when it builds it, and adds the packed
    columns of a call as one integer when the call's bound allows it."""

    @staticmethod
    def _twice(op, p):
        """Check ``apply(p)`` against ``oracles.delta1_apply`` twice: on
        the call that builds and packs the columns of ``p``, and on one
        that finds them stored."""
        expected = oracles.delta1_apply(op, p)
        assert op.apply(p) == expected
        assert op.apply(p) == expected

    @settings(max_examples=60, deadline=None)
    @given(rank8_polys)
    def test_matches_derivative_oracle(self, fixture_op, terms):
        self._twice(fixture_op, ZPolynomial(8, terms))

    @pytest.mark.parametrize("scale", [2 ** 40, -2 ** 40, 2 ** 100, -2 ** 100])
    def test_wide_coefficients(self, e8, operator_fixtures, order2_chars,
                               scale):
        # max |column coefficient| is 3,720, so at 2^40 and 2^100 the bound
        # is over 2^31 and the call adds every column term by term
        op = _fixture_operator(e8, operator_fixtures)
        chi = order2_chars[Weight((0, 0, 0, 0, 0, 0, 1, 1))]
        small = order2_chars[Weight((1, 0, 0, 0, 0, 0, 0, 1))]
        wide = scale * chi - 3 * small
        self._twice(op, wide)
        # the same columns packed, then term by term again
        self._twice(op, small)
        self._twice(op, wide + scale * small)

    @pytest.mark.parametrize("c", [2 ** 31 - 1, 2 ** 31, -2 ** 31,
                                   2 ** 63 - 1, 2 ** 63, -2 ** 63])
    def test_width_at_the_bound(self, c):
        # the column of z1 is z1 and that of z1^2 is 2*z1^2 + 2, so the
        # bound on the sum is |c| or |c| + 2; a bound of 2^31 or more sends
        # the call term by term
        op = Delta1Operator(1, (1,), {(1, 1): ZPolynomial.const(1, 1)})
        z1 = ZPolynomial.variable(1, 1)
        self._twice(op, c * z1)
        self._twice(op, (c - 2) * z1 + z1 * z1)
        self._twice(op, -c * z1 - z1 * z1)

    def test_zero_and_constant(self, fixture_op):
        for p in (ZPolynomial.zero(8), ZPolynomial.const(8, -7)):
            self._twice(fixture_op, p)
            assert fixture_op.apply(p).is_zero

    def test_follows_replaced_entry_and_b(self, e8, operator_fixtures,
                                          order2_chars):
        op = _fixture_operator(e8, operator_fixtures)
        chi = order2_chars[Weight((0, 0, 0, 0, 0, 0, 1, 1))]
        self._twice(op, chi)
        op.entries[(7, 8)] = op.entries[(7, 8)] + ZPolynomial.variable(8, 1)
        self._twice(op, chi)
        op.b = op.b[:7] + (op.b[7] + 1,)
        self._twice(op, chi)
        op.b = list(op.b)
        self._twice(op, chi)
        op.b[6] -= 5
        self._twice(op, chi)

    def test_two_threads_share_one_operator(self, e8, operator_fixtures,
                                            higher_chars):
        op = _fixture_operator(e8, operator_fixtures)
        chars = [higher_chars[m] for m in sorted(higher_chars)[:40]]
        chars += [-(2 ** 40) * chars[0] + chars[1], 5 * chars[2]]
        expected = [oracles.delta1_apply(op, chi) for chi in chars]
        results = [None, None]

        def work(slot, order):
            results[slot] = [(i, op.apply(chars[i])) for i in order
                             for _ in range(2)]

        order = list(range(len(chars)))
        threads = [threading.Thread(target=work, args=(0, order)),
                   threading.Thread(target=work, args=(1, order[::-1]))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for result in results:
            assert len(result) == 2 * len(chars)
            for i, image in result:
                assert image == expected[i]

    def test_verify_eigen_on_a_changed_character(self, e8, operator_fixtures,
                                                 higher_chars):
        op = _fixture_operator(e8, operator_fixtures)
        m = sorted(higher_chars)[-1]
        chi = higher_chars[m]
        exps, coeff = chi.sorted_terms()[len(chi) // 2]
        bad = chi + ZPolynomial.monomial(8, exps, 1)
        eps = int(epsilon(e8, m, 1))
        residual = oracles.delta1_apply(op, bad) - eps * bad
        assert not residual.is_zero
        for _ in range(2):
            report = verify_eigen(e8, m, bad, op)
            assert not report.ok
            assert report.residual == residual
        assert verify_eigen(e8, m, chi, op).ok


eigen_sized_shifts = st.one_of(
    st.sampled_from([0, 1, -1, 2 ** 40, -2 ** 40]),
    st.integers(-1320, 1320))


def _shifted(op, p, shift):
    return oracles.delta1_apply(op, p) - shift * p


class TestShiftedPackedSum:
    """``apply(p, shift)`` is Δ1 p - shift p, with -shift p packed beside
    the packed columns.  Each test applies a polynomial more than once:
    the first call builds and packs its columns, later ones find them
    stored."""

    @staticmethod
    def _thrice(op, p, shifts=(0, 5, -248)):
        for shift in shifts:
            expected = _shifted(op, p, shift)
            for _ in range(3):
                assert op.apply(p, shift) == expected

    @settings(max_examples=40, deadline=None)
    @given(rank8_polys, st.tuples(*[eigen_sized_shifts] * 3))
    def test_matches_derivative_oracle(self, e8, operator_fixtures, terms,
                                       shifts):
        op = _fixture_operator(e8, operator_fixtures)
        p = ZPolynomial(8, terms)
        for shift in shifts:
            assert op.apply(p, shift) == _shifted(op, p, shift)

    def test_the_first_use_packs(self, e8, operator_fixtures, order2_chars):
        op = _fixture_operator(e8, operator_fixtures)
        chi = order2_chars[Weight((0, 0, 0, 0, 0, 0, 1, 1))]
        assert op.apply(chi, 1) == _shifted(op, chi, 1)
        store = op._columns[1]
        assert store._packed.keys() == chi._terms.keys()

    @pytest.mark.parametrize("b", [2 ** 31, -2 ** 31])
    def test_a_peak_of_two_to_the_31_stays_unpacked(self, b):
        # the column of z1 is b*z1, that of z1^2 is 2b*z1^2 + 2, and that
        # of 1 is 0; a digit of 2^31 does not fit a 32-bit slot.  At b = 1
        # all three columns, under the keys 0, 1 and 2, are packed
        op = Delta1Operator(1, (1,), {(1, 1): ZPolynomial.const(1, 1)})
        z1 = ZPolynomial.variable(1, 1)
        p = 1 - z1 + z1 * z1
        self._thrice(op, p, (0, 1, -1))
        assert op._columns[1]._packed.keys() == {0, 1, 2}
        op.b = (b,)
        self._thrice(op, p, (0, 1, -1))
        assert op._columns[1]._packed.keys() == {0}

    def test_eigenvector_sums_to_zero(self, e8, operator_fixtures,
                                      higher_chars):
        op = _fixture_operator(e8, operator_fixtures)
        for m in sorted(higher_chars)[:20]:
            eps = int(epsilon(e8, m, 1))
            for _ in range(3):
                assert op.apply(higher_chars[m], eps).is_zero

    @pytest.mark.parametrize("scale", [2 ** 40, -2 ** 40, 2 ** 100, -2 ** 100])
    def test_wide_coefficients(self, e8, operator_fixtures, order2_chars,
                               scale):
        op = _fixture_operator(e8, operator_fixtures)
        chi = order2_chars[Weight((0, 0, 0, 0, 0, 0, 1, 1))]
        small = order2_chars[Weight((1, 0, 0, 0, 0, 0, 0, 1))]
        self._thrice(op, scale * chi - 3 * small)
        self._thrice(op, small)
        # a shift alone that puts the bound over 2^31
        self._thrice(op, small, (scale, -scale))

    @pytest.mark.parametrize("c", [2 ** 31 - 1, 2 ** 31, -2 ** 31,
                                   2 ** 63 - 1, 2 ** 63, -2 ** 63])
    def test_width_at_the_bound(self, c):
        op = Delta1Operator(1, (1,), {(1, 1): ZPolynomial.const(1, 1)})
        z1 = ZPolynomial.variable(1, 1)
        self._thrice(op, c * z1, (0, 1, -1))
        self._thrice(op, (c - 2) * z1 + z1 * z1, (0, 1))
        # the column of 1 is 0, so the bound is |c|: 2^31 and over go term
        # by term
        self._thrice(op, ZPolynomial.const(1, c), (1, -1))

    def test_follows_replaced_entry_and_b(self, e8, operator_fixtures,
                                          order2_chars):
        op = _fixture_operator(e8, operator_fixtures)
        chi = order2_chars[Weight((0, 0, 0, 0, 0, 0, 1, 1))]
        self._thrice(op, chi)
        op.entries[(7, 8)] = op.entries[(7, 8)] + ZPolynomial.variable(8, 1)
        self._thrice(op, chi)
        op.b = op.b[:7] + (op.b[7] + 1,)
        self._thrice(op, chi)
        op.b = list(op.b)
        self._thrice(op, chi)
        op.b[6] -= 5
        self._thrice(op, chi)

    def test_two_threads_share_one_operator(self, e8, operator_fixtures,
                                            higher_chars):
        op = _fixture_operator(e8, operator_fixtures)
        weights = sorted(higher_chars)[:30]
        chars = [higher_chars[m] for m in weights]
        shifts = [int(epsilon(e8, m, 1)) for m in weights]
        chars += [-(2 ** 40) * chars[0] + chars[1], 5 * chars[2]]
        shifts += [shifts[0], 3]
        expected = [_shifted(op, chi, s) for chi, s in zip(chars, shifts)]
        results = [None, None]

        def work(slot, order):
            results[slot] = [(i, op.apply(chars[i], shifts[i]))
                             for _ in range(3) for i in order]

        order = list(range(len(chars)))
        threads = [threading.Thread(target=work, args=(0, order)),
                   threading.Thread(target=work, args=(1, order[::-1]))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for result in results:
            assert len(result) == 3 * len(chars)
            for i, image in result:
                assert image == expected[i]

    def test_verify_eigen_on_changed_characters(self, e8, operator_fixtures,
                                                higher_chars):
        op = _fixture_operator(e8, operator_fixtures)
        rng = random.Random(41)
        for m in sorted(higher_chars)[-3:]:
            chi = higher_chars[m]
            exps, _ = chi.sorted_terms()[rng.randrange(len(chi))]
            bad = chi + ZPolynomial.monomial(8, exps, rng.choice([-2, 1]))
            eps = int(epsilon(e8, m, 1))
            residual = _shifted(op, bad, eps)
            assert not residual.is_zero
            for _ in range(4):
                report = verify_eigen(e8, m, bad, op)
                assert not report.ok
                assert report.residual == residual
                assert verify_eigen(e8, m, chi, op).ok

    @staticmethod
    def _spy_on_combine(monkeypatch) -> list:
        """The rank of each ``ZPolynomial.combine`` call from now on."""
        calls = []
        combine = ZPolynomial.combine

        def spy(rank, terms):
            calls.append(rank)
            return combine(rank, terms)

        monkeypatch.setattr(ZPolynomial, "combine", staticmethod(spy))
        return calls

    def test_a_shipped_pass_is_kronecker_sums_alone(
            self, e8, operator_fixtures, order2_chars, higher_chars,
            monkeypatch):
        # every column of the 187 shipped characters is packed, so once
        # they are built no check adds anything term by term
        op = _fixture_operator(e8, operator_fixtures)
        chars = {**order2_chars, **higher_chars}
        assert len(chars) == 187
        for m, chi in chars.items():
            assert verify_eigen(e8, m, chi, op).ok
        store = op._columns[1]
        assert len(store._packed) == len(store._columns) == 249
        assert len(store._slots) == 253
        calls = self._spy_on_combine(monkeypatch)
        reports = [verify_eigen(e8, m, chi, op) for m, chi in chars.items()]
        assert calls == []
        assert all(r.ok and r.residual.is_zero for r in reports)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("whole", [False, True],
                             ids=["monomial", "character"])
    def test_packed_sum_below_and_at_the_bound(
            self, e8, operator_fixtures, order2_chars, monkeypatch, sign,
            whole):
        # B = (peak + |shift|) sum |c|: the largest B below 2^31 is one
        # Kronecker sum, decoded; the smallest B from 2^31 on is added
        # term by term.  On a monomial with c = 1 they are 2^31 - 1 and
        # 2^31 exactly
        op = _fixture_operator(e8, operator_fixtures)
        chi = order2_chars[Weight((0, 0, 0, 0, 0, 0, 1, 1))]
        exps, _ = chi.sorted_terms()[0]
        p = chi if whole else ZPolynomial.monomial(8, exps)
        assert op.apply(p) == oracles.delta1_apply(op, p)
        packed = op._columns[1]._packed
        peak = max(packed[key][0] for key in p._terms)
        size = sum(map(abs, p._terms.values()))
        below = (2 ** 31 - 1) // size - peak
        at = -(-2 ** 31 // size) - peak
        assert (peak + below) * size < 2 ** 31 <= (peak + at) * size
        if not whole:
            assert (peak + below, peak + at) == (2 ** 31 - 1, 2 ** 31)
        expected = {shift: _shifted(op, p, sign * shift)
                    for shift in (below, at)}
        calls = self._spy_on_combine(monkeypatch)
        for shift, combined in ((below, 0), (at, 1)):
            calls.clear()
            assert op.apply(p, sign * shift) == expected[shift]
            assert len(calls) == combined

    def test_wide_columns_stay_unpacked(self, e8, operator_fixtures,
                                        monkeypatch):
        # a random monomial's column has hundreds of terms over monomials
        # met nowhere else, so packing every column would number slots for
        # all of them; a column is packed only while the slots stay within
        # _SPAN per term of it.  A call with an unpacked column is one
        # combine and decodes nothing, even of its packed columns
        op = _fixture_operator(e8, operator_fixtures)
        decoded = []
        add = ColumnStore._add_digits
        monkeypatch.setattr(ColumnStore, "_add_digits", lambda self, total,
                            out: (decoded.append(total), add(self, total, out)))
        rng = random.Random(47)
        mixed = 0
        for _ in range(30):
            p = ZPolynomial(8, {
                tuple(rng.randint(0, 3) for _ in range(8)): rng.randint(1, 9)
                for _ in range(rng.randint(1, 8))})
            expected = _shifted(op, p, 7)
            for _ in range(3):
                decoded.clear()
                assert op.apply(p, 7) == expected
                packed = op._columns[1]._packed
                if not p._terms.keys() <= packed.keys():
                    assert decoded == []
                    mixed += bool(p._terms.keys() & packed.keys())
        assert mixed > 0
        store = op._columns[1]
        assert store._packed and store._columns.keys() - store._packed.keys()
        for key in store._packed:
            top = max(store._slots[k] for k in (key, *store._columns[key]._terms))
            assert top < _SPAN * (len(store._columns[key]) + 1)
        # no more than the rule that charged every column for the store's
        # total slots packed and numbered on this traffic
        assert len(store._slots) <= 20_855
        assert len(store._packed) <= 22

    @pytest.mark.parametrize("top, packed", [
        (3 * _SPAN * 2 - 1, True), (3 * _SPAN * 2, False)])
    def test_a_column_of_numbered_slots(self, top, packed):
        # the column of 1 numbers the slots of 1, z1, ..., z1^top in turn;
        # the column of z1, the one term z1^top, then numbers no fresh slot
        # and is packed while its top slot is below 3 _SPAN (terms + 1)
        power = [ZPolynomial.monomial(1, (i,)) for i in range(top + 1)]
        columns = {(0,): ZPolynomial(1, {(i,): 1 for i in range(top + 1)}),
                   (1,): power[top]}
        store = ColumnStore(1)
        for exps in ((0,), (1,), (1,)):
            assert store.apply(power[exps[0]], 0, lambda monomials: [
                columns[e] for e in monomials]) == columns[exps]
        slots = [store._slots[key] for p in power for key in p._terms]
        assert slots == list(range(top + 1))
        (key,) = power[1]._terms
        assert (key in store._packed) is packed
        assert len(store._packed) == 1 + packed

    def test_random_traffic_within_a_wall_bound(self, e8, operator_fixtures):
        # 60 random rank-8 polynomials, each applied twice: the span rule
        # keeps most of their columns unpacked and the slots few
        op = _fixture_operator(e8, operator_fixtures)
        rng = random.Random(43)
        polys = [ZPolynomial(8, {
            tuple(rng.randint(0, 3) for _ in range(8)):
                rng.choice([-1, 1]) * rng.randint(1, 10 ** 6)
            for _ in range(rng.randint(1, 8))}) for _ in range(60)]
        start = time.monotonic()
        for p in polys:
            first = op.apply(p)
            assert op.apply(p) == first
        assert time.monotonic() - start < 10.0
        assert first == oracles.delta1_apply(op, polys[-1])

    def test_one_shot_traffic_within_a_wall_bound(self, e8,
                                                  operator_fixtures):
        # 60 random rank-8 polynomials, each applied once on a fresh
        # operator: every column is built, and packed if the span rule
        # admits it, on the call that first meets it
        op = _fixture_operator(e8, operator_fixtures)
        rng = random.Random(53)
        polys = [ZPolynomial(8, {
            tuple(rng.randint(0, 3) for _ in range(8)):
                rng.choice([-1, 1]) * rng.randint(1, 10 ** 6)
            for _ in range(rng.randint(1, 8))}) for _ in range(60)]
        start = time.monotonic()
        images = [op.apply(p) for p in polys]
        assert time.monotonic() - start < 10.0
        for p, image in zip(polys[-3:], images[-3:]):
            assert image == oracles.delta1_apply(op, p)


class TestIdentityElement:
    """At the identity every fundamental character is its dimension, and
    the operator's second-order part vanishes there."""

    def _assert_vanishes(self, e8, operator):
        dims = [e8.weyl_dim(e8.fundamental(i)) for i in range(1, 9)]
        assert len(operator.entries) == 36
        for pair, entry in operator.entries.items():
            assert entry.evaluate(dims) == 0, pair

    def test_computed_operator(self, e8, e8_build):
        self._assert_vanishes(e8, e8_build.operator)

    def test_packaged_operator(self, e8, fixture_op):
        self._assert_vanishes(e8, fixture_op)

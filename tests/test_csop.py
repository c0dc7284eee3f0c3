import itertools
import random
from fractions import Fraction

import pytest

import oracles
from liechar import (Algebra, BudgetError, CharacterCache,
                     OperatorIncompleteError, RankMismatchError, ZPolynomial,
                     a_coeff, b_coeffs, build_delta1, epsilon,
                     ground_energy, level_energy, parse_poly)

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
        assert ground_energy(e8, 0) == 0
        assert ground_energy(e8, 1) == 1240
        assert ground_energy(e8, Fraction(1, 2)) == 310

    def test_level_minus_ground_is_epsilon(self, e8, a2):
        rng = random.Random(23)
        others = [Algebra(name) for name in ("B3", "C3", "F4", "G2")]
        for alg in [a2, e8] + others:
            for _ in range(50):
                m = [rng.randint(0, 4) for _ in range(alg.rank)]
                kappa = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                assert level_energy(alg, m, kappa) - ground_energy(alg, kappa) \
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
        from liechar import Weight
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
        with pytest.raises(OperatorIncompleteError):
            partial_op.apply(parse_poly("z2^2", 8))

    def test_provenance_tracking(self, e8, e8_build, operator_fixtures):
        # with a character provider every pair is computed, records or not
        op = build_delta1(e8, e8_build.cache,
                          fixture_records=operator_fixtures.records,
                          pairs=[(8, 8), (4, 4)])
        assert op.provenance == {(8, 8): "computed", (4, 4): "computed"}
        assert op.a(4, 4) == operator_fixtures.a[(4, 4)]
        assert op.has(4, 4) and not op.has(2, 2)

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

    def test_b_fixture_mismatch_rejected(self, e8):
        from liechar.zpoly import FixtureRecord
        bad = FixtureRecord("b", (8,), parse_poly("121*z8", 8))
        with pytest.raises(ValueError):
            build_delta1(e8, None, fixture_records=[bad], pairs=[])

    def test_json_export(self, e8, operator_fixtures):
        op = build_delta1(e8, None, fixture_records=operator_fixtures.records,
                          pairs=[(8, 8)])
        data = op.to_json_dict()
        assert data["b"] == [str(x) for x in E8_B]
        assert data["a"][0]["j"] == 8 and data["a"][0]["provenance"] == \
            "loaded-from-fixture"

    def test_monomials_bounded_by_top_weight(self, e8, e8_build):
        # regression: every monomial of a_jk lies below λ_j + λ_k in
        # dominance order (it comes from a character of that module)
        for (j, k), poly in e8_build.operator.entries.items():
            top = tuple((1 if i == j - 1 else 0) + (1 if i == k - 1 else 0)
                        for i in range(8))
            for exps in poly.terms:
                assert e8.is_dominance_below(exps, top)

    def test_requires_simply_laced(self):
        b2 = Algebra("B2")
        with pytest.raises(ValueError):
            build_delta1(b2, CharacterCache(b2))

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (ExponentRangeError, LiecharError, ParseError,
                     RankMismatchError, ZPolynomial)
import oracles
from liechar.zpoly import (format_fixture_record, parse_poly, print_poly,
                           read_fixture_text)


def P(text, rank=8):
    return parse_poly(text, rank)


class TestArithmetic:
    def test_mul_variables(self):
        z8 = ZPolynomial.variable(8, 8)
        assert z8 * z8 == P("z8^2")

    def test_additive_inverse(self):
        p = P("3*z1 - 2*z2^2 + 7")
        assert (p + (-1) * p).is_zero

    def test_character_rearrangement(self):
        # z8^2 decomposes into the top character plus lower fundamentals
        chi = P("-1 - z1 - z7 - z8 + z8^2")
        assert chi + P("1 + z1 + z7 + z8") == P("z8^2")

    def test_scale(self):
        assert 3 * P("z1 - z2") == P("3*z1 - 3*z2")
        assert 0 * P("z1") == ZPolynomial.zero(8)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            P("z1", rank=2) + P("z1", rank=3)

    @pytest.mark.parametrize("op", [
        lambda p: p * 1.5,
        lambda p: p + 1.5,
        lambda p: p * Fraction(1, 2),
        lambda p: p * None,
        lambda p: 1.5 - p,
    ], ids=["mul_float", "add_float", "mul_fraction", "mul_none", "rsub_float"])
    def test_foreign_operand_is_type_error(self, op):
        with pytest.raises(TypeError):
            op(P("z1 + 2"))

    def test_zero_coefficients_dropped(self):
        p = ZPolynomial(2, {(1, 0): 5, (0, 1): 0})
        assert p.terms == {(1, 0): 5}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ZPolynomial(2, {(-1, 0): 1})

    def test_coefficient_of_wrong_length_is_rank_mismatch(self):
        p = P("3 + z1 + 5*z2", rank=2)
        assert p.coefficient((0, 1)) == 5
        for exps in [(1,), (0, 1, 0), (1, 0, 0, 0)]:
            with pytest.raises(RankMismatchError):
                p.coefficient(exps)


TOP = 2 ** 31 - 1


class TestExponentRange:
    def test_error_is_typed(self):
        assert issubclass(ExponentRangeError, LiecharError)
        assert issubclass(ExponentRangeError, ValueError)

    def test_ceiling_is_accepted(self):
        p = ZPolynomial.monomial(2, (TOP, 0), 3)
        assert P("3*z1^2147483647", rank=2) == p
        assert P("z1^2147483646 * z1", rank=2) == ZPolynomial.monomial(2, (TOP, 0))
        assert p.coefficient((TOP, 0)) == 3
        assert parse_poly(print_poly(p), 2) == p
        assert p.partial_derivative(1).terms == {(TOP - 1, 0): 3 * TOP}
        top_field = ZPolynomial.monomial(2, (0, TOP - 1)) * P("z2", rank=2)
        assert top_field.terms == {(0, TOP): 1}

    @pytest.mark.parametrize("text, offset", [
        ("z1^2147483648", 3),
        ("z2^2147483647*z2", 14),
        ("7 + 2*z1^4294967296", 9),
    ])
    def test_parse_refuses_at_the_exponent(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_poly(text, 2)
        assert err.value.offset == offset

    @pytest.mark.parametrize("exps", [(TOP + 1, 0), (0, TOP + 1), (2 ** 32, 0),
                                      (-1, 0), (0, -1)])
    def test_constructor_monomial_and_coefficient_refuse(self, exps):
        with pytest.raises(ExponentRangeError):
            ZPolynomial(2, {exps: 1})
        with pytest.raises(ExponentRangeError):
            ZPolynomial.monomial(2, exps)
        with pytest.raises(ExponentRangeError):
            ZPolynomial.const(2, 1).coefficient(exps)

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_square_of_two_to_the_thirty_is_refused(self, index):
        exps = [0, 0, 0]
        exps[index - 1] = 2 ** 30
        p = ZPolynomial.monomial(3, exps) + 1
        with pytest.raises(ExponentRangeError):
            p * p
        with pytest.raises(ExponentRangeError):
            ZPolynomial.combine(3, [(1, P("z1", rank=3), None), (2, p, p)])


class TestCalculus:
    def test_derivative_square(self):
        assert P("z8^2").partial_derivative(8) == P("2*z8")

    def test_derivative_other_variable(self):
        assert P("z8^2").partial_derivative(1).is_zero

    def test_derivative_product(self):
        assert P("z1*z8 - z2").partial_derivative(8) == P("z1")

    def test_derivative_index_range(self):
        with pytest.raises(ValueError):
            P("z1").partial_derivative(9)

    def test_evaluate_constant(self):
        assert ZPolynomial.const(8, 1).evaluate([0] * 8) == 1

    def test_evaluate_big(self):
        point = [0, 0, 0, 0, 0, 0, 0, 248]
        assert P("z8^2 - z8").evaluate(point) == 248 ** 2 - 248 == 61256

    def test_evaluate_length_check(self):
        with pytest.raises(RankMismatchError):
            P("z1").evaluate([1, 2])


class TestParser:
    def test_factored_table_style(self):
        expanded = P("-124 - 28*z1 - 4*z7 - 64*z8 + 4*z8^2")
        assert P("-4*(31 + 7*z1 + z7 + 16*z8 - z8^2)") == expanded
        # the asterisk before '(' is optional, whitespace joins factors
        assert P("-4 (31 + 7 z1 + z7 + 16 z8 - z8^2)") == expanded

    def test_zero(self):
        assert P("0").is_zero

    def test_latex_thin_space_ignored(self):
        assert P(r"7\,z1\,z8") == P("7*z1*z8")

    def test_nested_parens_rejected(self):
        with pytest.raises(ParseError):
            P("2*(1 + 3*(z1))")

    def test_variable_beyond_rank(self):
        with pytest.raises(ParseError) as err:
            P("z3", rank=2)
        assert err.value.offset == 0

    def test_exponent_on_integer_rejected(self):
        with pytest.raises(ParseError):
            P("2^3")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            P("z1 )")

    def test_unknown_character_offset(self):
        with pytest.raises(ParseError) as err:
            P("z1 + q")
        assert err.value.offset == 5

    def test_paren_needs_scalar_prefix(self):
        with pytest.raises(ParseError):
            P("z1*(1 + z2)")


class TestPrinter:
    def test_zero(self):
        assert print_poly(ZPolynomial.zero(3)) == "0"

    def test_table_order(self):
        # constants first, later variables weigh more, unit coefficients bare
        p = P("z3 + z1*z2 - 1 + 2*z1*z8^2 + z8^3")
        assert print_poly(p) == "-1 + z1*z2 + z3 + 2*z1*z8^2 + z8^3"

    def test_leading_negative(self):
        assert print_poly(P("-1 - z1")) == "-1 - z1"


def _poly_strategy(rank):
    term = st.tuples(
        st.tuples(*[st.integers(0, 4) for _ in range(rank)]),
        st.integers(-10 ** 9, 10 ** 9))
    return st.lists(term, max_size=8).map(
        lambda pairs: ZPolynomial(rank, {e: c for e, c in pairs}))


triples = st.integers(1, 4).flatmap(
    lambda r: st.tuples(_poly_strategy(r), _poly_strategy(r), _poly_strategy(r)))


class TestProperties:
    @given(triples)
    def test_ring_axioms(self, polys):
        p, q, r = polys
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)

    @given(triples)
    def test_derivatives_commute(self, polys):
        p, _, _ = polys
        for j in range(1, p.rank + 1):
            for k in range(j + 1, p.rank + 1):
                assert p.partial_derivative(j).partial_derivative(k) == \
                    p.partial_derivative(k).partial_derivative(j)

    @given(triples, st.lists(st.integers(-9, 9), min_size=4, max_size=4))
    def test_evaluate_is_ring_hom(self, polys, point):
        p, q, _ = polys
        point = point[:p.rank]
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)

    @settings(max_examples=200)
    @given(st.integers(1, 5).flatmap(_poly_strategy))
    def test_parse_print_round_trip(self, p):
        assert parse_poly(print_poly(p), p.rank) == p


# every field filled up to 2^30 - 1, so a product reaches 2^31 - 2 without
# crossing into the next field; byte and half-field edges drawn often
_boundary_exponent = st.one_of(
    st.sampled_from([0, 1, 255, 256, 65535, 65536, 2 ** 24 - 1, 2 ** 24,
                     2 ** 29, 2 ** 30 - 2, 2 ** 30 - 1]),
    st.integers(0, 2 ** 30 - 1))


def _wide_poly_strategy(rank):
    term = st.tuples(st.tuples(*[_boundary_exponent] * rank),
                     st.integers(-10 ** 12, 10 ** 12))
    return st.lists(term, max_size=6).map(
        lambda pairs: ZPolynomial(rank, {e: c for e, c in pairs}))


class TestFieldBoundaries:
    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(
        lambda r: st.tuples(_wide_poly_strategy(r), _wide_poly_strategy(r))))
    def test_matches_tuple_keyed_oracles(self, polys):
        p, q = polys
        rank = p.rank
        pq = p * q
        assert pq.terms == oracles.lmul(p.terms, q.terms)
        assert (p + q).terms == oracles.ladd(p.terms, q.terms)
        assert (p - q).terms == oracles.ladd(p.terms, oracles.lscale(q.terms, -1))
        for i in range(rank):
            assert p.partial_derivative(i + 1).terms == oracles.lderiv(p.terms, i)
        assert pq.sorted_terms() == sorted(pq.terms.items(),
                                           key=lambda t: t[0][::-1])
        assert pq.evaluate([1] * rank) == sum(pq.terms.values())
        assert pq.evaluate([-1] * rank) == sum(
            c * (-1) ** sum(e) for e, c in pq.terms.items())
        assert parse_poly(print_poly(pq), rank) == pq


class TestCombine:
    @given(triples, st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    def test_matches_operators_and_dict_oracle(self, polys, coeffs):
        p, q, r = polys
        a, b, c = coeffs
        rank = p.rank
        assert ZPolynomial.combine(rank, [(1, p, None), (1, q, None)]) == p + q
        assert ZPolynomial.combine(rank, [(a, p, None)]) == a * p
        assert ZPolynomial.combine(rank, [(1, p, None), (-1, q, None)]) == p - q
        assert ZPolynomial.combine(rank, [(1, p, q)]) == p * q
        fused = ZPolynomial.combine(rank, [(a, p, None), (b, q, r), (c, r, p)])
        assert fused == a * p + b * (q * r) + c * (r * p)
        expected = oracles.ladd(
            oracles.lscale(p.terms, a),
            oracles.ladd(oracles.lscale(oracles.lmul(q.terms, r.terms), b),
                         oracles.lscale(oracles.lmul(r.terms, p.terms), c)))
        assert fused.terms == expected

    def test_cancelling_terms_leave_no_zero(self):
        p = P("3*z1 - 2*z2^2 + 7")
        q = P("z1 + z2^2")
        partial = ZPolynomial.combine(8, [(1, p, None), (-3, q, None)])
        assert partial.terms == P("-5*z2^2 + 7").terms
        assert 0 not in partial.terms.values()
        whole = ZPolynomial.combine(8, [(2, p, q), (-1, q, p), (-1, p, q)])
        assert whole.is_zero and whole.terms == {}

    def test_generator_equals_list(self):
        terms = [(1, P("z1 - 1"), None), (2, P("z8^2 + z2"), P("z1 - 1")),
                 (-3, P("-4*z1*z8 + 3"), P("z1 + z8"))]
        assert ZPolynomial.combine(8, (t for t in terms)) == \
            ZPolynomial.combine(8, terms)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            ZPolynomial.combine(2, [(1, P("z1", rank=3), None)])
        with pytest.raises(RankMismatchError):
            ZPolynomial.combine(2, [(1, P("z1", rank=2), P("z1", rank=3))])


class TestFixtureRecords:
    def test_round_trip(self):
        text = """# comment line
chi[0,0,0,0,0,0,0,2] = -1 - z1 - z7 - z8 + z8^2

a[8,8] = -4*(31 + 7*z1 + z7 + 16*z8 - z8^2)

b[8] = 120*z8
"""
        records = read_fixture_text(text, 8)
        assert [r.kind for r in records] == ["chi", "a", "b"]
        assert records[0].index == (0, 0, 0, 0, 0, 0, 0, 2)
        assert records[1].poly == P("-124 - 28*z1 - 4*z7 - 64*z8 + 4*z8^2")
        reprinted = "\n\n".join(format_fixture_record(r) for r in records)
        assert [r.poly for r in read_fixture_text(reprinted, 8)] == \
            [r.poly for r in records]

    def test_bad_header(self):
        with pytest.raises(ParseError):
            read_fixture_text("chi{1} = z1", 1)

    def test_wrong_label_count(self):
        with pytest.raises(ParseError):
            read_fixture_text("chi[1,2] = z1", 1)

    def test_packaged_files_parse(self, operator_fixtures, order2_chars,
                                  higher_chars):
        assert len(operator_fixtures.a) == 36
        assert len(operator_fixtures.b) == 8
        assert len(order2_chars) == 36
        assert len(higher_chars) == 151

    def test_multi_hundred_term_round_trip(self, operator_fixtures):
        big = operator_fixtures.a[(4, 4)]
        assert len(big) > 200
        assert parse_poly(print_poly(big), 8) == big

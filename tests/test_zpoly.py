import gc
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (ExponentRangeError, LiecharError, ParseError,
                     RankMismatchError, ZPolynomial)
import oracles
from conftest import HIGHER_FILE, OPERATOR_FILE, ORDER2_FILE
from liechar import zpoly
from liechar.csop import ColumnStore
from liechar.rootsys import MAX_RANK
from liechar.zpoly import (format_fixture_record, parse_poly, print_poly,
                           read_fixture_file, read_fixture_text)


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

    def test_negation_repr_and_foreign_equality(self):
        p = P("3 + 2*z1 - z2^2", rank=2)
        assert -p == P("-3 - 2*z1 + z2^2", rank=2)
        assert repr(p) == "ZPolynomial(rank=2, '3 + 2*z1 - z2^2')"
        assert (p == "3 + 2*z1 - z2^2") is False

    def test_keys_that_pack_alike_cancel(self):
        # b"\x01\x00" is a second exponent sequence (1, 0): unequal as a
        # dict key, equal once packed
        assert ZPolynomial(2, {(1, 0): 1, b"\x01\x00": -1}).is_zero
        assert ZPolynomial(2, {(1, 0): 1, b"\x01\x00": 2}) == P("3*z1", 2)

    def test_variable_index_is_refused(self):
        for index in (0, 9):
            with pytest.raises(ValueError, match=re.escape(
                    f"variable index {index} out of range 1..8")):
                ZPolynomial.variable(8, index)

    def test_zero_coefficients_dropped(self):
        p = ZPolynomial(2, {(1, 0): 5, (0, 1): 0})
        assert p.terms == {(1, 0): 5}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ZPolynomial(2, {(-1, 0): 1})

    @pytest.mark.parametrize("bad", [1.0, 1.5, Fraction(1, 2), "1", None])
    def test_non_integers_refused(self, bad):
        # no number is truncated or read as text: each raises a ValueError
        # that names it
        p = P("3 + z1", rank=2)
        for make in (lambda: ZPolynomial(2, {(bad, 0): 1}),
                     lambda: ZPolynomial.monomial(2, (bad, 0)),
                     lambda: p.coefficient((bad, 0)),
                     lambda: ZPolynomial(2, {(1, 0): bad}),
                     lambda: ZPolynomial.monomial(2, (1, 0), bad),
                     lambda: ZPolynomial.const(2, bad),
                     lambda: p.evaluate([bad, 2])):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                make()

    def test_integer_types_accepted(self):
        import numpy as np
        p = ZPolynomial(2, {(np.int64(1), True): np.int64(3)})
        assert p == ZPolynomial.monomial(2, (1, 1), 3)
        assert ZPolynomial.const(2, np.int64(2)) == 2
        assert p.evaluate([np.int64(2), 5]) == 30

    def test_coefficient_of_wrong_length_is_rank_mismatch(self):
        p = P("3 + z1 + 5*z2", rank=2)
        assert p.coefficient((0, 1)) == 5
        for exps in [(1,), (0, 1, 0), (1, 0, 0, 0)]:
            with pytest.raises(RankMismatchError):
                p.coefficient(exps)


class TestRankBound:
    def test_largest_rank_is_accepted(self):
        z = ZPolynomial.variable(MAX_RANK, MAX_RANK)
        assert parse_poly(f"1 + z{MAX_RANK}", MAX_RANK) == z + 1
        assert read_fixture_text(f"b[1] = z{MAX_RANK}", MAX_RANK)[0].poly == z

    @pytest.mark.parametrize("rank", [MAX_RANK + 1, 10 ** 9])
    def test_larger_rank_is_refused_at_once(self, rank):
        # refused before any key or mask of 32 bits per field is built
        start = time.perf_counter()
        for call in (lambda: ZPolynomial(rank),
                     lambda: ZPolynomial.variable(rank, 1),
                     lambda: parse_poly("1 + z1", rank),
                     lambda: read_fixture_text("b[1] = 3*z1\n", rank),
                     lambda: read_fixture_text("chi[1] = 1", rank),
                     lambda: read_fixture_text("", rank),
                     lambda: read_fixture_text("# only a comment", rank)):
            with pytest.raises(ValueError, match=re.escape(
                    f"rank {rank} is above the largest supported rank")):
                call()
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("text", ["", "# only a comment", "b[1] = 3*z1\n",
                                      "chi[1] = 1"])
    def test_rank_zero_is_refused_before_the_text(self, text):
        with pytest.raises(ValueError, match="rank must be positive"):
            read_fixture_text(text, 0)


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

    @pytest.mark.parametrize("text, offset", [
        ("*z1", 0), ("z1 + * z2", 5), ("- * 3", 2), ("2*(*z1)", 3)])
    def test_term_starting_with_asterisk(self, text, offset):
        with pytest.raises(ParseError) as err:
            P(text)
        assert err.value.offset == offset

    # each way text can fail to parse, with its message and offset
    @pytest.mark.parametrize("text, message, offset", [
        ("z1 + q", "unexpected character 'q'", 5),
        ("z1 )", "unexpected trailing input", 3),
        ("2*(z1) - 3)", "unexpected trailing input", 10),
        ("1 + 2^3", "exponent applies only to variables", 5),
        ("1 + z9", "variable z9 exceeds rank 8", 4),
        ("z1^z2", "expected integer exponent", 3),
        ("z1^", "expected integer exponent", 3),
        ("z1^2147483648", "exponent of z1 exceeds 2147483647", 3),
        ("z2^2147483647*z2", "exponent of z2 exceeds 2147483647", 14),
        ("2*(1 + 3*(z1))", "nested parentheses are not allowed", 9),
        ("(z1 (1))", "nested parentheses are not allowed", 4),
        ("z1*(1 + z2)", "parenthesized sum must be scaled by a plain integer",
         3),
        ("-4*(31 + 7*z1", "expected ')'", 13),
        ("2*(z1^2^3)", "expected ')'", 7),
        ("2*(z1) 3", "unexpected token after ')'", 7),
        ("3 (z1)(z2)", "unexpected token after ')'", 6),
        ("1 - *z1", "expected term", 4),
        ("z1 * + z2", "expected factor after '*'", 5),
        ("2*(z1 *)", "expected factor after '*'", 7),
        ("", "expected term", 0),
        ("1 +", "expected term", 3),
        ("1 + - z1", "expected term", 4),
        ("2*()", "expected term", 3),
    ])
    def test_error_message_and_offset(self, text, message, offset):
        with pytest.raises(ParseError) as err:
            P(text)
        assert err.value.args == (message, offset)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text, offset", [
        ("1" * 5000, 0), ("3 + z" + "1" * 5000, 4),
        ("z1^" + "9" * 5000, 3)], ids=["integer", "variable", "exponent"])
    def test_over_long_literal_is_a_parse_error(self, text, offset):
        # the interpreter's digit limit on int() is left alone
        with pytest.raises(ParseError, match="too many digits") as err:
            P(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize("parse", [
        lambda: parse_poly("1 + 2*z1", 8),
        lambda: read_fixture_text(
            "a[1,2] = -4*(-31 - 6*z1 + 25*z1^2 - 24*z2 + 6*z8^2)\n", 8)])
    def test_parse_leaves_no_reference_cycle(self, parse):
        # the collector finds nothing to free, so a parse's tokens and
        # routines are released as soon as it returns
        gc.disable()
        try:
            gc.collect()
            parse()
            assert gc.collect() == 0
        finally:
            gc.enable()


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


# blanks the grammar skips, and the ways two factors of a term may meet
_blank = st.sampled_from(["", " ", "  ", "\\,", "\t", "\n "])
_join = st.sampled_from(["*", " * ", " ", "\\,", ""])


def _sign(data, c: int, first: bool) -> str:
    """The sign written before a term or run of coefficient ``c``: a first
    one with c >= 0 may go without."""
    if c < 0:
        return "-"
    return data.draw(st.sampled_from(["", "+"])) if first else "+"


def _render_term(data, exps, c: int, first: bool) -> str:
    """c z^exps as text: its sign, then its factors in any order, a power
    split in parts, joined by '*', blanks or nothing where no digit would
    run into the factor before it."""
    factors = []
    if abs(c) != 1 or not any(exps) or data.draw(st.booleans()):
        factors.append(str(abs(c)))
    for i, e in enumerate(exps, 1):
        while e:
            k = data.draw(st.integers(1, e))
            factors.append(f"z{i}^{k}" if k > 1 or data.draw(st.booleans())
                           else f"z{i}")
            e -= k
    factors = data.draw(st.permutations(factors))
    text = factors[0]
    for factor in factors[1:]:
        join = data.draw(_join)
        if not join and factor[0].isdigit():
            join = "*"
        text += join + factor
    return _sign(data, c, first) + data.draw(_blank) + text


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

    @settings(max_examples=50)
    @given(st.data())
    def test_parse_of_free_form_text(self, data):
        """Text that print_poly never writes: factors in any order, joined
        by '*', blanks or nothing, a leading '+', and runs of terms written
        as k*(...), k (...) or (...), parse to the sum of their terms."""
        rank = data.draw(st.integers(1, 4))
        run = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * rank),
                                 st.integers(-10 ** 6, 10 ** 6)),
                       min_size=1, max_size=4)
        expected: dict = {}
        pieces = []
        for terms in data.draw(st.lists(run, min_size=1, max_size=4)):
            wrap = data.draw(st.sampled_from(["", "()", "k*()", "k ()"]))
            if not wrap:
                scale = 1
                for e, c in terms:
                    pieces.append(_render_term(data, e, c, not pieces))
            else:
                scale = data.draw(st.integers(-999, 999) if "k" in wrap
                                  else st.sampled_from([1, -1]))
                body = "(" + data.draw(_blank).join(
                    _render_term(data, e, c, not j)
                    for j, (e, c) in enumerate(terms)) + ")"
                if "k" in wrap:
                    body = f"{abs(scale)}{wrap[1:-2]}{body}"
                pieces.append(_sign(data, scale, not pieces)
                              + data.draw(_blank) + body)
            for e, c in terms:
                expected[e] = expected.get(e, 0) + scale * c
        text = data.draw(_blank).join(pieces)
        assert parse_poly(text, rank).terms == \
            {e: c for e, c in expected.items() if c}


# texts in the grammar, mostly in range: factors are integers or z_i with
# i from 0 to rank + 1, exponents up to 2^31 - 1 and now and then past it;
# terms come plain, as an integer-scaled sum or as a sign-only sum
_exponent = st.sampled_from([0, 1, 2, 3, 4] * 4 + [2 ** 30, 2 ** 31 - 1] * 2
                            + [2 ** 31])
# blanks and joins without the LaTeX thin space
_space = st.sampled_from(["", " ", "  ", "\t", "\n "])
_plain_join = st.sampled_from(["*", " * ", " ", ""])


@st.composite
def _grammar_text(draw, rank):
    # a LaTeX thin space sends a text to the token reader, so that most
    # texts, which the term pattern reads, go without one
    thin = draw(st.sampled_from([False, False, False, True]))
    blanks, joins = (_blank, _join) if thin else (_space, _plain_join)

    def product():
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                factors.append(str(draw(st.integers(0, 10 ** 6))))
                continue
            factor = "z" + str(draw(st.sampled_from(
                [*range(1, rank + 1)] * 8 + [0, rank + 1])))
            if draw(st.booleans()):
                factor += draw(st.sampled_from(
                    ["^", " ^ ", "\\,^" if thin else "\n^"]))
                factor += str(draw(_exponent))
            factors.append(factor)
        text = factors[0]
        for factor in factors[1:]:
            join = draw(joins)
            if not join and factor[0].isdigit():
                join = "*"
            text += join + factor
        return text

    def signed(body, bare):
        # a first term may go without its sign
        sign = draw(st.sampled_from(["", "+", "-"] if bare else ["+", "-"]))
        return sign + draw(blanks) + body

    pieces = []
    wrap = ""
    for _ in range(draw(st.integers(1, 4))):
        # and now and then a term after a parenthesized sum
        bare = not pieces or wrap and not draw(st.sampled_from([1, 1, 0]))
        # a sum scaled by an integer, by a product of any factors, or by
        # its sign alone
        wrap = draw(st.sampled_from(["", "", "k*()", "k ()", "p*()", "()"]))
        if not wrap:
            pieces.append(signed(product(), bare))
            continue
        body = "(" + draw(blanks).join(
            signed(product(), not j)
            for j in range(draw(st.integers(1, 3)))) + ")"
        if wrap[0] == "k":
            body = f"{draw(st.integers(0, 999))}{wrap[1:-2]}{body}"
        elif wrap[0] == "p":
            body = product() + "*" + body
        pieces.append(signed(body, bare))
    return draw(blanks).join(pieces) + draw(blanks)


@st.composite
def _corrupted(draw, text):
    """``text`` as it is, with one character deleted, inserted or replaced,
    at any place or at either side of an operator, or with one factor cut
    out."""
    edit = draw(st.sampled_from(["keep", "delete", "insert", "replace",
                                 "cut", "cut"]))
    if edit == "keep":
        return text
    if edit == "cut":
        start, end = draw(st.sampled_from(
            [m.span() for m in re.finditer(r"z?\d+(?:\s*\^\s*\d+)?", text)]
            or [(0, 0)]))
        return text[:start] + text[end:]
    operators = [i + side for i, c in enumerate(text) if c in "+-*^()"
                 for side in (0, 1)]
    where = draw(st.integers(0, len(text)) if not operators
                 or draw(st.booleans()) else st.sampled_from(operators))
    char = draw(st.sampled_from([*"*+-^()"] * 2 + [*" z019q\\,"]))
    if edit == "insert":
        return text[:where] + char + text[where:]
    return text[:where] + ("" if edit == "delete" else char) + \
        text[where + 1:]


def _outcome(read, text, rank):
    """The nonzero terms ``read`` finds in ``text``, in insertion order,
    or the message and offset of its ParseError."""
    try:
        terms = read(text, rank)
    except ParseError as err:
        return err.args
    if isinstance(terms, ZPolynomial):
        terms = terms._terms
    return [(key, c) for key, c in terms.items() if c]


class TestTermScan:
    @settings(max_examples=500)
    @given(st.data())
    def test_matches_the_token_reader(self, data):
        rank = data.draw(st.integers(1, 4))
        text = data.draw(_corrupted(data.draw(_grammar_text(rank))))
        assert _outcome(parse_poly, text, rank) == \
            _outcome(zpoly._read_tokens, text, rank)

    def test_shipped_records_take_the_scan(self, monkeypatch):
        # the token reader reads no record of the shipped files
        refused = []
        scan = zpoly._scan_terms

        def recording(text, rank):
            terms = scan(text, rank)
            if terms is None:
                refused.append(text)
            return terms

        monkeypatch.setattr(zpoly, "_scan_terms", recording)
        records = [record for path in (OPERATOR_FILE, ORDER2_FILE, HIGHER_FILE)
                   for record in read_fixture_file(path, 8)]
        assert len(records) == 231
        assert refused == []

    def test_one_record_takes_the_token_reader(self, monkeypatch):
        # the scan pays for its pattern where products repeat, across the
        # records of a file; the one record of a file is read token by token
        scanned = []
        scan = zpoly._scan_terms

        def recording(text, rank):
            scanned.append(text)
            return scan(text, rank)

        monkeypatch.setattr(zpoly, "_scan_terms", recording)
        text = "chi[1,1] = -2*(z1 + 3 z2^2) + z1 - 0*z2\n"
        (one,) = read_fixture_text(text, 2)
        assert scanned == []
        first, _ = read_fixture_text(text + "\nb[1] = z1\n", 2)
        assert scanned == [text[11:-1], "z1\n"]
        assert list(one.poly._terms.items()) == \
            list(first.poly._terms.items())
        assert one == first

    def test_long_blank_runs_read_in_linear_time(self):
        # blanks the product loop must give back cost their length once,
        # not its square
        blanks = " " * 20000
        start = time.perf_counter()
        for text in (f"z1{blanks}+ z2", f"3{blanks}*{blanks}z2 - 1",
                     f"-2*(z1{blanks}){blanks}"):
            assert parse_poly(text, 2) == parse_poly(" ".join(text.split()), 2)
        assert time.perf_counter() - start < 1

    def test_patterns_need_no_python_3_11_syntax(self):
        # possessive quantifiers and atomic groups arrived in Python 3.11;
        # the package runs on 3.10
        parser = getattr(re, "_parser", None)
        if parser is None:
            import sre_parse as parser

        def ops(items):
            for op, av in items:
                yield str(op)
                for part in av if isinstance(av, (tuple, list)) else ():
                    if isinstance(part, parser.SubPattern):
                        yield from ops(part)
                    elif isinstance(part, list):
                        for sub in part:
                            if isinstance(sub, parser.SubPattern):
                                yield from ops(sub)

        for name, (pattern, flags) in zpoly._PATTERNS.items():
            found = set(ops(parser.parse(pattern, flags)))
            assert not found & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, name

    def test_product_cache_is_bounded(self):
        maxsize = zpoly._product.cache_info().maxsize
        assert maxsize is not None
        texts = [f"z1^{e}*z2" for e in range(maxsize + 10)]
        first = [parse_poly(t, 2) for t in texts]
        assert zpoly._product.cache_info().currsize <= maxsize
        assert [parse_poly(t, 2) for t in texts] == first
        assert first[-1].terms == {(maxsize + 9, 1): 1}


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


# column coefficients: small ones, whose columns pack, and ones at and
# around a 32-bit digit's range and up to 2^40, whose columns do not
_column_coeff = st.one_of(
    st.integers(-9, 9),
    st.sampled_from([2 ** 31 - 1, 2 ** 31, -2 ** 31 + 1, -2 ** 31]),
    st.integers(-2 ** 40, 2 ** 40)).filter(bool)


def _store_poly_strategy(rank, coeff):
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * rank), coeff)
    return st.lists(term, max_size=6).map(
        lambda pairs: ZPolynomial(rank, dict(pairs)))


class TestColumnStore:
    """``ColumnStore.apply`` against one ``combine`` of the same columns,
    built by a callback that draws each new column at random."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda r: st.lists(
        _store_poly_strategy(r, st.one_of(st.sampled_from([1, -1]),
                                          st.integers(-10 ** 4, 10 ** 4))),
        min_size=1, max_size=4)), st.data())
    def test_matches_combine(self, polys, data):
        rank = polys[0].rank
        columns = {}

        def build(monomials):
            for exps in monomials:
                columns[exps] = data.draw(
                    _store_poly_strategy(rank, _column_coeff))
            return [columns[exps] for exps in monomials]

        store = ColumnStore(rank)
        for p in polys:
            for _ in range(data.draw(st.integers(1, 3))):
                shift = data.draw(st.sampled_from(
                    [0, 1, -1, 2 ** 31, -2 ** 31]))
                image = store.apply(p, shift, build)
                assert image == ZPolynomial.combine(rank, [
                    (c, columns[exps], None) for exps, c in p.terms.items()
                ] + [(-shift, p, None)])
                assert 0 not in image._terms.values()


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

    @pytest.mark.parametrize("text, message", [
        ("a[1] = z1\n", "a record needs two indices within rank"),
        ("b[1,2] = z1\n", "b record needs one index within rank"),
        ("a[1,9] = z1\n", "a record needs two indices within rank"),
        ("b[0] = z1\n", "b record needs one index within rank")])
    def test_operator_header_index_count(self, text, message):
        good = "b[2] = z2\n\n"
        with pytest.raises(ParseError) as err:
            read_fixture_text(good + text, 8)
        assert err.value.args == (message, len(good))
        assert err.value.offset == len(good)

    def test_wrong_label_count(self):
        with pytest.raises(ParseError):
            read_fixture_text("chi[1,2] = z1", 1)

    @pytest.mark.parametrize("header", ["chi[1,,0]", "chi[,]", "chi[1 2]",
                                        "a[1,]", "b[ ]"])
    def test_malformed_index_list(self, header):
        good = "b[1] = 3*z1\n\n"
        with pytest.raises(ParseError) as err:
            read_fixture_text(f"{good}{header} = 1\n", 2)
        assert err.value.offset == len(good)

    @pytest.mark.parametrize("text, header, message", [
        ("a[1,2] = z1\n\na[2,1] = z2\n", "a[2,1]", "repeated record a[2,1]"),
        ("chi[0,2] = z2\n\nb[1] = z1\n\n# again\n chi[0, 2] = z2\n",
         "chi[0, 2]", "repeated record chi[0,2]"),
        ("b[2] = z2\n\nb[1] = z1\n\nb[2] = 3\n", "b[2] = 3",
         "repeated record b[2]"),
    ])
    def test_repeated_record_is_refused(self, text, header, message):
        # a[k,j] names a[j,k]; the offset is the repeated header's
        with pytest.raises(ParseError) as err:
            read_fixture_text(text, 2)
        assert err.value.args == (message, text.rindex(header))

    def test_header_offset_after_a_comment(self):
        # the comment does not shift the offset of the block it sits in
        text = "b[1] = z1\n\nchi[1] = z1 # x\n + 1\n"
        with pytest.raises(ParseError, match="chi record has 1 labels") as err:
            read_fixture_text(text, 2)
        assert err.value.offset == text.index("chi[1]")

    @pytest.mark.parametrize("lead", [
        # the first block, after a comment
        "# E8 table\n",
        # a later block, after blanks and a comment
        "b[1] = z1\n\n  # note\n  "])
    @pytest.mark.parametrize("header, message", [
        ("chi[1,2]", "chi record has 2 labels, expected 1"),
        ("a[1]", "a record needs two indices within rank"),
        ("b[2]", "b record needs one index within rank"),
        ("chi[1,,0]", "malformed index list [1,,0]")])
    def test_header_error_offset_is_the_header(self, lead, header, message):
        text = f"{lead}{header} = z1\n"
        with pytest.raises(ParseError) as err:
            read_fixture_text(text, 1)
        assert err.value.args == (message, len(lead))
        assert text.index(header) == len(lead)

    def test_polynomial_error_offset_is_into_the_file(self):
        text = "b[1] = 192*z1\n\nb[2] = 288*z2 + z9\n"
        with pytest.raises(ParseError, match="variable z9 exceeds rank 2") \
                as err:
            read_fixture_text(text, 2)
        assert err.value.offset == text.index("z9")

    def test_over_long_literal_offset_is_into_the_file(self):
        text = "b[1] = 192*z1\n\nb[2] = 288*z2 + " + "7" * 5000 + "\n"
        with pytest.raises(ParseError, match="too many digits") as err:
            read_fixture_text(text, 2)
        assert err.value.offset == text.index("7" * 5000)

    def test_packaged_files_parse(self, operator_fixtures, order2_chars,
                                  higher_chars):
        assert len(operator_fixtures.a) == 36
        assert len(operator_fixtures.b) == 8
        assert len(order2_chars) == 36
        assert all(sum(m) == 2 for m in order2_chars)
        assert len(higher_chars) == 151

    def test_multi_hundred_term_round_trip(self, operator_fixtures):
        big = operator_fixtures.a[(4, 4)]
        assert len(big) > 200
        assert parse_poly(print_poly(big), 8) == big

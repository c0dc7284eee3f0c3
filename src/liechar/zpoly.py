"""Sparse integer polynomials in the fundamental-character variables z1..zr.

Every character and every operator coefficient in this package is carried by
:class:`ZPolynomial`: a map from monomials to nonzero arbitrary-precision
integer coefficients.  A monomial z^e is stored as one packed int key,
sum_i e_i * 2^(32 i), so z1 fills the low 32 bits and z_r the high ones; a
product of monomials is one int add and a derivative a shift, a mask and a
subtraction.  Every exponent stays within 0..2^31 - 1, so the sum of two
fields cannot carry into the next one; larger exponents raise
:class:`ExponentRangeError`.  The packing stays inside this module: the
public accessors and the constructor speak exponent tuples.
:meth:`ZPolynomial.combine`, one fused sum of products, is the only
accumulation routine: the ring operators and every linear combination of
polynomials in the package call it.  The module also owns the plain-text
grammar used by the fixture files and the CLI
(``-1 - z1 - z7 - z8 + z8^2`` style), including the one-level factored form
``-4*(31 + 7*z1 + ...)`` used by operator tables.

Canonical emission order is the numeric order of the keys, that is
ascending by the *reversed* exponent vector, which reproduces the layout of
the golden tables (constants first, highest variable weighted last).
"""

from __future__ import annotations

import math
import re
import struct
from functools import cache, reduce
from operator import or_
from typing import NamedTuple, Sequence

from .errors import ExponentRangeError, ParseError, RankMismatchError

__all__ = [
    "ZPolynomial",
    "parse_poly",
    "print_poly",
    "FixtureRecord",
    "read_fixture_text",
    "read_fixture_file",
    "format_fixture_record",
]

#: Largest exponent a monomial may carry: its 32-bit field keeps the top
#: bit clear, so adding two fields never carries.
MAX_EXPONENT = 2 ** 31 - 1
_FIELD_BITS = 32
_FIELD_MASK = 2 ** _FIELD_BITS - 1


@cache
def _layout(rank: int) -> tuple:
    """``(struct of rank uint32 fields, mask of every field's top bit)``."""
    top = sum(1 << (_FIELD_BITS * i + _FIELD_BITS - 1) for i in range(rank))
    return struct.Struct(f"<{rank}I"), top


def _pack(rank: int, exponents) -> int:
    """The key of z^exponents, after checking its length and range."""
    exps = tuple(exponents)
    if len(exps) != rank:
        raise RankMismatchError(f"exponent vector {exps} does not have rank {rank}")
    for e in exps:
        if not 0 <= e <= MAX_EXPONENT:
            raise ExponentRangeError(
                f"exponent {e} in {exps} is outside 0..{MAX_EXPONENT}")
    return int.from_bytes(_layout(rank)[0].pack(*exps), "little")


def _unpack_all(rank: int, keys) -> list:
    """The exponent tuple of each key in ``keys``, in order."""
    fields = _layout(rank)[0]
    unpack, size = fields.unpack, fields.size
    return [unpack(key.to_bytes(size, "little")) for key in keys]


class ZPolynomial:
    """Immutable sparse polynomial with big-integer coefficients."""

    __slots__ = ("rank", "_terms")

    def __init__(self, rank: int, terms=None):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                key = _pack(rank, exps)
                coeff = int(coeff)
                if coeff:
                    clean[key] = clean.get(key, 0) + coeff
                    if clean[key] == 0:
                        del clean[key]
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "ZPolynomial":
        return cls(rank)

    @classmethod
    def const(cls, rank: int, value: int) -> "ZPolynomial":
        p = cls(rank)
        if value:
            p._terms[0] = int(value)
        return p

    @classmethod
    def variable(cls, rank: int, index: int) -> "ZPolynomial":
        """The monomial z_index, 1-based."""
        if not 1 <= index <= rank:
            raise ValueError(f"variable index {index} out of range 1..{rank}")
        p = cls(rank)
        p._terms[1 << (_FIELD_BITS * (index - 1))] = 1
        return p

    @classmethod
    def monomial(cls, rank: int, exponents: Sequence[int], coeff: int = 1) -> "ZPolynomial":
        return cls(rank, {tuple(exponents): coeff})

    @classmethod
    def _raw(cls, rank: int, terms: dict) -> "ZPolynomial":
        # trusted constructor: packed keys, terms already normalized
        p = cls.__new__(cls)
        p.rank = rank
        p._terms = terms
        return p

    # -- accessors ----------------------------------------------------

    @property
    def terms(self) -> dict:
        """Copy of the exponent-vector -> coefficient map."""
        return dict(zip(_unpack_all(self.rank, self._terms), self._terms.values()))

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self._terms.get(_pack(self.rank, exponents), 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def total_degree(self) -> int:
        return max(map(sum, _unpack_all(self.rank, self._terms)), default=0)

    def sorted_terms(self):
        """Terms in canonical emission order."""
        keys = sorted(self._terms)
        return list(zip(_unpack_all(self.rank, keys), map(self._terms.get, keys)))

    # -- ring operations ----------------------------------------------

    @classmethod
    def combine(cls, rank: int, terms) -> "ZPolynomial":
        """Sum of c * p * q over ``(c, p, q)`` in the iterable ``terms``.

        ``c`` is an int, ``p`` a polynomial and ``q`` one or None for 1.
        All terms fold into one dict and zeros are dropped once, at the end;
        a product loops over its smaller factor outermost.  A product key
        is the sum of its factors' keys; an exponent that reaches 2^31 sets
        its field's top bit, which is tested once per output key.
        """
        out: dict = {}
        get = out.get
        multiplied = False
        for c, p, q in terms:
            if p.rank != rank:
                raise RankMismatchError(f"rank {rank} vs {p.rank}")
            if q is None:
                for key, coeff in p._terms.items():
                    out[key] = get(key, 0) + c * coeff
                continue
            if q.rank != rank:
                raise RankMismatchError(f"rank {rank} vs {q.rank}")
            multiplied = True
            a, b = p._terms, q._terms
            if len(a) > len(b):
                a, b = b, a
            for k1, c1 in a.items():
                c1 *= c
                for k2, c2 in b.items():
                    key = k1 + k2
                    out[key] = get(key, 0) + c1 * c2
        if multiplied and reduce(or_, out, 0) & _layout(rank)[1]:
            raise ExponentRangeError(
                f"a product has an exponent above {MAX_EXPONENT}")
        return cls._raw(rank, {key: c for key, c in out.items() if c})

    def _linear(self, a: int, other, b: int):
        """a * self + b * other; NotImplemented for a foreign ``other``."""
        if isinstance(other, int):
            other = ZPolynomial.const(self.rank, other)
        elif not isinstance(other, ZPolynomial):
            return NotImplemented
        return ZPolynomial.combine(self.rank, ((a, self, None), (b, other, None)))

    def __add__(self, other):
        return self._linear(1, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return ZPolynomial.combine(self.rank, ((-1, self, None),))

    def __sub__(self, other):
        return self._linear(1, other, -1)

    def __rsub__(self, other):
        return self._linear(-1, other, 1)

    def __mul__(self, other):
        if isinstance(other, int):
            return ZPolynomial.combine(self.rank, ((other, self, None),))
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        return ZPolynomial.combine(self.rank, ((1, self, other),))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == ZPolynomial.const(self.rank, other)._terms
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    __hash__ = None

    def __repr__(self):
        return f"ZPolynomial(rank={self.rank}, {print_poly(self)!r})"

    # -- calculus and evaluation ---------------------------------------

    def partial_derivative(self, index: int) -> "ZPolynomial":
        """Formal derivative with respect to z_index (1-based)."""
        if not 1 <= index <= self.rank:
            raise ValueError(f"variable index {index} out of range 1..{self.rank}")
        shift = _FIELD_BITS * (index - 1)
        one = 1 << shift
        # e -> e - δ_i is injective and coeff * e_i is nonzero, so the terms
        # need no merging and no zero filter
        return ZPolynomial._raw(self.rank, {
            key - one: coeff * e for key, coeff in self._terms.items()
            if (e := key >> shift & _FIELD_MASK)})

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.rank:
            raise RankMismatchError(
                f"point of length {len(point)} for rank {self.rank}")
        point = [int(x) for x in point]
        total = 0
        for exps, coeff in zip(_unpack_all(self.rank, self._terms),
                               self._terms.values()):
            total += math.prod(map(pow, point, exps), start=coeff)
        return total


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+|\\,)|(?P<int>\d+)|z(?P<var>\d+)|(?P<op>[+\-*^()])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("ws") is None:
            if m.group("int") is not None:
                tokens.append(("int", int(m.group("int")), m.start()))
            elif m.group("var") is not None:
                tokens.append(("var", int(m.group("var")), m.start()))
            else:
                tokens.append((m.group("op"), None, m.start()))
        pos = m.end()
    tokens.append(("end", None, n))
    return tokens


def parse_poly(text: str, rank: int) -> ZPolynomial:
    """Parse polynomial text into a :class:`ZPolynomial`.

    Grammar: a signed sum of terms; a term is a product of integer
    coefficients and factors ``zN`` / ``zN^E`` joined by ``*`` or plain
    juxtaposition, or an integer-scaled parenthesized sum (one level only).
    ``\\,`` and whitespace are ignored.  Errors carry the byte offset.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    tokens = _tokenize(text)
    pos = 0
    top = _layout(rank)[1]

    def peek():
        return tokens[pos]

    def parse_term(sign: int, in_paren: bool) -> dict:
        nonlocal pos
        coeff = sign
        key = 0
        saw_factor = False
        while True:
            kind, value, off = peek()
            if kind == "int":
                pos += 1
                coeff *= value
                saw_factor = True
                if peek()[0] == "^":
                    raise ParseError("exponent applies only to variables",
                                     peek()[2])
            elif kind == "var":
                if not 1 <= value <= rank:
                    raise ParseError(f"variable z{value} exceeds rank {rank}", off)
                pos += 1
                exp, exp_off = 1, off
                if peek()[0] == "^":
                    pos += 1
                    k2, v2, o2 = peek()
                    if k2 != "int":
                        raise ParseError("expected integer exponent", o2)
                    pos += 1
                    exp, exp_off = v2, o2
                if exp <= MAX_EXPONENT:
                    # every field stays below 2^31, so this add cannot carry
                    key += exp << (_FIELD_BITS * (value - 1))
                if exp > MAX_EXPONENT or key & top:
                    raise ParseError(
                        f"exponent of z{value} exceeds {MAX_EXPONENT}", exp_off)
                saw_factor = True
            elif kind == "(":
                if in_paren:
                    raise ParseError("nested parentheses are not allowed", off)
                if key:
                    raise ParseError(
                        "parenthesized sum must be scaled by a plain integer", off)
                pos += 1
                inner = parse_sum(True)
                k2, _, o2 = peek()
                if k2 != ")":
                    raise ParseError("expected ')'", o2)
                pos += 1
                k3, _, o3 = peek()
                if k3 not in ("+", "-", "end"):
                    raise ParseError("unexpected token after ')'", o3)
                return {e: coeff * c for e, c in inner.items()}
            elif kind == "*":
                pos += 1
                if peek()[0] not in ("int", "var", "("):
                    raise ParseError("expected factor after '*'", peek()[2])
            else:
                break
        if not saw_factor:
            raise ParseError("expected term", peek()[2])
        return {key: coeff}

    def parse_sum(in_paren: bool) -> dict:
        nonlocal pos
        acc: dict = {}
        sign = 1
        kind, _, _ = peek()
        if kind == "-":
            sign = -1
            pos += 1
        elif kind == "+":
            pos += 1
        while True:
            for key, coeff in parse_term(sign, in_paren).items():
                acc[key] = acc.get(key, 0) + coeff
            kind, _, _ = peek()
            if kind == "+":
                sign = 1
                pos += 1
            elif kind == "-":
                sign = -1
                pos += 1
            else:
                break
        return acc

    result = parse_sum(False)
    kind, _, off = peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", off)
    return ZPolynomial._raw(rank, {key: c for key, c in result.items() if c})


def _format_monomial(exponents) -> str:
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"z{i + 1}")
        elif e > 1:
            parts.append(f"z{i + 1}^{e}")
    return "*".join(parts)


def print_poly(p: ZPolynomial) -> str:
    """Canonical text form; ``parse_poly(print_poly(p), p.rank) == p``."""
    if p.is_zero:
        return "0"
    pieces = []
    for exps, coeff in p.sorted_terms():
        mono = _format_monomial(exps)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"{'-' if coeff < 0 else '+'} {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# fixture records
# ---------------------------------------------------------------------------

class FixtureRecord(NamedTuple):
    """One ``chi[...]`` / ``a[j,k]`` / ``b[j]`` block of a fixture file."""

    kind: str            # "chi" | "a" | "b"
    index: tuple         # weight labels for chi, (j, k) for a, (j,) for b
    poly: ZPolynomial


_HEADER_RE = re.compile(r"^\s*(chi|a|b)\s*\[([0-9,\s]+)\]\s*=\s*(.*)$", re.S)


def read_fixture_text(text: str, rank: int) -> list[FixtureRecord]:
    """Parse a fixture file: blank-line-separated records, ``#`` comments."""
    stripped_lines = []
    for line in text.splitlines():
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        stripped_lines.append(line)
    blocks = re.split(r"\n\s*\n", "\n".join(stripped_lines))
    records = []
    for block in blocks:
        if not block.strip():
            continue
        m = _HEADER_RE.match(block)
        if m is None:
            offset = text.find(block.strip()[:20])
            raise ParseError("fixture block does not start with a "
                             "chi[...]/a[...]/b[...] header", max(offset, 0))
        kind, index_text, body = m.groups()
        index = tuple(int(x) for x in index_text.split(","))
        if kind == "chi":
            if len(index) != rank:
                raise ParseError(
                    f"chi record has {len(index)} labels, expected {rank}",
                    text.find(block))
        elif kind == "a":
            if len(index) != 2 or not all(1 <= j <= rank for j in index):
                raise ParseError("a record needs two indices within rank",
                                 text.find(block))
        else:
            if len(index) != 1 or not 1 <= index[0] <= rank:
                raise ParseError("b record needs one index within rank",
                                 text.find(block))
        poly = parse_poly(body, rank)
        records.append(FixtureRecord(kind, index, poly))
    return records


def read_fixture_file(path, rank: int) -> list[FixtureRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        return read_fixture_text(handle.read(), rank)


def format_fixture_record(record: FixtureRecord) -> str:
    index = ",".join(str(x) for x in record.index)
    return f"{record.kind}[{index}] = {print_poly(record.poly)}"

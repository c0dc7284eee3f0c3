"""Sparse integer polynomials in the fundamental-character variables z1..zr.

Every character and every operator coefficient in this package is carried by
:class:`ZPolynomial`: a map from monomials to nonzero arbitrary-precision
integer coefficients.  A monomial z^e is stored as one packed int key,
sum_i e_i * 2^(32 i), so z1 fills the low 32 bits and z_r the high ones; a
product of monomials is one int add and a derivative a shift, a mask and a
subtraction.  Every exponent stays within 0..2^31 - 1, so the sum of two
fields cannot carry into the next one; larger exponents raise
:class:`ExponentRangeError`; a rank outside 1..``rootsys.MAX_RANK`` raises
``ValueError`` before anything is built.  The packing stays inside this
module, the column store and the character cache: the public accessors
and the constructor speak exponent tuples.  :meth:`ZPolynomial.combine`,
one fused sum of products, is the accumulation routine of the ring
operators and every linear combination of polynomials, but for sums of
polynomials packed as Kronecker integers (``_Slots``): the operator's
columns and the character recursion's constituents.  The module also owns
the plain-text grammar of the fixture files and the CLI (``-1 - z1 - z7 -
z8 + z8^2`` style), including the one-level factored form ``-4*(31 +
7*z1 + ...)`` used by operator tables.  A small term pattern reads one
whole signed term per match, each match starting where the last one
ended, and a bounded cache keyed on ``(text, rank)`` maps each term's
product text to its coefficient and key; text that the term pattern does
not read to its end goes to a reader that takes one token at a time, the
only source of :class:`ParseError`.
The scan pays for its pattern where products repeat, across the records of
a file: a fixture file of one record, such as a disk-cache entry, is read
by the token reader alone.  Every pattern is compiled on first use.  A
fixture file names each record once.

Canonical emission order is the numeric order of the keys, that is
ascending by the *reversed* exponent vector, which reproduces the layout of
the golden tables (constants first, highest variable weighted last).
"""

from __future__ import annotations

import math
import re
import struct
from functools import cache, lru_cache, reduce
from itertools import count
from operator import mul, or_
from typing import NamedTuple, Sequence

from .errors import (ExponentRangeError, ParseError, RankMismatchError,
                     integer)
from .rootsys import _check_rank

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


def _codec(n: int) -> tuple:
    """The struct format of ``n`` 32-bit fields, and 2^31 in each of them:
    the top bit of every exponent field, and the bias of balanced digits."""
    return f"<{n}I", int.from_bytes(b"\0\0\0\x80" * n, "little")


@cache
def _layout(rank: int) -> tuple:
    """``(struct of rank uint32 fields, mask of every field's top bit)``."""
    fmt, top = _codec(rank)
    return struct.Struct(fmt), top


#: Slots per term that :meth:`_Slots._pack_terms` lets terms span, and the
#: balanced digit's offset, 2^31, in each 32-bit slot.
_SPAN = 16
_HALF = 1 << 31


def _kronecker(pairs, n: int) -> int:
    """sum c 2^(32 s) over the ``(s, c)`` of ``pairs``, each s below ``n``
    and each |c| below 2^31."""
    digits = [_HALF] * n
    for slot, c in pairs:
        digits[slot] = _HALF + c
    fmt, bias = _codec(n)
    return int.from_bytes(struct.pack(fmt, *digits), "little") - bias


class _Slots:
    """Polynomials packed as Kronecker integers (D. Harvey, J. Symbolic
    Comput. 44 (2009)), sum_i c_i 2^(32 s_i), s_i the slot of the i-th
    monomial, numbered per instance as monomials are first packed.  Slots
    come from ``next`` on a counter and ``dict.setdefault``, each atomic,
    and a slot's key is stored before the slot is published, so threads
    agree on every slot without a lock."""

    def __init__(self):
        self._slots: dict = {}
        self._keys: dict = {}
        self._counter = count()

    def _pack_terms(self, terms: dict, extra=()) -> tuple | None:
        """``(peak, packed terms)``, peak the largest |coefficient|,
        numbering slots for the keys of ``terms`` and ``extra``; None for a
        coefficient of 2^31 or more in size, or for terms that span more
        than ``_SPAN`` slots per term plus one, ``extra`` counted: a sum
        costs time in proportion to its slots, and fresh slots go last.
        Terms that number none may span three times as many, which caps
        their integer at 192 bytes per term."""
        peak = max(map(abs, terms.values()), default=0)
        slots = self._slots
        fresh = sum(k not in slots for k in terms) + sum(
            k not in slots and k not in terms for k in extra)
        if fresh:
            span, limit = len(slots) + fresh, _SPAN
        else:
            span = 1 + max(map(slots.__getitem__, (*extra, *terms)))
            limit = 3 * _SPAN
        if peak >> 31 or span > limit * (len(terms) + 1):
            return None
        for k in (*extra, *terms):
            if k not in slots:
                slot = next(self._counter)
                self._keys[slot] = k
                slots.setdefault(k, slot)
        where = list(map(slots.__getitem__, terms))
        return peak, _kronecker(zip(where, terms.values()),
                                max(where, default=-1) + 1)

    def _add_digits(self, total: int, out: dict):
        """Add each balanced 32-bit digit of ``total``, none 2^31 or more in
        size, to the terms ``out`` at the key of its slot, dropping the keys
        that reach 0; the top digit is at (bit length of |total|) // 32."""
        n = abs(total).bit_length() // 32 + 1
        fmt, bias = _codec(n)
        keys, get = self._keys, out.get
        for slot, digit in enumerate(struct.unpack(
                fmt, (total + bias).to_bytes(4 * n, "little"))):
            if digit != _HALF:
                k = keys[slot]
                value = get(k, 0) + digit - _HALF
                if value:
                    out[k] = value
                else:
                    del out[k]


def _checked_rank(rank) -> int:
    """``rank`` as an int; ``ValueError`` unless in 1..``MAX_RANK``."""
    rank = integer(rank, "rank")
    if rank < 1:
        raise ValueError("rank must be positive")
    _check_rank(rank)
    return rank


def _pack(rank: int, exponents) -> int:
    """The key of z^exponents, after checking its length and range."""
    exps = tuple(exponents)
    if len(exps) != rank:
        raise RankMismatchError(f"exponent vector {exps} does not have rank {rank}")
    for e in exps:
        if not 0 <= integer(e, "exponent") <= MAX_EXPONENT:
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
        self.rank = rank = _checked_rank(rank)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                key = _pack(rank, exps)
                coeff = integer(coeff, "coefficient")
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
        value = integer(value, "constant")
        if value:
            p._terms[0] = value
        return p

    @classmethod
    def variable(cls, rank: int, index: int) -> "ZPolynomial":
        """The monomial z_index, 1-based."""
        index = integer(index, "variable index")
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
        index = integer(index, "variable index")
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
        point = [integer(x, "coordinate") for x in point]
        total = 0
        for exps, coeff in zip(_unpack_all(self.rank, self._terms),
                               self._terms.values()):
            total += math.prod(map(pow, point, exps), start=coeff)
        return total

    def _evaluate_memo(self, point: Sequence[int], memo: dict) -> int:
        """:meth:`evaluate` at ``point``, a tuple of ints, with each
        monomial's value read from ``memo``: a dict from packed keys to
        values at ``point``, which gains the monomials it lacks."""
        if len(point) != self.rank:
            raise RankMismatchError(
                f"point of length {len(point)} for rank {self.rank}")
        terms = self._terms
        try:
            return sum(map(mul, terms.values(), map(memo.__getitem__, terms)))
        except KeyError:
            new = [key for key in terms if key not in memo]
        for key, exps in zip(new, _unpack_all(self.rank, new)):
            memo[key] = math.prod(map(pow, point, exps))
        return sum(map(mul, terms.values(), map(memo.__getitem__, terms)))


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

# two factors are joined by '*', whitespace or nothing; the term pattern
# reads no LaTeX thin space '\,', so text with one, rare and slow to allow
# for in the pattern, goes to the token reader
_JOIN = r"\s*(?:\*\s*)?"
_FACTOR = r"(?:\d+|z\d+(?:\s*\^\s*\d+)?)"

#: the grammar's patterns by name, each compiled on first use by _regex
_PATTERNS = {
    # one token: blanks (1), integer (2), variable (3), operator (4) or any
    # other character (5)
    "token": (r"(\s+|\\,)|(\d+)|z(\d+)|([-+*^()])|(.)", re.S),
    # one signed term, every part optional: sign (1), leading integer (2),
    # the rest of its product (3), then '(' (5) after an optional '*' (4),
    # or ')' (6)
    "term": (r"\s*([-+])?\s*(\d+)?"
             rf"(?:(?(2){_JOIN})({_FACTOR}(?:{_JOIN}{_FACTOR})*))?"
             r"\s*(?:(\*\s*)?(\()|(\)))?\s*", 0),
    "header": (r"^\s*(chi|a|b)\s*\[([0-9,\s]+)\]\s*=\s*(.*)$", re.S),
}


@cache
def _regex(name: str) -> re.Pattern:
    return re.compile(*_PATTERNS[name])


def _tokenize(text: str) -> list:
    """``(kind, value, offset)`` of each token of ``text`` but blanks, then
    an "end" token: kind "int" or "var" with an int, or an operator."""
    tokens = []
    for m in _regex("token").finditer(text):
        group = m.lastindex
        if group == 4:
            tokens.append((m[4], None, m.start()))
        elif group == 5:
            raise ParseError(f"unexpected character {m[5]!r}", m.start())
        elif group != 1:
            try:
                value = int(m[group])
            except ValueError:
                # more digits than int() reads; its limit is left alone
                raise ParseError("integer has too many digits",
                                 m.start()) from None
            tokens.append(("int" if group == 2 else "var", value, m.start()))
    tokens.append(("end", None, len(text)))
    return tokens


def _read_tokens(text: str, rank: int) -> dict:
    """The terms of ``text``, key to coefficient in reading order, zeros
    kept, read one token at a time; every :class:`ParseError` of the
    grammar is raised here."""
    top = _layout(rank)[1]
    tokens = _tokenize(text)
    acc: dict = {}
    scale = None  # the integer scaling the open parenthesized sum
    pos = 0
    while True:
        kind = tokens[pos][0]
        coeff = 1 if scale is None else scale
        if kind in ("+", "-"):
            coeff = -coeff if kind == "-" else coeff
            pos += 1
        key = 0
        saw_factor = False
        while True:
            kind, value, off = tokens[pos]
            if kind == "int":
                pos += 1
                coeff *= value
                saw_factor = True
                if tokens[pos][0] == "^":
                    raise ParseError("exponent applies only to variables",
                                     tokens[pos][2])
            elif kind == "var":
                if not 1 <= value <= rank:
                    raise ParseError(f"variable z{value} exceeds rank {rank}",
                                     off)
                pos += 1
                exp, exp_off = 1, off
                if tokens[pos][0] == "^":
                    kind, exp, exp_off = tokens[pos + 1]
                    if kind != "int":
                        raise ParseError("expected integer exponent", exp_off)
                    pos += 2
                # an exponent within the bound cannot carry out of its field
                key += exp << (_FIELD_BITS * (value - 1))
                if exp > MAX_EXPONENT or key & top:
                    raise ParseError(
                        f"exponent of z{value} exceeds {MAX_EXPONENT}", exp_off)
                saw_factor = True
            elif kind == "*":
                if not saw_factor:
                    raise ParseError("expected term", off)
                pos += 1
                if tokens[pos][0] not in ("int", "var", "("):
                    raise ParseError("expected factor after '*'",
                                     tokens[pos][2])
            else:
                break
        if kind == "(":
            if scale is not None:
                raise ParseError("nested parentheses are not allowed", off)
            if key:
                raise ParseError(
                    "parenthesized sum must be scaled by a plain integer", off)
            scale = coeff
            pos += 1
            continue
        if not saw_factor:
            raise ParseError("expected term", off)
        acc[key] = acc.get(key, 0) + coeff
        if scale is not None and kind not in ("+", "-"):
            if kind != ")":
                raise ParseError("expected ')'", off)
            pos += 1
            kind, _, off = tokens[pos]
            if kind not in ("+", "-", "end"):
                raise ParseError("unexpected token after ')'", off)
            scale = None
        if kind == "end":
            return acc
        if kind not in ("+", "-"):
            raise ParseError("unexpected trailing input", off)


@lru_cache(maxsize=1024)
def _product(text: str, rank: int) -> tuple:
    """``(coefficient, key)`` of ``text``, a product the term pattern read;
    the token reader's :class:`ParseError` if it refuses it."""
    (key, coeff), = _read_tokens(text, rank).items()
    return coeff, key


def _scan_terms(text: str, rank: int):
    """:func:`_read_tokens` of ``text`` read one whole signed term per
    match of the term pattern, each match starting where the last ended;
    None for text it does not read to the end, which the token reader
    then reads or refuses."""
    match = _regex("term").match
    acc: dict = {}
    get = acc.get
    scale = None  # the integer scaling the open parenthesized sum
    signed = False  # whether the next term needs its sign
    pos, end = 0, len(text)
    try:
        while True:
            m = match(text, pos)
            sign, lead, rest, star, opened, closed = m.groups()
            if signed and not sign:
                return None
            coeff = 1 if scale is None else scale
            if sign == "-":
                coeff = -coeff
            if lead:
                coeff *= int(lead)
            key = 0
            if rest:
                factor, key = _product(rest, rank)
                coeff *= factor
            if opened:
                if scale is not None or key or star and not (lead or rest):
                    return None
                scale, signed = coeff, False
            elif lead or rest:
                acc[key] = get(key, 0) + coeff
                if closed:
                    if scale is None:
                        return None
                    scale = None
                signed = True
            else:
                return None
            pos = m.end()
            if pos == end:
                return acc if scale is None else None
    except ValueError:
        # a product the token reader refuses (a ParseError), or a leading
        # integer longer than int() reads
        return None


def _polynomial(rank: int, terms: dict) -> ZPolynomial:
    """The polynomial of ``terms`` as a reader leaves them, zeros dropped."""
    return ZPolynomial._raw(rank, {k: c for k, c in terms.items() if c})


def parse_poly(text: str, rank: int) -> ZPolynomial:
    """Parse polynomial text into a :class:`ZPolynomial`.

    Grammar: a signed sum of terms; a term is a product of integer
    coefficients and factors ``zN`` / ``zN^E`` joined by ``*`` or plain
    juxtaposition, or an integer-scaled parenthesized sum (one level only).
    ``\\,`` and whitespace are ignored.  Terms are merged as they are read
    and zeros dropped at the end.  Errors carry the character offset.
    """
    rank = _checked_rank(rank)
    acc = _scan_terms(text, rank)
    return _polynomial(rank, _read_tokens(text, rank) if acc is None else acc)


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


def read_fixture_text(text: str, rank: int) -> list[FixtureRecord]:
    """Parse a fixture file: blank-line-separated records, ``#`` comments.

    Each comment is blanked with spaces, so every error offset, in a header
    or in a record's polynomial, is an offset into ``text``.  The rank is
    checked first, so text without records does not hide a bad one.  A
    record whose kind and index came before, ``a[k,j]`` counting as
    ``a[j,k]``, is refused at its header.  The records of a file of
    several are read by :func:`parse_poly`; the one record of a file of
    one by the token reader, which compiles no term pattern.
    """
    rank = _checked_rank(rank)
    clean = re.sub(r"#[^\r\n]*", lambda m: " " * len(m[0]), text)
    records = []
    seen = set()
    end = 0
    # the odd parts are the separators
    blocks = re.split(r"(\n\s*\n)", clean)
    several = sum(1 for block in blocks[::2] if block.strip()) > 1
    for i, block in enumerate(blocks):
        start, end = end, end + len(block)
        if i % 2 or not block.strip():
            continue
        at = start + len(block) - len(block.lstrip())  # the header's offset
        m = _regex("header").match(block)
        if m is None:
            raise ParseError("fixture block does not start with a "
                             "chi[...]/a[...]/b[...] header", at)
        kind, index_text, body = m.groups()
        try:
            index = tuple(int(x) for x in index_text.split(","))
        except ValueError:
            raise ParseError(f"malformed index list [{index_text}]",
                             at) from None
        if kind == "chi" and len(index) != rank:
            raise ParseError(
                f"chi record has {len(index)} labels, expected {rank}", at)
        if kind == "a" and (len(index) != 2
                            or not all(1 <= j <= rank for j in index)):
            raise ParseError("a record needs two indices within rank", at)
        if kind == "b" and (len(index) != 1 or not 1 <= index[0] <= rank):
            raise ParseError("b record needs one index within rank", at)
        name = (kind, tuple(sorted(index)) if kind == "a" else index)
        if name in seen:
            raise ParseError(
                f"repeated record {kind}[{','.join(map(str, index))}]", at)
        seen.add(name)
        try:
            poly = (parse_poly(body, rank) if several
                    else _polynomial(rank, _read_tokens(body, rank)))
        except ParseError as err:
            raise ParseError(err.args[0],
                             start + m.start(3) + err.offset) from None
        records.append(FixtureRecord(kind, index, poly))
    return records


def read_fixture_file(path, rank: int) -> list[FixtureRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        return read_fixture_text(handle.read(), rank)


def format_fixture_record(record: FixtureRecord) -> str:
    index = ",".join(str(x) for x in record.index)
    return f"{record.kind}[{index}] = {print_poly(record.poly)}"

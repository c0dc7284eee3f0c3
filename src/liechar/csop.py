"""Spectrum and z-variable form of the trigonometric quantum many-body
operator at unit coupling.

For a simply-laced algebra the gauge-transformed operator acts on polynomials
in the fundamental characters as

    sum_{j,k} a_jk(z) d_j d_k  +  sum_j b_j z_j d_j,

with b_j = eps_j(1) and the a_jk obtained by applying the operator to the
Clebsch-Gordan expansion of z_j z_k.  With E_m = 2 (m + kappa rho,
m + kappa rho) in the Weyl-invariant form ( , ) of
:meth:`Algebra.weight_form`, long roots of norm 2, the excitation energies
eps_m(kappa) = E_m - E_0 = 2 (m, m) + 4 kappa (m, rho) are exact rationals
for rational kappa.

:meth:`Delta1Operator.apply` sums the cached image, or column, of each
monomial of its argument.  A column it meets again is held as a few
Kronecker-packed integers, a block of 32 coefficients in each (D. Harvey,
J. Symbolic Comput. 44 (2009)), so that adding it is one big-integer
multiply-add per block; the slot width is chosen per call from an exact
bound on the sum, so the result stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, count
from operator import mul
from typing import Iterable, Iterator

from .errors import OperatorIncompleteError, RankMismatchError
from .repth import Algebra
from .zpoly import ZPolynomial, _unpack_all

__all__ = [
    "epsilon",
    "b_coeffs",
    "a_coeff",
    "Delta1Operator",
    "build_delta1",
]


def epsilon(algebra: Algebra, m, kappa=1) -> Fraction:
    """Excitation energy 2 (m, m) + 4 kappa (m, rho) = E_m - E_0."""
    m = algebra._check_weight(m)
    return (2 * algebra.weight_form(m, m)
            + 4 * Fraction(kappa) * algebra.weight_form(m, algebra.rho))


def _epsilon_int(algebra: Algebra, m) -> int:
    value = epsilon(algebra, m, 1)
    if value.denominator != 1:
        # happens when the weight lattice strictly contains the root lattice
        # with bad index (e.g. A2); the integer operator then does not exist
        raise ValueError(
            f"eps_{tuple(m)}(1) = {value} is not integral; the unit-coupling "
            "operator is not integer-valued in these variables")
    return int(value)


def _require_simply_laced(algebra: Algebra):
    if not algebra.cartan.is_simply_laced:
        raise ValueError("the operator layer supports simply-laced algebras only")


def b_coeffs(algebra: Algebra) -> tuple:
    """First-order coefficients b_j with b_j(z) = b_j * z_j."""
    _require_simply_laced(algebra)
    return tuple(_epsilon_int(algebra, algebra.fundamental(j))
                 for j in range(1, algebra.rank + 1))


def a_coeff(algebra: Algebra, j: int, k: int, char_provider) -> ZPolynomial:
    """Second-order coefficient of d_j d_k from the z_j z_k series.

    Applying the operator to both sides of the Clebsch-Gordan expansion of
    z_j z_k gives the full coefficient of the mixed derivative:

        sum_mu N_mu eps_mu(1) chi_mu  -  (eps_j(1) + eps_k(1)) z_j z_k.

    Diagonal entries carry half of this (the second derivative of z_j^2 is
    2), asserted integral; off-diagonal entries keep the full sum, matching
    the convention of the reference tables.  ``char_provider`` must expose
    ``character_poly(m)`` for every constituent; the recursion terminates
    because each constituent lies strictly below λ_j + λ_k.
    """
    rank = algebra.rank
    if not (1 <= j <= rank and 1 <= k <= rank):
        raise ValueError(f"indices ({j}, {k}) out of range 1..{rank}")
    _require_simply_laced(algebra)
    lam_j = algebra.fundamental(j)
    lam_k = algebra.fundamental(k)
    terms = [(mult * _epsilon_int(algebra, mu), char_provider.character_poly(mu),
              None) for mu, mult in algebra.tensor_decompose(lam_j, lam_k).items()]
    terms.append((-(_epsilon_int(algebra, lam_j) + _epsilon_int(algebra, lam_k)),
                  ZPolynomial.variable(rank, j), ZPolynomial.variable(rank, k)))
    acc = ZPolynomial.combine(rank, terms)
    if j != k:
        return acc
    half = {}
    for exps, coeff in acc.terms.items():
        if coeff % 2:
            raise AssertionError(f"odd coefficient in 2*a_{j}{j} at {exps}")
        half[exps] = coeff // 2
    return ZPolynomial(rank, half)


class _Record:
    """Plain mutable value class: equal to an instance of its own class
    with equal fields, unhashable, and shown field by field."""

    _fields: tuple = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Delta1Operator(_Record):
    """The kappa=1 operator: b_j scalars plus the symmetric a_jk matrix.

    ``entries`` is keyed on ordered pairs (j, k) with j <= k; ``provenance``
    records for each populated pair whether it was computed from a character
    provider ("computed") or loaded from fixture records
    ("loaded-from-fixture").

    :meth:`apply` keeps the image of each monomial it has met, its column,
    and packs the column when it meets it again, beside the ``b`` and
    ``entries`` they were built from; it drops every column once either of
    them differs.
    """

    _fields = ("rank", "b", "entries", "provenance")

    def __init__(self, rank: int, b: tuple, entries: dict | None = None,
                 provenance: dict | None = None):
        self.rank = rank
        self.b = b
        self.entries = {} if entries is None else entries
        self.provenance = {} if provenance is None else provenance
        # (b, entry items) the columns were built from, packed key ->
        # column, one instance of each int the columns hold, then the
        # packed columns, the slot of each monomial in them, the monomial
        # in each slot and the next free slot (see _add_packed)
        self._columns = (None,)

    def a(self, j: int, k: int) -> ZPolynomial:
        pair = (min(j, k), max(j, k))
        entry = self.entries.get(pair)
        if entry is None:
            raise _incomplete(pair)
        return entry

    def apply(self, p: ZPolynomial) -> ZPolynomial:
        """sum_{j<=k} a_jk d_j d_k p + sum_j b_j z_j d_j p, exactly.

        Off-diagonal entries already hold the full mixed-derivative
        coefficient (both orders of the symmetric double sum), so each
        pair is applied once.  The image is the sum of the columns of the
        monomials of ``p``, each scaled by its coefficient.  The columns
        built by this call are summed by one ``combine``, and those built
        before are added to its result as packed integers
        (:func:`_add_packed`).
        """
        if p.rank != self.rank:
            raise RankMismatchError(
                f"polynomial rank {p.rank} vs operator {self.rank}")
        # tuple equality tests identity first, so an unchanged operator
        # costs one identity test per value here
        snapshot = (tuple(self.b), tuple(self.entries.items()))
        state = self._columns
        if state[0] != snapshot:
            state = self._columns = (snapshot, {}, {}, {}, {}, {}, count())
        columns = state[1]
        new = [key for key in p._terms if key not in columns]
        if new:
            columns.update(self._build_columns(new, *snapshot, state[2]))
        fresh = set(new)
        image = ZPolynomial.combine(self.rank, (
            (c, columns[key], None) for key, c in p._terms.items()
            if key in fresh))
        reused = [(c, key) for key, c in p._terms.items() if key not in fresh]
        if reused:
            # image is this call's own, so its terms may still change
            _add_packed(reused, columns, *state[3:], image._terms)
        return image

    def _build_columns(self, keys: list, b: tuple, items: tuple,
                       ints: dict) -> dict:
        """Packed key -> Δ1 z^e for the monomial z^e of each key, where

            Δ1 z^e = (sum_j b_j e_j) z^e
                     + sum_{j<=k} e_j (e_k - δ_jk) a_jk z^(e - δ_j - δ_k).

        A pair that some column needs and ``items`` lacks raises
        :class:`OperatorIncompleteError` before any column is built, for the
        first such pair in (j, k) order.  Each key and coefficient of a
        column is the instance of its value kept in ``ints``: the 249
        columns of the shipped characters hold 12,120 terms but only 253
        distinct keys and 427 distinct coefficients.
        """
        rank = self.rank
        entries = dict(items)
        plans = {}
        absent = set()
        for key, exps in zip(keys, _unpack_all(rank, keys)):
            terms = [(sum(map(mul, b, exps)), ZPolynomial.monomial(rank, exps),
                      None)]
            for (j, k), weight in _read_pairs(exps):
                entry = entries.get((j, k))
                if entry is None:
                    absent.add((j, k))
                    continue
                shifted = list(exps)
                shifted[j - 1] -= 1
                shifted[k - 1] -= 1
                terms.append((weight, entry, ZPolynomial.monomial(rank, shifted)))
            plans[key] = terms
        if absent:
            raise _incomplete(min(absent))
        one = ints.setdefault
        columns = {}
        for key, terms in plans.items():
            column = ZPolynomial.combine(rank, terms)
            columns[key] = ZPolynomial._raw(
                rank, {one(k, k): one(c, c) for k, c in column._terms.items()})
        return columns


def _add_packed(terms: list, columns: dict, packed: dict, slots: dict,
                keys: dict, counter, out: dict):
    """Add c times the column of ``key`` to the terms ``out`` for each
    ``(c, key)`` of ``terms``, dropping each term that cancels: one
    big-integer multiply-add per page of each column, then one decoding per
    page of the sum.

    The operator numbers the monomials of its packed columns in the order
    they are first packed, 32 slots to a page.  ``packed`` maps a key to
    ``(peak, w, pages, ints)``: peak is the largest |coefficient| of the
    column, and its part on page ``pages[n]`` is ``ints[n]`` =
    sum_i c_i 2^(w i), c_i the coefficient of the monomial in slot i of
    that page.  No digit of the sum exceeds B = sum |c| peak in size, and w
    is the first of 32, 64, 128, ... with B < 2^(w-1), so each page of the
    sum decodes to its balanced digits exactly.  A column packed at
    another width is packed again: no sum mixes two widths.
    """
    pending = []
    bound = 0
    for c, key in terms:
        entry = packed.get(key)
        if entry is None:
            peak = max(map(abs, columns[key]._terms.values()), default=0)
            entry = (peak, 0)
        bound += abs(c) * entry[0]
        pending.append((c, key, entry))
    width = 32
    while bound >> (width - 1):
        width *= 2
    sums: dict = {}
    for c, key, entry in pending:
        if entry[1] != width:
            entry = packed[key] = (entry[0], width, *_pack(
                columns[key], width, slots, keys, counter))
        for page, value in zip(entry[2], entry[3]):
            sums[page] = sums.get(page, 0) + c * value
    half = 1 << (width - 1)
    size = width // 8
    # half in every slot: the biased digits lie in 0..2^w - 1
    bias = half * ((1 << 32 * width) - 1) // ((1 << width) - 1)
    from struct import unpack  # loaded already, by zpoly
    fields = {32: "<32I", 64: "<32Q"}.get(width)
    get = out.get
    for page, value in sums.items():
        raw = (value + bias).to_bytes(32 * size, "little")
        digits = unpack(fields, raw) if fields else [
            int.from_bytes(raw[i:i + size], "little")
            for i in range(0, 32 * size, size)]
        for slot, digit in enumerate(digits, 32 * page):
            if digit != half:
                k = keys[slot]
                total = get(k, 0) + digit - half
                if total:
                    out[k] = total
                else:
                    del out[k]


def _pack(column: ZPolynomial, width: int, slots: dict, keys: dict,
          counter) -> tuple:
    """``(pages, packed ints)`` of ``column`` at ``width`` bits a slot,
    numbering the monomials it adds to ``slots``."""
    pages: dict = {}
    for k, c in column._terms.items():
        slot = slots.get(k)
        if slot is None:
            # next() and setdefault() are each atomic, and a slot's key is
            # set before the slot is published: two threads that number one
            # monomial agree on its slot and leave one unused
            slot = next(counter)
            keys[slot] = k
            slot = slots.setdefault(k, slot)
        page, i = divmod(slot, 32)
        pages[page] = pages.get(page, 0) + (c << width * i)
    return tuple(pages), tuple(pages.values())


def _read_pairs(exps) -> Iterator[tuple]:
    """``((j, k), e_j (e_k - δ_jk))``, in (j, k) order, for each pair
    j <= k, 1-based, whose a_jk the operator reads on the monomial z^e:
    those whose weight is not 0."""
    for j, k in combinations_with_replacement(range(len(exps)), 2):
        weight = exps[j] * (exps[k] - (j == k))
        if weight:
            yield (j + 1, k + 1), weight


def _incomplete(pair: tuple) -> OperatorIncompleteError:
    return OperatorIncompleteError(
        f"coefficient a[{pair[0]},{pair[1]}] is not populated", pair=pair)


def _pairs_by_cost(algebra: Algebra, pairs):
    dims = algebra._fundamental_dims

    def cost(pair):
        j, k = pair
        return (min(dims[j - 1], dims[k - 1]), j, k)
    return sorted(pairs, key=cost)


def build_delta1(algebra: Algebra, char_provider=None,
                 fixture_records: Iterable | None = None,
                 pairs: Iterable | None = None) -> Delta1Operator:
    """Assemble the operator for ``pairs`` (default: all of them).

    With a character provider every pair is computed, cheapest tensor
    product first; a product over ``algebra.tensor_budget`` raises
    :class:`BudgetError`.
    Without one the pairs are loaded from the a records of
    ``fixture_records``, and pairs they lack stay unpopulated.  Fixture b
    records, when present, must agree with the computed values.
    """
    rank = algebra.rank
    b = b_coeffs(algebra)
    fixture_a: dict = {}
    if fixture_records is not None:
        for record in fixture_records:
            if record.kind == "a":
                j, k = record.index
                fixture_a[(min(j, k), max(j, k))] = record.poly
            elif record.kind == "b":
                (j,) = record.index
                expected = b[j - 1] * ZPolynomial.variable(rank, j)
                if record.poly != expected:
                    raise ValueError(
                        f"fixture b[{j}] disagrees with the computed value "
                        f"{b[j - 1]}*z{j}")
    if pairs is None:
        pairs = [(j, k) for j in range(1, rank + 1) for k in range(j, rank + 1)]
    pairs = {(min(j, k), max(j, k)) for j, k in pairs}
    op = Delta1Operator(rank=rank, b=b)
    if char_provider is None:
        for pair in sorted(pairs & fixture_a.keys()):
            op.entries[pair] = fixture_a[pair]
            op.provenance[pair] = "loaded-from-fixture"
        return op
    for j, k in _pairs_by_cost(algebra, pairs):
        op.entries[(j, k)] = a_coeff(algebra, j, k, char_provider)
        op.provenance[(j, k)] = "computed"
    return op

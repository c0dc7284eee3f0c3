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
for rational kappa (:func:`~liechar.repth.epsilon`).

:meth:`Delta1Operator.apply` returns Δ1 p - shift p as the sum of the
cached image, or column, of each monomial of p, less shift times the
monomial.  The operator builds the columns from ``b`` and the a_jk, and
drops them when either changes; a :class:`ColumnStore` keeps them and packs
each one that spans few slots per term of it when it is built.  A call
whose columns are all packed, within the bound that lets the sum decode
exactly, is one Kronecker integer (D. Harvey, J. Symbolic Comput. 44
(2009)); any other call is one ``combine`` of all its columns.  Every
column of the shipped E8 characters is packed, and
:func:`~liechar.charlib.verify_eigen` calls ``apply(chi, eps)``, so a
passing check is one Kronecker sum of 0, nothing decoded.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import mul
from typing import Iterable, Iterator

from .charlib import _Record
from .errors import OperatorIncompleteError, RankMismatchError, integer
# epsilon is not called here but stays a module attribute: perfbench/spans.py
# counts its calls through this name
from .repth import Algebra, _epsilon_int, epsilon
from .zpoly import ZPolynomial, _kronecker, _Slots, _unpack_all

__all__ = [
    "b_coeffs",
    "a_coeff",
    "Delta1Operator",
    "build_delta1",
]


def _require_simply_laced(algebra: Algebra):
    if not algebra.cartan.is_simply_laced:
        raise ValueError("the operator layer supports simply-laced algebras only")


def b_coeffs(algebra: Algebra) -> tuple:
    """First-order coefficients b_j with b_j(z) = b_j * z_j."""
    _require_simply_laced(algebra)
    return tuple(_epsilon_int(algebra, algebra.fundamental(j))
                 for j in range(1, algebra.rank + 1))


def _pair(rank: int, j, k) -> tuple:
    """``(min(j, k), max(j, k))`` of the indices j and k, each read with
    :func:`~liechar.errors.integer` and checked to lie in 1..rank."""
    j, k = integer(j, "index"), integer(k, "index")
    if not (1 <= j <= rank and 1 <= k <= rank):
        raise ValueError(f"indices ({j}, {k}) out of range 1..{rank}")
    return (j, k) if j <= k else (k, j)


def a_coeff(algebra: Algebra, j: int, k: int, char_provider) -> ZPolynomial:
    """Second-order coefficient of d_j d_k from the z_j z_k series.

    Applying the operator to both sides of the Clebsch-Gordan expansion of
    z_j z_k gives the full coefficient of the mixed derivative:

        sum_mu N_mu eps_mu(1) chi_mu  -  (eps_j(1) + eps_k(1)) z_j z_k.

    Diagonal entries carry half of this (the second derivative of z_j^2 is
    2), asserted integral; off-diagonal entries keep the full sum, matching
    the convention of the reference tables.  ``char_provider`` must expose
    ``character_poly(m)`` for every constituent; the recursion terminates
    because each constituent lies strictly below λ_j + λ_k.  Every eps is
    checked integral before any character is computed.
    """
    rank = algebra.rank
    j, k = _pair(rank, j, k)
    _require_simply_laced(algebra)
    lam_j = algebra.fundamental(j)
    lam_k = algebra.fundamental(k)
    own = _epsilon_int(algebra, lam_j) + _epsilon_int(algebra, lam_k)
    constituents = algebra.tensor_decompose(lam_j, lam_k).items()
    scales = [mult * _epsilon_int(algebra, mu) for mu, mult in constituents]
    terms = [(scale, char_provider.character_poly(mu), None)
             for scale, (mu, _) in zip(scales, constituents)]
    terms.append((-own, ZPolynomial.variable(rank, j),
                  ZPolynomial.variable(rank, k)))
    acc = ZPolynomial.combine(rank, terms)
    if j != k:
        return acc
    half = {}
    for exps, coeff in acc.terms.items():
        if coeff % 2:
            raise AssertionError(f"odd coefficient in 2*a_{j}{j} at {exps}")
        half[exps] = coeff // 2
    return ZPolynomial(rank, half)


class Delta1Operator(_Record):
    """The kappa=1 operator: b_j scalars plus the symmetric a_jk matrix.

    ``entries`` is keyed on ordered pairs (j, k) with j <= k; ``provenance``
    records for each populated pair whether it was computed from a character
    provider ("computed") or loaded from fixture records
    ("loaded-from-fixture").

    :meth:`apply` keeps the image of each monomial it has met, its column,
    in a :class:`ColumnStore`, beside the ``b`` and ``entries`` the columns
    were built from; it drops the store once either of them differs.
    """

    _fields = ("rank", "b", "entries", "provenance")

    def __init__(self, rank: int, b: tuple, entries: dict | None = None,
                 provenance: dict | None = None):
        self.rank = rank
        self.b = b
        self.entries = {} if entries is None else entries
        self.provenance = {} if provenance is None else provenance
        # (b, entry items) the columns were built from, and their store
        self._columns = (None,)

    def a(self, j: int, k: int) -> ZPolynomial:
        """a_jk = a_kj; indices are checked as :func:`a_coeff` checks them."""
        pair = _pair(self.rank, j, k)
        entry = self.entries.get(pair)
        if entry is None:
            raise _incomplete(pair)
        return entry

    def apply(self, p: ZPolynomial, shift: int = 0) -> ZPolynomial:
        """sum_{j<=k} a_jk d_j d_k p + sum_j b_j z_j d_j p - shift p, exactly.

        Off-diagonal entries already hold the full mixed-derivative
        coefficient (both orders of the symmetric double sum), so each
        pair is applied once.  The image is the sum over the monomials
        z^e of ``p`` of c_e (column_e - shift z^e), which
        :meth:`ColumnStore.apply` adds, so ``apply(chi, eps)`` checks the
        eigen-equation without building the image.
        """
        if p.rank != self.rank:
            raise RankMismatchError(
                f"polynomial rank {p.rank} vs operator {self.rank}")
        shift = integer(shift, "shift")
        # tuple equality tests identity first, so an unchanged operator
        # costs one identity test per value here
        snapshot = (tuple(self.b), tuple(self.entries.items()))
        state = self._columns
        if state[0] != snapshot:
            state = self._columns = (snapshot, ColumnStore(self.rank))
        return state[1].apply(
            p, shift, lambda exps: self._build_columns(exps, *snapshot))

    def _build_columns(self, monomials: list, b: tuple, items: tuple) -> list:
        """Δ1 z^e for each exponent tuple e of ``monomials``, where

            Δ1 z^e = (sum_j b_j e_j) z^e
                     + sum_{j<=k} e_j (e_k - δ_jk) a_jk z^(e - δ_j - δ_k).

        A pair that some column needs and ``items`` lacks raises
        :class:`OperatorIncompleteError` before any column is built, for the
        first such pair in (j, k) order.
        """
        rank = self.rank
        entries = dict(items)
        plans = []
        absent = set()
        for exps in monomials:
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
            plans.append(terms)
        if absent:
            raise _incomplete(min(absent))
        return [ZPolynomial.combine(rank, terms) for terms in plans]


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


def build_delta1(algebra: Algebra, char_provider=None,
                 fixture_records: Iterable | None = None,
                 pairs: Iterable | None = None) -> Delta1Operator:
    """Assemble the operator for ``pairs`` (default: all of them).

    Every pair is checked first, as :func:`a_coeff` checks its indices, so
    a bad pair raises ``ValueError`` before any work in either mode.  An a
    record's indices are read the same way; only a hand-built record can
    fail there, since :func:`~liechar.zpoly.read_fixture_text` checks the
    ones it parses.
    With a character provider every pair's product V_λj ⊗ V_λk is taken
    first, the costliest for the tensor budget first (ties in (j, k)
    order), and then every pair is computed in (j, k) order, j <= k.  So a
    product over ``algebra.tensor_budget`` raises :class:`BudgetError`
    before any character is expanded, and in E8 λ4⊗λ4 comes first: it
    loads numpy before any λ6 product, which then takes the array kernel.
    Without one the pairs are loaded from the a records of
    ``fixture_records``, and pairs they lack stay unpopulated.  Fixture b
    records, when present, must agree with the computed values.
    """
    rank = algebra.rank
    if pairs is None:
        pairs = combinations_with_replacement(range(1, rank + 1), 2)
    pairs = sorted({_pair(rank, j, k) for j, k in pairs})
    b = b_coeffs(algebra)
    fixture_a: dict = {}
    if fixture_records is not None:
        for record in fixture_records:
            if record.kind == "a":
                j, k = record.index
                fixture_a[_pair(rank, j, k)] = record.poly
            elif record.kind == "b":
                (j,) = record.index
                expected = b[j - 1] * ZPolynomial.variable(rank, j)
                if record.poly != expected:
                    raise ValueError(
                        f"fixture b[{j}] disagrees with the computed value "
                        f"{b[j - 1]}*z{j}")
    op = Delta1Operator(rank=rank, b=b)
    if char_provider is None:
        for pair in sorted(fixture_a.keys() & pairs):
            op.entries[pair] = fixture_a[pair]
            op.provenance[pair] = "loaded-from-fixture"
        return op
    products = [(algebra.fundamental(j), algebra.fundamental(k))
                for j, k in pairs]
    for product in sorted(products, key=lambda p: -algebra._cost(*p)[0]):
        algebra.tensor_decompose(*product)
    for j, k in pairs:
        op.entries[(j, k)] = a_coeff(algebra, j, k, char_provider)
        op.provenance[(j, k)] = "computed"
    return op


# ---------------------------------------------------------------------------
# column store
# ---------------------------------------------------------------------------

class ColumnStore(_Slots):
    """Columns, polynomials kept under the keys of the monomials they
    belong to, and the linear map they define (:meth:`apply`).

    Each column is packed when it is built, unless ``_pack_terms``
    refuses it.  A call is all or nothing: when every column of its
    polynomial is packed and B = (max peak + |shift|) sum |c| < 2^31, peak
    the largest |coefficient| of a column, so that the sum decodes
    exactly, it is one Kronecker sum; otherwise it is one ``combine`` of
    every column and -shift p.
    """

    def __init__(self, rank: int):
        super().__init__()
        self.rank = rank
        self._columns: dict = {}
        # key -> (peak, packed column)
        self._packed: dict = {}
        # one instance of each key and coefficient the columns hold: the
        # 249 columns of the shipped E8 characters hold 12,120 terms but
        # only 253 distinct keys and 427 distinct coefficients
        self._ints: dict = {}

    def apply(self, p: ZPolynomial, shift: int, build) -> ZPolynomial:
        """sum_e c_e (column_e - shift z^e) over the terms c_e z^e of
        ``p``.  ``build`` maps the list of exponent tuples of the monomials
        of ``p`` that have no column yet to the list of their columns.  When
        every column of ``p`` is packed and B < 2^31 the image is the
        Kronecker sum alone, and a sum of 0 is not decoded; otherwise it is
        one ``combine`` of every column and -shift p."""
        rank, columns, packed = self.rank, self._columns, self._packed
        terms = p._terms
        if not terms.keys() <= packed.keys():
            new = [key for key in terms if key not in columns]
            if new:
                one = self._ints.setdefault
                for key, column in zip(new, build(_unpack_all(rank, new))):
                    column = {one(k, k): one(c, c)
                              for k, c in column._terms.items()}
                    columns[key] = ZPolynomial._raw(rank, column)
                    entry = self._pack_terms(column, (key,))
                    if entry is not None:
                        packed[key] = entry
        pairs = list(map(packed.get, terms))
        cs = list(terms.values())
        if None in pairs or (max([peak for peak, _ in pairs], default=0)
                             + abs(shift)) * sum(map(abs, cs)) >> 31:
            parts = [(c, columns[key], None) for key, c in terms.items()]
            if shift:
                parts.append((-shift, p, None))
            return ZPolynomial.combine(rank, parts)
        image = ZPolynomial._raw(rank, {})
        total = sum(map(mul, cs, [value for _, value in pairs]))
        if shift:
            where = list(map(self._slots.__getitem__, terms))
            total -= shift * _kronecker(zip(where, cs),
                                       max(where, default=-1) + 1)
        if total:
            self._add_digits(total, image._terms)
        return image

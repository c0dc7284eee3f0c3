"""Spectrum and z-variable form of the trigonometric quantum many-body
operator at unit coupling.

For a simply-laced algebra the gauge-transformed operator acts on polynomials
in the fundamental characters as

    sum_{j,k} a_jk(z) d_j d_k  +  sum_j b_j z_j d_j,

with b_j = eps_j(1) and the a_jk obtained by applying the operator to the
Clebsch-Gordan expansion of z_j z_k.  The energies are taken in the
Weyl-invariant form ( , ) of :meth:`Algebra.weight_form`, long roots of
norm 2: E_m = 2 (m + kappa rho, m + kappa rho), and the excitation energies
eps_m(kappa) = E_m - E_0 are exact rationals for rational kappa.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import OperatorIncompleteError, RankMismatchError
from .repth import Algebra
from .zpoly import ZPolynomial, print_poly

__all__ = [
    "epsilon",
    "ground_energy",
    "level_energy",
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


def ground_energy(algebra: Algebra, kappa) -> Fraction:
    """E_0 = 2 (kappa rho, kappa rho)."""
    return 2 * algebra.weight_form(algebra.rho, algebra.rho) * Fraction(kappa) ** 2


def level_energy(algebra: Algebra, m, kappa) -> Fraction:
    """E_m = 2 (m + kappa rho, m + kappa rho); E_m - E_0 = eps_m exactly.

    With kappa = p/q, q (m + kappa rho) = q m + p rho is a label vector.
    """
    kappa = Fraction(kappa)
    q = kappa.denominator
    x = [q * mj + kappa.numerator for mj in algebra._check_weight(m)]
    return 2 * algebra.weight_form(x, x) / q ** 2


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
    _require_simply_laced(algebra)
    rank = algebra.rank
    if not (1 <= j <= rank and 1 <= k <= rank):
        raise ValueError(f"indices ({j}, {k}) out of range 1..{rank}")
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
    """

    _fields = ("rank", "b", "entries", "provenance")

    def __init__(self, rank: int, b: tuple, entries: dict | None = None,
                 provenance: dict | None = None):
        self.rank = rank
        self.b = b
        self.entries = {} if entries is None else entries
        self.provenance = {} if provenance is None else provenance

    def has(self, j: int, k: int) -> bool:
        return (min(j, k), max(j, k)) in self.entries

    def a(self, j: int, k: int) -> ZPolynomial:
        pair = (min(j, k), max(j, k))
        entry = self.entries.get(pair)
        if entry is None:
            raise OperatorIncompleteError(
                f"coefficient a[{pair[0]},{pair[1]}] is not populated", pair=pair)
        return entry

    def populated_pairs(self):
        return sorted(self.entries)

    def apply(self, p: ZPolynomial) -> ZPolynomial:
        """sum_{j<=k} a_jk d_j d_k p + sum_j b_j z_j d_j p, exactly.

        Off-diagonal entries already hold the full mixed-derivative
        coefficient (both orders of the symmetric double sum), so each
        pair is applied once.
        """
        if p.rank != self.rank:
            raise RankMismatchError(
                f"polynomial rank {p.rank} vs operator {self.rank}")

        def terms():
            for j in range(1, self.rank + 1):
                dj = p.partial_derivative(j)
                if dj.is_zero:
                    continue
                yield self.b[j - 1], ZPolynomial.variable(self.rank, j), dj
                for k in range(j, self.rank + 1):
                    djk = dj.partial_derivative(k)
                    if not djk.is_zero:
                        yield 1, self.a(j, k), djk

        return ZPolynomial.combine(self.rank, terms())

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "b": [str(x) for x in self.b],
            "a": [
                {
                    "j": j,
                    "k": k,
                    "provenance": self.provenance[(j, k)],
                    "poly": print_poly(self.entries[(j, k)]),
                }
                for (j, k) in self.populated_pairs()
            ],
        }


def _pairs_by_cost(algebra: Algebra, pairs):
    def cost(pair):
        j, k = pair
        return (min(algebra.weyl_dim(algebra.fundamental(j)),
                    algebra.weyl_dim(algebra.fundamental(k))), j, k)
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
    _require_simply_laced(algebra)
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

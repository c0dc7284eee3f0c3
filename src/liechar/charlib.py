"""Irreducible characters as polynomials in the fundamental characters.

``character_poly`` peels one fundamental weight at a time: with i chosen so
that V_{λ_i} is the cheapest factor present in m and ν = m - e_i,

    χ_m = z_i · χ_ν  -  sum over the other constituents of V_{λ_i} ⊗ V_ν,

all strictly lower weights being resolved through the cache, which packs
each as a Kronecker integer on its first use as a constituent: the sum is
one multiply-add per constituent, decoded once, while its bound allows.
Computed characters are validated (unit leading coefficient, every
monomial weight below m in dominance order) and optionally persisted, one
fixture-grammar file per weight.  The eigen-equation, in integers, and the
dimension identity are kept as independent verification layers.  The
dominance check and the dimension identity read each monomial's root
coordinates and value at the fundamental dimensions from memos kept by the
algebra, so the characters of one algebra, which share most of their
monomials, work each of them out once.
"""

from __future__ import annotations

import os
import threading
from operator import ge, sub
from pathlib import Path
from typing import TYPE_CHECKING

# epsilon is not called here but stays a module attribute: perfbench/spans.py
# counts its calls through this name
from .repth import Algebra, _epsilon_int, epsilon
from .rootsys import Weight
from .zpoly import (_HALF, FixtureRecord, ZPolynomial, _Slots,
                    _unpack_all, format_fixture_record, read_fixture_file)

if TYPE_CHECKING:
    # csop imports this module; a cached character read needs no operator
    from .csop import Delta1Operator

__all__ = [
    "CharacterCache",
    "EigenReport",
    "DimReport",
    "verify_eigen",
    "dim_identity",
    "CACHE_ENV_VAR",
]

CACHE_ENV_VAR = "LIECHAR_CACHE"


class CharacterCache(_Slots):
    """Memoized (and optionally disk-backed) store of character polynomials.

    One re-entrant lock is held while characters are computed, so each
    character is computed at most once per cache; one already present is
    read without the lock.
    """

    def __init__(self, algebra: Algebra, cache_dir=None):
        super().__init__()
        self.algebra = algebra
        self.rank = algebra.rank
        self._mem: dict = {}
        # weight -> (peak, packed character), or None if _pack_terms refuses
        self._packed: dict = {}
        self._lock = threading.RLock()
        self.cache_dir = Path(cache_dir) if cache_dir else None
        one = ZPolynomial.const(self.rank, 1)
        self._mem[(0,) * self.rank] = one
        for i in range(1, self.rank + 1):
            self._mem[tuple(algebra.fundamental(i))] = \
                ZPolynomial.variable(self.rank, i)

    # -- public API --------------------------------------------------------

    def character_poly(self, m) -> ZPolynomial:
        return self._get(tuple(self.algebra._check_dominant(m)))

    def cached_weights(self):
        with self._lock:
            return sorted(self._mem)

    # -- internals ----------------------------------------------------------

    def _get(self, m: tuple) -> ZPolynomial:
        """The character of ``m``, computing first every character it needs.

        A character already present is returned without taking the lock.
        Otherwise the lock is held while a worklist stands in for recursion,
        so dominance chains of any depth leave the interpreter's recursion
        limit alone: the weight on top is read from disk or expanded once
        every character its expansion names is present; until then those
        are pushed above it.  The lock is re-entrant because
        :meth:`_expand` reads its constituents through this method.
        """
        hit = self._mem.get(m)
        if hit is not None:
            return hit
        with self._lock:
            stack = [m]
            plans: dict = {}
            while stack:
                w = stack[-1]
                if w in self._mem:
                    stack.pop()
                    continue
                plan = plans.get(w)
                if plan is None:
                    poly = self._load_from_disk(w)
                    if poly is not None:
                        self._mem[w] = poly
                        stack.pop()
                        continue
                    plan = plans[w] = self._plan(w)
                # the characters that _expand reads for w
                _, nu, dec = plan
                missing = [x for x in (nu, *dec.entries)
                           if x != w and x not in self._mem]
                if missing:
                    stack.extend(reversed(missing))
                    continue
                poly = self._expand(w, plans.pop(w))
                self._store_to_disk(w, poly)
                self._mem[w] = poly
                stack.pop()
            return self._mem[m]

    def _split_index(self, m: tuple) -> int:
        dims = self.algebra._fundamental_dims
        candidates = [i for i, x in enumerate(m) if x > 0]
        return min(candidates, key=lambda i: (dims[i], i)) + 1

    def _plan(self, m: tuple) -> tuple:
        """``(i, ν, V_{λ_i} ⊗ V_ν)`` with ν = m - e_i, i from
        :meth:`_split_index`."""
        i = self._split_index(m)
        nu = tuple(x - (1 if j == i - 1 else 0) for j, x in enumerate(m))
        alg = self.algebra
        return i, nu, alg.tensor_decompose(alg.fundamental(i), nu)

    def _expand(self, m: tuple, plan: tuple) -> ZPolynomial:
        """The character of ``m`` from ``plan``, made by :meth:`_plan`: z_i
        χ_ν, one ``combine``, less the other constituents, each packed on
        its first use here, as one Kronecker sum decoded once, while B =
        peak(z_i χ_ν) + sum N_μ peak_μ < 2^31; else one ``combine`` of all."""
        i, nu, decomposition = plan
        rank, packed = self.rank, self._packed
        others = [(-mult, mu) for mu, mult in decomposition.items() if mu != m]
        packed.update({mu: self._pack_terms(self._get(mu)._terms)
                       for _, mu in others if mu not in packed})
        head = [(1, ZPolynomial.variable(rank, i), self._get(nu))]
        poly = None
        if all(packed[mu] for _, mu in others):
            z_nu = ZPolynomial.combine(rank, head)
            head = [(1, z_nu, None)]
            # a z_i χ_ν that does not pack fails the bound
            peak, total = self._pack_terms(z_nu._terms) or (_HALF, 0)
            if peak - sum(c * packed[mu][0] for c, mu in others) < _HALF:
                total += sum(c * packed[mu][1] for c, mu in others)
                poly = ZPolynomial._raw(rank, {})
                self._add_digits(total, poly._terms)
        if poly is None:
            poly = ZPolynomial.combine(rank, head + [
                (c, self._get(mu), None) for c, mu in others])
        self._validate(m, poly)
        return poly

    def _validate(self, m: tuple, poly: ZPolynomial):
        """A unit leading coefficient, and each monomial's memoized
        ``_coords`` at most those of ``m`` and congruent to them mod det(A)."""
        if poly.coefficient(m) != 1:
            raise AssertionError(f"character of {m} lacks a unit leading term")
        alg = self.algebra
        memo, det, top = alg._monomial_coords, alg._det, alg._coords(m)
        terms = poly._terms
        new = [key for key in terms if key not in memo]
        # the weight of z^e is sum_i e_i λ_i, i.e. the label vector e
        for key, exps in zip(new, _unpack_all(self.rank, new)):
            memo[key] = alg._coords(exps)
        for key in terms:
            coords = memo[key]
            if not all(map(ge, top, coords)) or det > 1 and any(
                    map(det.__rmod__, map(sub, top, coords))):
                exps, = _unpack_all(self.rank, (key,))
                raise AssertionError(
                    f"monomial {exps} of character {m} is not below it "
                    "in dominance order")

    # -- persistence ----------------------------------------------------------

    def _path_for(self, m: tuple) -> Path | None:
        if self.cache_dir is None:
            return None
        name = "-".join(str(x) for x in m) + ".chi"
        return self.cache_dir / self.algebra.cartan.key() / name

    def _load_from_disk(self, m: tuple) -> ZPolynomial | None:
        path = self._path_for(m)
        if path is None or not path.is_file():
            return None
        # corrupt cache entries are ignored and recomputed, never trusted
        try:
            records = read_fixture_file(path, self.rank)
            if len(records) != 1:
                reason = f"{len(records)} records, expected 1"
            elif records[0].kind != "chi" or tuple(records[0].index) != m:
                reason = (f"record {records[0].kind}{list(records[0].index)} "
                          f"is not chi{list(m)}")
            else:
                poly = records[0].poly
                self._validate(m, poly)
                if dim_identity(self.algebra, m, poly).ok:
                    return poly
                reason = "dimension identity fails"
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
        # imported only here: the module costs about 0.7 MB of RSS, which a
        # process that rejects no entry does not pay
        import logging
        logging.getLogger("liechar").debug(
            "rejected disk cache entry %s: %s", path, reason)
        return None

    def _store_to_disk(self, m: tuple, poly: ZPolynomial):
        path = self._path_for(m)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        text = format_fixture_record(FixtureRecord("chi", m, poly))
        # written beside the target and renamed over it, so a reader never
        # sees a partial entry; the name is unique per process and thread
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_text(text + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


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


class EigenReport(_Record):
    _fields = ("weight", "expected", "ok", "residual")

    def __init__(self, weight: Weight, expected: int, ok: bool,
                 residual: ZPolynomial):
        self.weight = weight
        self.expected = expected
        self.ok = ok
        self.residual = residual

    def __bool__(self):
        return self.ok


class DimReport(_Record):
    _fields = ("weight", "value", "expected")

    def __init__(self, weight: Weight, value: int, expected: int):
        self.weight = weight
        self.value = value
        self.expected = expected

    @property
    def ok(self) -> bool:
        return self.value == self.expected

    def __bool__(self):
        return self.ok


def verify_eigen(algebra: Algebra, m, chi: ZPolynomial,
                 operator: Delta1Operator) -> EigenReport:
    """Check that the operator multiplies the character by eps_m(1)."""
    m = algebra._check_dominant(m)
    expected = _epsilon_int(algebra, m)
    residual = operator.apply(chi, expected)
    return EigenReport(Weight(m), expected, residual.is_zero, residual)


def dim_identity(algebra: Algebra, m, chi: ZPolynomial) -> DimReport:
    """Evaluate the character at the fundamental dimensions.

    Each monomial's value there is computed once per algebra and kept in
    its memo, so the characters of one algebra, which share most of their
    monomials, cost about one multiply-add per term.
    """
    m = algebra._check_dominant(m)
    value = chi._evaluate_memo(algebra._fundamental_dims,
                               algebra._monomial_dims)
    return DimReport(Weight(m), value, algebra.weyl_dim(m))


def default_cache_dir() -> Path | None:
    value = os.environ.get(CACHE_ENV_VAR)
    return Path(value) if value else None

"""Irreducible characters as polynomials in the fundamental characters.

``character_poly`` peels one fundamental weight at a time: with i chosen so
that V_{λ_i} is the cheapest factor present in m and ν = m - e_i,

    χ_m = z_i · χ_ν  -  sum over the other constituents of V_{λ_i} ⊗ V_ν,

all strictly lower weights being resolved through the cache.  Computed
characters are validated (unit leading coefficient, every monomial weight
below m in dominance order) and optionally persisted, one fixture-grammar
file per weight.  The eigen-equation and the dimension identity are kept as
independent verification layers.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from .csop import Delta1Operator, _Record, epsilon
from .repth import Algebra
from .rootsys import Weight
from .zpoly import (FixtureRecord, ZPolynomial, format_fixture_record,
                    read_fixture_file)

__all__ = [
    "CharacterCache",
    "EigenReport",
    "DimReport",
    "FixtureDiff",
    "verify_eigen",
    "dim_identity",
    "load_fixtures",
    "compare_fixture",
    "CACHE_ENV_VAR",
]

CACHE_ENV_VAR = "LIECHAR_CACHE"


class CharacterCache:
    """Memoized (and optionally disk-backed) store of character polynomials.

    Inserts are serialized and concurrent requests for the same weight
    coalesce, so each character is computed at most once per cache.
    """

    def __init__(self, algebra: Algebra, cache_dir=None):
        self.algebra = algebra
        self.rank = algebra.rank
        self._mem: dict = {}
        self._inflight: dict = {}
        self._lock = threading.Lock()
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

    def verify_eigen(self, m, operator: Delta1Operator) -> "EigenReport":
        return verify_eigen(self.algebra, m, self.character_poly(m), operator)

    def dim_identity(self, m) -> "DimReport":
        return dim_identity(self.algebra, m, self.character_poly(m))

    # -- internals ----------------------------------------------------------

    def _get(self, m: tuple) -> ZPolynomial:
        """The character of ``m``, computing first every character it needs.

        A worklist stands in for recursion, so dominance chains of any
        depth leave the interpreter's recursion limit alone.  The weight on
        top is claimed, then read from disk or expanded once every
        character its expansion names is present; until then those are
        pushed above it.  A weight claimed by another thread is waited for.
        """
        stack = [m]
        held: dict = {}  # claimed weight -> its plan, once made
        try:
            while stack:
                w = stack[-1]
                poly = None
                if w not in held:
                    if self._claim(w) is not None:
                        stack.pop()
                        continue
                    held[w] = None  # claimed: released below, or on an error
                    poly = self._load_from_disk(w)
                    if poly is None:
                        held[w] = self._plan(w)
                if poly is None:
                    # the characters that _expand reads for w
                    _, nu, dec = held[w]
                    missing = [x for x in (nu, *map(tuple, dec.entries))
                               if x != w and x not in self._mem]
                    if missing:
                        stack.extend(reversed(missing))
                        continue
                    poly = self._expand(w, held[w])
                    self._store_to_disk(w, poly)
                del held[w]
                self._release(w, poly)
                stack.pop()
        finally:
            for w in held:
                self._release(w)
        return self._mem[m]

    def _claim(self, m: tuple) -> ZPolynomial | None:
        """The character of ``m`` if present, else None with ``m`` claimed.

        Waits while another thread holds the claim on ``m``.
        """
        while True:
            with self._lock:
                hit = self._mem.get(m)
                if hit is not None:
                    return hit
                event = self._inflight.get(m)
                if event is None:
                    self._inflight[m] = threading.Event()
                    return None
            event.wait()

    def _release(self, m: tuple, poly: ZPolynomial | None = None):
        """Store ``poly`` (unless None) and wake the threads waiting on ``m``."""
        with self._lock:
            if poly is not None:
                self._mem[m] = poly
            event = self._inflight.pop(m)
        event.set()

    def _split_index(self, m: tuple) -> int:
        alg = self.algebra
        candidates = [i for i, x in enumerate(m) if x > 0]
        return min(candidates,
                   key=lambda i: (alg.weyl_dim(alg.fundamental(i + 1)), i)) + 1

    def _plan(self, m: tuple, split_index: int | None = None) -> tuple:
        """``(i, ν, V_{λ_i} ⊗ V_ν)`` with ν = m - e_i."""
        i = self._split_index(m) if split_index is None else split_index
        if not m[i - 1] > 0:
            raise ValueError(f"label {i} of {m} is not positive")
        nu = tuple(x - (1 if j == i - 1 else 0) for j, x in enumerate(m))
        alg = self.algebra
        return i, nu, alg.tensor_decompose(alg.fundamental(i), nu)

    def _expand(self, m: tuple, plan: tuple) -> ZPolynomial:
        """The character of ``m`` from ``plan``, made by :meth:`_plan`."""
        i, nu, decomposition = plan
        terms = [(1, ZPolynomial.variable(self.rank, i), self._get(nu))]
        terms += [(-mult, self._get(mu), None)
                  for mu, mult in decomposition.items() if mu != m]
        poly = ZPolynomial.combine(self.rank, terms)
        self._validate(m, poly)
        return poly

    def _validate(self, m: tuple, poly: ZPolynomial):
        if poly.coefficient(m) != 1:
            raise AssertionError(f"character of {m} lacks a unit leading term")
        below = self.algebra._below
        for exps in poly.terms:
            # the weight of z^e is sum_i e_i λ_i, i.e. the label vector e
            if exps != m and not below(m, exps):
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


class FixtureDiff(_Record):
    _fields = ("weight", "missing", "extra", "changed")

    def __init__(self, weight: Weight, missing: dict, extra: dict,
                 changed: dict):
        self.weight = weight
        self.missing = missing
        self.extra = extra
        self.changed = changed

    @property
    def ok(self) -> bool:
        return not (self.missing or self.extra or self.changed)

    def __bool__(self):
        return self.ok


def verify_eigen(algebra: Algebra, m, chi: ZPolynomial,
                 operator: Delta1Operator) -> EigenReport:
    """Check that the operator multiplies the character by eps_m(1)."""
    m = algebra._check_dominant(m)
    expected = epsilon(algebra, m, 1)
    if expected.denominator != 1:
        raise AssertionError("eigenvalue is not integral")
    expected = int(expected)
    residual = operator.apply(chi) - expected * chi
    return EigenReport(Weight(m), expected, residual.is_zero, residual)


def dim_identity(algebra: Algebra, m, chi: ZPolynomial) -> DimReport:
    """Evaluate the character at the fundamental dimensions."""
    m = algebra._check_dominant(m)
    point = [algebra.weyl_dim(algebra.fundamental(i))
             for i in range(1, algebra.rank + 1)]
    return DimReport(Weight(m), chi.evaluate(point), algebra.weyl_dim(m))


def load_fixtures(path, rank: int) -> dict:
    """Character records of a fixture file, keyed by weight."""
    out = {}
    for record in read_fixture_file(path, rank):
        if record.kind == "chi":
            out[Weight(record.index)] = record.poly
    return out


def compare_fixture(m, computed: ZPolynomial, expected: ZPolynomial) -> FixtureDiff:
    """Exact term-map comparison; reports the symmetric difference."""
    got = computed.terms
    want = expected.terms
    missing = {e: c for e, c in want.items() if e not in got}
    extra = {e: c for e, c in got.items() if e not in want}
    changed = {e: (got[e], want[e])
               for e in got.keys() & want.keys() if got[e] != want[e]}
    return FixtureDiff(Weight(m), missing, extra, changed)


def default_cache_dir() -> Path | None:
    value = os.environ.get(CACHE_ENV_VAR)
    return Path(value) if value else None

"""In-memory spans around the public entry points of liechar's layers.

A :class:`Tracer` replaces selected functions and methods of the package
with wrappers that record one span per call (layer name, start, end and the
index of the enclosing span) plus counters taken at the same boundary.
Spans stay in compact arrays until the run ends; :func:`layer_totals` then
turns them into per-layer call counts, inclusive time and self time, where
self time is a span's length minus the time its direct child spans cover.

Nothing here is imported by the package itself: the wrappers are installed
from outside by :func:`install` and removed by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter


class Tracer:
    """Span recorder for one process and one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list = []

    def name_index(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()

    def span(self, name, fn):
        """Wrap ``fn`` so each call records one span.

        ``name`` is a layer name, or a callable that derives it from the
        call's arguments.
        """
        fixed = None if callable(name) else name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(fixed or name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def patch(self, owner, attr: str, replacement):
        """Set ``owner.attr`` and remember the original for :meth:`uninstall`."""
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def dump_spans(path, spans, counts):
    """Write spans as one JSON array per line, after a header line."""
    names = sorted({row[0] for row in spans})
    index = {name: i for i, name in enumerate(names)}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"names": names, "counts": dict(counts)}) + "\n")
        for name, start, end, parent in spans:
            handle.write(f"[{index[name]},{start!r},{end!r},{parent}]\n")


def load_spans(path) -> tuple[list, Counter]:
    """Read a file written by :func:`dump_spans` back."""
    with open(path, "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        names = header["names"]
        spans = []
        for line in handle:
            nid, start, end, parent = json.loads(line)
            spans.append((names[nid], start, end, parent))
    return spans, Counter(header["counts"])


def tracer_spans(tracer: Tracer) -> list:
    names = tracer.names
    return [(names[tracer.name_id[i]], tracer.start[i], tracer.end[i],
             tracer.parent[i]) for i in range(len(tracer.start))]


def layer_totals(spans) -> dict:
    """Per layer name: ``{"calls", "incl_s", "self_s"}``.

    ``spans`` is a sequence of ``(name, start, end, parent_index)``; a
    parent index of -1 marks a top-level span.  Child spans lie inside
    their parent's interval, so the time they cover is the sum of their
    lengths.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = totals.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - covered[i]
    return totals


def top_level_seconds(spans) -> float:
    """Time covered by spans that have no enclosing span."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def median(values):
    """Median of a non-empty sequence of numbers."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def install(tracer: Tracer):
    """Wrap the public entry points of every liechar layer.

    Counters recorded at the same boundaries:

    * ``repth.orbit.calls`` / ``repth.orbit.weights``: ``weyl_orbit`` is a
      generator consumed by its caller, so it gets no span; each call adds
      the orbit's size, counted per orbit and never per weight.
    * ``repth.klimyk.computed`` / ``repth.klimyk.weights``: the first call
      on a pair of an :class:`Algebra`, and for it the number of distinct
      weights Klimyk visits, the sum of ``orbit_size`` over the smaller
      factor's Freudenthal table.
    * ``zpoly.mul.term_products``: ``len(a) * len(b)`` per product (``len``
      of the polynomial for an integer factor).
    * ``zpoly.parse.terms``: terms of every parsed polynomial.
    * ``charlib.disk.read``: character files read back by the cache.
    """
    from liechar import charlib, cli, csop, repth, zpoly

    counts = tracer.counts
    Algebra = repth.Algebra
    ZPolynomial = zpoly.ZPolynomial
    orbit_size = Algebra.orbit_size
    weyl_dim = Algebra.weyl_dim
    freudenthal = Algebra.freudenthal

    klimyk = tracer.span("repth.klimyk", Algebra.tensor_decompose)
    seen_pairs: set = set()

    def tensor_decompose(self, left, right, budget=None):
        lam, nu = tuple(left), tuple(right)
        key = (id(self), min(lam, nu), max(lam, nu))
        result = klimyk(self, left, right, budget)
        if key not in seen_pairs:
            seen_pairs.add(key)
            counts["repth.klimyk.computed"] += 1
            small = lam if weyl_dim(self, lam) <= weyl_dim(self, nu) else nu
            table = freudenthal(self, small)
            counts["repth.klimyk.weights"] += sum(
                orbit_size(self, mu) for mu in table.entries)
        return result

    weyl_orbit = Algebra.weyl_orbit

    def counted_orbit(self, w):
        counts["repth.orbit.calls"] += 1
        counts["repth.orbit.weights"] += orbit_size(self, w)
        return weyl_orbit(self, w)

    tracer.patch(Algebra, "tensor_decompose", tensor_decompose)
    tracer.patch(Algebra, "weyl_orbit", counted_orbit)
    for attr, name in (("freudenthal", "repth.freudenthal"),
                       ("weyl_dim", "repth.weyl_dim"),
                       ("dominance_gap", "repth.dominance_gap")):
        tracer.patch(Algebra, attr, tracer.span(name, getattr(Algebra, attr)))

    mul = ZPolynomial.__mul__

    def counted_mul(self, other):
        counts["zpoly.mul.term_products"] += len(self) * (
            len(other) if isinstance(other, ZPolynomial) else 1)
        return mul(self, other)

    traced_mul = tracer.span("zpoly.mul", counted_mul)
    tracer.patch(ZPolynomial, "__mul__", traced_mul)
    tracer.patch(ZPolynomial, "__rmul__", traced_mul)
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        tracer.patch(ZPolynomial, attr,
                     tracer.span("zpoly.add", ZPolynomial.__dict__[attr]))
    tracer.patch(ZPolynomial, "partial_derivative",
                 tracer.span("zpoly.deriv", ZPolynomial.partial_derivative))
    tracer.patch(ZPolynomial, "evaluate",
                 tracer.span("zpoly.evaluate", ZPolynomial.evaluate))

    parse = zpoly.parse_poly

    def counted_parse(text, rank):
        poly = parse(text, rank)
        counts["zpoly.parse.terms"] += len(poly)
        return poly

    traced_parse = tracer.span("zpoly.parse", counted_parse)
    tracer.patch(zpoly, "parse_poly", traced_parse)
    tracer.patch(cli, "parse_poly", traced_parse)

    tracer.patch(csop, "a_coeff", tracer.span(
        lambda algebra, j, k, *rest, **kw: f"csop.a_coeff.{min(j, k)}_{max(j, k)}",
        csop.a_coeff))
    tracer.patch(csop.Delta1Operator, "apply",
                 tracer.span("csop.apply", csop.Delta1Operator.apply))
    epsilon = csop.epsilon

    def counted_epsilon(*args, **kwargs):
        counts["csop.epsilon.calls"] += 1
        return epsilon(*args, **kwargs)

    tracer.patch(csop, "epsilon", counted_epsilon)
    tracer.patch(charlib, "epsilon", counted_epsilon)

    tracer.patch(charlib.CharacterCache, "character_poly",
                 tracer.span("charlib.character_poly",
                             charlib.CharacterCache.character_poly))
    for attr in ("verify_eigen", "dim_identity"):
        tracer.patch(charlib, attr,
                     tracer.span(f"charlib.{attr}", getattr(charlib, attr)))

    read_fixture_file = charlib.read_fixture_file

    def counted_read(path, rank):
        counts["charlib.disk.read"] += 1
        return read_fixture_file(path, rank)

    tracer.patch(charlib, "read_fixture_file", counted_read)

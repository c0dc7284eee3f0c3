"""Cartan matrices, their integer adjugates and positive roots.

Conventions: ``A[i][j]`` is the pairing of simple root ``α_{i+1}`` with the
coroot ``α_{j+1}`` (so row ``i`` holds the Dynkin labels of ``α_{i+1}``),
and node numbering follows the standard Bourbaki layout.  For the E series
the branch node is α2, attached to α4:

        1 - 3 - 4 - 5 - 6 - 7 - 8
                |
                2

The golden fixture tables depend on this numbering; weights are always
given as Dynkin-label vectors in the same node order.
"""

from __future__ import annotations

import re
from functools import cached_property
from math import lcm
from operator import add, index
from typing import NamedTuple

from .errors import integer

__all__ = [
    "Weight",
    "Root",
    "CartanMatrix",
    "build_cartan",
]


class Weight(tuple):
    """Integer vector of Dynkin labels in the fundamental-weight basis,
    read by :func:`_labels`, the package's one label check."""

    def __new__(cls, labels):
        return super().__new__(cls, _labels(labels))

    @property
    def rank(self) -> int:
        return len(self)

    def __repr__(self):
        return f"Weight({','.join(str(x) for x in self)})"


def _labels(w) -> tuple:
    """The labels of the weight ``w`` as ints, read with ``operator.index``
    as int, bool and numpy integers allow; ``ValueError`` when ``w`` is not
    iterable or a label is not an integer."""
    try:
        w = tuple(w)
    except TypeError:
        raise ValueError(f"weight {w!r} is not a sequence of labels") from None
    try:
        return tuple(map(index, w))
    except TypeError:
        raise ValueError(
            f"weight {w} has a label that is not an integer") from None


class Root(NamedTuple):
    """A root stored in the simple-root basis with its cached label form."""

    coeffs: tuple
    labels: tuple

    @property
    def height(self) -> int:
        return sum(self.coeffs)


def _adjugate(rows):
    """``(det, adj)`` of an integer matrix whose leading principal minors
    are all positive, by fraction-free Gauss-Jordan elimination (E. H.
    Bareiss, Math. Comp. 22, 1968).

    The pivot of step k is the leading principal minor of order k + 1, and
    every division is exact.  For a symmetrizable Cartan matrix the minors
    are all positive exactly when it is of finite type, so a pivot <= 0
    raises ``ValueError``.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        pivot, top = aug[k][k], aug[k]
        if pivot <= 0:
            raise ValueError("matrix is not of finite type (leading "
                             f"principal minor of order {k + 1} is {pivot})")
        for i, row in enumerate(aug):
            if i != k:
                aug[i] = [(pivot * x - row[k] * y) // prev
                          for x, y in zip(row, top)]
        prev = pivot
    return prev, tuple(tuple(row[n:]) for row in aug)


_TYPE_RE = re.compile(r"^\s*([A-Ga-g])\s*[-_ ]?\s*(\d+)\s*$")


_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "F": 4, "G": 2}

#: Largest rank accepted.  The positive roots of A_n and D_n number about
#: n^2 / 2 and n^2, n labels each: Algebra("A100") and Algebra("D100")
#: build in about 0.2 and 0.3 s (2 cores, Python 3.11), and a rank taken as
#: given from a type string could exhaust memory.
MAX_RANK = 100


def _check_rank(n: int):
    if n > MAX_RANK:
        raise ValueError(f"rank {n} is above the largest supported rank "
                         f"{MAX_RANK}")


def _entries_for_type(family: str, n: int):
    _check_rank(n)
    family = family.upper()
    if family == "E":
        if n not in (6, 7, 8):
            raise ValueError(f"E{n} is not a finite simple type")
    elif family in ("F", "G"):
        if n != _MIN_RANK[family]:
            raise ValueError(f"{family}{n} is not a finite simple type")
    elif family in _MIN_RANK:
        if n < _MIN_RANK[family]:
            raise ValueError(f"{family}{n} is out of range for the family")
    else:
        raise ValueError(f"unknown algebra family {family!r}")
    # a chain, D's last edge moved to the fork and E's first two to the
    # branch node; the multiple edge (i, j, k) of B, C, F, G sets A[i][j] = -k
    edges = [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        edges[-1] = (n - 3, n - 1)
    elif family == "E":
        edges[:2] = [(0, 2), (1, 3)]
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    multiple = {"B": (n - 2, n - 1, 2), "C": (n - 1, n - 2, 2),
                "F": (1, 2, 2), "G": (1, 0, 3)}.get(family)
    if multiple:
        i, j, k = multiple
        rows[i][j] = -k
    return rows


class CartanMatrix:
    """Integer Cartan matrix of a finite-type root system."""

    def __init__(self, entries, label: str | None = None):
        rows = tuple(tuple(integer(x, "Cartan entry") for x in row)
                     for row in entries)
        n = len(rows)
        _check_rank(n)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("Cartan matrix must be square and nonempty")
        for i in range(n):
            if rows[i][i] != 2:
                raise ValueError(f"diagonal entry A[{i}][{i}] must be 2")
            for j in range(n):
                if i != j:
                    if rows[i][j] > 0:
                        raise ValueError("off-diagonal entries must be <= 0")
                    if (rows[i][j] == 0) != (rows[j][i] == 0):
                        raise ValueError("zero pattern must be symmetric")
        self.entries = rows
        self.rank = n
        self.label = label
        self.determinant, self.adjugate = _adjugate(rows)

    @cached_property
    def _lengths(self) -> tuple:
        """The half root-lengths d_i = (α_i, α_i)/2 scaled to the primitive
        integer vector, so that the long roots have the largest entry.

        The BFS sets the first node of each component to 1 and keeps each
        d_j as a pair ``(num, den)`` of positive integers, with d_j / d_i =
        A[j][i] / A[i][j] along every edge; a second path that gives
        another ratio raises ``ValueError``.
        """
        n = self.rank
        rows = self.entries
        d: list = [None] * n
        for start in range(n):
            if d[start] is not None:
                continue
            d[start] = (1, 1)
            stack = [start]
            while stack:
                i = stack.pop()
                num, den = d[i]
                for j in range(n):
                    if i != j and rows[i][j] != 0:
                        value = (-num * rows[j][i], -den * rows[i][j])
                        if d[j] is None:
                            d[j] = value
                            stack.append(j)
                        elif d[j][0] * value[1] != value[0] * d[j][1]:
                            raise ValueError("matrix is not symmetrizable")
        # a component of a finite-type diagram has at most one multiple
        # edge, so each pair is in lowest terms and, with its first node
        # at 1, the lcm of the denominators gives a primitive vector
        scale = lcm(*(den for _, den in d))
        return tuple(num * scale // den for num, den in d)

    @cached_property
    def symmetrizer(self) -> tuple:
        """Half root-lengths d_i = (α_i, α_i)/2, long roots normalized to 1."""
        from fractions import Fraction

        top = max(self._lengths)
        return tuple(Fraction(x, top) for x in self._lengths)

    @cached_property
    def is_simply_laced(self) -> bool:
        return all(x == 1 for x in self._lengths)

    @property
    def positive_roots(self) -> tuple:
        """All positive roots, graded by height, then lexicographic on the
        simple-root coefficients (see :attr:`_root_steps`)."""
        return self._root_steps[0]

    @cached_property
    def _root_steps(self) -> tuple:
        """``(roots, steps)``: the positive roots, and per root of height >
        1, in order, the pair ``(p, s)`` of root indices with the root equal
        to roots[p] plus the simple root roots[s].

        The roots are the closure of the simple ones under the steps β ->
        β + α_i, ..., β + c α_i wherever <β, α_i^∨> = -c < 0, since the
        α_i-string through β reaches s_i β; every positive root of height >
        1 is reached from a lower one this way (J. E. Humphreys, Lie
        algebras, §10.2).  A root keeps the step that first reached it.
        """
        n = self.rank
        rows = self.entries
        simple = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        labels = dict(zip(simple, rows))
        parents = {}
        queue = list(simple)
        for beta in queue:  # the queue grows as it is walked
            for i, x in enumerate(labels[beta]):
                low = beta
                for _ in range(-x):
                    up = low[:i] + (low[i] + 1,) + low[i + 1:]
                    if up not in labels:
                        labels[up] = tuple(map(add, labels[low], rows[i]))
                        parents[up] = (low, simple[i])
                        queue.append(up)
                    low = up
        ordered = sorted(labels, key=lambda coeffs: (sum(coeffs), coeffs))
        index = {coeffs: r for r, coeffs in enumerate(ordered)}
        return (tuple(Root(coeffs, labels[coeffs]) for coeffs in ordered),
                tuple((index[low], index[step]) for low, step
                      in map(parents.get, ordered[n:])))

    def __eq__(self, other):
        return isinstance(other, CartanMatrix) and self.entries == other.entries

    def __repr__(self):
        tag = self.label or f"rank {self.rank}"
        return f"CartanMatrix({tag})"

    def key(self) -> str:
        """Stable identifier used for cache directories."""
        if self.label:
            return self.label.lower()
        import hashlib  # about 4 MB, and only unlabelled matrices need it

        flat = ",".join(str(x) for row in self.entries for x in row)
        digest = hashlib.sha256(flat.encode("ascii")).hexdigest()[:10]
        return f"r{self.rank}-{digest}"

    def to_json_dict(self) -> dict:
        out = {
            "rank": self.rank,
            "entries": [[str(x) for x in row] for row in self.entries],
        }
        if self.label:
            out["type"] = self.label
        return out


def build_cartan(type_spec) -> CartanMatrix:
    """Build a Cartan matrix from a type string ("E8", "a2") or raw entries."""
    if isinstance(type_spec, CartanMatrix):
        return type_spec
    if isinstance(type_spec, str):
        m = _TYPE_RE.match(type_spec)
        if m is None:
            raise ValueError(f"cannot parse algebra type {type_spec!r}")
        family, digits = m.group(1).upper(), m.group(2).lstrip("0")
        # a rank of more than 20 digits, far above MAX_RANK, is refused
        # unread: int() may not read it, and the error would echo it
        if len(digits) > 20:
            raise ValueError(f"rank of {len(digits)} digits is above the "
                             f"largest supported rank {MAX_RANK}")
        n = int(digits or "0")
        return CartanMatrix(_entries_for_type(family, n), label=f"{family}{n}")
    return CartanMatrix(type_spec)


def roots_to_json(roots) -> list:
    return [
        {
            "coeffs": [str(c) for c in root.coeffs],
            "labels": [str(l) for l in root.labels],
            "height": str(root.height),
        }
        for root in roots
    ]

"""Cartan matrices, exact inverses, positive roots and inner products.

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
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

__all__ = [
    "Weight",
    "Root",
    "CartanMatrix",
    "RationalMatrix",
    "build_cartan",
    "inverse_cartan",
    "positive_roots",
    "weyl_vector",
    "inner_product",
]


class Weight(tuple):
    """Integer vector of Dynkin labels in the fundamental-weight basis."""

    def __new__(cls, labels):
        return super().__new__(cls, (int(x) for x in labels))

    @property
    def rank(self) -> int:
        return len(self)

    @property
    def is_dominant(self) -> bool:
        return all(x >= 0 for x in self)

    def __repr__(self):
        return f"Weight({','.join(str(x) for x in self)})"


class Root(NamedTuple):
    """A root stored in the simple-root basis with its cached label form."""

    coeffs: tuple
    labels: tuple

    @property
    def height(self) -> int:
        return sum(self.coeffs)


class RationalMatrix:
    """Square matrix of exact rationals (holds inverse Cartan matrices)."""

    __slots__ = ("entries", "rank")

    def __init__(self, entries):
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        self.entries = rows
        self.rank = len(rows)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"RationalMatrix({self.entries!r})"

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "entries": [[str(x) for x in row] for row in self.entries],
        }


def _invert_exact(entries):
    """Gauss-Jordan over Fraction; returns (inverse rows, determinant)."""
    n = len(entries)
    aug = [[Fraction(entries[i][j]) for j in range(n)] +
           [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None, Fraction(0)
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug], det


_TYPE_RE = re.compile(r"^\s*([A-Ga-g])\s*[-_ ]?\s*(\d+)\s*$")


def _type_edges(family: str, n: int):
    """Edge list (i, j, a_ij, a_ji) with 0-based nodes; a_ij = row i, col j."""
    if family == "A":
        return [(i, i + 1, -1, -1) for i in range(n - 1)]
    if family == "B":
        # last node short: pairing of long α_{n-1} with short coroot is -2
        edges = [(i, i + 1, -1, -1) for i in range(n - 2)]
        edges.append((n - 2, n - 1, -2, -1))
        return edges
    if family == "C":
        edges = [(i, i + 1, -1, -1) for i in range(n - 2)]
        edges.append((n - 2, n - 1, -1, -2))
        return edges
    if family == "D":
        edges = [(i, i + 1, -1, -1) for i in range(n - 2)]
        edges.append((n - 3, n - 1, -1, -1))
        return edges
    if family == "E":
        edges = [(0, 2, -1, -1), (1, 3, -1, -1)]
        edges.extend((i, i + 1, -1, -1) for i in range(2, n - 1))
        return edges
    if family == "F":
        return [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)]
    if family == "G":
        return [(0, 1, -1, -3)]
    raise ValueError(f"unknown family {family!r}")


_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "F": 4, "G": 2}


def _entries_for_type(family: str, n: int):
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
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, aij, aji in _type_edges(family, n):
        rows[i][j] = aij
        rows[j][i] = aji
    return rows


class CartanMatrix:
    """Integer Cartan matrix of a finite-type root system."""

    def __init__(self, entries, label: str | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        n = len(rows)
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
        inv, det = _invert_exact(rows)
        if inv is None or det <= 0:
            raise ValueError("matrix is not of finite type (determinant <= 0)")
        self.determinant = det
        self._inverse = RationalMatrix(inv)

    @property
    def inverse(self) -> RationalMatrix:
        return self._inverse

    @cached_property
    def symmetrizer(self) -> tuple:
        """Half root-lengths d_i = (α_i, α_i)/2, long roots normalized to 1."""
        n = self.rank
        d: list = [None] * n
        for start in range(n):
            if d[start] is not None:
                continue
            d[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if i != j and self.entries[i][j] != 0:
                        ratio = Fraction(self.entries[j][i], self.entries[i][j])
                        value = d[i] * ratio
                        if d[j] is None:
                            d[j] = value
                            stack.append(j)
                        elif d[j] != value:
                            raise ValueError("matrix is not symmetrizable")
        top = max(d)
        return tuple(x / top for x in d)

    @cached_property
    def is_simply_laced(self) -> bool:
        return all(x == Fraction(1) for x in self.symmetrizer)

    @cached_property
    def positive_roots(self) -> tuple:
        """All positive roots by repeated root-string extension.

        Deterministic order: graded by height, then lexicographic on the
        simple-root coefficients.
        """
        n = self.rank
        rows = self.entries
        known = {}
        level = []
        for i in range(n):
            coeffs = tuple(1 if k == i else 0 for k in range(n))
            known[coeffs] = rows[i]
            level.append(coeffs)
        level.sort()
        ordered = list(level)
        while level:
            found = set()
            for coeffs in level:
                labels = known[coeffs]
                for i in range(n):
                    # walk down the α_i-string to find p, then q = p - <β, αi∨>
                    p = 0
                    probe = list(coeffs)
                    while True:
                        probe[i] -= 1
                        if probe[i] < 0 or tuple(probe) not in known:
                            break
                        p += 1
                    if p - labels[i] >= 1:
                        up = list(coeffs)
                        up[i] += 1
                        found.add(tuple(up))
            level = sorted(t for t in found if t not in known)
            for coeffs in level:
                known[coeffs] = tuple(
                    sum(c * rows[i][k] for i, c in enumerate(coeffs))
                    for k in range(n))
            ordered.extend(level)
        return tuple(Root(coeffs, tuple(known[coeffs])) for coeffs in ordered)

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
        family = m.group(1).upper()
        n = int(m.group(2))
        return CartanMatrix(_entries_for_type(family, n), label=f"{family}{n}")
    return CartanMatrix(type_spec)


def inverse_cartan(cartan: CartanMatrix) -> RationalMatrix:
    return cartan.inverse


def positive_roots(cartan: CartanMatrix) -> list:
    return list(cartan.positive_roots)


def weyl_vector(rank: int) -> Weight:
    if rank < 1:
        raise ValueError("rank must be positive")
    return Weight((1,) * rank)


def inner_product(x: Sequence[int], y: Sequence[int],
                  ainv: RationalMatrix) -> Fraction:
    """Bilinear form sum_jk x_j y_k (A^-1)_jk on Dynkin-label vectors."""
    n = ainv.rank
    if len(x) != n or len(y) != n:
        raise ValueError(f"weights must have rank {n}")
    total = Fraction(0)
    for j, xj in enumerate(x):
        if xj:
            row = ainv.entries[j]
            total += xj * sum(int(yk) * row[k] for k, yk in enumerate(y) if yk)
    return total


def roots_to_json(roots) -> list:
    return [
        {
            "coeffs": [str(c) for c in root.coeffs],
            "labels": [str(l) for l in root.labels],
            "height": str(root.height),
        }
        for root in roots
    ]

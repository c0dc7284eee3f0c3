"""Weight multiplicities, Weyl dimensions, orbits and tensor decompositions.

The engine lives in :class:`Algebra`, which precomputes the root data of one
Cartan matrix and memoizes the expensive results (dimensions, multiplicity
tables, tensor decompositions).  Tensor products follow the Klimyk rule:
iterate over every weight of the smaller factor, dominant-reflect the
ρ-shifted sum, drop terms fixed by a wall, and accumulate signs.  Weight
multiplicities come from the Freudenthal recursion, evaluated in integers
with the invariant form :meth:`Algebra._form` and asserted integral.

Both Klimyk paths hold a weight u as one integer key, K(u) = sum_k
(u_k + B) 2^(w k) with B = 2^(w-1), w bits per label.  A reflection is one
multiply-subtract, K(s_i u) = K(u) - u_i K(α_i), and u_k < 0 exactly when
the sign bit w - 1 of lane k is clear.  Orbits are walked as trees of keys
(D. Snow's canonical-parent rule).  Each product takes the first lane width
of 8, 16, 32, ... bits that holds every label its sum forms, 8 for every E8
product of the paper.  When the smaller factor's largest Weyl orbit has
fewer than ``_ARRAY_MIN_ORBIT`` (2^16) weights, a Python loop reflects one
key at a time.  It reads the factor's weight system from a per-algebra
cache, each weight indexed by its negative part, and skips the weights
whose part puts ν + ρ + u on a wall (Racah-Speiser cancellation); numpy is
never imported.  Longer orbits go to a numpy kernel, which walks all of the
factor's orbits together, level by level, gathers the levels into batches
of ``_ARRAY_CHUNK`` (2^16) keys and reflects each batch's sums on the same
keys, held as ``uint64``; a product whose keys are wider than 64 bits stays
on the loop.
"""

from __future__ import annotations

import threading
from array import array
from fractions import Fraction
from itertools import compress
from math import isqrt, lcm, prod
from operator import mul
from typing import Iterator

from .errors import BudgetError
from .rootsys import CartanMatrix, Weight, build_cartan

__all__ = [
    "Algebra",
    "WeightMultiplicityTable",
    "Decomposition",
    "DEFAULT_TENSOR_BUDGET",
]

DEFAULT_TENSOR_BUDGET = 20_000_000

# Products whose smaller factor has a Weyl orbit at least this long use the
# array kernel, which is faster but imports numpy (about 12 MB).  Below it
# the loop's time is small, and a process that takes only such products, as
# a CLI request for a small E8 character does, keeps numpy out of its peak
# memory.  In E8 this sends λ3, λ4 and λ5 to the kernel; 2^15 would also
# send λ6 (largest orbit 60,480), and `char E8 0,0,0,0,0,0,3,0` takes
# λ6⊗λ6.
_ARRAY_MIN_ORBIT = 2 ** 16
# keys per batch of the array kernel, which bounds its working memory
_ARRAY_CHUNK = 2 ** 16


class Decomposition:
    """Irreducible constituents of a tensor product with multiplicities."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict):
        self.entries = dict(entries)

    def __getitem__(self, weight):
        return self.entries[tuple(weight)]

    def get(self, weight, default=0):
        return self.entries.get(tuple(weight), default)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.items())

    def __eq__(self, other):
        return isinstance(other, Decomposition) and self.entries == other.entries

    def items(self):
        return sorted(self.entries.items())

    def to_json_dict(self) -> list:
        return [{"labels": list(w), "mult": str(m)} for w, m in self.items()]


class WeightMultiplicityTable(Decomposition):
    """Dominant weight -> multiplicity map for one irreducible module."""

    __slots__ = ("highest",)

    def __init__(self, highest: Weight, entries: dict):
        super().__init__(entries)
        self.highest = highest

    def to_json_dict(self) -> dict:
        return {"highest": list(self.highest),
                "entries": super().to_json_dict()}


class WeylOrbit:
    """The Weyl orbit of a dominant weight: label tuples when iterated, and
    keys of ``bits`` bits per label from :meth:`keys`."""

    __slots__ = ("algebra", "highest")

    def __init__(self, algebra, highest: tuple):
        self.algebra, self.highest = algebra, highest

    def keys(self, bits: int) -> Iterator[int]:
        """The orbit's keys, ``bits`` bits per label, depth first.

        A child s_i v of v is kept only when i is its first negative label,
        at which :meth:`Algebra._reflect` would reflect it back, so the walk
        is a tree and holds no visited set (D. Snow, ACM TOMS 1990).  With f
        the first negative label of v, only nodes i < f and the neighbours
        of f can give a child."""
        alg = self.algebra
        roots, _, signs = alg._lanes(bits)
        bias = 1 << bits - 1
        mask = (1 << bits) - 1
        tried = tuple(tuple((i, bits * i, roots[i], signs[i]) for i in nodes)
                      for nodes in alg._child_nodes)
        stack = [(sum(x + bias << bits * k for k, x in enumerate(self.highest)),
                  alg.rank)]
        pop, push = stack.pop, stack.append
        while stack:
            key, first = pop()
            yield key
            for i, shift, root, sign in tried[first]:
                x = (key >> shift & mask) - bias
                if x > 0:
                    child = key - x * root
                    if i < first or child & sign == sign:
                        push((child, i))

    def __iter__(self) -> Iterator[tuple]:
        bits = self.algebra._lane_width(self.highest)
        return _decode(self.keys(bits), bits, self.algebra.rank,
                       1 << bits - 1)


class Algebra:
    """Precomputed root data plus the weight-combinatorics operations."""

    def __init__(self, cartan, tensor_budget: int = DEFAULT_TENSOR_BUDGET):
        if not isinstance(cartan, CartanMatrix):
            cartan = build_cartan(cartan)
        self.cartan = cartan
        self.rank = cartan.rank
        self.tensor_budget = int(tensor_budget)
        if self.tensor_budget <= 0:
            raise ValueError("tensor budget must be positive")
        rows = cartan.entries
        # per node: (neighbor, -A[i][j]) pairs for the reflection update
        self._nbrs = tuple(
            tuple((j, -rows[i][j]) for j in range(self.rank)
                  if j != i and rows[i][j] != 0)
            for i in range(self.rank))
        # per index f of a weight's first negative label (rank when there
        # is none): the nodes at which weyl_orbit tries a child
        self._child_nodes = tuple(
            tuple(range(f)) + tuple(j for j, _ in self._nbrs[f] if j > f)
            for f in range(self.rank)) + (tuple(range(self.rank)),)
        # the invariant form in integers (see _form): the half root lengths
        # d_j, long roots 1, times the lcm L of their denominators, and the
        # adjugate det(A) * A^-1, whose column m gives det(A) times the m-th
        # root coordinate of a label vector
        d = cartan.symmetrizer
        scale = lcm(*(x.denominator for x in d))
        self._lengths = tuple(int(x * scale) for x in d)
        self._det = int(cartan.determinant)
        self._unit = self._det * scale
        adjugate = [[x * self._det for x in row]
                    for row in cartan.inverse.entries]
        if any(x.denominator != 1 for row in adjugate for x in row):
            raise AssertionError("det(A) * A^-1 is not integral")
        self._adj_cols = tuple(zip(*(map(int, row) for row in adjugate)))
        self.roots = cartan.positive_roots
        # (w + ρ, α) * L = sum_j (w_j + 1) c_j L d_j per positive root; the
        # product of (ρ, α) * L over the positive roots divides the Weyl
        # dimension numerator exactly
        self._dim_terms = tuple(
            tuple((j, c * e) for j, (c, e)
                  in enumerate(zip(root.coeffs, self._lengths)) if c)
            for root in self.roots)
        self._dim_denominator = prod(
            sum(e for _, e in terms) for terms in self._dim_terms)
        # per positive root: its support as a bit mask of nodes, its height
        self._root_heights = tuple(
            (sum(1 << i for i, c in enumerate(root.coeffs) if c),
             sum(root.coeffs))
            for root in self.roots)
        self._root_norm = tuple(self._form(root.labels, root.labels)
                                for root in self.roots)
        self.rho = Weight((1,) * self.rank)
        self._dims: dict = {}
        self._freudenthal: dict = {}
        self._tensor: dict = {}
        self._weight_systems: dict = {}
        self._orbit_tables: dict = {}
        self._lock = threading.RLock()

    # -- basics ---------------------------------------------------------

    def fundamental(self, index: int) -> Weight:
        """The fundamental weight λ_index (1-based)."""
        if not 1 <= index <= self.rank:
            raise ValueError(f"index {index} out of range 1..{self.rank}")
        return Weight(1 if k == index - 1 else 0 for k in range(self.rank))

    def _check_weight(self, w) -> tuple:
        t = tuple(int(x) for x in w)
        if len(t) != self.rank:
            raise ValueError(f"weight {t} does not have rank {self.rank}")
        return t

    def _check_dominant(self, w) -> tuple:
        t = self._check_weight(w)
        if any(x < 0 for x in t):
            raise ValueError(f"weight {t} is not dominant")
        return t

    def _form(self, x, y) -> int:
        """det(A) * L times the invariant form (x, y) on label vectors.

        (x, y) = sum_jk x_j y_k (A^-1)_jk d_k, so this is the integer
        sum_k y_k (L d_k) sum_j x_j adj(A)_jk.
        """
        return sum(yk * e * sum(map(mul, x, col))
                   for yk, e, col in zip(y, self._lengths, self._adj_cols)
                   if yk)

    def weight_form(self, x, y) -> Fraction:
        """Weyl-invariant symmetric form on label vectors (long roots norm 2)."""
        x = self._check_weight(x)
        y = self._check_weight(y)
        return Fraction(self._form(x, y), self._unit)

    def root_coords(self, w) -> tuple:
        """Coordinates of a label vector in the simple-root basis."""
        w = self._check_weight(w)
        return tuple(Fraction(sum(map(mul, w, col)), self._det)
                     for col in self._adj_cols)

    def dominance_gap(self, high, low):
        """Root coords of ``high - low``; all >= 0 and integral iff low <= high."""
        high = self._check_weight(high)
        low = self._check_weight(low)
        diff = tuple(a - b for a, b in zip(high, low))
        return self.root_coords(diff)

    def is_dominance_below(self, low, high) -> bool:
        high = self._check_weight(high)
        low = self._check_weight(low)
        return self._below(high, low)

    def _below(self, high: tuple, low: tuple) -> bool:
        """``low <= high`` for checked label tuples, in integers.

        det(A) times each root coordinate of high - low must be >= 0 and
        divisible by det(A).
        """
        diff = [a - b for a, b in zip(high, low)]
        det = self._det
        for col in self._adj_cols:
            g = sum(map(mul, diff, col))
            if g < 0 or g % det:
                return False
        return True

    # -- reflections ------------------------------------------------------

    def dominant_reflect(self, w):
        """Reflect to the dominant chamber.

        Returns ``(dominant, sign, singular)`` where sign is (-1)^reflections
        and singular is True when the stabilizer is nontrivial (a zero label
        in the dominant representative; for ρ-shifted inputs this is exactly
        the wall-cancellation test).
        """
        v, sign = self._reflect(list(self._check_weight(w)))
        return Weight(v), sign, 0 in v

    def _reflect(self, v: list) -> tuple:
        """``(dominant tuple, sign)`` of the label list ``v``.

        ``v`` is reflected in place, each time at its first negative label,
        and the sign is (-1)^reflections.
        """
        nbrs = self._nbrs
        sign = 1
        i = 0
        n = self.rank
        while i < n:
            x = v[i]
            if x < 0:
                v[i] = -x
                for j, c in nbrs[i]:
                    v[j] += c * x
                sign = -sign
                i = 0
            else:
                i += 1
        return tuple(v), sign

    def weyl_orbit(self, w) -> WeylOrbit:
        """All distinct images of a dominant weight under the Weyl group."""
        return WeylOrbit(self, self._check_dominant(w))

    def _lanes(self, bits: int) -> tuple:
        """``(roots, lows, signs)`` for keys of ``bits`` bits per label.

        roots[i] = K(α_i) without the offsets (α_i's labels are row i of the
        Cartan matrix); lows has a 1 in each lane; signs[i] has the sign
        bit, bits - 1, of each lane below i, and signs[rank] of every lane.
        """
        roots = tuple(sum(a << bits * k for k, a in enumerate(row))
                      for row in self.cartan.entries)
        lows = sum(1 << bits * k for k in range(self.rank))
        signs = tuple((lows & (1 << bits * i) - 1) << bits - 1
                      for i in range(self.rank + 1))
        return roots, lows, signs

    def _lane_width(self, lam, bound: int = 0) -> int:
        """The first of 8, 16, 32, ... bits per label whose offset B =
        2^(bits-1) exceeds ``bound`` and every label of V_lam.  A fixed
        ladder lets the products of a factor share one weight system."""
        bits = 8
        while not (bound < 1 << bits - 1
                   and self._labels_below(lam, 1 << bits - 1)):
            bits *= 2
        return bits

    # -- dimensions and orbit sizes ----------------------------------------

    def weyl_dim(self, w) -> int:
        """Dimension of the irreducible module with highest weight ``w``."""
        w = self._check_dominant(w)
        cached = self._dims.get(w)
        if cached is not None:
            return cached
        shifted = [x + 1 for x in w]
        numerator = 1
        for terms in self._dim_terms:
            numerator *= sum(shifted[j] * e for j, e in terms)
        value, remainder = divmod(numerator, self._dim_denominator)
        if remainder:
            raise AssertionError(f"non-integral dimension for {w}")
        with self._lock:
            self._dims[w] = value
        return value

    def weyl_order(self) -> int:
        return self._weyl_order_of(range(self.rank))

    def _weyl_order_of(self, nodes) -> int:
        """|W_J| of the parabolic subgroup on ``nodes``.

        The product of (ht α + 1) / ht α over the positive roots α supported
        in J (I. G. Macdonald, Math. Ann. 199, 1972).
        """
        inside = sum(1 << i for i in nodes)
        numerator = denominator = 1
        for support, height in self._root_heights:
            if not support & ~inside:
                numerator *= height + 1
                denominator *= height
        return numerator // denominator

    def orbit_size(self, w) -> int:
        """|W| / |Stab(w)| via the parabolic sub-diagram of zero labels."""
        w = self._check_dominant(w)
        zero_nodes = [i for i, x in enumerate(w) if x == 0]
        total = self.weyl_order()
        stab = self._weyl_order_of(zero_nodes)
        if total % stab:
            raise AssertionError("stabilizer order does not divide |W|")
        return total // stab

    # -- Freudenthal multiplicities ----------------------------------------

    def freudenthal(self, highest) -> WeightMultiplicityTable:
        """Multiplicities of all dominant weights of one irreducible module."""
        lam = self._check_dominant(highest)
        cached = self._freudenthal.get(lam)
        if cached is not None:
            return cached
        n = self.rank
        root_list = self.roots
        # dominant weights of the module: BFS downward by positive roots,
        # tracking the root coords of (λ - μ) with integer arithmetic
        gaps = {lam: (0,) * n}
        frontier = [lam]
        while frontier:
            fresh = []
            for w in frontier:
                gap = gaps[w]
                for root in root_list:
                    cand = tuple(a - b for a, b in zip(w, root.labels))
                    if any(x < 0 for x in cand) or cand in gaps:
                        continue
                    gaps[cand] = tuple(a + b for a, b in zip(gap, root.coeffs))
                    fresh.append(cand)
            frontier = fresh
        order = sorted(gaps, key=lambda w: (sum(gaps[w]), w))
        mults = {order[0]: 1}
        lam_norm = self._shifted_norm(lam)
        for mu in order[1:]:
            gap = gaps[mu]
            # sum over α > 0 and k >= 1 of (μ + kα, α) m(μ + kα), in units
            # of _form
            acc = 0
            for root, step in zip(root_list, self._root_norm):
                coeffs = root.coeffs
                labels = root.labels
                total = weighted = 0
                k = 1
                while all(g >= k * c for g, c in zip(gap, coeffs)):
                    v = [a + k * b for a, b in zip(mu, labels)]
                    m_v = mults.get(self._reflect(v)[0], 0)
                    if m_v == 0:
                        break  # weight strings are unbroken intervals
                    total += m_v
                    weighted += k * m_v
                    k += 1
                if total:
                    acc += self._form(mu, labels) * total + step * weighted
            value, remainder = divmod(2 * acc,
                                      lam_norm - self._shifted_norm(mu))
            if remainder or value <= 0:
                raise AssertionError(f"bad Freudenthal multiplicity at {mu}")
            mults[mu] = value
        table = WeightMultiplicityTable(Weight(lam), mults)
        with self._lock:
            self._freudenthal[lam] = table
        return table

    def _shifted_norm(self, w) -> int:
        shifted = [x + 1 for x in w]
        return self._form(shifted, shifted)

    # -- tensor decomposition ----------------------------------------------

    def tensor_decompose(self, left, right, budget: int | None = None) -> Decomposition:
        """Clebsch-Gordan series of V_left ⊗ V_right (Klimyk rule).

        Iterates over the weight system of the factor of smaller dimension,
        visiting each of its distinct weights once.  Raises
        :class:`BudgetError` when that count, the sum of the orbit sizes
        over its Freudenthal table, exceeds the budget (default
        ``self.tensor_budget``); the count is at most the dimension, so a
        factor whose dimension is within the budget is never counted.  The
        budget is checked on every call, cached product or not.  Both paths
        sum keys of the same lane width, the first of 8, 16, 32, ... bits
        that holds every label of the small factor and of the sums.  When
        that factor has a Weyl orbit of at least 2^16 weights and its keys
        fit 64 bits, the sum runs in the numpy array kernel, in batches of
        2^16 keys gathered across the levels of its orbit walk.
        """
        lam = self._check_dominant(left)
        nu = self._check_dominant(right)
        if budget is None:
            budget = self.tensor_budget
        dim_l = self.weyl_dim(lam)
        dim_r = self.weyl_dim(nu)
        big, small = (lam, nu) if dim_l >= dim_r else (nu, lam)
        small_dim = min(dim_l, dim_r)
        # no orbit is longer than the module is wide, so the orbit sizes are
        # needed only for a factor wider than the budget or the threshold
        orbits = {}
        if small_dim > budget:
            orbits = self._orbit_sizes(small)
            cost = sum(orbits.values())
            if cost > budget:
                raise BudgetError(
                    f"tensor product V{lam} (dim {dim_l}) x V{nu} "
                    f"(dim {dim_r}): Klimyk would visit {cost} distinct "
                    f"weights of the smaller factor, exceeding the budget "
                    f"{budget}",
                    pair=(Weight(lam), Weight(nu)), cost=cost, budget=budget)
        key = (lam, nu) if lam <= nu else (nu, lam)
        cached = self._tensor.get(key)
        if cached is not None:
            return cached
        if not orbits and small_dim >= _ARRAY_MIN_ORBIT:
            orbits = self._orbit_sizes(small)
        shifted = tuple(x + 1 for x in big)
        table = self.freudenthal(small)
        bits = self._lane_width(small, self._label_bound(big, small))
        # the kernel's keys are uint64 and its signed sums, bounded by the
        # small factor's dimension, int64
        if (orbits and max(orbits.values()) >= _ARRAY_MIN_ORBIT
                and self.rank * bits <= 64 and small_dim < 1 << 63):
            acc = _klimyk_array(self, table, orbits, shifted, bits)
        else:
            acc = self._klimyk_loop(table, shifted, bits)
        # the keys are ρ-shifted
        acc = dict(zip(_decode(acc, bits, self.rank, (1 << bits - 1) + 1),
                       acc.values()))
        if any(v < 0 for v in acc.values()):
            raise AssertionError("negative multiplicity in tensor decomposition")
        top = tuple(a + b for a, b in zip(lam, nu))
        if acc.get(top) != 1:
            raise AssertionError("highest component must appear exactly once")
        # constituents whose signed sum cancelled are dropped
        result = Decomposition({Weight(w): m for w, m in acc.items() if m})
        with self._lock:
            self._tensor[key] = result
        return result

    def _orbit_sizes(self, highest) -> dict:
        """Orbit size of each dominant weight of V_highest, cached."""
        cached = self._orbit_tables.get(highest)
        if cached is not None:
            return cached
        sizes = {mu: self.orbit_size(mu)
                 for mu in self.freudenthal(highest).entries}
        with self._lock:
            self._orbit_tables[highest] = sizes
        return sizes

    def _label_bound(self, big, small) -> int:
        """Bound on every label the Klimyk sum of V_big ⊗ V_small forms.

        Each label is (y, α_k^∨) = 2 (y, α_k) / (α_k, α_k) for a Weyl image
        y of big + ρ + u, u a weight of V_small, so by Cauchy-Schwarz it is
        at most 2 |y| / |α_k| with |y| <= |big + ρ| + |small|.  The bound
        returned squares that and uses (a + b)^2 <= 2 (a^2 + b^2).
        """
        square = 8 * (self._shifted_norm(big) + self._form(small, small))
        short = min(self._root_norm)
        root = isqrt(square // short)
        return root if root * root * short >= square else root + 1

    def _labels_below(self, lam, bound: int) -> bool:
        """Whether every label of every weight of V_lam is below ``bound``
        in absolute value.

        A label of a weight y of V_lam is 2 (y, α_k) / (α_k, α_k), at most
        2 |lam| / |α_k| since |y| <= |lam|, so 4 (lam, lam) / (α, α) < bound²
        for the short roots α suffices.
        """
        return 4 * self._form(lam, lam) < min(self._root_norm) * bound * bound

    def _weight_system(self, table, bits: int) -> list:
        """``(mult, keys, parts, ids)`` per dominant weight of ``table``,
        cached: its orbit's keys of ``bits`` bits per label, indexed by
        negative part (:func:`_negative_parts`)."""
        lam = tuple(table.highest)
        cached = self._weight_systems.get((lam, bits))
        if cached is not None:
            return cached
        sizes = self._orbit_sizes(lam)
        entry = []
        for mu, mult in table.entries.items():
            keys, parts, ids = _negative_parts(
                self.weyl_orbit(mu).keys(bits), bits, self.rank)
            if len(keys) != sizes[mu]:
                raise AssertionError(f"orbit of {mu} has {len(keys)} "
                                     f"weights, expected {sizes[mu]}")
            entry.append((mult, keys, parts, ids))
        with self._lock:
            self._weight_systems[(lam, bits)] = entry
        return entry

    def _klimyk_loop(self, table, shifted, bits: int) -> dict:
        """Klimyk sum over the weights of ``table``, one key at a time.

        The keys, ``bits`` bits per label, come from the cached weight
        system of ``table``'s highest weight through :func:`_off_wall`.  A
        sum S = K(u) + K(ν + ρ) is reflected at its last negative label,
        the highest set bit of (S & highs) ^ highs; off the walls every
        order takes as many steps as the Weyl element is long, so the sign
        is that of :meth:`_reflect`.  A dominant S has a label 0, and lies
        on a wall, when S - K(ρ) lacks a sign bit.  Returns the key of each
        dominant sum off the walls with its signed count.
        """
        roots, lows, signs = self._lanes(bits)
        highs = signs[-1]
        bias = 1 << bits - 1
        mask = (1 << bits) - 1
        # per lane i, at the bit length of its sign bit: the shift and K(α_i)
        steps = {bits * (i + 1): (bits * i, r) for i, r in enumerate(roots)}
        top = sum(x << bits * k for k, x in enumerate(shifted))
        acc: dict = {}
        system = self._weight_system(table, bits)
        for mult, weights in _off_wall(system, top, lows, highs):
            for s in weights:
                s += top
                sign = mult
                x = s & highs ^ highs
                while x:
                    shift, root = steps[x.bit_length()]
                    s -= ((s >> shift & mask) - bias) * root
                    sign = -sign
                    x = s & highs ^ highs
                if s - lows & highs == highs:
                    acc[s] = acc.get(s, 0) + sign
        return acc


def _decode(keys, bits: int, n: int, offset: int) -> Iterator[tuple]:
    """The labels of ``keys`` (``n`` lanes of ``bits`` bits) less ``offset``."""
    mask = (1 << bits) - 1
    shifts = range(0, bits * n, bits)
    return (tuple((key >> s & mask) - offset for s in shifts) for key in keys)


def _off_wall(system, top, lows, highs) -> Iterator[tuple]:
    """``(mult, keys)`` per orbit of ``system``: the weights u whose negative
    part p puts no label of ν + ρ + u at 0, ``top`` being K(ν + ρ) without
    the offsets.  The SWAR test (y - lows) & ~y & highs finds a zero lane of
    y = (K(p) + top) ^ highs, once per part; the weights of the parts that
    fail are skipped inside ``compress``."""
    for mult, keys, parts, ids in system:
        live = bytes(not (y - lows) & ~y & highs
                     for y in ((p + top) ^ highs for p in parts))
        yield mult, compress(keys, map(live.__getitem__, ids))


def _negative_parts(keys, bits: int, n: int) -> tuple:
    """``(keys, parts, ids)`` for the keys of an orbit, ``n`` labels of
    ``bits`` bits each.  Keys are held in an ``array('Q')`` only when
    n * bits <= 64, so that every key is below 2^64, and in a list of ints
    otherwise; ``parts`` holds the orbit's distinct negative parts
    min(u, 0) as keys, in the same container, and ``ids`` the index of each
    weight's part, in two bytes when that suffices."""
    highs = sum(1 << bits * k + bits - 1 for k in range(n))
    clear = (1 << bits - 1) - 1
    keys = array("Q", keys) if n * bits <= 64 else list(keys)
    index: dict = {}
    part = index.setdefault
    # a label >= 0 keeps only its sign bit, the offset of label 0
    ids = array("I", (part(key & ~(((key & highs) >> bits - 1) * clear),
                           len(index)) for key in keys))
    parts = keys[:0]
    parts.extend(index)
    return keys, parts, array("H", ids) if len(index) <= 1 << 16 else ids


def _klimyk_array(alg, table, orbits, shifted, bits: int) -> dict:
    """Klimyk sum over the weights of ``table``, in batches of numpy arrays.

    ``orbits`` maps each dominant weight of the table to its orbit size,
    checked against the walk of :func:`_packed_orbits`, and ``shifted`` is
    the larger factor's highest weight plus ρ.  The levels of the walk are
    gathered into batches of ``_ARRAY_CHUNK`` keys, and each batch's sums
    are reflected at once on their ``uint64`` keys.  A level longer than a
    batch is cut, and the keys still held when the walk ends make the last
    batch, so the kernel holds about one batch plus one level.  Returns the
    same key -> signed count dict as :meth:`Algebra._klimyk_loop`.
    ``bits`` is the lane width that :meth:`Algebra.tensor_decompose`
    computes, with rank * bits <= 64.
    """
    import numpy as np

    roots, lows, signs = alg._lanes(bits)
    bias = 1 << bits - 1
    mask = (1 << bits) - 1
    highs = signs[-1]
    top = sum(x << bits * k for k, x in enumerate(shifted))
    acc: dict = {}

    def flush(s, vals):
        # ρ-shifted sums S = K(u) + K(ν + ρ), reflected to the dominant
        # chamber at every negative label: with c = B - lane > 0, S += c
        # K(α_i) and the sign flips.  A sum with a label 0, a zero lane of
        # S ^ highs, lies on a wall and cancels, so it is dropped as soon
        # as it shows one; a sum with every sign bit set is dominant.  The
        # batch s is the caller's copy and is summed in place.
        s += top
        keys, signed = [], []
        while len(s):
            y = s ^ highs
            off = ((y - lows) & ~y & highs) == 0
            done = (s & highs) == highs
            keep = off & done
            keys.append(s[keep])
            signed.append(vals[keep])
            rest = off ^ keep
            s, vals = s[rest], vals[rest]
            for i, root in enumerate(roots):
                c = s >> bits * i
                c &= mask
                np.minimum(c, bias, out=c)
                np.subtract(bias, c, out=c)
                np.negative(vals, out=vals, where=c > 0)
                c *= root % (1 << 64)
                s += c
        uniq, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inverse, np.concatenate(signed))
        for k, v in zip(uniq.tolist(), sums.tolist()):
            acc[k] = acc.get(k, 0) + v

    weights = list(table.entries)
    mults = np.array(list(table.entries.values()), dtype=np.int64)
    sizes = np.array([orbits[mu] for mu in weights], dtype=np.int64)
    counts = np.zeros(len(weights), dtype=np.int64)
    # levels held for the next batch, fewer than _ARRAY_CHUNK keys in all
    held, pending = [], 0
    for keys, origin in _packed_orbits(alg, weights, bits):
        counts += np.bincount(origin, minlength=len(weights))
        if (counts > sizes).any():
            break
        held.append((keys, origin))
        pending += len(keys)
        if pending < _ARRAY_CHUNK:
            continue
        keys, origin = map(np.concatenate, zip(*held))
        held, pending = [], pending % _ARRAY_CHUNK
        end = len(keys) - pending
        for start in range(0, end, _ARRAY_CHUNK):
            part = slice(start, start + _ARRAY_CHUNK)
            flush(keys[part], mults[origin[part]])
        if pending:
            held.append((keys[end:].copy(), origin[end:].copy()))
    for mu, size, count in zip(weights, sizes.tolist(), counts.tolist()):
        if count != size:
            raise AssertionError(f"orbit of {mu} reached {count} weights, "
                                 f"expected {size}")
    if held:
        keys, origin = map(np.concatenate, zip(*held))
        flush(keys, mults[origin])
    return acc


def _packed_orbits(alg, weights, bits: int):
    """The Weyl orbits of the dominant ``weights``, walked together.

    Yields ``(keys, origin)`` per level of the trees of
    :meth:`WeylOrbit.keys`: the ``uint64`` keys of ``bits`` bits per label,
    and the index in ``weights`` of each key's orbit.  Level 0 holds
    ``weights``.  The caller checks that every label lies in [-B, B) and
    that rank * bits <= 64; uint64 arithmetic wraps modulo 2^64, which
    leaves the exact key of every weight.
    """
    import numpy as np

    bias = 1 << bits - 1
    mask = (1 << bits) - 1
    roots, _, signs = alg._lanes(bits)
    keys = np.array([sum(x + bias << bits * k for k, x in enumerate(mu))
                     for mu in weights], dtype=np.uint64)
    origin = np.arange(len(weights), dtype=np.min_scalar_type(len(weights)))
    while len(keys):
        yield keys, origin
        children, origins = [], []
        for i in range(alg.rank):
            lane = keys >> bits * i
            lane &= mask
            pick = np.flatnonzero(lane > bias)
            child = lane[pick]
            child -= bias
            child *= -roots[i] % (1 << 64)
            child += keys[pick]
            if i:
                first = (child & signs[i]) == signs[i]
                child, pick = child[first], pick[first]
            children.append(child)
            origins.append(origin[pick])
        keys = np.concatenate(children)
        origin = np.concatenate(origins)

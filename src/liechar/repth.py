"""Weight multiplicities, Weyl dimensions, orbits and tensor decompositions.

The engine lives in :class:`Algebra`, which precomputes the root data of one
Cartan matrix and memoizes the expensive results (dimensions, multiplicity
tables, tensor decompositions).  Tensor products follow the Klimyk rule:
iterate over every weight of the smaller factor, dominant-reflect the
ρ-shifted sum, drop terms fixed by a wall, and accumulate signs.  The sum
over the orbit of each dominant weight μ of the smaller factor against the
larger one's highest weight ν is kept per algebra, keyed by (μ, ν), so a
product walks only the orbits it has not met against ν.  Weight
multiplicities come from the Freudenthal recursion, evaluated in integers
with the invariant form :meth:`Algebra._form` and asserted integral; it
takes the dominant weights μ in the order of its own denominator
|λ + ρ|^2 - |μ + ρ|^2.  In the orbit form of R. V. Moody and J. Patera
(Bull. AMS 7, 1982), it sums one root per class of the positive roots, up
to sign, under the stabilizer of μ, and takes each root string's sum from
the string one step up, kept at the dominant weight that step reflects to,
so that no string is walked.  The excitation energy :func:`epsilon` is one
exact rational of the same form; the operator and the character checks read
its value at unit coupling in integers, from ``_epsilon_int``.

Both Klimyk paths hold a weight u as one integer key, K(u) = sum_k
(u_k + B) 2^(w k) with B = 2^(w-1), w bits per label.  A reflection is one
multiply-subtract, K(s_i u) = K(u) - u_i K(α_i), and u_k < 0 exactly when
the sign bit w - 1 of lane k is clear.  Orbits are walked as trees of keys
(D. Snow's canonical-parent rule).  One Cauchy-Schwarz bound,
:meth:`Algebra._lane_width`, gives each product the first lane width of 8,
16, 32, ... bits that holds every label its sum forms, 8 for every E8
product of the paper.  When the smaller factor's largest Weyl orbit has
fewer than ``_ARRAY_MIN_ORBIT`` (2^16) weights, or 2^15 once numpy is
loaded, a Python loop reflects one key at a time from the factor's weight
system, cached per algebra; it imports no numpy.  The system holds each
orbit's keys in runs, one per set of lanes where the weight's label is -1,
and the loop skips every run whose set meets a label 0 of the larger factor
ν: ν + ρ + u has the label 0 there for each u of the run.  Longer orbits go
to a numpy kernel, which walks the factor's missing orbits together, level
by level, gathers the levels into batches of ``_ARRAY_CHUNK`` (2^16) keys
and reflects each batch's sums on the same keys, held as ``uint64`` beside
the index of each key's orbit; a product whose keys are wider than 64 bits
stays on the loop.  Both paths drop a sum S = K(ν + ρ + u) with a label 0,
which lies on a wall (Racah-Speiser cancellation), by one SWAR test: a
label 0 is a zero lane of S ^ highs, highs holding each lane's sign bit.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, partial
from itertools import islice
from math import prod
from operator import mul, sub
from typing import TYPE_CHECKING, Iterator

from .errors import BudgetError, integer
from .rootsys import CartanMatrix, Weight, _labels, build_cartan

if TYPE_CHECKING:
    # imported where a Fraction is built: a CLI request that builds none
    # does not load the module
    from fractions import Fraction

__all__ = [
    "Algebra",
    "WeightMultiplicityTable",
    "Decomposition",
    "DEFAULT_TENSOR_BUDGET",
    "epsilon",
]

DEFAULT_TENSOR_BUDGET = 20_000_000

# Products whose smaller factor has a Weyl orbit at least this long use the
# array kernel, which is faster but imports numpy (about 12 MB).  Below it
# the loop's time is small, and a process that takes only such products, as
# a CLI request for a small E8 character does, keeps numpy out of its peak
# memory.  In E8 this sends λ3, λ4 and λ5 to the kernel.  Once numpy is
# loaded, half of it also sends λ6 (largest orbit 60,480), which is faster
# there; `char E8 0,0,0,0,0,0,3,0` still takes λ6⊗λ6 on the loop.
_ARRAY_MIN_ORBIT = 2 ** 16
# keys per batch of the array kernel, which bounds its working memory
_ARRAY_CHUNK = 2 ** 16
# keys of an orbit walk that the loop's weight system sorts into runs at
# once, which bounds the memory it holds besides the system
_RUN_CHUNK = 2 ** 12


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
        self.tensor_budget = _budget(tensor_budget)
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
        # d_j, long roots 1, times the least L that makes them all integers
        # (the largest of the primitive lengths), and the adjugate det(A) *
        # A^-1, whose column m gives det(A) times the m-th root coordinate
        # of a label vector
        self._lengths = cartan._lengths
        self._det = cartan.determinant
        self._unit = self._det * max(self._lengths)
        self._adj_cols = tuple(zip(*cartan.adjugate))
        self.rho = Weight((1,) * self.rank)
        self.roots, self._dim_steps = cartan._root_steps
        # per simple root, roots[0] to roots[rank - 1]: its node j and L d_j
        nodes = [root.coeffs.index(1) for root in self.roots[:self.rank]]
        self._simple_lengths = tuple((j, self._lengths[j]) for j in nodes)
        # the product of (ρ, α) L over the positive roots α divides the Weyl
        # dimension numerator exactly
        self._dim_denominator = prod(self._root_pairings(self.rho))
        # per positive root: its support as a bit mask of nodes, its height
        self._root_heights = tuple(
            (sum(1 << i for i, c in enumerate(root.coeffs) if c),
             sum(root.coeffs))
            for root in self.roots)
        # _form of a short root: every root is a Weyl image of a simple
        # one, and (α_j, α_j) = 2 d_j
        self._short_norm = 2 * self._det * min(self._lengths)
        self._dims: dict = {}
        # packed monomial key -> its value at _fundamental_dims, which
        # charlib.dim_identity fills and reads, and -> its _coords, which
        # the character cache fills and reads to check dominance
        self._monomial_dims: dict = {}
        self._monomial_coords: dict = {}
        self._freudenthal: dict = {}
        self._tensor: dict = {}
        # (μ, ν) -> S(μ, ν) (see tensor_decompose), and one tuple per
        # constituent label, shared by the sums and the decompositions
        self._orbit_sums: dict = {}
        self._labels: dict = {}
        self._weight_systems: dict = {}
        self._orbit_tables: dict = {}
        self._classes: dict = {}

    # -- basics ---------------------------------------------------------

    def fundamental(self, index: int) -> Weight:
        """The fundamental weight λ_index (1-based)."""
        index = integer(index, "index")
        if not 1 <= index <= self.rank:
            raise ValueError(f"index {index} out of range 1..{self.rank}")
        return Weight(1 if k == index - 1 else 0 for k in range(self.rank))

    def _check_weight(self, w) -> tuple:
        """``w``'s labels, read by ``rootsys._labels``, of this rank."""
        t = _labels(w)
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
        from fractions import Fraction

        x = self._check_weight(x)
        y = self._check_weight(y)
        return Fraction(self._form(x, y), self._unit)

    def dominance_gap(self, high, low):
        """Root coords of ``high - low``; all >= 0 and integral iff low <= high."""
        from fractions import Fraction

        high = self._check_weight(high)
        low = self._check_weight(low)
        return tuple(Fraction(g, self._det)
                     for g in map(sub, self._coords(high), self._coords(low)))

    def _coords(self, labels) -> tuple:
        """det(A) times the root coordinates of the label vector
        ``labels``: column m of the adjugate gives coordinate m."""
        return tuple(sum(map(mul, labels, col)) for col in self._adj_cols)

    # -- reflections ------------------------------------------------------

    def _reflect(self, v: list, root: int = 0) -> tuple:
        """``(w, r)``: the dominant tuple w in the Weyl orbit of the label
        list ``v``, which is reflected in place, each time at its first
        negative label, and the image r of the root ``root`` under the same
        reflections.  A root is an index into ``self.roots``, or ~r for the
        negative of ``self.roots[r]``.
        """
        nbrs = self._nbrs
        images = self._root_reflections
        i = 0
        n = self.rank
        while i < n:
            x = v[i]
            if x < 0:
                v[i] = -x
                for j, c in nbrs[i]:
                    v[j] += c * x
                root = images[i][root]
                i = 0
            else:
                i += 1
        return tuple(v), root

    @cached_property
    def _root_reflections(self) -> tuple:
        """Per node i, s_i on the roots: entry r is the image of root r and
        entry ~r (from the end) that of its negative, roots written as in
        :meth:`_reflect`.

        s_i α = α - <α, α_i^∨> α_i lowers coefficient i of α by its label
        i, and is found by its coefficients; a root whose label i is 0 is
        fixed.  Only α_i itself, whose image is no positive root, maps to a
        negative root: -α_i.
        """
        index = {root.coeffs: r for r, root in enumerate(self.roots)}
        table = []
        for i in range(self.rank):
            row = [index.get(c[:i] + (c[i] - x[i],) + c[i + 1:], ~r)
                   if x[i] else r for r, (c, x) in enumerate(self.roots)]
            table.append(tuple(row) + tuple([~r for r in reversed(row)]))
        return tuple(table)

    def _root_classes(self, zeros: int) -> tuple:
        """``(slots, reps, sizes)`` for the stabilizer W_J of a dominant
        weight whose zero labels are the nodes J of the bit mask ``zeros``,
        cached per mask.

        W_J permutes the positive roots up to sign; class c has
        ``sizes[c]`` roots and its first root ``reps[c]``.  With k classes,
        ``slots[r]`` is k plus the class of root r and ``slots[~r]`` its
        class, which is where :meth:`freudenthal` keeps the string sums of
        -r and r.
        """
        cached = self._classes.get(zeros)
        if cached is not None:
            return cached
        images = [row for i, row in enumerate(self._root_reflections)
                  if zeros >> i & 1]
        owner = [-1] * len(self.roots)
        reps, sizes = [], []
        for r, c in enumerate(owner):
            if c >= 0:
                continue
            c = owner[r] = len(reps)
            stack, size = [r], 0
            while stack:
                x = stack.pop()
                size += 1
                for row in images:
                    y = row[x]
                    if y < 0:
                        y = ~y
                    if owner[y] < 0:
                        owner[y] = c
                        stack.append(y)
            reps.append(r)
            sizes.append(size)
        k = len(reps)
        entry = (tuple([c + k for c in owner]) + tuple(reversed(owner)),
                 reps, sizes)
        self._classes[zeros] = entry
        return entry

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

    def _lane_width(self, *weights) -> int:
        """The first of 8, 16, 32, ... bits per label whose offset B =
        2^(bits-1) exceeds |(y, α_k^∨)| for every y with |y| <= sum_w |w|
        over ``weights``.

        (y, α_k^∨) = 2 (y, α_k) / (α_k, α_k), so by Cauchy-Schwarz its
        square is at most 4 (y, y) / (α, α) for the short roots α, and
        (y, y) <= (sum_w |w|)^2 <= n sum_w (w, w) for n weights.  So
        4 n sum_w (w, w) < (α, α) B^2 suffices.  Every weight of V_lam has
        |y| <= |lam|, so an orbit takes (lam,); a Klimyk sum ν + ρ + u, u a
        weight of V_small, and its Weyl images take (ν + ρ, small).  A fixed
        ladder lets the products of a factor share one weight system.
        """
        square = 4 * len(weights) * sum(self._form(w, w) for w in weights)
        bits = 8
        while square >= self._short_norm << 2 * (bits - 1):
            bits *= 2
        return bits

    # -- dimensions and orbit sizes ----------------------------------------

    def _root_pairings(self, v) -> list:
        """(v, α) L for the positive roots α, in the order of ``self.roots``:
        v_j L d_j at α_j, and at roots[p] + roots[s], for each step (p, s)
        of ``_dim_steps``, the sum of the two."""
        out = [v[j] * e for j, e in self._simple_lengths]
        for p, s in self._dim_steps:
            out.append(out[p] + out[s])
        return out

    def weyl_dim(self, w) -> int:
        """Dimension of the irreducible module with highest weight ``w``:
        the product of (w + ρ, α) over the positive roots α, divided by that
        of (ρ, α), each factor the sum of those at the two roots of α's step
        (see :meth:`_root_pairings`)."""
        w = self._check_dominant(w)
        cached = self._dims.get(w)
        if cached is not None:
            return cached
        value, remainder = divmod(
            prod(self._root_pairings([x + 1 for x in w])),
            self._dim_denominator)
        if remainder:
            raise AssertionError(f"non-integral dimension for {w}")
        self._dims[w] = value
        return value

    @cached_property
    def _fundamental_dims(self) -> tuple:
        """dim V_λi for i = 1..rank: the point of the dimension identity."""
        return tuple(self.weyl_dim(self.fundamental(i))
                     for i in range(1, self.rank + 1))

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
        """Multiplicities of all dominant weights of one irreducible module.

        Freudenthal's formula gap(μ) m(μ) = 2 sum_{α>0} f(μ, α), with f(μ, α)
        = sum_{k>=1} (μ + kα, α) m(μ + kα), in the orbit form of R. V. Moody
        and J. Patera (Bull. AMS 7, 1982), by two exact identities:

        - f(μ, wα) = f(μ, α) for w in the stabilizer W_J of μ, J its zero
          labels, and f(μ, -γ) = f(μ, γ) + (μ, γ) m(μ).  So the sum over
          α > 0 is one term per W_J-class of positive roots up to sign,
          times the class size.
        - f(μ, α) = f(ν, -wα), where ν = w(μ + α) is dominant: the string
          above μ is that above μ + α, one term longer.  ν comes earlier in
          the gap order, and keeps f(ν, γ) and f(ν, -γ) per class.

        So each class costs one reflection, which carries the root along,
        and no root string is walked.  The pairings (μ, γ) for f(μ, -γ)
        come from :meth:`_root_pairings`, one addition per root.
        """
        lam = self._check_dominant(highest)
        cached = self._freudenthal.get(lam)
        if cached is not None:
            return cached
        seen = self._dominant_weights(lam)
        # gap(μ) = |λ+ρ|^2 - |μ+ρ|^2 in units of _form, the recursion's
        # denominator.  For dominant ν > μ, gap(μ) - gap(ν) = (ν - μ, ν + μ
        # + 2ρ) > 0, and dom(μ + α) >= μ + α > μ, so sorting by gap
        # computes m(ν) before m(μ) (J. E. Humphreys, Lie algebras, §13)
        lam_norm = self._shifted_norm(lam)
        gaps = {mu: lam_norm - self._shifted_norm(mu) for mu in seen}
        order = sorted(seen, key=lambda w: (gaps[w], w))
        labels = [root.labels for root in self.roots]
        mults = {}
        # μ -> (slots, sums): f(μ, γ) per class of positive roots γ, then
        # f(μ, -γ), in units of _form, each at its slot of _root_classes
        strings = {}
        for mu in order:
            slots, reps, sizes = self._root_classes(
                sum(1 << i for i, x in enumerate(mu) if not x))
            ups = []
            for r in reps:
                nu, image = self._reflect(
                    [a + b for a, b in zip(mu, labels[r])], r)
                # f(μ, r) = f(ν, -image), and 0 where the string has ended
                hit = strings.get(nu)
                ups.append(0 if hit is None else hit[1][hit[0][image]])
            if mults:
                value, remainder = divmod(2 * sum(map(mul, ups, sizes)),
                                          gaps[mu])
                if remainder or value <= 0:
                    raise AssertionError(
                        f"bad Freudenthal multiplicity at {mu}")
            else:
                # the highest weight, with gap 0
                value = 1
            mults[mu] = value
            # (μ, γ) in units of _form is det(A) (μ, γ) L
            scale = value * self._det
            pairings = self._root_pairings(mu)
            strings[mu] = (slots, ups + [f + scale * pairings[r]
                                         for f, r in zip(ups, reps)])
        table = WeightMultiplicityTable(Weight(lam), mults)
        self._freudenthal[lam] = table
        return table

    def _dominant_weights(self, lam: tuple) -> set:
        """The dominant weights of V_lam: BFS downward by positive roots."""
        labels = [root.labels for root in self.roots]
        seen = {lam}
        frontier = [lam]
        while frontier:
            fresh = []
            for w in frontier:
                for label in labels:
                    cand = tuple(map(sub, w, label))
                    if min(cand) < 0 or cand in seen:
                        continue
                    seen.add(cand)
                    fresh.append(cand)
            frontier = fresh
        return seen

    def _shifted_norm(self, w) -> int:
        shifted = [x + 1 for x in w]
        return self._form(shifted, shifted)

    # -- tensor decomposition ----------------------------------------------

    def tensor_decompose(self, left, right, budget: int | None = None) -> Decomposition:
        """Clebsch-Gordan series of V_left ⊗ V_right (Klimyk rule).

        The product is the sum of m(μ) S(μ, ν) over the dominant weights μ
        of the smaller factor, ν the larger factor's highest weight and
        S(μ, ν) the signed sum over the Weyl orbit of μ.  The memo
        ``_orbit_sums`` keeps each S by (μ, ν), as constituent labels with
        their nonzero counts; a product sums only the orbits whose S it
        lacks, and enters them once every one has passed its length check.
        In E8 from nothing it ends with 407 sums of 13,584 entries, and the
        244 products sum 5,017,812 weights where their costs add up to
        6,895,684.

        Raises :class:`BudgetError` when the product's cost, the sum of the
        orbit sizes over the smaller factor's Freudenthal table (the number
        of distinct weights it has), exceeds the budget (default
        ``self.tensor_budget``).  The cost is an upper bound on the weights
        summed, which the memo makes fewer, and at most the dimension, so a
        factor whose dimension is within the budget is always accepted.
        The budget is checked on every call, whether the product or its
        sums are cached or not.  Both paths sum keys of the same lane width,
        the first of 8, 16, 32, ... bits that holds every label of the small
        factor and of the sums.  When that factor has a Weyl orbit of at
        least 2^16 weights, or 2^15 once numpy is loaded, and its keys fit
        64 bits, the missing orbits are summed in the numpy array kernel, in
        batches of 2^16 keys gathered across the levels of their orbit
        walk.
        """
        lam = self._check_dominant(left)
        nu = self._check_dominant(right)
        budget = self.tensor_budget if budget is None else _budget(budget)
        dim_l = self.weyl_dim(lam)
        dim_r = self.weyl_dim(nu)
        big, small = (lam, nu) if dim_l >= dim_r else (nu, lam)
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
        table = self.freudenthal(small)
        memo = self._orbit_sums
        missing = {mu: n for mu, n in orbits.items() if (mu, big) not in memo}
        if missing:
            shifted = tuple(x + 1 for x in big)
            bits = self._lane_width(shifted, small)
            # the kernel's keys are uint64, and its counts, bounded by an
            # orbit's size, int64; the threshold prices numpy's import, so
            # it halves once the process has paid that
            least = (_ARRAY_MIN_ORBIT // 2 if "numpy" in sys.modules
                     else _ARRAY_MIN_ORBIT)
            if max(orbits.values()) >= least and self.rank * bits <= 64:
                found = _klimyk_array(self, missing, shifted, bits)
            else:
                found = self._klimyk_loop(table, missing, shifted, bits)
            # the keys are ρ-shifted
            offset = (1 << bits - 1) + 1
            label = self._labels.setdefault
            for mu, sums in found.items():
                labels = _decode(sums, bits, self.rank, offset)
                memo[mu, big] = {label(w, w): c
                                 for w, c in zip(labels, sums.values()) if c}
        acc: dict = {}
        for mu, mult in table.entries.items():
            for w, c in memo[mu, big].items():
                acc[w] = acc.get(w, 0) + mult * c
        if any(v < 0 for v in acc.values()):
            raise AssertionError("negative multiplicity in tensor decomposition")
        top = tuple(a + b for a, b in zip(lam, nu))
        if acc.get(top) != 1:
            raise AssertionError("highest component must appear exactly once")
        # constituents whose signed sum cancelled are dropped
        result = Decomposition({w: m for w, m in acc.items() if m})
        self._tensor[key] = result
        return result

    def _orbit_sizes(self, highest) -> dict:
        """Orbit size of each dominant weight of V_highest, cached."""
        cached = self._orbit_tables.get(highest)
        if cached is not None:
            return cached
        sizes = {mu: self.orbit_size(mu)
                 for mu in self.freudenthal(highest).entries}
        self._orbit_tables[highest] = sizes
        return sizes

    def _weight_system(self, table, bits: int) -> list:
        """``(mu, keys, ones, ends)`` per dominant weight mu of ``table``,
        cached: its orbit's keys of ``bits`` bits per label, in runs.

        Run r is keys[ends[r - 1]:ends[r]] (from 0 for r = 0): weights u
        whose label is -1 exactly on the lanes whose sign bits make ones[r].
        Those are the zero lanes of y = K(u) ^ K(-1, ..., -1): (y | highs) -
        lows keeps a lane's sign bit iff its lower bits are not all 0, so
        ((y | highs) - lows | y) & highs has the sign bit of each lane of y
        that is not 0.  The walk is sorted into runs ``_RUN_CHUNK`` keys at
        a time, so a run lies within one such chunk, and the sort holds
        little memory besides the system.  Every sequence is an
        ``array('Q')`` when rank * bits <= 64, so that every key is below
        2^64, and a list of ints otherwise.
        """
        lam = tuple(table.highest)
        cached = self._weight_systems.get((lam, bits))
        if cached is not None:
            return cached
        sizes = self._orbit_sizes(lam)
        new = partial(array, "Q") if self.rank * bits <= 64 else list
        _, lows, signs = self._lanes(bits)
        highs = signs[-1]
        minus_ones = highs - lows
        entry = []
        for mu in table.entries:
            walk = self.weyl_orbit(mu).keys(bits)
            keys = new([0]) * sizes[mu]
            ones, ends, end = new(), new(), 0
            while chunk := new(islice(walk, _RUN_CHUNK)):
                runs: dict = {}
                for key in chunk:
                    y = key ^ minus_ones
                    lanes = ((y | highs) - lows | y) & highs
                    run = runs.get(lanes)
                    if run is None:
                        run = runs[lanes] = new()
                    run.append(key)
                for lanes, run in runs.items():
                    keys[end:end + len(run)] = run
                    end += len(run)
                    ones.append(lanes ^ highs)
                    ends.append(end)
            if end != sizes[mu]:
                raise AssertionError(f"orbit of {mu} has {end} weights, "
                                     f"expected {sizes[mu]}")
            entry.append((mu, keys, ones, ends))
        self._weight_systems[(lam, bits)] = entry
        return entry

    def _klimyk_loop(self, table, missing, shifted, bits: int) -> dict:
        """Klimyk sum over the orbits of ``table`` named in ``missing``, one
        key at a time.

        The keys, ``bits`` bits per label, come from the cached weight
        system of ``table``'s highest weight, in runs by the lanes where
        the weight's label is -1.  A run whose -1 lanes meet a lane where ν
        has the label 0 is skipped whole: each of its sums ν + ρ + u has
        the label 0 there.  Within the other runs, a sum S = K(u) + K(ν + ρ)
        with a label 0, a zero lane of y = S ^ highs, lies on a wall and is
        skipped: (y - lows) & ~y & highs is then nonzero, and ~y & highs =
        S & highs, the same test as the array kernel's.  Any other sum is
        reflected at its last negative label, the highest set bit of
        (S & highs) ^ highs; off the walls each step shortens the Weyl
        element that makes S dominant by one, so whatever the order of the
        steps, the sign is (-1)^length of that element.  A sum on the wall
        of a root that is not simple shows a label 0 only once reflected; a
        dominant S has one, and is dropped, when S - K(ρ) lacks a sign
        bit.  Returns, per orbit summed, the key of each dominant sum off
        the walls with its signed count, the multiplicity left out.  One
        body reads the ``array('Q')`` runs and the list runs of wider keys
        alike, as slices ``keys[start:end]``; a view of the array measured
        no faster than the copy a slice makes.
        """
        roots, lows, signs = self._lanes(bits)
        highs = signs[-1]
        bias = 1 << bits - 1
        mask = (1 << bits) - 1
        # per lane i, at the bit length of its sign bit: the shift and K(α_i)
        steps = {bits * (i + 1): (bits * i, r) for i, r in enumerate(roots)}
        top = sum(x << bits * k for k, x in enumerate(shifted))
        # the sign bit of each lane where ν has the label 0, ν + ρ the label 1
        zeros = sum(1 << bits * (k + 1) - 1 for k, x in enumerate(shifted)
                    if x == 1)
        found = {}
        for mu, keys, ones, ends in self._weight_system(table, bits):
            if mu not in missing:
                continue
            acc = found[mu] = {}
            start = 0
            for lanes, end in zip(ones, ends):
                if lanes & zeros:
                    start = end
                    continue
                for s in keys[start:end]:
                    s += top
                    if (s ^ highs) - lows & s & highs:
                        continue
                    sign = 1
                    x = s & highs ^ highs
                    while x:
                        shift, root = steps[x.bit_length()]
                        s -= ((s >> shift & mask) - bias) * root
                        sign = -sign
                        x = s & highs ^ highs
                    if s - lows & highs == highs:
                        acc[s] = acc.get(s, 0) + sign
                start = end
        return found


def epsilon(algebra: Algebra, m, kappa=1) -> Fraction:
    """Excitation energy 2 (m, m) + 4 kappa (m, rho) = E_m - E_0."""
    from fractions import Fraction

    m = algebra._check_weight(m)
    kappa = Fraction(kappa)
    p, q = kappa.numerator, kappa.denominator
    # 2 (m, m + 2 kappa rho) = 2 (m, q m + 2 p rho) / q, in _form's units
    return Fraction(2 * algebra._form(m, [q * x + 2 * p for x in m]),
                    q * algebra._unit)


def _epsilon_int(algebra: Algebra, m) -> int:
    """eps_m(1) of the label tuple ``m``, the operator's eigenvalue at
    unit coupling, as an int: :func:`epsilon` at kappa = 1, in integers."""
    twice = 2 * algebra._form(m, [x + 2 for x in m])
    value, rest = divmod(twice, algebra._unit)
    if rest:
        from fractions import Fraction

        # happens when the weight lattice strictly contains the root lattice
        # with bad index (e.g. A2); the integer operator then does not exist
        raise ValueError(
            f"eps_{tuple(m)}(1) = {Fraction(twice, algebra._unit)} is not "
            "integral; the unit-coupling operator is not integer-valued in "
            "these variables")
    return value


def _budget(value) -> int:
    """A tensor budget, checked to be a positive integer."""
    budget = integer(value, "tensor budget")
    if budget <= 0:
        raise ValueError("tensor budget must be positive")
    return budget


def _decode(keys, bits: int, n: int, offset: int) -> Iterator[tuple]:
    """The labels of ``keys`` (``n`` lanes of ``bits`` bits) less ``offset``."""
    mask = (1 << bits) - 1
    shifts = range(0, bits * n, bits)
    return (tuple((key >> s & mask) - offset for s in shifts) for key in keys)


def _klimyk_array(alg, orbits, shifted, bits: int) -> dict:
    """Klimyk sum over the orbits of ``orbits``, in batches of numpy arrays.

    ``orbits`` maps each dominant weight to sum to its orbit size, checked
    against the walk of :func:`_packed_orbits`, and ``shifted`` is the
    larger factor's highest weight plus ρ.  The levels of the walk are
    gathered into batches of ``_ARRAY_CHUNK`` keys, and each batch's sums
    are reflected at once on their ``uint64`` keys, each with the index of
    its orbit.  A level longer than a batch is cut, and the keys still held
    when the walk ends make the last batch, so the kernel holds about one
    batch plus one level.  Returns the same dict per orbit as
    :meth:`Algebra._klimyk_loop`.  ``bits`` is the lane width that
    :meth:`Algebra.tensor_decompose` computes, with rank * bits <= 64.
    """
    import numpy as np

    roots, lows, signs = alg._lanes(bits)
    bias = 1 << bits - 1
    mask = (1 << bits) - 1
    highs = signs[-1]
    top = sum(x << bits * k for k, x in enumerate(shifted))
    weights = list(orbits)
    found = {mu: {} for mu in weights}
    # per batch: its dominant keys, signed orbit indices and counts
    parts = []

    def tally(keys, vals, counts):
        # the counts summed per key and signed orbit index
        order = np.lexsort((keys, vals))
        keys, vals = keys[order], vals[order]
        starts = np.flatnonzero(np.concatenate((
            [True], (keys[1:] != keys[:-1]) | (vals[1:] != vals[:-1]))))
        return keys[starts], vals[starts], np.add.reduceat(counts[order],
                                                           starts)

    def flush(s, origin):
        # ρ-shifted sums S = K(u) + K(ν + ρ), reflected to the dominant
        # chamber at every negative label: with c = B - lane > 0, S += c
        # K(α_i) and the sign flips.  A sum with a label 0, a zero lane of
        # S ^ highs, lies on a wall and cancels, so it is dropped as soon
        # as it shows one; a sum with every sign bit set is dominant.  The
        # batch s is the caller's copy and is summed in place.
        s += top
        # the index of each sum's orbit plus 1, negated when its sign flips
        vals = origin.astype(np.int64) + 1
        keys, signed = [], []
        while len(s):
            # y = S ^ highs has a zero lane iff (y - lows) & ~y & highs is
            # nonzero, and ~y & highs = S & highs
            off = ((s ^ highs) - lows) & s & highs == 0
            keep = off & ((s & highs) == highs)
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
        keys = np.concatenate(keys)
        if len(keys):
            parts.append(tally(keys, np.concatenate(signed),
                               np.ones(len(keys), dtype=np.int64)))

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
            flush(keys[part], origin[part])
        if pending:
            held.append((keys[end:].copy(), origin[end:].copy()))
    for mu, size, count in zip(weights, sizes.tolist(), counts.tolist()):
        if count != size:
            raise AssertionError(f"orbit of {mu} reached {count} weights, "
                                 f"expected {size}")
    if held:
        flush(*map(np.concatenate, zip(*held)))
    if parts:
        keys, vals, totals = tally(*map(np.concatenate, zip(*parts)))
        for k, i, n in zip(keys.tolist(), vals.tolist(), totals.tolist()):
            acc = found[weights[abs(i) - 1]]
            acc[k] = acc.get(k, 0) + (n if i > 0 else -n)
    return found


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

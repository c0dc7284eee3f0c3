"""Brute-force Weyl-character-formula oracles for low-rank cross-checks.

Characters are computed on the torus as Laurent polynomials in formal
exponentials e^mu (keyed by Dynkin-label tuples), by explicit alternating
sums over the full Weyl group followed by exact division.  Everything here
is deliberately independent of the package's Freudenthal/Klimyk code paths.
The operator's action is applied here by derivatives, independent of its
column cache.
"""

from fractions import Fraction

import sympy

from liechar import ZPolynomial
from liechar.rootsys import Root


# -- Laurent polynomials as plain dicts (label tuple -> int) ----------------

def ladd(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def lscale(a, c):
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def lmul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            s = out.get(key, 0) + v1 * v2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def lderiv(a, i):
    """d/dz_i of a polynomial dict, i 0-based."""
    return {k[:i] + (k[i] - 1,) + k[i + 1:]: v * k[i]
            for k, v in a.items() if k[i]}


def lpow(a, e, rank):
    result = {(0,) * rank: 1}
    for _ in range(e):
        result = lmul(result, a)
    return result


# -- Weyl group as matrices on label vectors --------------------------------

def weyl_matrices(alg):
    """All (matrix, det) pairs; matrices act by M @ label-vector."""
    n = alg.rank
    rows = alg.cartan.entries
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    gens = []
    for i in range(n):
        gen = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for j in range(n):
            gen[j][i] -= rows[i][j]
        gens.append(tuple(tuple(row) for row in gen))

    def matmul(a, b):
        return tuple(
            tuple(sum(a[r][m] * b[m][c] for m in range(n)) for c in range(n))
            for r in range(n))

    seen = {identity: 1}
    frontier = [identity]
    while frontier:
        fresh = []
        for mat in frontier:
            det = seen[mat]
            for gen in gens:
                new = matmul(gen, mat)
                if new not in seen:
                    seen[new] = -det
                    fresh.append(new)
        frontier = fresh
    return list(seen.items())


def apply_matrix(mat, vec):
    return tuple(sum(row[c] * vec[c] for c in range(len(vec))) for row in mat)


# -- Weyl character formula ---------------------------------------------------

_char_cache = {}


def wcf_character(alg, lam, group=None):
    """Torus character of V_lam as a Laurent dict, via the alternating sum."""
    # keyed on the Cartan matrix, not on the algebra object, whose id a
    # later algebra may reuse once it is freed
    key = (alg.cartan.entries, tuple(lam))
    hit = _char_cache.get(key)
    if hit is not None:
        return hit
    n = alg.rank
    if group is None:
        group = weyl_matrices(alg)
    rho = (1,) * n
    shifted = tuple(x + 1 for x in lam)

    def orbit_sum(vec):
        out = {}
        for mat, det in group:
            w = apply_matrix(mat, vec)
            out[w] = out.get(w, 0) + det
        return {k: v for k, v in out.items() if v}

    numerator = orbit_sum(shifted)
    denominator = orbit_sum(rho)
    quotient = {}
    num = dict(numerator)
    den_lead = max(denominator)
    den_lead_coeff = denominator[den_lead]
    while num:
        lead = max(num)
        coeff, rem = divmod(num[lead], den_lead_coeff)
        assert rem == 0, "non-exact Weyl quotient step"
        shift = tuple(a - b for a, b in zip(lead, den_lead))
        quotient[shift] = quotient.get(shift, 0) + coeff
        num = ladd(num, lscale(
            {tuple(a + b for a, b in zip(k, shift)): v
             for k, v in denominator.items()}, -coeff))
    _char_cache[key] = quotient
    return quotient


def weight_multiplicities(alg, lam):
    """Every weight of V_lam with its multiplicity (not only dominant ones)."""
    return dict(wcf_character(alg, lam))


def dim_of(alg, lam):
    return sum(wcf_character(alg, lam).values())


def weyl_dim_by_support(alg, lam):
    """Weyl's dimension product with each factor (lam + ρ, α) L summed over
    the support of the root α, the rule ``Algebra.weyl_dim`` used before it
    took each factor from a root one step lower."""
    lifted = [(x + 1) * e for x, e in zip(lam, alg._lengths)]
    numerator = 1
    for root in alg.roots:
        numerator *= sum(c * x for c, x in zip(root.coeffs, lifted))
    value, remainder = divmod(numerator, alg._dim_denominator)
    assert not remainder
    return value


def string_roots(cm):
    """All positive roots of the Cartan matrix ``cm`` by repeated
    root-string extension, the walk ``CartanMatrix.positive_roots`` ran
    before it took the closure under simple-reflection steps.

    Deterministic order: graded by height, then lexicographic on the
    simple-root coefficients.
    """
    n = cm.rank
    rows = cm.entries
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


def cartan_from_simple_roots(family, n):
    """The Cartan matrix of type ``family`` ``n``, A_ij = 2 (α_i, α_j) /
    (α_j, α_j) in Fractions, from the simple roots in the orthonormal basis
    e_1, e_2, ... of N. Bourbaki, Lie Groups and Lie Algebras, ch. IV-VI,
    Plates I-IX.  E6 and E7 take the first 6 and 7 simple roots of E8."""
    half = Fraction(1, 2)

    def vector(*pairs):
        # sum c e_i over the (i, c) of pairs, 1-based i; E8 needs 8 of them
        v = [Fraction(0)] * max(n + 1, 8)
        for i, c in pairs:
            v[i - 1] += c
        return v

    chain = [vector((i, 1), (i + 1, -1)) for i in range(1, n)]
    if family == "A":
        roots = chain + [vector((n, 1), (n + 1, -1))]
    elif family == "B":
        roots = chain + [vector((n, 1))]
    elif family == "C":
        roots = chain + [vector((n, 2))]
    elif family == "D":
        roots = chain + [vector((n - 1, 1), (n, 1))]
    elif family == "E":
        roots = [vector((1, half), (8, half), *((i, -half) for i in range(2, 8))),
                 vector((1, 1), (2, 1))]
        roots += [vector((i - 1, -1), (i, 1)) for i in range(2, 8)]
        roots = roots[:n]
    elif family == "F":
        roots = [vector((2, 1), (3, -1)), vector((3, 1), (4, -1)), vector((4, 1)),
                 vector((1, half), (2, -half), (3, -half), (4, -half))]
    elif family == "G":
        roots = [vector((1, 1), (2, -1)), vector((1, -2), (2, 1), (3, 1))]
    else:
        raise ValueError(f"unknown family {family!r}")

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))
    return tuple(tuple(2 * dot(a, b) / dot(b, b) for b in roots) for a in roots)


def fraction_symmetrizer(entries):
    """Half root lengths d_i = (α_i, α_i)/2 in Fractions, long roots 1, by
    the BFS that ``CartanMatrix.symmetrizer`` ran before it kept integer
    lengths: each component's first node is 1, and d_j = d_i A[j][i] /
    A[i][j] along every edge; a second path with another ratio raises
    ``ValueError``."""
    n = len(entries)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and entries[i][j] != 0:
                    value = d[i] * Fraction(entries[j][i], entries[i][j])
                    if d[j] is None:
                        d[j] = value
                        stack.append(j)
                    elif d[j] != value:
                        raise ValueError("matrix is not symmetrizable")
    top = max(d)
    return tuple(x / top for x in d)


_inverse_cache = {}


def cartan_inverse(alg):
    """A^-1 as rows of Fractions, inverted by sympy."""
    key = alg.cartan.entries
    hit = _inverse_cache.get(key)
    if hit is None:
        inv = sympy.Matrix(key).inv()
        n = alg.rank
        hit = _inverse_cache[key] = [
            [Fraction(int(inv[k, j].p), int(inv[k, j].q)) for j in range(n)]
            for k in range(n)]
    return hit


def invariant_form(alg, x, y):
    """sum_jk x_j y_k d_j (A^-1)_kj."""
    d = alg.cartan.symmetrizer
    ainv = cartan_inverse(alg)
    n = alg.rank
    return sum((x[j] * y[k] * d[j] * ainv[k][j]
                for j in range(n) for k in range(n)), Fraction(0))


def ground_energy(alg, kappa):
    """E_0 = 2 (kappa rho, kappa rho)."""
    kappa_rho = [Fraction(kappa)] * alg.rank
    return 2 * invariant_form(alg, kappa_rho, kappa_rho)


def level_energy(alg, m, kappa):
    """E_m = 2 (m + kappa rho, m + kappa rho)."""
    x = [mj + Fraction(kappa) for mj in m]
    return 2 * invariant_form(alg, x, x)


def _height(alg, w):
    """Sum of the simple-root coordinates of w, sum_jk w_j (A^-1)_jk."""
    ainv = cartan_inverse(alg)
    return sum((wj * x for wj, row in zip(w, ainv) for x in row), Fraction(0))


def tensor_oracle(alg, lam, nu):
    """Decompose V_lam ⊗ V_nu by greedy peeling of highest characters."""
    product = lmul(wcf_character(alg, lam), wcf_character(alg, nu))
    out = {}
    while product:
        top = max(product, key=lambda w: (_height(alg, w), w))
        assert all(x >= 0 for x in top), "greedy peel found non-dominant top"
        mult = product[top]
        assert mult > 0
        out[top] = mult
        product = ladd(product, lscale(wcf_character(alg, top), -mult))
    return out


def freudenthal_strings(alg, lam):
    """Dominant weight -> multiplicity of V_lam by Freudenthal's formula,
    walking each root string term by term to its first weight of
    multiplicity 0, in the package's integer form ``alg._form``; the
    multiplicities in the order of the denominator |lam+rho|^2 - |mu+rho|^2,
    as ``Algebra.freudenthal`` inserts them."""
    lam = tuple(lam)
    roots = [root.labels for root in alg.roots]
    seen = {lam}
    frontier = [lam]
    while frontier:
        fresh = []
        for w in frontier:
            for root in roots:
                cand = tuple(a - b for a, b in zip(w, root))
                if min(cand) >= 0 and cand not in seen:
                    seen.add(cand)
                    fresh.append(cand)
        frontier = fresh

    def shifted_norm(w):
        shifted = [x + 1 for x in w]
        return alg._form(shifted, shifted)

    gaps = {mu: shifted_norm(lam) - shifted_norm(mu) for mu in seen}
    order = sorted(seen, key=lambda w: (gaps[w], w))
    mults = {order[0]: 1}
    for mu in order[1:]:
        acc = 0
        for root in roots:
            k = 1
            while True:
                step = [a + k * b for a, b in zip(mu, root)]
                m = mults.get(alg._reflect(list(step))[0], 0)
                if not m:
                    break
                acc += alg._form(step, root) * m
                k += 1
        value, remainder = divmod(2 * acc, gaps[mu])
        assert remainder == 0 and value > 0, f"bad multiplicity at {mu}"
        mults[mu] = value
    return mults


def torus_value(alg, poly):
    """Substitute the torus fundamental characters into a z-polynomial."""
    n = alg.rank
    fundamentals = [wcf_character(alg, tuple(1 if j == i else 0 for j in range(n)))
                    for i in range(n)]
    total = {}
    for exps, coeff in poly.terms.items():
        term = {(0,) * n: 1}
        for z, e in zip(fundamentals, exps):
            if e:
                term = lmul(term, lpow(z, e, n))
        total = ladd(total, lscale(term, coeff))
    return total


# -- the operator by derivatives ----------------------------------------------

def delta1_apply(operator, p):
    """sum_{j<=k} a_jk d_j d_k p + sum_j b_j z_j d_j p from the derivative
    polynomials of ``p``, independent of the operator's column cache."""
    rank = operator.rank

    def terms():
        for j in range(1, rank + 1):
            dj = p.partial_derivative(j)
            if dj.is_zero:
                continue
            yield operator.b[j - 1], ZPolynomial.variable(rank, j), dj
            for k in range(j, rank + 1):
                djk = dj.partial_derivative(k)
                if not djk.is_zero:
                    yield 1, operator.a(j, k), djk

    return ZPolynomial.combine(rank, terms())

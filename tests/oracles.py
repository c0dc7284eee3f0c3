"""Brute-force Weyl-character-formula oracles for low-rank cross-checks.

Characters are computed on the torus as Laurent polynomials in formal
exponentials e^mu (keyed by Dynkin-label tuples), by explicit alternating
sums over the full Weyl group followed by exact division.  Everything here
is deliberately independent of the package's Freudenthal/Klimyk code paths.
"""

from fractions import Fraction


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


def invariant_form(alg, x, y):
    """sum_jk x_j y_k d_j (A^-1)_kj, from the symmetrizer and the inverse."""
    d = alg.cartan.symmetrizer
    ainv = alg.cartan.inverse.entries
    n = alg.rank
    return sum((x[j] * y[k] * d[j] * ainv[k][j]
                for j in range(n) for k in range(n)), Fraction(0))


def _height(alg, w):
    return sum(alg.root_coords(w), Fraction(0))


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

"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy shared state (the fully assembled operator with per-pair timings)
comes from the session fixtures in conftest.py.
"""

import random
import time

import oracles
from conftest import TIER1_PAIRS, TIER2_PAIRS, expand_through
from liechar import (Algebra, CharacterCache, ZPolynomial,
                     b_coeffs, dim_identity, epsilon, parse_poly, print_poly,
                     verify_eigen)

E8_B_GOLDEN = (192, 288, 392, 600, 480, 360, 240, 120)

def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_b_coefficients(e8, capsys):
    start = time.monotonic()
    values = b_coeffs(e8)
    elapsed = time.monotonic() - start
    assert values == E8_B_GOLDEN
    assert elapsed < 1.0
    from liechar.cli import main
    code = main(["bcoeffs", "E8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [f"b[{j + 1}] = {v}*z{j + 1}"
                                for j, v in enumerate(values)]
    with capsys.disabled():
        report(1, "b coefficients")


def test_criterion_2_tier1_coefficients(e8_build, operator_fixtures, capsys):
    for pair in TIER1_PAIRS:
        assert e8_build.operator.entries[pair] == operator_fixtures.a[pair], \
            f"a{pair} disagrees with the reference table"
        assert e8_build.timings[pair] < 30.0, \
            f"a{pair} took {e8_build.timings[pair]:.1f}s"
    with capsys.disabled():
        report(2, f"tier-1 coefficients, {len(TIER1_PAIRS)} pairs")


def test_criterion_3_tier2_coefficients(e8_build, operator_fixtures, capsys):
    # tier 2 and the three remaining pairs, (4,4), (4,5) and (5,5): every
    # one of the 36 tables is computed under the default budget
    rest = sorted(set(e8_build.operator.entries) - set(TIER1_PAIRS))
    assert len(rest) == len(TIER2_PAIRS) + 3
    for pair in rest:
        assert e8_build.operator.entries[pair] == operator_fixtures.a[pair], \
            f"a{pair} disagrees with the reference table"
        assert e8_build.operator.provenance[pair] == "computed"
    total = sum(e8_build.timings[pair] for pair in rest)
    assert total <= 7200.0
    with capsys.disabled():
        report(3, f"tier-2 coefficients, {len(rest)} pairs, "
                  f"{total:.1f}s total")


def test_criterion_3b_deep_products_close(e8, e8_build, capsys):
    # independent redundancy behind the tier-2 tables: the deepest series
    # must account for the full product dimension, and the heavy factor
    # weight systems must close to their module dimensions
    for index in (3, 6):
        lam = e8.fundamental(index)
        table = e8.freudenthal(lam)
        assert sum(m * e8.orbit_size(v) for v, m in table.items()) == \
            e8.weyl_dim(lam)
    for j, k in ((3, 3), (3, 4), (4, 6)):
        dec = e8.tensor_decompose(e8.fundamental(j), e8.fundamental(k))
        total = sum(m * e8.weyl_dim(w) for w, m in dec.items())
        assert total == e8.weyl_dim(e8.fundamental(j)) * \
            e8.weyl_dim(e8.fundamental(k))
    with capsys.disabled():
        report("3b", "deep product dimension sums")


def test_criterion_4_second_order_characters(e8, order2_chars, capsys):
    fresh = CharacterCache(e8)  # nothing seeded or loaded
    for m, expected in sorted(order2_chars.items()):
        chi = fresh.character_poly(m)
        assert chi == expected, f"recomputed character {tuple(m)} disagrees"
    assert len(order2_chars) == 36
    with capsys.disabled():
        report(4, f"second-order characters, {len(order2_chars)} recomputed")


def test_criterion_4b_every_character_recomputed(e8_build, order2_chars,
                                                higher_chars, capsys):
    # the cache that built the operator holds every shipped character
    cache = e8_build.cache
    checked = 0
    for chars in (order2_chars, higher_chars):
        for m, expected in sorted(chars.items()):
            assert cache.character_poly(m) == expected, \
                f"recomputed character {tuple(m)} disagrees"
            checked += 1
    assert checked == 36 + 151
    with capsys.disabled():
        report("4b", f"every shipped character, {checked} recomputed")


def test_criterion_5_eigen_sweep(e8, e8_build, order2_chars, higher_chars,
                                 capsys):
    # on the recomputed characters; 4b compares them with the tables
    operator = e8_build.operator
    assert len(operator.entries) == 36
    start = time.monotonic()
    checked = 0
    for chars in (order2_chars, higher_chars):
        for m in sorted(chars):
            chi = e8_build.cache.character_poly(m)
            result = verify_eigen(e8, m, chi, operator)
            assert result.ok, (
                f"eigen equation fails at {tuple(m)}: expected "
                f"{result.expected}, residual {print_poly(result.residual)}")
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 36 + 151
    assert elapsed < 600.0
    with capsys.disabled():
        report(5, f"eigen sweep, {checked} characters, {elapsed:.1f}s")


def test_criterion_6_dimension_identity(e8, e8_build, order2_chars,
                                        higher_chars, capsys):
    # on the recomputed characters; 4b compares them with the tables
    checked = 0
    for chars in (order2_chars, higher_chars):
        for m in sorted(chars):
            result = dim_identity(e8, m, e8_build.cache.character_poly(m))
            assert result.ok, (
                f"dimension identity fails at {tuple(m)}: "
                f"{result.value} != {result.expected}")
            checked += 1
    assert checked == 36 + 151
    with capsys.disabled():
        report(6, f"dimension identity, {checked} characters")


def test_criterion_7_structural_constants(e8, capsys):
    start = time.monotonic()
    assert len(e8.roots) == 120
    # E8 is unimodular, so its adjugate is A^-1, and (ρ, ρ) = sum_jk
    # (A^-1)_jk for the simply laced E8
    assert e8.cartan.determinant == 1
    ainv = e8.cartan.adjugate
    assert sum(map(sum, ainv)) == 620
    # E_0 = 1240 κ², and E_{2λ8} - E_0 is epsilon at every coupling
    m = (0, 0, 0, 0, 0, 0, 0, 2)
    for kappa in (0, 1, 2, 7):
        assert oracles.ground_energy(e8, kappa) == 1240 * kappa ** 2
        assert oracles.level_energy(e8, m, kappa) \
            - oracles.ground_energy(e8, kappa) == epsilon(e8, m, kappa)
    # (λ8, ρ) from the exact inverse-Cartan row sum; consistent with
    # b_8 = 2*2 + 4*29 = 120 and eps_{2λ8}(1) = 248
    assert sum(ainv[7]) == 29
    assert epsilon(e8, (0, 0, 0, 0, 0, 0, 0, 2), 1) == 248
    elapsed = time.monotonic() - start
    assert elapsed < 3.0
    with capsys.disabled():
        report(7, "structural constants")


def test_criterion_8_rank2_oracle_equivalence(a2, capsys):
    start = time.monotonic()
    a1 = Algebra("A1")
    checked_tensor = checked_char = 0
    for alg, weights in (
            (a1, [(n,) for n in range(5)]),
            (a2, [(a, b) for a in range(5) for b in range(5)])):
        cache = CharacterCache(alg)
        for w in weights:
            assert oracles.torus_value(alg, cache.character_poly(w)) == \
                oracles.wcf_character(alg, w)
            checked_char += 1
        for i, x in enumerate(weights):
            for y in weights[i:]:
                dec = alg.tensor_decompose(x, y)
                assert dec.entries == oracles.tensor_oracle(alg, x, y)
                checked_tensor += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(8, f"rank<=2 oracle equivalence, {checked_char} characters, "
                  f"{checked_tensor} products, {elapsed:.1f}s")


class TestCriterion9Properties:
    ALGEBRAS = ("A2", "A3", "D4")

    def test_path_independence(self, capsys):
        rng = random.Random(101)
        cases = 0
        caches = {name: CharacterCache(Algebra(name)) for name in self.ALGEBRAS}
        while cases < 200:
            cache = caches[rng.choice(self.ALGEBRAS)]
            m = tuple(rng.randint(0, 2) for _ in range(cache.rank))
            routes = [i + 1 for i, x in enumerate(m) if x > 0]
            if len(routes) < 2:
                continue
            polys = [expand_through(cache, m, i) for i in routes]
            assert all(p == polys[0] for p in polys)
            cases += 1
        with capsys.disabled():
            report("9a", f"path independence, {cases} cases")

    def test_leading_coefficient(self, capsys):
        rng = random.Random(103)
        cases = 0
        caches = {name: CharacterCache(Algebra(name)) for name in self.ALGEBRAS}
        while cases < 200:
            cache = caches[rng.choice(self.ALGEBRAS)]
            alg = cache.algebra
            m = tuple(rng.randint(0, 3) for _ in range(alg.rank))
            chi = cache.character_poly(m)
            assert chi.coefficient(m) == 1
            assert all(oracles.below(alg, m, e) for e in chi.terms)
            cases += 1
        with capsys.disabled():
            report("9b", f"unit leading coefficients, {cases} cases")

    def test_freudenthal_dimension_sums(self, capsys):
        rng = random.Random(107)
        algebras = [Algebra(name) for name in self.ALGEBRAS]
        cases = 0
        while cases < 200:
            alg = rng.choice(algebras)
            w = tuple(rng.randint(0, 4) for _ in range(alg.rank))
            table = alg.freudenthal(w)
            total = sum(m * alg.orbit_size(v) for v, m in table.items())
            assert total == alg.weyl_dim(w)
            cases += 1
        with capsys.disabled():
            report("9c", f"multiplicity dimension sums, {cases} cases")

    def test_parse_print_round_trip(self, capsys):
        rng = random.Random(109)
        for case in range(200):
            rank = rng.choice((2, 3, 4))
            terms = {}
            for _ in range(rng.randint(0, 12)):
                exps = tuple(rng.randint(0, 6) for _ in range(rank))
                terms[exps] = rng.randint(-10 ** 12, 10 ** 12)
            p = ZPolynomial(rank, terms)
            assert parse_poly(print_poly(p), rank) == p
        with capsys.disabled():
            report("9d", "parse/print round trip, 200 cases")

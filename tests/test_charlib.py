import errno
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import liechar
import oracles
from conftest import expand_through
from liechar import charlib
from liechar import (Algebra, BudgetError, CharacterCache, Delta1Operator,
                     DimReport, EigenReport, RankMismatchError, Weight,
                     ZPolynomial, build_delta1, dim_identity, epsilon, print_poly,
                     read_fixture_file, verify_eigen)


class TestRecursion:
    def test_trivial(self, a2):
        assert CharacterCache(a2).character_poly((0, 0)) == \
            ZPolynomial.const(2, 1)

    def test_fundamentals_are_variables(self, a2):
        cache = CharacterCache(a2)
        assert cache.character_poly((1, 0)) == ZPolynomial.variable(2, 1)
        assert cache.character_poly((0, 1)) == ZPolynomial.variable(2, 2)

    def test_a1_chebyshev_style(self):
        # chi_{n+1} = z chi_n - chi_{n-1}
        cache = CharacterCache(Algebra("A1"))
        z = ZPolynomial.variable(1, 1)
        prev, cur = ZPolynomial.const(1, 1), z
        for n in range(2, 8):
            prev, cur = cur, z * cur - prev
            assert cache.character_poly((n,)) == cur

    def test_e8_second_order(self, e8, order2_chars):
        cache = CharacterCache(e8)
        for m in [(0, 0, 0, 0, 0, 0, 0, 2), (1, 0, 0, 0, 0, 0, 0, 1),
                  (0, 0, 0, 0, 0, 1, 0, 1)]:
            assert cache.character_poly(m) == order2_chars[Weight(m)]

    def test_non_dominant_rejected(self, a2):
        with pytest.raises(ValueError):
            CharacterCache(a2).character_poly((-1, 0))

    def test_budget_failure_names_product(self):
        # 2λ4 peels λ4 off, and V_λ4 ⊗ V_λ4 visits 3,207,121 weights
        cache = CharacterCache(Algebra("E8", tensor_budget=3_207_120))
        with pytest.raises(BudgetError) as err:
            cache.character_poly((0, 0, 0, 2, 0, 0, 0, 0))
        assert err.value.pair is not None
        assert tuple(err.value.pair[0]) == (0, 0, 0, 1, 0, 0, 0, 0)

    def test_failure_releases_every_claim(self, monkeypatch):
        # (3,3) plans (3,3), (2,3), (1,3) and (0,3) before V_λ2 ⊗ V_(0,2),
        # and the failure leaves none of them stored
        alg = Algebra("A2")
        cache = CharacterCache(alg)
        decompose = alg.tensor_decompose

        def failing(left, right, budget=None):
            if tuple(right) == (0, 2):
                raise BudgetError("refused")
            return decompose(left, right, budget)

        monkeypatch.setattr(alg, "tensor_decompose", failing)
        with pytest.raises(BudgetError):
            cache.character_poly((3, 3))
        assert (0, 3) not in cache._mem
        monkeypatch.undo()
        assert cache.character_poly((3, 3)) == \
            CharacterCache(Algebra("A2")).character_poly((3, 3))

    def test_path_independence_small(self, a2):
        cache = CharacterCache(a2)
        for m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            routes = {i + 1 for i, x in enumerate(m) if x > 0}
            polys = [expand_through(cache, m, i) for i in routes]
            assert all(p == polys[0] for p in polys)

    def test_path_independence_e8_spot(self, e8):
        cache = CharacterCache(e8)
        m = (1, 0, 0, 0, 0, 0, 0, 1)
        assert expand_through(cache, m, 1) == expand_through(cache, m, 8)

    def test_each_product_decomposed_once(self, monkeypatch):
        # the plan made when a character is claimed is the one expanded
        e8 = Algebra("E8")
        cache = CharacterCache(e8)
        products, expanded = [], []
        decompose = e8.tensor_decompose
        expand = cache._expand

        def counting(left, right, budget=None):
            products.append((tuple(left), tuple(right)))
            return decompose(left, right, budget)

        def counting_expand(m, plan):
            expanded.append(m)
            return expand(m, plan)

        monkeypatch.setattr(e8, "tensor_decompose", counting)
        cache._expand = counting_expand
        cache.character_poly((0, 0, 0, 0, 0, 0, 1, 2))
        assert len(expanded) > 1
        assert len(products) == len(expanded) == len(set(products))

    def test_recursion_limit_left_alone(self):
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            CharacterCache(Algebra("A1")).character_poly((40,))
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(limit)

    def test_deep_chain_at_the_default_limit(self):
        # A1 V_600 rests on a chain of 600 lower characters
        code = (
            "import sys, liechar\n"
            "assert sys.getrecursionlimit() == 1000\n"
            "a1 = liechar.Algebra('A1')\n"
            "chi = liechar.CharacterCache(a1).character_poly((600,))\n"
            "print(chi.evaluate([2]), sys.getrecursionlimit())\n")
        src = str(Path(liechar.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        # chi_600 at z1 = dim V_1 = 2 is dim V_600 = 601
        assert out.stdout.split() == ["601", "1000"]

    def test_third_order_recomputed(self, e8, higher_chars):
        cache = CharacterCache(e8)
        m = Weight((0, 0, 0, 0, 0, 0, 0, 3))
        assert cache.character_poly(m) == higher_chars[m]


class TestTorusOracle:
    def test_a2_exhaustive(self, a2):
        cache = CharacterCache(a2)
        for a in range(4):
            for b in range(4):
                chi = cache.character_poly((a, b))
                assert oracles.torus_value(a2, chi) == \
                    oracles.wcf_character(a2, (a, b))


class TestValidationLayers:
    def test_leading_and_dominance(self, a2):
        cache = CharacterCache(a2)
        for m in [(2, 0), (1, 1), (3, 2)]:
            chi = cache.character_poly(m)
            assert chi.coefficient(m) == 1
            for exps in chi.terms:
                assert oracles.below(a2, m, exps)

    def test_monomial_above_m_is_rejected(self, a2):
        m = (2, 2)
        chi = CharacterCache(a2).character_poly(m)
        CharacterCache(a2)._validate(m, chi)
        terms = dict(chi.terms)
        # move the monomial z1^3 to m + α1 = (4, 1), above m
        terms[(4, 1)] = terms.pop((3, 0))
        with pytest.raises(AssertionError, match="dominance"):
            CharacterCache(a2)._validate(m, ZPolynomial(2, terms))

    def test_monomial_of_another_lattice_class_is_rejected(self, a2):
        # (1, 0) lies in the cone below m = (2, 2), every coordinate of
        # their difference times det(A) = 3 being >= 0, but in another
        # class of the weight lattice modulo the root lattice
        m = (2, 2)
        gaps = [a - b for a, b in zip(a2._coords(m), a2._coords((1, 0)))]
        assert min(gaps) >= 0 and any(g % 3 for g in gaps)
        assert not oracles.below(a2, m, (1, 0))
        terms = CharacterCache(a2).character_poly(m).terms
        terms[(1, 0)] = terms.pop((3, 0))
        with pytest.raises(AssertionError, match=r"monomial \(1, 0\) .* "
                           "not below it in dominance order"):
            CharacterCache(a2)._validate(m, ZPolynomial(2, terms))

    @pytest.mark.parametrize("name", ["D4", "E6"])
    def test_memo_check_matches_below(self, name):
        # every monomial met in a set of characters, checked against each
        # of their highest weights, on one cache whose memo warms as it goes
        alg = Algebra(name)
        cache = CharacterCache(alg)
        rng = random.Random(29)
        weights = {tuple(rng.randint(0, 1) for _ in range(alg.rank))
                   for _ in range(12)} | {(0,) * (alg.rank - 1) + (2,)}
        monomials = set()
        for m in weights:
            monomials |= cache.character_poly(m).terms.keys()
        verdicts = set()
        for m in weights:
            for e in monomials - {m}:
                below = oracles.below(alg, m, e)
                poly = ZPolynomial(alg.rank, {m: 1, e: 1})
                if below:
                    cache._validate(m, poly)
                else:
                    with pytest.raises(AssertionError, match="dominance"):
                        cache._validate(m, poly)
                gaps = [a - b for a, b in zip(alg._coords(m), alg._coords(e))]
                verdicts.add((below, min(gaps) >= 0))
        # accepted, refused outside the cone and refused in it by class
        assert verdicts == {(True, True), (False, False), (False, True)}

    def test_dim_identity(self, e8, order2_chars):
        m = Weight((0, 0, 0, 0, 0, 0, 0, 2))
        report = dim_identity(e8, m, order2_chars[m])
        assert report.ok and report.value == 27000

    def test_dim_identity_negative(self, e8, order2_chars):
        m = Weight((0, 0, 0, 0, 0, 0, 0, 2))
        bad = order2_chars[m] + ZPolynomial.variable(8, 1)
        assert not dim_identity(e8, m, bad).ok

    def test_verify_eigen_negative_control(self, e8, order2_chars,
                                           operator_fixtures):
        op = build_delta1(e8, None, fixture_records=operator_fixtures.records)
        m = Weight((0, 0, 0, 0, 0, 0, 0, 2))
        good = verify_eigen(e8, m, order2_chars[m], op)
        assert good.ok and good.expected == 248
        perturbed = order2_chars[m] + ZPolynomial.const(8, 1)
        bad = verify_eigen(e8, m, perturbed, op)
        assert not bad.ok
        assert not bad.residual.is_zero

    def test_verify_eigen_matches_derivative_oracle(self, e8, order2_chars,
                                                    higher_chars,
                                                    operator_fixtures):
        op = build_delta1(e8, None, fixture_records=operator_fixtures.records)

        def oracle_report(m, chi):
            expected = int(epsilon(e8, m, 1))
            residual = oracles.delta1_apply(op, chi) - expected * chi
            return EigenReport(Weight(m), expected, residual.is_zero, residual)

        chars = {**order2_chars, **higher_chars}
        assert len(chars) == 187
        for m, chi in chars.items():
            assert verify_eigen(e8, m, chi, op) == oracle_report(m, chi)
        m = Weight((0, 0, 0, 0, 0, 0, 1, 1))
        exps, _ = chars[m].sorted_terms()[3]
        bad = chars[m] + ZPolynomial.monomial(8, exps, 1)
        report = verify_eigen(e8, m, bad, op)
        assert not report.ok and report == oracle_report(m, bad)

    def test_verify_eigen_non_integral_eigenvalue(self, a2):
        # eps_(1,0)(1) = 16/3 in A2: no integer operator has it; the
        # message is the one the operator's own coefficients raise
        op = Delta1Operator(2, (0, 0))
        with pytest.raises(ValueError) as err:
            verify_eigen(a2, (1, 0), ZPolynomial.variable(2, 1), op)
        assert str(err.value) == (
            "eps_(1, 0)(1) = 16/3 is not integral; the unit-coupling "
            "operator is not integer-valued in these variables")


def _unmemoized(alg, m, chi):
    """The dimension identity's report, by the public ``evaluate``."""
    return DimReport(Weight(m), chi.evaluate(alg._fundamental_dims),
                     alg.weyl_dim(m))


class TestPackedExpand:
    """The packed expand, its bound and its fallback: the same characters
    as one ``combine`` of every constituent, which a bound of 0 forces."""

    @staticmethod
    def both_paths(monkeypatch, alg, weights):
        """``(characters, packed, expanded)``: the characters of
        ``weights`` from a fresh cache, the number of its expansions that
        decoded a packed sum and the number of all of them, after checking
        that a fresh cache with the bound at 0 expands the same characters
        without decoding any."""
        cache = CharacterCache(alg)
        decoded = []
        add = cache._add_digits
        cache._add_digits = lambda total, out: (decoded.append(total),
                                                add(total, out))
        chars = [cache.character_poly(m) for m in weights]
        with monkeypatch.context() as mp:
            mp.setattr(charlib, "_HALF", 0)
            plain = CharacterCache(alg)
            plain._add_digits = None
            assert [plain.character_poly(m) for m in weights] == chars
            assert plain.cached_weights() == cache.cached_weights()
        # every character but the constant and the fundamentals is expanded
        return chars, len(decoded), len(cache._mem) - alg.rank - 1

    def test_a2_every_weight_up_to_3(self, monkeypatch, a2):
        weights = [(a, b) for a in range(4) for b in range(4)]
        chars, packed, expanded = self.both_paths(monkeypatch, a2, weights)
        assert packed == expanded
        assert [oracles.torus_value(a2, chi) for chi in chars] == \
            [oracles.wcf_character(a2, m) for m in weights]

    @pytest.mark.parametrize("name, labels", [("D4", (0, 0, 1, 1, 2)),
                                              ("E6", (0, 0, 1))])
    def test_seeded_weights(self, monkeypatch, name, labels):
        alg = Algebra(name)
        rng = random.Random(37)
        weights = [tuple(rng.choice(labels) for _ in range(alg.rank))
                   for _ in range(15)]
        _, packed, expanded = self.both_paths(monkeypatch, alg, weights)
        # z_i χ_ν is never packed, so every expansion decodes
        assert packed == expanded == {"D4": 94, "E6": 152}[name]

    def test_e8_shipped_characters(self, monkeypatch, e8, order2_chars,
                                   higher_chars):
        tables = {**order2_chars, **higher_chars}
        assert len(tables) == 187
        chars, packed, expanded = self.both_paths(monkeypatch, e8,
                                                  list(tables))
        assert packed == expanded == 244
        assert chars == list(tables.values())

    def test_a1_chain_takes_the_fallback(self, monkeypatch):
        # the coefficients of chi_n pass 2^31 in size on the way to n = 600,
        # and from there on every constituent is refused when first packed
        alg = Algebra("A1")
        cache = CharacterCache(alg)
        chi = cache.character_poly((600,))
        assert chi.evaluate([2]) == 601
        refused = [w for w, entry in cache._packed.items() if entry is None]
        assert len(refused) > 500
        assert all(max(map(abs, cache._mem[w]._terms.values())) >> 31
                   for w in refused)
        with monkeypatch.context() as mp:
            mp.setattr(charlib, "_HALF", 0)
            assert CharacterCache(alg).character_poly((600,)) == chi

    def test_one_combine_per_character(self, monkeypatch):
        # once the constituents are packed, z_i χ_ν is the only combine
        alg = Algebra("D4")
        cache = CharacterCache(alg)
        combine = ZPolynomial.combine.__func__
        expansions = []

        def spy(cls, rank, terms):
            terms = list(terms)
            expansions[-1][2].append(terms)
            return combine(cls, rank, terms)

        expand = cache._expand

        def recording_expand(m, plan):
            expansions.append((m, plan, []))
            return expand(m, plan)

        monkeypatch.setattr(ZPolynomial, "combine", classmethod(spy))
        cache._expand = recording_expand
        for m in [(2, 0, 0, 0), (1, 1, 0, 1), (0, 2, 0, 0), (1, 0, 2, 1)]:
            cache.character_poly(m)
        assert len(expansions) > 10
        for m, (i, nu, decomposition), calls in expansions:
            assert len(decomposition) > 1
            (c, p, q), = calls[0]
            assert len(calls) == 1 and c == 1 and q is cache._mem[nu]
            assert p == ZPolynomial.variable(4, i)


class TestDimIdentityMemo:
    """``dim_identity`` reads each monomial's value at the fundamental
    dimensions from a memo kept per algebra; every report must be the one
    that ``evaluate`` gives."""

    def test_shipped_characters_in_both_orders(self, order2_chars,
                                               higher_chars):
        chars = list({**order2_chars, **higher_chars}.items())
        assert len(chars) == 187
        for order in (chars, chars[::-1]):
            alg = Algebra("E8")
            assert alg._monomial_dims == {}
            for m, chi in order:
                report = dim_identity(alg, m, chi)
                assert report.ok and report == _unmemoized(alg, m, chi)
            assert len(alg._monomial_dims) == 249

    def test_threads_share_one_fresh_algebra(self, order2_chars,
                                             higher_chars):
        import threading
        chars = list({**order2_chars, **higher_chars}.items())
        alg = Algebra("E8")
        results = [None] * 8

        def worker(idx):
            order = chars[:]
            random.Random(idx).shuffle(order)
            results[idx] = {m: dim_identity(alg, m, chi) for m, chi in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        reference = Algebra("E8")
        expected = {m: _unmemoized(reference, m, chi) for m, chi in chars}
        assert all(answers == expected for answers in results)

    def test_perturbed_characters_fail_on_a_warm_memo(self, order2_chars,
                                                      higher_chars):
        alg = Algebra("E8")
        chars = {**order2_chars, **higher_chars}
        for m, chi in chars.items():
            dim_identity(alg, m, chi)
        m = Weight((0, 0, 0, 0, 0, 0, 1, 1))
        chi = chars[m]
        exps, _ = chi.sorted_terms()[3]
        # one coefficient +1, and a monomial that no character has
        for bad in (chi + ZPolynomial.monomial(8, exps, 1),
                    chi + ZPolynomial.monomial(8, (0,) * 7 + (9,), 1)):
            report = dim_identity(alg, m, bad)
            assert not report.ok and report == _unmemoized(alg, m, bad)

    def test_other_rank_raises(self, e8, order2_chars):
        m = Weight((0, 0, 0, 0, 0, 0, 0, 2))
        dim_identity(e8, m, order2_chars[m])
        # z1 of rank 7 has the key of z1 of rank 8, which the memo holds
        for poly in (ZPolynomial.variable(7, 1), ZPolynomial.variable(9, 1)):
            with pytest.raises(RankMismatchError):
                dim_identity(e8, m, poly)

    def test_two_algebras_keep_their_own_values(self, order2_chars):
        e6, e8 = Algebra("E6"), Algebra("E8")
        e6_cache = CharacterCache(e6)
        e6_chars = {m: e6_cache.character_poly(m)
                    for m in [(1, 0, 0, 0, 0, 1), (0, 2, 0, 0, 0, 0),
                              (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]}
        e8_chars = list(order2_chars.items())[:4]
        # z1 and its products have the same keys in both algebras
        for (m6, chi6), (m8, chi8) in zip(e6_chars.items(), e8_chars):
            for alg, m, chi in ((e6, m6, chi6), (e8, m8, chi8)):
                report = dim_identity(alg, m, chi)
                assert report.ok and report == _unmemoized(alg, m, chi)
        assert e6._monomial_dims[1] == 27 and e8._monomial_dims[1] == 3875

    def test_perturbed_disk_entry_rejected(self, tmp_path, caplog):
        a2 = Algebra("A2")
        chi = CharacterCache(a2, cache_dir=tmp_path).character_poly((2, 2))
        dim_identity(a2, (2, 2), chi)
        stored = tmp_path / "a2" / "2-2.chi"
        text = stored.read_text()
        exps, coeff = next((e, c) for e, c in chi.sorted_terms()
                           if e != (2, 2))
        terms = chi.terms
        terms[exps] = coeff + 1
        stored.write_text(f"chi[2,2] = {print_poly(ZPolynomial(2, terms))}\n")
        with caplog.at_level(logging.DEBUG, logger="liechar"):
            fresh = CharacterCache(a2, cache_dir=tmp_path)
            assert fresh.character_poly((2, 2)) == chi
        assert "dimension identity fails" in caplog.records[0].getMessage()
        assert stored.read_text() == text


class TestFixtures:
    def test_print_reload_round_trip(self, a2, tmp_path):
        cache = CharacterCache(a2)
        chi = cache.character_poly((2, 1))
        path = tmp_path / "roundtrip.chi"
        path.write_text(f"chi[2,1] = {print_poly(chi)}\n")
        (record,) = read_fixture_file(path, 2)
        assert (record.kind, record.index, record.poly) == ("chi", (2, 1), chi)


class TestReports:
    def test_value_semantics(self, a2):
        w = Weight((1, 0))
        dim = DimReport(w, 3, 4)
        assert not dim and not dim.ok and dim != DimReport(w, 3, 3)
        assert repr(dim) == f"DimReport(weight={w!r}, value=3, expected=4)"
        zero = ZPolynomial.zero(2)
        eigen = EigenReport(w, 6, True, zero)
        assert eigen and eigen == EigenReport(w, 6, True, ZPolynomial.zero(2))
        assert eigen.residual is zero
        # equal fields of another class do not make equal reports
        other = type("OtherReport", (DimReport,), {})
        assert DimReport(w, 1, 1) != other(w, 1, 1)
        with pytest.raises(TypeError):
            hash(dim)

    def test_operator_value_semantics(self):
        op = Delta1Operator(rank=2, b=(1, 2))
        assert op.entries == {} and op.provenance == {}
        assert op.entries is not Delta1Operator(2, (1, 2)).entries
        assert op == Delta1Operator(2, (1, 2), {}, {})
        assert op != Delta1Operator(2, (1, 3))
        assert repr(op) == ("Delta1Operator(rank=2, b=(1, 2), entries={}, "
                            "provenance={})")
        with pytest.raises(TypeError):
            hash(op)


class TestConcurrency:
    def test_coalescing_requests(self):
        # concurrent requests agree and each character is computed once
        import threading
        a3 = Algebra("A3")
        cache = CharacterCache(a3)
        calls = []
        original = cache._expand

        def counting_expand(m, plan):
            calls.append(m)
            return original(m, plan)

        cache._expand = counting_expand
        results = {}
        targets = [(2, 1, 2), (1, 2, 1), (2, 1, 2), (2, 2, 2), (2, 1, 2)]

        def worker(idx, m):
            results[idx] = cache.character_poly(m)

        threads = [threading.Thread(target=worker, args=(i, m))
                   for i, m in enumerate(targets)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = CharacterCache(a3)
        for idx, m in enumerate(targets):
            assert results[idx] == reference.character_poly(m)
        assert len(calls) == len(set(calls))

    def test_many_threads_on_one_cache(self):
        # more threads than cores, switching every 10 microseconds: every
        # character is expanded once, and every answer is right
        import threading
        a3 = Algebra("A3")
        cache = CharacterCache(a3)
        calls = []
        original = cache._expand

        def counting_expand(m, plan):
            calls.append(m)
            return original(m, plan)

        cache._expand = counting_expand
        rng = random.Random(29)
        targets = [tuple(rng.randint(0, 2) for _ in range(3))
                   for _ in range(24)]
        results = [None] * 8

        def worker(idx):
            order = targets[:]
            random.Random(idx).shuffle(order)
            results[idx] = {m: cache.character_poly(m) for m in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        reference = CharacterCache(a3)
        for answers in results:
            assert answers == {m: reference.character_poly(m)
                               for m in targets}
        assert len(calls) == len(set(calls))

    def test_present_character_read_during_expansion(self):
        # a cached character comes back while another thread holds the
        # lock inside an expansion
        import threading
        cache = CharacterCache(Algebra("A2"))
        present = cache.character_poly((1, 1))
        entered, release = threading.Event(), threading.Event()
        original = cache._expand

        def blocking_expand(m, plan):
            if m == (3, 3):
                entered.set()
                release.wait(timeout=60)
            return original(m, plan)

        cache._expand = blocking_expand
        results = {}
        holder = threading.Thread(target=lambda: results.update(
            held=cache.character_poly((3, 3))))
        reader = threading.Thread(target=lambda: results.update(
            read=cache.character_poly((1, 1))))
        holder.start()
        try:
            assert entered.wait(timeout=60)
            reader.start()
            reader.join(timeout=10)
            assert not reader.is_alive()
            assert results["read"] is present
        finally:
            release.set()
            holder.join(timeout=60)
            if reader.ident is not None:
                reader.join(timeout=60)
        assert not holder.is_alive() and not reader.is_alive()
        assert results["held"] == \
            CharacterCache(Algebra("A2")).character_poly((3, 3))


class TestPersistence:
    def test_store_and_reload(self, tmp_path):
        a2 = Algebra("A2")
        cache = CharacterCache(a2, cache_dir=tmp_path)
        chi = cache.character_poly((2, 2))
        stored = tmp_path / "a2" / "2-2.chi"
        assert stored.is_file()
        fresh = CharacterCache(a2, cache_dir=tmp_path)
        assert fresh.character_poly((2, 2)) == chi

    def test_corrupt_entry_recomputed(self, tmp_path):
        a2 = Algebra("A2")
        cache = CharacterCache(a2, cache_dir=tmp_path)
        chi = cache.character_poly((2, 2))
        stored = tmp_path / "a2" / "2-2.chi"
        stored.write_text("chi[2,2] = z1 + garbage(((\n")
        fresh = CharacterCache(a2, cache_dir=tmp_path)
        assert fresh.character_poly((2, 2)) == chi

    def test_wrong_polynomial_not_trusted(self, tmp_path):
        a2 = Algebra("A2")
        cache = CharacterCache(a2, cache_dir=tmp_path)
        chi = cache.character_poly((2, 2))
        stored = tmp_path / "a2" / "2-2.chi"
        # well-formed but wrong: fails the dimension identity, so recomputed
        stored.write_text("chi[2,2] = z1*z2\n")
        fresh = CharacterCache(a2, cache_dir=tmp_path)
        assert fresh.character_poly((2, 2)) == chi

    def test_rejected_entry_is_logged(self, tmp_path, caplog):
        # each rejected entry is logged with its reason, then recomputed
        # and overwritten
        a2 = Algebra("A2")
        chi = CharacterCache(a2, cache_dir=tmp_path).character_poly((2, 2))
        stored = tmp_path / "a2" / "2-2.chi"
        text = stored.read_text()
        cases = [
            (text[:len(text) // 2], "ParseError"),
            (text + "\n" + text, "repeated record chi[2,2]"),
            (text + "\nchi[1,1] = z1*z2\n", "2 records, expected 1"),
            ("chi[1,1] = z1*z2\n", "record chi[1, 1] is not chi[2, 2]"),
            # valid, but 3^2 * 3^2 = 81 at the fundamental dimensions, not 27
            ("chi[2,2] = z1^2*z2^2\n", "dimension identity fails"),
        ]
        for content, reason in cases:
            stored.write_text(content)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="liechar"):
                fresh = CharacterCache(a2, cache_dir=tmp_path)
                assert fresh.character_poly((2, 2)) == chi
            assert len(caplog.records) == 1
            assert caplog.records[0].levelno == logging.DEBUG
            message = caplog.records[0].getMessage()
            assert str(stored) in message and reason in message
            assert stored.read_text() == text

    def test_unlabelled_matrix_key(self, tmp_path):
        import hashlib
        digest = hashlib.sha256(b"2,-1,-1,2").hexdigest()[:10]
        cache = CharacterCache(Algebra([[2, -1], [-1, 2]]), cache_dir=tmp_path)
        chi = cache.character_poly((2, 2))
        assert (tmp_path / f"r2-{digest}" / "2-2.chi").is_file()
        fresh = CharacterCache(Algebra([[2, -1], [-1, 2]]), cache_dir=tmp_path)
        fresh._expand = None  # a read back needs no expansion
        assert fresh.character_poly((2, 2)) == chi

    def test_interrupted_write_leaves_no_entry(self, tmp_path, monkeypatch):
        a2 = Algebra("A2")
        write_text = Path.write_text

        def fail_half_way(self, data, *args, **kwargs):
            write_text(self, data[:len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(Path, "write_text", fail_half_way)
        with pytest.raises(OSError):
            CharacterCache(a2, cache_dir=tmp_path).character_poly((2, 2))
        monkeypatch.undo()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        fresh = CharacterCache(a2, cache_dir=tmp_path)
        assert fresh.character_poly((2, 2)) == \
            CharacterCache(a2).character_poly((2, 2))
        assert (tmp_path / "a2" / "2-2.chi").is_file()


class TestPropertySuites:
    ALGEBRAS = ("A2", "A3", "D4")

    def test_path_independence_randomized(self):
        rng = random.Random(17)
        cases = 0
        for name in self.ALGEBRAS:
            alg = Algebra(name)
            cache = CharacterCache(alg)
            while cases < 70 * (self.ALGEBRAS.index(name) + 1):
                m = tuple(rng.randint(0, 2) for _ in range(alg.rank))
                routes = [i + 1 for i, x in enumerate(m) if x > 0]
                if len(routes) < 2:
                    continue
                polys = [expand_through(cache, m, i) for i in routes]
                assert all(p == polys[0] for p in polys)
                cases += 1
        assert cases >= 200

    def test_leading_coefficient_randomized(self):
        rng = random.Random(19)
        cases = 0
        for name in self.ALGEBRAS:
            alg = Algebra(name)
            cache = CharacterCache(alg)
            for _ in range(70):
                m = tuple(rng.randint(0, 2) for _ in range(alg.rank))
                chi = cache.character_poly(m)
                assert chi.coefficient(m) == 1
                assert all(oracles.below(alg, m, e) for e in chi.terms)
                cases += 1
        assert cases >= 200

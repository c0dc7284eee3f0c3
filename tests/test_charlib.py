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
from liechar import (Algebra, BudgetError, CharacterCache, Delta1Operator,
                     DimReport, EigenReport, FixtureDiff, Weight, ZPolynomial,
                     build_delta1, compare_fixture, dim_identity,
                     load_fixtures, parse_poly, print_poly, verify_eigen)
from conftest import ORDER2_FILE


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
        # (3,3) claims (3,3), (2,3), (1,3) and (0,3) before V_λ2 ⊗ V_(0,2)
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
        assert not cache._inflight
        assert (0, 3) not in cache._mem
        monkeypatch.undo()
        assert cache.character_poly((3, 3)) == \
            CharacterCache(Algebra("A2")).character_poly((3, 3))

    def test_path_independence_small(self, a2):
        cache = CharacterCache(a2)
        for m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            routes = {i + 1 for i, x in enumerate(m) if x > 0}
            polys = [cache._expand(m, cache._plan(m, i)) for i in routes]
            assert all(p == polys[0] for p in polys)

    def test_path_independence_e8_spot(self, e8):
        cache = CharacterCache(e8)
        m = (1, 0, 0, 0, 0, 0, 0, 1)
        assert cache._expand(m, cache._plan(m, 1)) == \
            cache._expand(m, cache._plan(m, 8))

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
                assert a2.is_dominance_below(exps, m)

    def test_monomial_above_m_is_rejected(self, a2):
        m = (2, 2)
        chi = CharacterCache(a2).character_poly(m)
        CharacterCache(a2)._validate(m, chi)
        terms = dict(chi.terms)
        # move the monomial z1^3 to m + α1 = (4, 1), above m
        terms[(4, 1)] = terms.pop((3, 0))
        with pytest.raises(AssertionError, match="dominance"):
            CharacterCache(a2)._validate(m, ZPolynomial(2, terms))

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


class TestFixtures:
    def test_compare_exact(self, order2_chars):
        m = Weight((0, 0, 0, 0, 0, 0, 0, 2))
        diff = compare_fixture(m, order2_chars[m], order2_chars[m])
        assert diff.ok

    def test_compare_reports_differences(self, order2_chars):
        m = Weight((0, 0, 0, 0, 0, 0, 0, 2))
        perturbed = order2_chars[m] + parse_poly("z2 - z1", 8)
        diff = compare_fixture(m, perturbed, order2_chars[m])
        assert not diff.ok
        assert (0, 1, 0, 0, 0, 0, 0, 0) in diff.extra
        assert diff.changed  # z1 coefficient moved from -1 to -2

    def test_load_fixtures(self, e8):
        chars = load_fixtures(ORDER2_FILE, 8)
        assert len(chars) == 36
        assert all(sum(m) == 2 for m in chars)

    def test_print_reload_round_trip(self, a2, tmp_path):
        cache = CharacterCache(a2)
        chi = cache.character_poly((2, 1))
        path = tmp_path / "roundtrip.chi"
        path.write_text(f"chi[2,1] = {print_poly(chi)}\n")
        assert load_fixtures(path, 2)[Weight((2, 1))] == chi


class TestReports:
    def test_value_semantics(self, a2):
        w = Weight((1, 0))
        diff = FixtureDiff(w, {}, {}, {})
        assert diff == FixtureDiff(weight=w, missing={}, extra={}, changed={})
        assert diff != FixtureDiff(w, {(0, 0): 1}, {}, {})
        assert bool(diff) and diff.ok
        assert repr(diff) == (f"FixtureDiff(weight={w!r}, missing={{}}, "
                              "extra={}, changed={})")
        dim = DimReport(w, 3, 4)
        assert not dim and not dim.ok and dim != DimReport(w, 3, 3)
        assert repr(dim) == f"DimReport(weight={w!r}, value=3, expected=4)"
        zero = ZPolynomial.zero(2)
        eigen = EigenReport(w, 6, True, zero)
        assert eigen and eigen == EigenReport(w, 6, True, ZPolynomial.zero(2))
        assert eigen.residual is zero
        # equal fields of another class do not make equal reports
        assert DimReport(w, 1, 1) != FixtureDiff(w, 1, 1, {})
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
        assert not cache._inflight


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
        a2 = Algebra("A2")
        chi = CharacterCache(a2, cache_dir=tmp_path).character_poly((2, 2))
        stored = tmp_path / "a2" / "2-2.chi"
        text = stored.read_text()
        stored.write_text(text[:len(text) // 2])
        with caplog.at_level(logging.DEBUG, logger="liechar"):
            fresh = CharacterCache(a2, cache_dir=tmp_path)
            assert fresh.character_poly((2, 2)) == chi
        assert len(caplog.records) == 1
        assert caplog.records[0].levelno == logging.DEBUG
        assert str(stored) in caplog.records[0].getMessage()
        assert stored.read_text() == text

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
                polys = [cache._expand(m, cache._plan(m, i)) for i in routes]
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
                assert all(alg.is_dominance_below(e, m) for e in chi.terms)
                cases += 1
        assert cases >= 200

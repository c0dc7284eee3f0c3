import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liechar
from liechar import parse_poly, print_poly
from liechar.cli import _operator_for, build_parser, main
import oracles
from conftest import OPERATOR_FILE, ORDER2_FILE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_cartan_text(self, capsys):
        code, out, _ = run_cli(capsys, "cartan", "A2")
        assert code == 0
        assert out == "2 -1\n-1 2\n"

    def test_bcoeffs_golden(self, capsys):
        code, out, _ = run_cli(capsys, "bcoeffs", "E8")
        assert code == 0
        assert out.splitlines() == [
            "b[1] = 192*z1", "b[2] = 288*z2", "b[3] = 392*z3",
            "b[4] = 600*z4", "b[5] = 480*z5", "b[6] = 360*z6",
            "b[7] = 240*z7", "b[8] = 120*z8",
        ]

    def test_tensor_golden(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", "E8",
                               "0,0,0,0,0,0,0,1", "0,0,0,0,0,0,0,1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.endswith(" 1") for line in lines)
        assert "0,0,0,0,0,0,0,2 1" in lines

    def test_dim(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "E8", "0,0,0,0,0,0,0,1")
        assert (code, out) == (0, "248\n")

    def test_roots_count(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "D4")
        assert code == 0
        assert out.splitlines()[-1] == "count: 12"

    def test_epsilon_rational(self, capsys):
        code, out, _ = run_cli(capsys, "epsilon", "E8", "0,0,0,0,0,0,0,1",
                               "--kappa", "1/2")
        assert (code, out) == (0, "62\n")

    def test_epsilon_in_the_invariant_form(self, capsys):
        # B2: λ1 = e1 has (λ1, λ1) = 1 and (λ1, ρ) = 3/2, ρ = (3/2, 1/2)
        code, out, _ = run_cli(capsys, "epsilon", "B2", "1,0")
        assert (code, out) == (0, "8\n")

    def test_char_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "char", "E8", "0,0,0,0,0,0,0,0")
        assert (code, out) == (0, "1\n")

    def test_char_second_order(self, capsys):
        code, out, _ = run_cli(capsys, "char", "E8", "0,0,0,0,0,0,0,2")
        assert (code, out) == (0, "-1 - z1 - z7 - z8 + z8^2\n")

    def test_mult(self, capsys):
        code, out, _ = run_cli(capsys, "mult", "E8", "0,0,0,0,0,0,0,1")
        assert code == 0
        assert out.splitlines() == ["0,0,0,0,0,0,0,0 8", "0,0,0,0,0,0,0,1 1"]


class TestJsonFormat:
    def test_dim_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "dim", "E8",
                               "0,0,0,0,0,0,0,1")
        assert code == 0
        assert json.loads(out) == {"labels": [0, 0, 0, 0, 0, 0, 0, 1],
                                   "dim": "248"}

    def test_text_and_json_encode_same_terms(self, capsys):
        _, text_out, _ = run_cli(capsys, "char", "E8", "1,0,0,0,0,0,0,1")
        _, json_out, _ = run_cli(capsys, "--format", "json", "char", "E8",
                                 "1,0,0,0,0,0,0,1")
        from_text = parse_poly(text_out.strip(), 8)
        from_json = parse_poly(json.loads(json_out)["poly"], 8)
        assert from_text == from_json

    def test_tensor_json_mults_are_strings(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "tensor", "A2",
                            "1,0", "0,1")
        data = json.loads(out)
        assert all(isinstance(rec["mult"], str) for rec in data)


class TestOperatorCommands:
    def test_acoeff_computed(self, capsys):
        code, out, _ = run_cli(capsys, "acoeff", "E8", "8", "8")
        assert code == 0
        assert out == "a[8,8] = -124 - 28*z1 - 4*z7 - 64*z8 + 4*z8^2\n"

    def test_acoeff_heavy_pair_computed(self, capsys, operator_fixtures):
        # V_λ5 has dimension 146,325,270 but 763,681 distinct weights,
        # within the default budget
        from liechar import print_poly
        code, out, _ = run_cli(capsys, "--format", "json", "acoeff", "E8",
                               "5", "5")
        assert code == 0
        data = json.loads(out)
        assert data["provenance"] == "computed"
        assert data["poly"] == print_poly(operator_fixtures.a[(5, 5)])

    def test_acoeff_budget_error_without_fixtures(self, capsys):
        code, _, err = run_cli(capsys, "acoeff", "E8", "4", "4",
                               "--budget", "3207120")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("algebra,rank", [("E8", 8), ("B3", 3)])
    def test_acoeff_index_out_of_range(self, capsys, algebra, rank):
        # the index is checked before the algebra's type, so B3 names it too
        code, out, err = run_cli(capsys, "acoeff", algebra, "9", "1")
        assert (code, out) == (1, "")
        assert err == f"error: indices (9, 1) out of range 1..{rank}\n"

    def test_delta1_apply_flag_and_stdin(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "delta1-apply", "E8", "--poly", "z8")
        assert (code, out) == (0, "120*z8\n")
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO("-1 - z8"))
        code, out, _ = run_cli(capsys, "delta1-apply", "E8")
        assert (code, out) == (0, "-120*z8\n")

    def test_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "E8", "0,0,0,0,0,0,0,2")
        assert code == 0
        assert out == "eigen: PASS (expected 248)\ndim: PASS (27000 vs 27000)\n"

    def test_operator_takes_the_pairs_of_the_derivative_rule(self):
        # a constant, a lone linear term, squares, cubes and cross terms;
        # (j, k) is needed iff d_j d_k of the polynomial is nonzero
        d4 = liechar.Algebra("D4")
        poly = parse_poly("7 - z2 + 3*z1^2*z3 - 4*z1*z2 + z3^3 + z2*z3", 4)
        op = _operator_for(d4, poly, liechar.CharacterCache(d4))
        rule = {(j, k) for j in range(1, 5) for k in range(j, 5)
                if not poly.partial_derivative(j).partial_derivative(k).is_zero}
        assert set(op.entries) == rule == {(1, 1), (1, 2), (1, 3), (2, 3),
                                           (3, 3)}
        assert op.apply(poly) == oracles.delta1_apply(op, poly)


class TestFixturesCheck:
    def test_small_file_passes(self, capsys, tmp_path, order2_chars):
        from liechar import Weight, print_poly
        path = tmp_path / "subset.chi"
        m1, m2 = Weight((0, 0, 0, 0, 0, 0, 0, 2)), Weight((1, 0, 0, 0, 0, 0, 0, 1))
        path.write_text(
            f"chi[0,0,0,0,0,0,0,2] = {print_poly(order2_chars[m1])}\n\n"
            f"chi[1,0,0,0,0,0,0,1] = {print_poly(order2_chars[m2])}\n")
        code, out, _ = run_cli(capsys, "fixtures-check", str(path), "E8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "chi[0,0,0,0,0,0,0,2]: dim=PASS eigen=PASS recompute=PASS"
        assert lines[-1] == "checked 2 records: 2 pass, 0 fail"

    def test_empty_file_passes(self, capsys, tmp_path):
        path = tmp_path / "empty.chi"
        path.write_text("# nothing here\n")
        code, out, _ = run_cli(capsys, "fixtures-check", str(path), "E8")
        assert code == 0
        assert "checked 0 records: 0 pass, 0 fail" in out

    def test_perturbed_record_fails(self, capsys, tmp_path, order2_chars):
        from liechar import Weight, print_poly, ZPolynomial
        m = Weight((0, 0, 0, 0, 0, 0, 0, 2))
        bad = order2_chars[m] + ZPolynomial.const(8, 1)
        path = tmp_path / "bad.chi"
        path.write_text(f"chi[0,0,0,0,0,0,0,2] = {print_poly(bad)}\n")
        code, out, _ = run_cli(capsys, "fixtures-check", str(path), "E8")
        assert code == 1
        assert "chi[0,0,0,0,0,0,0,2]: dim=FAIL eigen=FAIL recompute=FAIL" in out

    def test_budget_blocked_recompute_is_skipped(self, capsys, tmp_path,
                                                 order2_chars):
        from liechar import Weight, print_poly
        m = Weight((0, 0, 0, 0, 2, 0, 0, 0))
        path = tmp_path / "heavy.chi"
        path.write_text(f"chi[0,0,0,0,2,0,0,0] = {print_poly(order2_chars[m])}\n")
        # V_λ5 ⊗ V_λ5 visits 763,681 distinct weights
        code, out, _ = run_cli(capsys, "fixtures-check", str(path), "E8",
                               "--budget", "763680")
        assert code == 0
        assert "recompute=SKIP" in out
        assert "1 recomputations skipped over budget" in out


    def test_fixtures_flag_reads_the_operator_file(self, capsys, tmp_path):
        # the A1 operator is b[1] = 3*z1, a[1,1] = -4 + z1^2
        chars = tmp_path / "a1.chi"
        chars.write_text("chi[2] = -1 + z1^2\n\nchi[3] = -2*z1 + z1^3\n")
        table = tmp_path / "a1_operator.txt"
        table.write_text("b[1] = 3*z1\n\na[1,1] = -4 + z1^2\n")
        code, out, _ = run_cli(capsys, "fixtures-check", str(chars), "A1",
                               "--fixtures", str(table))
        assert code == 0
        assert out.splitlines()[-1] == "checked 2 records: 2 pass, 0 fail"
        table.write_text("b[1] = 3*z1\n\na[1,1] = -3 + z1^2\n")
        code, out, _ = run_cli(capsys, "fixtures-check", str(chars), "A1",
                               "--fixtures", str(table))
        assert code == 1
        assert out.splitlines() == [
            "chi[2]: dim=PASS eigen=FAIL recompute=PASS",
            "chi[3]: dim=PASS eigen=FAIL recompute=PASS",
            "checked 2 records: 0 pass, 2 fail"]

    def test_no_fixtures_computes_the_operator(self, capsys):
        # under a budget of one weight, the packaged tables still give the
        # operator, and computing it is refused
        code, out, _ = run_cli(capsys, "fixtures-check", str(ORDER2_FILE),
                               "E8", "--budget", "1")
        assert code == 0
        assert out.splitlines()[-1] == (
            "checked 36 records: 36 pass, 0 fail "
            "(36 recomputations skipped over budget)")
        code, out, err = run_cli(capsys, "fixtures-check", str(ORDER2_FILE),
                                 "E8", "--no-fixtures", "--budget", "1")
        assert (code, out) == (3, "")
        assert "exceeding the budget 1" in err


class TestFixturesCheckIdentity:
    """Every a[j,k] of the operator ``fixtures-check`` uses vanishes at
    z_i = dim V_{λ_i}."""

    def test_entry_off_the_identity_is_reported(self, capsys, tmp_path,
                                                order2_chars):
        from liechar import Weight, print_poly
        chars = tmp_path / "one.chi"
        # chi of 2λ8 reads a[8,8] alone, so its record still passes
        chars.write_text("chi[0,0,0,0,0,0,0,2] = " + print_poly(
            order2_chars[Weight((0, 0, 0, 0, 0, 0, 0, 2))]) + "\n")
        text = OPERATOR_FILE.read_text("utf-8")
        table = tmp_path / "operator.txt"
        table.write_text(text)
        args = ("fixtures-check", str(chars), "E8", "--fixtures", str(table))
        code, out, err = run_cli(capsys, *args)
        assert (code, err) == (0, "")
        start = text.index("a[1,2] = ")
        end = text.index("\n", start)
        table.write_text(text[:end] + " + z1" + text[end:])
        code, bad_out, err = run_cli(capsys, *args)
        assert code == 1
        assert bad_out == out
        assert err == ("a[1,2] = 3875 at the fundamental dimensions, "
                       "expected 0\n")

    def test_packaged_tables_pass(self, capsys):
        code, out, err = run_cli(capsys, "fixtures-check", str(ORDER2_FILE),
                                 "E8", "--budget", "1")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 37
        assert all(line.endswith(" dim=PASS eigen=PASS recompute=SKIP")
                   for line in lines[:-1])


class TestExitCodes:
    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate", "E8"])
        assert err.value.code == 2

    def test_weight_length_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["dim", "E8", "1,2,3"])
        assert err.value.code == 2

    def test_domain_error(self, capsys):
        # "--" keeps argparse from reading the negative label as a flag
        code, _, err = run_cli(capsys, "dim", "E8", "--", "-1,0,0,0,0,0,0,0")
        assert code == 1
        assert "not dominant" in err

    def test_unknown_algebra(self, capsys):
        code, _, err = run_cli(capsys, "cartan", "Z9")
        assert code == 1
        assert "cannot parse" in err

    @pytest.mark.parametrize("record, argv", [
        ("chi[0,0,0,0,0,0,0,2] = -1 - z1 - z7 - z8 + z8^2\n",
         ["fixtures-check", "{path}", "E8"]),
        ("a[1,1] = -4 + z1^2\n", ["fixtures-check", "{path}", "A1",
                                  "--fixtures", "{path}"]),
    ], ids=["characters", "operator"])
    def test_parse_error(self, capsys, tmp_path, record, argv):
        # a record given twice is a parse error of its file
        path = tmp_path / "twice.txt"
        path.write_text(record + "\n" + record)
        argv = [arg.format(path=path) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        header = record[:record.index(" =")]
        assert (code, out) == (1, "")
        assert err == (f"error: repeated record {header} "
                       f"(at offset {len(record) + 1})\n")

    def test_budget_exit(self, capsys):
        code, _, err = run_cli(capsys, "char", "E8", "0,0,0,2,0,0,0,0",
                               "--budget", "3207120")
        assert code == 3
        assert "budget" in err


class TestNegativeKappa:
    # argparse reads "-1/2" as an option, not as the value of --kappa; the
    # help says to write --kappa=-1/2
    @pytest.mark.parametrize("kappa", [
        ["--kappa", "-0.5"], ["--kappa=-1/2"], ["--kappa=-0.5"]])
    def test_accepted_forms(self, capsys, kappa):
        argv = ["epsilon", "E8", "0,0,0,0,0,0,0,1", *kappa]
        assert run_cli(capsys, *argv) == (0, "-54\n", "")

    def test_separate_fraction_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["epsilon", "E8", "0,0,0,0,0,0,0,1", "--kappa", "-1/2"])
        assert err.value.code == 2
        assert capsys.readouterr() == (
            "", "usage: liechar epsilon [-h] [--kappa KAPPA] algebra weight\n"
            "liechar epsilon: error: argument --kappa: expected one "
            "argument\n")

    def test_double_dash_value_is_a_usage_error(self, capsys):
        # argparse drops the "--" of --kappa=-- and leaves the list []
        with pytest.raises(SystemExit) as err:
            main(["epsilon", "A1", "0", "--kappa=--"])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "liechar epsilon: error: argument --kappa: expected one "
            "argument\n")

    def test_help_names_the_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["epsilon", "--help"])
        assert "--kappa=-1/2" in " ".join(capsys.readouterr().out.split())


class TestDoubleDashValue:
    """argparse reads the value ``--``, of ``--opt=--`` or of a bare ``--``
    where a positional goes, as the list [] and applies neither the
    argument's type nor its choices; every such request is a usage error,
    named as argparse names a missing value."""

    @pytest.mark.parametrize("argv, line", [
        (["tensor", "A1", "1", "1", "--budget=--"],
         "liechar tensor: error: argument --budget: expected one argument"),
        (["char", "A1", "1", "--cache-dir=--"],
         "liechar char: error: argument --cache-dir: expected one argument"),
        (["fixtures-check", "x.chi", "E8", "--fixtures=--"],
         "liechar fixtures-check: error: argument --fixtures: expected one "
         "argument"),
        (["delta1-apply", "A2", "--poly=--"],
         "liechar delta1-apply: error: argument --poly: expected one "
         "argument"),
        (["epsilon", "A1", "0", "--kappa=--"],
         "liechar epsilon: error: argument --kappa: expected one argument"),
        (["--format=--", "dim", "A1", "1"],
         "liechar: error: argument --format: expected one argument"),
        (["dim", "A1", "--", "--"],
         "liechar dim: error: argument weight: expected one argument"),
        (["tensor", "A1", "--", "1", "--"],
         "liechar tensor: error: argument right: expected one argument"),
        (["acoeff", "E8", "--", "1", "--"],
         "liechar acoeff: error: argument k: expected one argument"),
    ], ids=["budget", "cache-dir", "fixtures", "poly", "kappa", "format",
            "weight", "right", "k"])
    def test_usage_error(self, capsys, argv, line):
        with pytest.raises(SystemExit) as err:
            main(argv)
        out, stderr = capsys.readouterr()
        assert (err.value.code, out) == (2, "")
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1] == line


class TestCheapRefusalsFirst:
    """A request the operator cannot serve, or an oversized rank, is
    refused before any character or root system is computed."""

    @pytest.mark.parametrize("argv, message", [
        (("verify", "B3", "1,0,0"),
         "the operator layer supports simply-laced algebras only"),
        (("verify", "A2", "1000000,0"),
         "eps_(1, 0)(1) = 16/3 is not integral; the unit-coupling operator "
         "is not integer-valued in these variables"),
        (("acoeff", "A2", "1", "1"),
         "eps_(1, 0)(1) = 16/3 is not integral; the unit-coupling operator "
         "is not integer-valued in these variables"),
        # eps of both constituents of λ1 ⊗ λ1 is integral, that of λ1 not
        (("acoeff", "A3", "1", "1"),
         "eps_(1, 0, 0)(1) = 15/2 is not integral; the unit-coupling "
         "operator is not integer-valued in these variables"),
        (("delta1-apply", "B3", "--poly", "z1^2"),
         "the operator layer supports simply-laced algebras only"),
        (("verify", "A2", "1,0"),
         "eps_(1, 0)(1) = 16/3 is not integral; the unit-coupling operator "
         "is not integer-valued in these variables"),
        (("bcoeffs", "A2"),
         "eps_(1, 0)(1) = 16/3 is not integral; the unit-coupling operator "
         "is not integer-valued in these variables"),
        (("delta1-apply", "A3", "--poly", "z1"),
         "eps_(1, 0, 0)(1) = 15/2 is not integral; the unit-coupling "
         "operator is not integer-valued in these variables"),
    ])
    def test_operator_preconditions(self, capsys, monkeypatch, argv, message):
        def refuse(self, m):
            raise AssertionError(f"character {m} computed")

        monkeypatch.setattr(liechar.CharacterCache, "character_poly", refuse)
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - start < 5.0
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, line", [
        # eps of λ2, 2λ2, λ1 + λ3 and 0 is integral, that of λ1 not
        (("acoeff", "A3", "2", "2"), "a[2,2] = -8 + 2*z2^2 - 4*z1*z3"),
        # eps of the spinors λ4, λ5 is 45/2; λ1 ⊗ λ1 = 2λ1 + λ2 + 0
        (("acoeff", "D5", "1", "1"), "a[1,1] = -20 + 2*z1^2 - 4*z2"),
    ])
    def test_acoeff_needs_only_its_own_eps(self, capsys, argv, line):
        assert run_cli(capsys, *argv) == (0, line + "\n", "")

    @pytest.mark.parametrize("command", ["cartan", "roots", "dim"])
    def test_rank_above_the_bound(self, capsys, command):
        argv = [command, "A99999999"] + (["0"] if command == "dim" else [])
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (1, "")
        assert err == ("error: rank 99999999 is above the largest supported "
                       "rank 100\n")

    @pytest.mark.parametrize("digits", [5000, 4000])
    def test_rank_of_too_many_digits(self, capsys, digits):
        # past int()'s 4300-digit limit, or just under it: neither the
        # interpreter's hint nor the digits reach stderr
        start = time.monotonic()
        code, out, err = run_cli(capsys, "dim", "A" + "9" * digits, "1")
        assert time.monotonic() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (f"error: rank of {digits} digits is above the largest "
                       "supported rank 100\n")

    def test_cartan_builds_only_the_matrix(self, capsys):
        # the whole Algebra of A100 takes about 0.2 s, most of it in its
        # 5,050 positive roots; the matrix alone takes about 0.1 s
        start = time.monotonic()
        code, out, err = run_cli(capsys, "cartan", "A100")
        assert time.monotonic() - start < 1.0
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 100
        assert rows[0] == " ".join(["2", "-1"] + ["0"] * 98)
        assert rows[50].split()[49:52] == ["-1", "2", "-1"]


class TestCacheAndBudgetFlags:
    def test_env_var_selects_cache_root(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LIECHAR_CACHE", str(tmp_path))
        code, out, _ = run_cli(capsys, "char", "A2", "2,2")
        assert code == 0
        stored = tmp_path / "a2" / "2-2.chi"
        assert stored.is_file()
        code, out2, _ = run_cli(capsys, "char", "A2", "2,2")
        assert (code, out2) == (0, out)

    def test_mult_takes_no_budget(self):
        # Freudenthal never reads the tensor budget, so mult has no flag
        with pytest.raises(SystemExit) as err:
            main(["mult", "A2", "1,1", "--budget", "1"])
        assert err.value.code == 2

    def test_budget_flag(self, capsys):
        code, _, err = run_cli(capsys, "tensor", "E8", "0,0,1,0,0,0,0,0",
                               "0,0,1,0,0,0,0,0", "--budget", "1000")
        assert code == 3
        assert "budget 1000" in err


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "char", "E8", "0,0,0,0,0,1,0,1")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "liechar", "bcoeffs", "E8"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.startswith("b[1] = 192*z1")

    def test_other_interpreters_print_the_same(self, capsys, tmp_path):
        # each pyenv interpreter of Python 3.10 or later, which need not
        # have numpy, answers as this one: a character expanded without
        # numpy, an operator applied to parsed text and a product
        here = Path(sys.executable).resolve()
        pythons = [path for path in sorted(
            (Path.home() / ".pyenv" / "versions").glob("3.1*/bin/python3"))
            if tuple(map(int, path.parents[1].name.split(".")[:2])) >= (3, 10)
            and path.resolve() != here]
        if not pythons:
            pytest.skip("no other interpreter of Python 3.10 or later under "
                        "~/.pyenv/versions")

        def requests(cache_dir):
            return [["char", "E8", "0,0,0,0,0,0,3,0", "--cache-dir",
                     str(cache_dir)],
                    ["delta1-apply", "E8", "--poly", "z1*z8 - 3*z7"],
                    ["tensor", "E6", "1,0,0,0,0,0", "0,0,0,0,0,1"]]

        expected = ""
        for argv in requests(tmp_path / "here"):
            code, out, _ = run_cli(capsys, *argv)
            expected += f"{out}exit {code}\n"
        assert expected.count("exit 0") == 3
        code = ("import json, sys\n"
                "from liechar.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    print('exit', main(argv), flush=True)\n")
        for python in pythons:
            # a cache of its own, so that each child expands the character
            argv = json.dumps(requests(tmp_path / python.parents[1].name))
            child = _fresh_process(code, argv, python=python)
            assert (child.stdout, child.stderr) == (expected, ""), python


def _fresh_process(code: str, *args, python=sys.executable):
    """Run ``code`` with ``args`` in a new interpreter, ``python``, on this
    tree's package, with no user character cache; the finished process."""
    src = str(Path(liechar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("LIECHAR_CACHE", None)
    return subprocess.run([python, "-c", code, *args], capture_output=True,
                          text=True, env=env)


# the modules a request must not load, by what it runs: the cheap commands
# need neither the cache nor the operator, a character needs no operator,
# and only a rational coupling or an operator's eps builds a Fraction
_NOT_CHEAP = ["liechar.charlib", "liechar.csop", "fractions"]
_NOT_CHAR = ["liechar.csop", "fractions"]


# wraps re._compile so that ``calls`` lists each pattern compiled on
# liechar.zpoly's behalf
_RECORD_COMPILES = (
    "import re, sys\n"
    "compile, calls = re._compile, []\n"
    "def recorded(pattern, flags):\n"
    "    frame = sys._getframe(1)\n"
    "    while frame.f_globals['__name__'] == 're':\n"
    "        frame = frame.f_back\n"
    "    if frame.f_globals['__name__'] == 'liechar.zpoly':\n"
    "        calls.append(pattern)\n"
    "    return compile(pattern, flags)\n"
    "re._compile = recorded\n")


class TestImportCost:
    def test_import_loads_no_submodule(self):
        # and a name, once read, loads its own module and what it imports
        out = _fresh_process(
            "import sys, liechar\n"
            "def loaded():\n"
            "    print(sorted(m for m in sys.modules\n"
            "                 if m.startswith('liechar.')))\n"
            "loaded()\n"
            "liechar.Algebra\n"
            "loaded()\n")
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "[]", "['liechar.errors', 'liechar.repth', 'liechar.rootsys']"]

    def test_public_names_resolve_to_their_modules(self):
        # in a fresh process, so that dir() is read before any name is used
        out = _fresh_process(
            "import importlib, liechar\n"
            "listed = set(dir(liechar))\n"
            "for name in liechar.__all__:\n"
            "    value = getattr(liechar, name)\n"
            "    home = importlib.import_module(\n"
            "        'liechar.' + liechar._HOME[name])\n"
            "    assert name in listed, name\n"
            "    assert value is home.__dict__[name], name\n"
            "    owner = getattr(value, '__module__', home.__name__)\n"
            "    assert owner == home.__name__, (name, owner)\n"
            "print(len(liechar.__all__))\n")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == str(len(liechar.__all__))
        assert set(liechar._HOME) == set(liechar.__all__)
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            liechar.nothing

    @pytest.mark.parametrize("argv, absent", [
        (["cartan", "E8"], _NOT_CHEAP),
        (["roots", "F4"], _NOT_CHEAP),
        (["dim", "E8", "0,0,0,0,0,0,0,1"], _NOT_CHEAP),
        (["mult", "F4", "1,0,1,0"], _NOT_CHEAP),
        # λ7 ⊗ λ8 goes to the Python loop
        (["tensor", "E8", "0,0,0,0,0,0,1,0", "0,0,0,0,0,0,0,1"], _NOT_CHEAP),
        (["char", "E8", "0,0,0,0,0,0,2,0"], _NOT_CHAR),
        (["epsilon", "B3", "1,0,0", "--kappa", "2"], ["liechar.csop"]),
    ], ids=["cartan", "roots", "dim", "mult", "tensor", "char", "epsilon"])
    def test_request_loads_only_what_it_runs(self, argv, absent):
        # the exit code and the unwanted modules loaded, on stderr's last line
        out = _fresh_process(
            "import sys\n"
            "from liechar import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(code, sorted(set(sys.modules) & set("
            f"{absent!r})), file=sys.stderr)\n")
        assert out.stderr.splitlines()[-1] == "0 []"

    def test_patterns_compile_on_first_use(self):
        # the exit code, then how many patterns zpoly has compiled: none on
        # import or for a request that reads no polynomial text
        out = _fresh_process(
            _RECORD_COMPILES +
            "import liechar.zpoly\n"
            "print(len(calls), file=sys.stderr)\n"
            "from liechar import cli\n"
            "code = cli.main(['dim', 'E8', '0,0,0,0,0,0,0,1'])\n"
            "print(code, len(calls), file=sys.stderr)\n"
            "liechar.zpoly.parse_poly('1 + z1', 1)\n"
            "print(bool(calls), file=sys.stderr)\n")
        assert out.stderr.splitlines() == ["0", "0 0", "True"]

    def test_cached_character_compiles_no_term_pattern(self, tmp_path):
        # a disk-cache entry holds one record, which the token reader reads
        argv = ["char", "E8", "0,0,0,0,0,0,2,0", "--cache-dir", str(tmp_path)]
        script = (
            _RECORD_COMPILES +
            "from liechar import cli, zpoly\n"
            f"code = cli.main({argv!r})\n"
            "names = {p: name for name, (p, _) in zpoly._PATTERNS.items()}\n"
            "print(code, sorted(names[p] for p in calls if p in names),\n"
            "      file=sys.stderr)\n")
        cold = _fresh_process(script)
        assert cold.stderr.splitlines() == ["0 []"]
        warm = _fresh_process(script)
        assert warm.stderr.splitlines() == ["0 ['header', 'token']"]
        assert warm.stdout == cold.stdout

    def test_cached_character_loads_no_operator(self, tmp_path):
        argv = ["char", "E8", "0,0,0,0,0,0,2,0", "--cache-dir", str(tmp_path)]
        script = (
            "import sys\n"
            "from liechar import charlib, cli\n"
            "read = charlib.read_fixture_file\n"
            "def counted(*args):\n"
            "    print('read', file=sys.stderr)\n"
            "    return read(*args)\n"
            "charlib.read_fixture_file = counted\n"
            f"code = cli.main({argv!r})\n"
            "print(code, sorted(set(sys.modules) & set("
            f"{_NOT_CHAR!r})), file=sys.stderr)\n")
        cold = _fresh_process(script)
        assert cold.stderr.splitlines() == ["0 []"]
        warm = _fresh_process(script)
        assert warm.stderr.splitlines() == ["read", "0 []"]
        assert warm.stdout == cold.stdout

    def test_cache_dir_help_names_the_variable(self, capsys):
        # written out, so that building the parser needs no charlib
        from liechar import charlib

        with pytest.raises(SystemExit):
            main(["char", "--help"])
        assert f"${charlib.CACHE_ENV_VAR}" in capsys.readouterr().out

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # dataclasses pulls in inspect, a few milliseconds of every start
        code = ("import sys, liechar, liechar.cli\n"
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
        src = str(Path(liechar.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "[]"

    def test_verify_request_does_not_import_numpy(self):
        # the request whose latency the benchmark's CLI probe times
        code = ("import sys, liechar.cli\n"
                "assert liechar.cli.main(['verify', 'E8', "
                "'0,0,0,0,0,0,0,2']) == 0\n"
                "print('numpy' in sys.modules, file=sys.stderr)\n")
        src = str(Path(liechar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("LIECHAR_CACHE", None)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.splitlines() == ["eigen: PASS (expected 248)",
                                           "dim: PASS (27000 vs 27000)"]
        assert out.stderr.strip() == "False"


# -- property test: every drawn request ends with an exit code, in time --

_SMALL_ALGEBRAS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
                   "G2")
# tokens that a well-formed request does not hold where they are drawn; none
# is a large label, for which mult and char have no budget yet (ROADMAP
# item 4), and a literal over the interpreter's digit limit is refused
_JUNK = ("", "x", "-1", "1.5", "1e3", "0x1", ",", "1,,2", " 2", "٣", "-0",
         "1/2", "9" * 5000, "A0", "E9", "A99999999", "z0", "*z1", "z1^",
         "(z1", "--", "-h")
_COMMANDS = ("cartan", "roots", "dim", "mult", "tensor", "epsilon", "bcoeffs",
             "acoeff", "char", "delta1-apply", "verify", "fixtures-check")
_WALL_BOUND_S = 10.0


def _request(draw, command):
    """``(argv, stdin)`` for one ``command`` request on a small algebra."""
    junk = st.sampled_from(_JUNK)

    def mostly(strategy):
        # the well-formed value four times in five
        return st.sampled_from([strategy] * 4 + [junk]).flatmap(
            lambda chosen: chosen)

    def maybe(*options):
        return draw(st.sampled_from([[], *options]))

    algebra = draw(mostly(st.sampled_from(_SMALL_ALGEBRAS)))
    rank = int(algebra[1:]) if algebra in _SMALL_ALGEBRAS else 2
    rank = draw(st.sampled_from([rank] * 8 + [rank - 1, rank + 1]))
    labels = st.lists(st.integers(0, 3), min_size=rank, max_size=rank).map(
        lambda xs: ",".join(map(str, xs)))
    weight = mostly(labels)
    monomial = st.lists(st.integers(0, 3), min_size=rank, max_size=rank).map(
        lambda es: "*".join(f"z{i}^{e}" for i, e in enumerate(es, 1) if e)
        or "1")
    poly = mostly(st.lists(st.tuples(st.integers(-3, 3), monomial),
                           max_size=3).map(
        lambda ts: " + ".join(f"{c}*{m}" for c, m in ts) or "0"))
    index = mostly(st.integers(0, rank + 1).map(str))
    budget = mostly(st.sampled_from(["1", "100", "20000000", "9" * 20]))
    args = {
        "cartan": lambda: [algebra],
        "roots": lambda: [algebra],
        "dim": lambda: [algebra, draw(weight)],
        "mult": lambda: [algebra, draw(weight)],
        "tensor": lambda: [algebra, draw(weight), draw(weight)],
        "epsilon": lambda: [algebra, draw(weight)] + maybe(
            ["--kappa", draw(st.sampled_from(["0", "3/2", "-0.5", "1/0"]))],
            [f"--kappa={draw(junk)}"]),
        "bcoeffs": lambda: [algebra],
        "acoeff": lambda: [algebra, draw(index), draw(index)],
        "char": lambda: [algebra, draw(weight)],
        "delta1-apply": lambda: [algebra] + maybe(["--poly", draw(poly)]),
        "verify": lambda: [algebra, draw(weight)],
        "fixtures-check": lambda: [
            draw(st.sampled_from(["empty.chi", "a2.chi", "d4.chi",
                                  "junk.chi", "missing.chi", "."])),
            algebra] + maybe(["--no-fixtures"]),
    }[command]()
    if command in ("tensor", "acoeff", "char", "delta1-apply", "verify",
                   "fixtures-check"):
        args += maybe(["--budget", draw(budget)])
    argv = maybe(["--format", "json"]) + [command] + args
    return argv, draw(poly)


# a well-formed request of each subcommand, after its name
_WELL_FORMED = {
    "cartan": ["A2"], "roots": ["A2"], "dim": ["A2", "1,0"],
    "mult": ["A2", "1,0"], "tensor": ["A2", "1,0", "0,1"],
    "epsilon": ["A2", "1,0"], "bcoeffs": ["D4"], "acoeff": ["D4", "1", "1"],
    "char": ["A2", "1,0"], "delta1-apply": ["D4", "--poly", "z1"],
    "verify": ["D4", "1,0,0,0"], "fixtures-check": ["d4.chi", "D4"],
}


def _double_dash_requests():
    """``(command, argv)``: each well-formed request with each option that
    takes a value, its subcommand's or the global ``--format``, written
    ``--opt=--``; read from the parser, so a new option is covered too."""
    parser = build_parser()
    subs, = (action for action in parser._actions
             if isinstance(action.choices, dict))

    def valued(p):
        return [action.option_strings[-1] for action in p._actions
                if action.option_strings and action.nargs is None]

    requests = []
    for command, args in _WELL_FORMED.items():
        argvs = [[f"{option}=--", command, *args]
                 for option in valued(parser)]
        argvs += [[command, *args, f"{option}=--"]
                  for option in valued(subs.choices[command])]
        requests += [pytest.param(command, argv, id=" ".join(argv))
                     for argv in argvs]
    return requests


class TestEveryRequestEnds:
    """ROADMAP item 5: every request on a small algebra, well formed or not,
    ends with exit code 0, 1, 2 or 3 within a wall bound, and nothing but
    ``SystemExit`` escapes ``main``.  Its output agrees with the code: a
    JSON success of a subcommand is one JSON line whose polynomial, if
    any, re-parses and prints back the same; a refused budget is one
    ``error:`` line naming the budget; a domain error has an ``error:``
    line unless the request reported a failed check on stdout.  A value
    given as ``--opt=--`` is a usage error; every subcommand meets it with
    each option it takes, in explicit examples."""

    @pytest.mark.parametrize("command", _COMMANDS)
    @settings(max_examples=15, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_exit_code_in_time(self, command, data):
        argv, stdin = _request(data.draw, command)
        _check_request(command, argv, stdin)

    @pytest.mark.parametrize("command, argv", _double_dash_requests())
    def test_double_dash_values(self, command, argv):
        _check_request(command, argv, "")


def _check_request(command, argv, stdin):
    """Run ``argv`` with ``stdin`` in a fresh cache root holding a few
    fixture files, and check its exit code, wall time and output."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.dict(os.environ, {"LIECHAR_CACHE": root}), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        files = Path(root)
        (files / "empty.chi").write_text("")
        (files / "a2.chi").write_text("chi[1,1] = -1 + z1*z2\n")
        (files / "d4.chi").write_text(
            "chi[0,0,0,0] = 1\nchi[1,0,0,1] = -z3 + z1*z4\n")
        (files / "junk.chi").write_text("chi[1 = (\n")
        cwd = os.getcwd()
        os.chdir(root)
        start = time.monotonic()
        handled = True
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's exits: 2 on a usage error, 0 after -h's help
            code, handled = exc.code, False
        finally:
            elapsed = time.monotonic() - start
            os.chdir(cwd)
    stdout, stderr = out.getvalue(), err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (argv, stderr)
    assert elapsed < _WALL_BOUND_S, argv
    if any(token.startswith("--") and token.endswith("=--")
           for token in argv):
        assert code == 2, (argv, stderr)
    if code == 0 and handled and argv[:2] == ["--format", "json"]:
        line, = stdout.splitlines()
        result = json.loads(line)
        if command in ("char", "delta1-apply"):
            rank = liechar.build_cartan(argv[3]).rank
            text = result["poly"]
            assert print_poly(parse_poly(text, rank)) == text, argv
    elif code == 3:
        line, = stderr
        assert line.startswith("error: ") and "budget" in line, argv
    elif code == 1 and not (command in ("verify", "fixtures-check")
                            and ("FAIL" in stdout
                                 or '"ok": false' in stdout)):
        assert any(line.startswith("error: ") for line in stderr), \
            (argv, stderr)

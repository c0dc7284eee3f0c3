import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liechar
from liechar import parse_poly
from liechar.cli import main


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

    def test_budget_exit(self, capsys):
        code, _, err = run_cli(capsys, "char", "E8", "0,0,0,2,0,0,0,0",
                               "--budget", "3207120")
        assert code == 3
        assert "budget" in err


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


class TestImportCost:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # dataclasses pulls in inspect, a few milliseconds of every start
        code = ("import sys, liechar, liechar.cli\n"
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
        src = str(Path(liechar.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "[]"

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from powersumkit.cli import main, render_table, table_rows, _FAMILIES
from powersumkit.goldens import LS_FIRST_ROWS_0_TO_7, LS_SECOND_ROWS_0_TO_7


def run(argv):
    """Invoke the CLI, normalizing argparse's SystemExit into a code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestTable:
    def test_ls1_rows7_matches_golden(self, capsys):
        assert run(["table", "--family", "ls1", "--rows", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = [" ".join(str(v) for v in row) for row in LS_FIRST_ROWS_0_TO_7]
        assert lines == expected

    def test_ls2_rows7_matches_golden(self, capsys):
        assert run(["table", "--family", "ls2", "--rows", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = [" ".join(str(v) for v in row) for row in LS_SECOND_ROWS_0_TO_7]
        assert lines == expected

    def test_stirling1_rows0(self, capsys):
        assert run(["table", "--family", "stirling1", "--rows", "0"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_unknown_family_is_usage_error(self):
        assert run(["table", "--family", "nope", "--rows", "3"]) == 2

    def test_rows_over_cap_is_usage_error(self):
        assert run(["table", "--family", "stirling2", "--rows", "65"]) == 2

    def test_rows_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("POWERSUMKIT_ROWS_CAP", "5")
        assert run(["table", "--family", "stirling2", "--rows", "6"]) == 2
        monkeypatch.setenv("POWERSUMKIT_ROWS_CAP", "100")
        assert run(["table", "--family", "stirling2", "--rows", "70"]) == 0

    def test_bad_rows_cap_env_is_usage_error(self, monkeypatch, capsys):
        for raw in ("junk", "-5"):
            monkeypatch.setenv("POWERSUMKIT_ROWS_CAP", raw)
            assert run(["table", "--family", "stirling2", "--rows", "3"]) == 2
            assert "POWERSUMKIT_ROWS_CAP" in capsys.readouterr().err

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_json_round_trip(self, family):
        rendered = render_table(family, 10, "json")
        parsed = json.loads(rendered)
        assert parsed["family"] == family
        assert parsed["rows"] == table_rows(family, 10)
        # every cell parses back to an exact rational
        for row in parsed["rows"]:
            for cell in row:
                Fraction(cell)

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_csv_and_json_cells_identical(self, family):
        csv_rows = [line.split(",")
                    for line in render_table(family, 10, "csv").splitlines()]
        json_rows = json.loads(render_table(family, 10, "json"))["rows"]
        assert csv_rows == json_rows

    def test_output_newline_terminated(self):
        for fmt in ("plain", "csv", "json"):
            assert render_table("ls2", 3, fmt).endswith("\n")


class TestPowersum:
    def test_all_methods_concordant(self, capsys):
        assert run(["powersum", "--k", "3", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count(": 36") == 6
        assert "concordance: OK" in out

    def test_single_method(self, capsys):
        assert run(["powersum", "--k", "0", "--n", "5",
                    "--method", "lang-refined"]) == 0
        assert "lang-refined: 5" in capsys.readouterr().out

    def test_range_method(self, capsys):
        assert run(["powersum", "--k", "2", "--n", "4", "--r", "2",
                    "--method", "range-r-stirling"]) == 0
        assert "range-r-stirling: 29" in capsys.readouterr().out

    def test_r_with_incompatible_method_is_usage_error(self):
        assert run(["powersum", "--k", "2", "--n", "4", "--r", "2",
                    "--method", "lang-refined"]) == 2

    def test_bad_parameters_are_usage_errors(self):
        assert run(["powersum", "--k", "-1", "--n", "3"]) == 2
        assert run(["powersum", "--k", "2", "--n", "0"]) == 2


class TestVerify:
    def test_orthogonality_suite_passes(self, capsys):
        assert run(["verify", "--suite", "orthogonality"]) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_ls_tables_suite_passes(self, capsys):
        assert run(["verify", "--suite", "ls_tables"]) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self):
        assert run(["verify", "--suite", "bogus"]) == 2

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        from powersumkit.verify import SUITES, VerifyReport

        def broken(k_max=None, n_max=None):
            return VerifyReport("orthogonality", cells=1,
                                failures=[("cell", "0", "1")])

        monkeypatch.setitem(SUITES, "orthogonality", broken)
        assert run(["verify", "--suite", "orthogonality"]) == 1
        out = capsys.readouterr().out
        assert "FAIL cell" in out and "failures=1" in out

    def test_small_bounds(self, capsys):
        assert run(["verify", "--suite", "concordance",
                    "--k-max", "3", "--n-max", "4"]) == 0
        assert "failures=0" in capsys.readouterr().out


class TestZeta:
    def test_k1(self, capsys):
        assert run(["zeta", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "1/6 · π^2" in out
        assert "1.64493406684823" in out

    def test_k2(self, capsys):
        assert run(["zeta", "--k", "2"]) == 0
        assert "1/90 · π^4" in capsys.readouterr().out

    def test_k5_coefficient(self, capsys):
        assert run(["zeta", "--k", "5"]) == 0
        assert "1/93555" in capsys.readouterr().out

    def test_k0_is_usage_error(self):
        assert run(["zeta", "--k", "0"]) == 2


def test_no_command_is_usage_error():
    assert run([]) == 2


def test_out_of_memory_is_exit_2_without_traceback():
    limit = 256 << 20  # address space; the command below needs gigabytes

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "powersumkit.cli", "powersum", "--k", "3",
         "--n", "3000", "--method", "lang-refined"],
        preexec_fn=cap_memory, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "out of memory" in proc.stderr

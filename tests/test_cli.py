import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersumkit.cli import main, render_table, table_rows, _FAMILIES
from powersumkit.goldens import LS_FIRST_ROWS_0_TO_7, LS_SECOND_ROWS_0_TO_7
from powersumkit.powersums import Method
from powersumkit.verify import SUITES


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

    def test_unknown_family_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown family 'nope'"):
            render_table("nope", 3, "plain")

    def test_rows_over_cap_is_usage_error(self):
        assert run(["table", "--family", "stirling2", "--rows", "65"]) == 2

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

    def test_r_with_incompatible_method_is_usage_error(self, capsys):
        for r in ("2", "0"):
            assert run(["powersum", "--k", "2", "--n", "3", "--r", r,
                        "--method", "lang-refined"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1] == \
                "powersumkit: error: method lang-refined supports only r = 1"

    def test_bad_parameters_are_usage_errors(self):
        assert run(["powersum", "--k", "-1", "--n", "3"]) == 2
        assert run(["powersum", "--k", "2", "--n", "0"]) == 2

    def test_value_past_the_int_str_digit_limit_is_printed_in_full(self, capsys):
        """S_3000(30) has more digits than the interpreter's default limit on
        int-to-str conversion; the CLI prints all of them and then puts the
        limit back as it found it."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert run(["powersum", "--k", "3000", "--n", "30", "--method", "brute"]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        head, digits = capsys.readouterr().out.rstrip("\n").split(": ")
        assert head == "brute" and len(digits) > 4300
        value = 0  # int(digits), read in chunks that stay under the limit
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == sum(i ** 3000 for i in range(1, 31))
        if limit is not None:
            # the input is still parsed under the limit
            assert run(["zeta", "--k", "9" * 5000]) == 2


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

    @pytest.mark.parametrize("bound", [["--k-max", "0"], ["--k-max", "-3"],
                                       ["--n-max", "0"]])
    def test_bound_below_1_is_usage_error(self, capsys, bound):
        assert run(["verify", "--suite", "concordance"] + bound) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1
        assert err.splitlines()[-1].endswith("k_max and n_max must be >= 1")


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


@pytest.mark.parametrize("method", ["odd-bernoulli-poly", "triangular-binomial"])
def test_k_too_large_to_index_is_exit_2_without_traceback(capsys, method):
    """A k past the largest list size is an OverflowError inside the
    library: exit 2 and one `error:` line, not exit 1 with a traceback."""
    assert run(["powersum", "--k", str(10 ** 21), "--n", "1", "--method", method]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("powersumkit: error:")
    assert "Traceback" not in err


def _number(lo: int, hi: int, *extra: str):
    """An option value: mostly an int in [lo, hi], else one of `extra` or junk."""
    junk = st.sampled_from(extra + ("", "x", "2.5", "0x10", "--"))
    return st.integers(0, 7).flatmap(
        lambda i: junk if i == 0 else st.integers(lo, hi).map(str))


_ARGV = st.one_of(
    st.tuples(st.sampled_from(sorted(_FAMILIES) + ["bogus"]), _number(-2, 10, "65", "1000"),
              st.sampled_from(["plain", "csv", "json", "xml"])).map(
        lambda t: ["table", "--family", t[0], "--rows", t[1], "--format", t[2]]),
    st.tuples(_number(-1, 8), _number(-1, 12), st.lists(_number(-1, 3), max_size=1),
              st.sampled_from(["all", "bogus"] + [m.value for m in Method])).map(
        lambda t: ["powersum", "--k", t[0], "--n", t[1], "--method", t[3]]
        + [arg for r in t[2] for arg in ("--r", r)]),
    st.tuples(st.sampled_from(sorted(SUITES) + ["all", "bogus"]),
              _number(-1, 4), _number(-1, 5)).map(
        lambda t: ["verify", "--suite", t[0], "--k-max", t[1], "--n-max", t[2]]),
    _number(-2, 30).map(lambda k: ["zeta", "--k", k]),
    st.lists(st.sampled_from(["table", "zeta", "--k", "1", "--rows", "-", "bogus"]), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_cli_fuzz_exit_codes(argv):
    """Exit 0, 1 or 2 and no traceback; 1 only when an identity failed."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert "MISMATCH" in out.getvalue() or "FAIL " in out.getvalue(), argv

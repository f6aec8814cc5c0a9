"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every comparison is exact; the only tolerances are the wall-clock
budgets stated inline.
"""

import json
import time
from fractions import Fraction

import pytest

from powersumkit import cli, powersums as ps, symfuncs as sf, zeta as zt
from powersumkit.combinatorics import bernoulli_number
from powersumkit.sequences import SequenceSpec
from powersumkit.verify import run_suite


def _report(name: str, ok: bool) -> bool:
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_ls_table_reproduction():
    report = run_suite("ls_tables")
    ok = report.ok and report.cells >= 48 and report.elapsed < 0.1
    assert _report("1 ls-table-reproduction", ok), report.failures[:5]


def test_criterion_2_formula_concordance():
    start = time.perf_counter()
    report = run_suite("concordance", 12, 25)
    elapsed = time.perf_counter() - start
    ok = report.ok and report.cells >= 300 * 5 and elapsed < 5.0
    assert _report("2 formula-concordance", ok), report.failures[:5]


def test_criterion_3_orthogonality():
    report = run_suite("orthogonality", 15, 12)
    assert _report("3 orthogonality", report.ok), report.failures[:5]


def test_criterion_4_specializations():
    failures = []
    for suite, k_max, n_max in [("ones", 15, 15), ("range", 8, 10),
                                ("central", 6, 15), ("triangular", 6, 12)]:
        report = run_suite(suite, k_max, n_max)
        failures.extend(report.failures)
    assert _report("4 specializations", not failures), failures[:5]


def test_criterion_5_zeta():
    ok = (zt.zeta_even_exact(1).coeff == Fraction(1, 6)
          and zt.zeta_even_exact(2).coeff == Fraction(1, 90)
          and zt.zeta_even_exact(3).coeff == Fraction(1, 945)
          and all(zt.zeta_even_exact(k) == zt.zeta_even_classical(k)
                  for k in range(1, 16)))
    assert _report("5 zeta", ok)


def test_criterion_6_bernoulli_identities():
    ok = (all(zt.bernoulli_binomial_identity(k) == 0 for k in range(1, 26))
          and all(zt.bernoulli_even_recursion(k) == bernoulli_number(2 * k)
                  for k in range(1, 16))
          and all(zt.merca_ls_bernoulli_identity(k, n) == 0
                  for k in range(1, 7) for n in range(1, 9)))
    assert _report("6 bernoulli-identities", ok)


def test_criterion_7_pn_coefficient_law():
    failures = []
    for n in range(1, 13):
        poly = sf.pn_polynomial_coeffs(n)
        sigma = sf.elementary_prefix(SequenceSpec("naturals", n), n)
        for m in range(n):
            if poly.coeff(m) != (n - m) * (-1) ** m * sigma[m]:
                failures.append((n, m))
    assert _report("7 pn-coefficient-law", not failures), failures


def test_criterion_8_cli_contract(capsys):
    ok = True
    # JSON / CSV round trip at rows <= 10 for every family
    for family in sorted(cli._FAMILIES):
        rows = cli.table_rows(family, 10)
        parsed = json.loads(cli.render_table(family, 10, "json"))
        csv_rows = [line.split(",")
                    for line in cli.render_table(family, 10, "csv").splitlines()]
        ok &= parsed["rows"] == rows and csv_rows == rows

    def exit_code(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code

    ok &= exit_code(["table", "--family", "ls1", "--rows", "4"]) == 0
    ok &= exit_code(["table", "--family", "bogus", "--rows", "4"]) == 2
    ok &= exit_code(["verify", "--suite", "ls_tables"]) == 0

    start = time.perf_counter()
    ok &= exit_code(["verify", "--suite", "all"]) == 0
    ok &= (time.perf_counter() - start) < 30.0
    capsys.readouterr()
    assert _report("8 cli-contract", ok)

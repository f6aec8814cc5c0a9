import hashlib
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from powersumkit import combinatorics, powersums, symfuncs, verify, zeta
from powersumkit.cli import main
from powersumkit.exact import ConsistencyError
from powersumkit.powersums import Method
from powersumkit.verify import SUITES, VerifyReport, run_suite


@pytest.mark.parametrize("name", sorted(SUITES) + ["all"])
def test_bound_below_1_is_rejected(name):
    """A bound of 0 or less is an error, not the default or an empty grid."""
    for bounds in [(0, None), (-3, None), (None, 0), (2, -1)]:
        with pytest.raises(ValueError, match="must be >= 1"):
            run_suite(name, *bounds)


@pytest.mark.parametrize("bad", [2.5, True, Fraction(2), -1])
def test_report_cells_is_a_count(bad):
    with pytest.raises((TypeError, ValueError), match="cells must be"):
        VerifyReport("x", cells=bad)


def test_unknown_suite_is_a_value_error():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")


def test_default_grids_keep_the_benchmark_cell_count():
    """`verify --suite all` at the default grids checks the number of cells
    the benchmark's oracle expects; a task there fails on any other count.
    The oracle file is read as a module of its own and imports nothing of
    the library."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    report = run_suite("all")
    assert report.ok and report.cells == oracles.VERIFY_ALL_CELLS
    # and per suite, so that no cells move from one suite to another
    assert {name: suite().cells for name, suite in SUITES.items()} == {
        "concordance": 1850, "orthogonality": 832, "ones": 225, "central": 234,
        "triangular": 144, "ls_tables": 72, "range": 520, "zeta": 33, "bernoulli": 88,
        "pn_coeffs": 78}


# sha256 of each suite's cell names at its default grid, joined by "\n"
# in the order its rows come
CELL_NAME_HASHES = {
    "concordance": "2d0019c07bdfd484063271ef51de65f40c9bd18d0ab6aa3f83f3efd23ad228b8",
    "orthogonality": "9644241ced56dfa2d0101884aae168ad4be7e37e866ef5a5ffba12ddcfa5fa23",
    "ones": "331f23f17e0b2e18867f5d881a4f9ffcb47edc0689195e1f98a8b1262d0453ea",
    "central": "6fceef4c3a8f1d37a1a8b62a0b826234972e136d87d0f22a739b8af92e598e67",
    "triangular": "760a14b32e389b9d8dcbf1bbb9df942aaae5a2300ed15c7bef12da1862fe9052",
    "ls_tables": "7a48190c6e78fddd7a4ac80e10eccdc68144e3c28d0628cd63b0ca78ca2e9a21",
    "range": "27968c26d16425d62f533733a6c28c8c258333fd0399f711c8bceda0988a3a22",
    "zeta": "b4e2faf5c801ce28b54c26c7594f8174ce1beeda2c55b75a15a7be7ca4cd8918",
    "bernoulli": "e7556d2b5577e1ff02e68cfadba9686d5f100af66a00f29ae8190e18b6746df9",
    "pn_coeffs": "f8564f8985296988c5c686560ceee4706bbcd8b32daae0f55a34e8a9f6c75279",
}


def test_default_grids_keep_every_cell_name_in_its_order():
    """A renamed, moved or reordered cell fails here even where the counts
    hold; the names are read off each suite's row generator, _<suite>."""
    hashes = {}
    for name in SUITES:
        cells = [cell for cell, _, _ in getattr(verify, f"_{name}")()]
        hashes[name] = hashlib.sha256("\n".join(cells).encode()).hexdigest()
    assert hashes == CELL_NAME_HASHES


def _raise(exc):
    def formula(*args):
        raise exc
    return formula


def test_a_formula_that_raises_fails_one_cell_and_the_sweep_goes_on(monkeypatch, capsys):
    others = sum(fn(3, 4).cells for name, fn in SUITES.items() if name != "central")
    monkeypatch.setattr(powersums, "s_odd_even_powers_poly",
                        _raise(ConsistencyError("non-integer value 1033/1023")))
    report = run_suite("all", 3, 4)
    assert report.failures == [(
        "central raised", "no exception",
        "ConsistencyError in formula: non-integer value 1033/1023")]
    assert report.cells == others + SUITES["central"](3, 4).cells
    assert main(["verify", "--suite", "all", "--k-max", "3", "--n-max", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("FAIL central raised: expected no exception, got "
                      "ConsistencyError in formula: non-integer value 1033/1023")
    assert out[-1].startswith("suite=all cells=") and " failures=1 " in out[-1]
    assert out[-1].endswith("[FAILED]")


def test_out_of_memory_in_a_formula_is_still_exit_2(monkeypatch):
    monkeypatch.setattr(powersums, "s_odd_even_powers_poly", _raise(MemoryError()))
    with pytest.raises(MemoryError):
        run_suite("central", 3, 4)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all", "--k-max", "3", "--n-max", "4"])
    assert exc.value.code == 2


def test_range_r1_cells_do_not_share_the_sum_they_check(monkeypatch):
    """The cells in the r = 1 places of the grid, `range r-stirling-cells`
    and `range central-cells`, check the sigma/h sum over triangle cells
    against direct sums that do not go through power_sum_from_sigma_h, so a
    fault in that sum fails every one of them."""
    shared = symfuncs.power_sum_from_sigma_h

    def off_by_one(sigma, h):
        return shared(sigma, h) + 1

    monkeypatch.setattr(symfuncs, "power_sum_from_sigma_h", off_by_one)
    monkeypatch.setattr(powersums, "power_sum_from_sigma_h", off_by_one)
    failed = [cell for cell, _, _ in run_suite("range", 3, 4).failures]
    for family in ("range r-stirling-cells ", "range central-cells "):
        assert len([cell for cell in failed if cell.startswith(family)]) == 3 * 4


def test_range_cells_check_the_signs_and_shifts_of_the_triangle_cells(monkeypatch):
    """The power sums read sigma and h straight off their variables, so the
    `range` cells are what checks the triangle cells those values equal: a
    central factorial cell of the first kind without its sign (-1)^(n-k)
    fails every `range central-cells` cell, and an r-Stirling cell of the
    second kind one too large in row 7 fails `range r-stirling-cells` cells
    with n <= 7, and no other cell."""
    central, r_second = combinatorics.central_factorial_first, combinatorics.r_stirling_second
    monkeypatch.setattr(combinatorics, "central_factorial_first",
                        lambda n, k, parity: abs(central(n, k, parity)))
    failed = {cell for cell, _, _ in run_suite("all").failures}
    assert failed == {f"range central-cells k={k} n={n}"
                      for k in range(1, 9) for n in range(1, 11)}
    monkeypatch.setattr(combinatorics, "central_factorial_first", central)
    monkeypatch.setattr(combinatorics, "r_stirling_second",
                        lambda n, k, r: r_second(n, k, r) + (n == 7))
    failed = {cell for cell, _, _ in run_suite("all").failures}
    assert "range r-stirling-cells k=1 n=7 r=4" in failed
    assert failed <= {f"range r-stirling-cells k={k} n={n} r={(n + 1) // 2}"
                      for k in range(1, 9) for n in range(1, 8)}


def test_concordance_brute_cells_do_not_check_brute_against_itself(monkeypatch):
    """The brute cells compare s_brute with a direct sum written in verify,
    so an error in s_brute fails all of them and no other cell."""
    brute = powersums.s_brute

    def off_by_one(k, n, r=1):
        return brute(k, n, r) + 1

    monkeypatch.setattr(powersums, "s_brute", off_by_one)
    monkeypatch.setitem(powersums._METHODS, Method.BRUTE, off_by_one)
    failed = {cell for cell, _, _ in run_suite("concordance").failures}
    assert failed == {f"concordance k={k} n={n} brute"
                      for k in range(1, 13) for n in range(1, 26)}


def test_a_fault_in_the_zeta_recursion_fails_the_bernoulli_cells_too(monkeypatch):
    """bernoulli_even_recursion reads g_k of the zeta(2k) recursion, so an
    error in g_4 fails `bernoulli even-recursion k=4`, checked against the
    defining recurrence of the Bernoulli numbers, as well as the zeta cells
    that read c_4."""
    table = zeta._zeta

    def faulty(k):
        g, d = table(k)
        if k == 4:
            g += Fraction(1, 10 ** 6)
        return g, d

    # the fault is in what the table returns, not in what it keeps, so
    # nothing is left to clear
    monkeypatch.setattr(zeta, "_zeta", faulty)
    failed = {cell for name in ("zeta", "bernoulli")
              for cell, _, _ in run_suite(name).failures}
    assert failed == {"zeta classical-oracle k=4", "bernoulli even-recursion k=4",
                      *(f"zeta h-consistency k={k}" for k in range(4, 16))}


def test_a_fault_in_the_tangent_numbers_fails_zeta_but_not_the_even_recursion(monkeypatch):
    """The `bernoulli even-recursion` cells take their expected side from the
    defining recurrence, not from the tangent numbers, so a wrong T_4 (and
    so a wrong B_8) fails `zeta classical-oracle k=4` and no even-recursion
    cell."""
    tangent = combinatorics._tangent_numbers

    def off_by_one(m):
        t = tangent(m)
        if m >= 4:
            t[4] += 1
        return t

    monkeypatch.setattr(combinatorics, "_tangent_numbers", off_by_one)
    combinatorics._bernoulli.cache_clear()
    try:
        failed = {cell for name in ("zeta", "bernoulli")
                  for cell, _, _ in run_suite(name).failures}
    finally:
        combinatorics._bernoulli.cache_clear()
    assert "zeta classical-oracle k=4" in failed
    assert not {cell for cell in failed if cell.startswith("bernoulli even-recursion")}


def test_a_fault_in_the_tangent_numbers_fails_both_bernoulli_power_sums(monkeypatch):
    """odd-bernoulli-poly reads B_8 from k = 4 on and triangular-binomial
    from k + j + 1 = 9 on, so a wrong T_4 (and so a wrong B_8) fails the
    `central` and `triangular` suites, and only in the cells of those two
    methods: both still read the tangent-number Bernoulli numbers."""
    tangent = combinatorics._tangent_numbers

    def off_by_one(m):
        t = tangent(m)
        if m >= 4:
            t[4] += 1
        return t

    monkeypatch.setattr(combinatorics, "_tangent_numbers", off_by_one)
    combinatorics._bernoulli.cache_clear()
    try:
        failures = {name: run_suite(name).failures for name in ("central", "triangular")}
    finally:
        combinatorics._bernoulli.cache_clear()
    # a wrong value fails a cell of the method; a non-integer one ends the
    # suite with one `raised` cell whose message names the method's form
    for name, cell, form in (("central", "central odd-poly",
                              "odd-power Bernoulli polynomial form"),
                             ("triangular", "triangular binomial",
                              "triangular binomial sum")):
        assert failures[name]
        for failed, _, actual in failures[name]:
            assert failed.startswith(cell) or (failed == f"{name} raised"
                                               and form in actual), (failed, actual)


ORTHO_TAGS = ("naturals", "squares", "odd_squares", "doubled_triangulars")


def test_orthogonality_builds_one_prefix_pair_per_variable_set(monkeypatch):
    """The sweep reads every k off one sigma prefix and one h prefix per
    (tag, n): 4 tags and n = 0..12 make 52 of each, not one pair per cell
    (832)."""
    calls = Counter()
    for name in ("elementary_prefix", "complete_prefix"):
        def counted(xs, M, dp=getattr(symfuncs, name), name=name):
            calls[name] += 1
            return dp(xs, M)
        monkeypatch.setattr(symfuncs, name, counted)
    report = run_suite("orthogonality")
    assert report.ok and report.cells == 832
    assert calls == {"elementary_prefix": 52, "complete_prefix": 52}


def test_a_wrong_h3_fails_every_orthogonality_cell_that_reads_it(monkeypatch):
    """With h_3 one too large, r_k moves by (-1)^(k-3) sigma_(k-3), which is
    nonzero exactly for 3 <= k <= n+3: so every tag and n fails from k = 3 up
    to the grid's k = 15 or to n+3, and the shared prefix still checks each k."""
    complete = symfuncs.complete_prefix

    def off_by_one(xs, M):
        h = complete(xs, M)
        if M >= 3:
            h[3] += 1
        return h

    monkeypatch.setattr(symfuncs, "complete_prefix", off_by_one)
    failed = {cell for cell, _, _ in run_suite("orthogonality").failures}
    assert failed == {f"orthogonality {tag} n={n} k={k}" for tag in ORTHO_TAGS
                      for n in range(13) for k in range(3, min(n + 3, 15) + 1)}

"""Verification sweeps over every identity in the library.

Each suite exhaustively checks one family of identities over a desk-scale
grid.  A suite is a generator of rows (cell, expected, actual), the cell
names in a fixed order, and computes both sides of each row; it neither
counts nor compares.  One runner per suite, registered by _suite in SUITES,
does the rest: it counts the rows, compares each pair exactly (there are
no tolerances anywhere), times the suite and reports the failing cells.  A
formula that raises (MemoryError aside) ends its suite with one failed
cell, and the other suites still run.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from fractions import Fraction
from math import comb

from . import combinatorics as cmb
from . import powersums as ps
from . import symfuncs as sf
from . import zeta as zt
from .exact import _check_int
from .goldens import LS_FIRST_ROWS_0_TO_7, LS_SECOND_ROWS_0_TO_7
from .sequences import sequence

__all__ = ["VerifyReport", "SUITES", "run_suite"]


class VerifyReport:
    def __init__(self, suite: str, cells: int = 0,
                 failures: list[tuple[str, str, str]] | None = None,
                 elapsed: float = 0.0):
        _check_int("cells", cells, 0)
        self.suite = suite
        self.cells = cells
        self.failures = [] if failures is None else failures  # (cell, expected, actual)
        self.elapsed = elapsed

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (f"suite={self.suite} cells={self.cells} "
                f"failures={len(self.failures)} elapsed={self.elapsed:.3f}s [{status}]")


def _suite(rows):
    """Register the runner of the row generator rows(k_max, n_max) as
    SUITES[name], name being rows' own name without its underscore.  The
    generator's defaults are the suite's default grid, and a bound it
    ignores defaults to None.  The runner checks the bounds it is given,
    counts each row, fails each whose expected != actual, times the suite
    and sorts its failures by cell; a row that raises (MemoryError aside)
    ends the suite with one failed cell, `<name> raised`."""
    name = rows.__name__[1:]

    def run(k_max: int | None = None, n_max: int | None = None) -> VerifyReport:
        bounds = {key: bound for key, bound in (("k_max", k_max), ("n_max", n_max))
                  if bound is not None}
        for bound in bounds.values():
            _check_int("k_max and n_max", bound, 1)
        cells, failures = 0, []
        start = time.perf_counter()
        try:
            for cell, expected, actual in rows(**bounds):
                cells += 1
                if expected != actual:
                    failures.append((cell, repr(expected), repr(actual)))
        except MemoryError:
            raise
        except Exception as exc:
            import traceback  # only a suite that raises pays for the import
            where = traceback.extract_tb(exc.__traceback__)[-1].name
            cells += 1
            failures.append((f"{name} raised", "no exception",
                             f"{type(exc).__name__} in {where}: {exc}"))
        elapsed = time.perf_counter() - start
        failures.sort(key=lambda f: f[0])
        return VerifyReport(name, cells=cells, failures=failures, elapsed=elapsed)
    SUITES[name] = run
    return rows


SUITES: dict[str, Callable[..., VerifyReport]] = {}


@_suite
def _concordance(k_max=12, n_max=25) -> Iterator[tuple]:
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            expected = sum(i ** k for i in range(1, n + 1))
            for method, value in ps.concordance(k, n).items():
                yield f"concordance k={k} n={n} {method.value}", expected, value
        # k = 0: both Lang forms must give n
        yield f"concordance k=0 n={n} lang-original", n, ps.s_lang_original(0, n)
        yield f"concordance k=0 n={n} lang-refined", n, ps.s_lang_refined(0, n)


_ORTHO_TAGS = ("naturals", "squares", "odd_squares", "doubled_triangulars")


@_suite
def _orthogonality(k_max=15, n_max=12) -> Iterator[tuple]:
    for tag in _ORTHO_TAGS:
        for n in range(0, n_max + 1):
            residuals = sf.orthogonality_residuals(sequence(tag, n), k_max)
            for k, residual in enumerate(residuals):
                yield (f"orthogonality {tag} n={n} k={k}",
                       Fraction(1 if k == 0 else 0), residual)


@_suite
def _ones(k_max=15, n_max=15) -> Iterator[tuple]:
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            yield f"ones k={k} n={n}", 0, ps.ones_identity_residual(k, n)


@_suite
def _central(k_max=6, n_max=15) -> Iterator[tuple]:
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            yield f"central even k={k} n={n}", ps.s_brute(2 * k, n), ps.s_even_powers(k, n)
        for n in range(1, min(n_max, 12) + 1):
            direct = sum((2 * i - 1) ** (2 * k) for i in range(1, n + 1))
            yield f"central odd k={k} n={n}", direct, ps.s_odd_even_powers(k, n)
            yield f"central odd-poly k={k} n={n}", direct, ps.s_odd_even_powers_poly(k, n)


@_suite
def _triangular(k_max=6, n_max=12) -> Iterator[tuple]:
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            direct = sum((i * (i + 1) // 2) ** k for i in range(1, n + 1))
            yield f"triangular ls k={k} n={n}", direct, ps.triangular_sum_ls(k, n)
            yield f"triangular binomial k={k} n={n}", direct, ps.triangular_sum_binomial(k, n)


@_suite
def _ls_tables(k_max=None, n_max=None) -> Iterator[tuple]:
    for n, row in enumerate(LS_FIRST_ROWS_0_TO_7):
        for j, expected in enumerate(row):
            yield f"ls1 n={n} j={j}", expected, cmb.legendre_stirling_first(n, j)
    for n, row in enumerate(LS_SECOND_ROWS_0_TO_7):
        for j, expected in enumerate(row):
            yield f"ls2 n={n} j={j}", expected, cmb.legendre_stirling_second(n, j)


@_suite
def _range(k_max=8, n_max=10) -> Iterator[tuple]:
    even, odd = cmb.Parity.EVEN, cmb.Parity.ODD
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            # the triangle cells equal to the sigma_m and h_j that s_range,
            # s_even_powers and s_odd_even_powers read straight off their
            # variables, signs and index shifts included
            r = (n + 1) // 2
            sigma = [cmb.r_stirling_first(n + 1, n + 1 - m, r) for m in range(1, k + 1)]
            h = [cmb.r_stirling_second(n + j, n, r) for j in range(k)]
            yield (f"range r-stirling-cells k={k} n={n} r={r}",
                   ps.s_brute(k, n, r), sf.power_sum_from_sigma_h(sigma, h))
            even_sigma = [(-1) ** m * cmb.central_factorial_first(n + 1, n + 1 - m, even)
                          for m in range(1, k + 1)]
            even_h = [cmb.central_factorial_second(n + j, n, even) for j in range(k)]
            odd_sigma = [(-1) ** m * cmb.central_factorial_first(n, n - m, odd)
                         for m in range(1, k + 1)]
            odd_h = [cmb.central_factorial_second(n - 1 + j, n - 1, odd) for j in range(k)]
            yield (f"range central-cells k={k} n={n}",
                   (sum(i ** (2 * k) for i in range(1, n + 1)),
                    sum((2 * i - 1) ** (2 * k) for i in range(1, n + 1))),
                   (sf.power_sum_from_sigma_h(even_sigma, even_h),
                    sf.power_sum_from_sigma_h(odd_sigma, odd_h)))
            for r in range(2, n + 1):
                expected = ps.s_brute(k, n) - ps.s_brute(k, r - 1)
                yield f"range telescoping k={k} n={n} r={r}", expected, ps.s_range(k, n, r)


@_suite
def _zeta(k_max=15, n_max=None) -> Iterator[tuple]:
    # read first from a cold table, k_max is built in one block, in which
    # the step rescales its ints as the running lcm grows; ascending reads
    # alone build one term per step and never rescale
    zt.zeta_even_exact(k_max)
    for k in range(1, k_max + 1):
        yield f"zeta classical-oracle k={k}", zt.zeta_even_classical(k), zt.zeta_even_exact(k)
        yield f"zeta h-consistency k={k}", Fraction(0), zt.h_inverse_squares_check(k)
    yield "zeta k=1 coeff", Fraction(1, 6), zt.zeta_even_exact(1).coeff
    yield "zeta k=2 coeff", Fraction(1, 90), zt.zeta_even_exact(2).coeff
    yield "zeta k=3 coeff", Fraction(1, 945), zt.zeta_even_exact(3).coeff


def _bernoulli_by_recurrence(k_max: int) -> list[Fraction]:
    """B_0..B_k_max from the defining recurrence sum_{j<=k} C(k+1, j) B_j = 0,
    a route that reads neither the tangent numbers nor the zeta(2k) table."""
    b = [Fraction(1)]
    for k in range(1, k_max + 1):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


@_suite
def _bernoulli(k_max=25, n_max=8) -> Iterator[tuple]:
    for k in range(1, k_max + 1):
        yield (f"bernoulli binomial-identity k={k}",
               Fraction(0), zt.bernoulli_binomial_identity(k))
    even_k_max = min(k_max, 15)
    oracle = _bernoulli_by_recurrence(2 * even_k_max)
    for k in range(1, even_k_max + 1):
        yield f"bernoulli even-recursion k={k}", oracle[2 * k], zt.bernoulli_even_recursion(k)
    for k in range(1, min(k_max, 6) + 1):
        for n in range(1, n_max + 1):
            yield (f"bernoulli merca-ls k={k} n={n}",
                   Fraction(0), zt.merca_ls_bernoulli_identity(k, n))


@_suite
def _pn_coeffs(k_max=None, n_max=12) -> Iterator[tuple]:
    for n in range(1, n_max + 1):
        poly = sf.pn_polynomial_coeffs(n)
        sig = sf.elementary_prefix(sequence("naturals", n), n)
        for m in range(0, n):
            expected = (n - m) * sig[m] * (-1 if m % 2 else 1)
            yield f"pn n={n} m={m}", expected, poly.coeffs[m]


def run_suite(name: str, k_max: int | None = None,
              n_max: int | None = None) -> VerifyReport:
    """Run one suite, or every suite when name == 'all'."""
    if name == "all":
        start = time.perf_counter()
        reports = [suite(k_max, n_max) for suite in SUITES.values()]
        return VerifyReport("all", cells=sum(report.cells for report in reports),
                            failures=[f for report in reports for f in report.failures],
                            elapsed=time.perf_counter() - start)
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}")
    return suite(k_max, n_max)

"""Verification sweeps over every identity in the library.

Each suite exhaustively checks one family of identities over a desk-scale
grid and reports the failing cells, if any.  All comparisons are exact;
there are no tolerances anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import combinatorics as cmb
from . import powersums as ps
from . import symfuncs as sf
from . import zeta as zt
from .exact import _check_int
from .goldens import LS_FIRST_ROWS_0_TO_7, LS_SECOND_ROWS_0_TO_7
from .sequences import SequenceSpec

__all__ = ["VerifyReport", "SUITES", "run_suite"]


@dataclass
class VerifyReport:
    suite: str
    cells: int = 0
    failures: List[Tuple[str, str, str]] = field(default_factory=list)  # (cell, expected, actual)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, cell: str, expected, actual) -> None:
        self.cells += 1
        if expected != actual:
            self.failures.append((cell, repr(expected), repr(actual)))

    def merge(self, other: "VerifyReport") -> None:
        self.cells += other.cells
        self.failures.extend(other.failures)

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (f"suite={self.suite} cells={self.cells} "
                f"failures={len(self.failures)} elapsed={self.elapsed:.3f}s [{status}]")


def _suite(name: str, k: Optional[int] = None, n: Optional[int] = None):
    """Register fn(report, k_max, n_max) as SUITES[name]; k and n are the
    default grid bounds, None where the suite ignores that bound."""
    def wrap(fn):
        def run(k_max: Optional[int] = None, n_max: Optional[int] = None) -> VerifyReport:
            for bound in (k_max, n_max):
                if bound is not None:
                    _check_int("k_max and n_max", bound, 1)
            report = VerifyReport(name)
            start = time.perf_counter()
            fn(report, k if k_max is None else k_max, n if n_max is None else n_max)
            report.elapsed = time.perf_counter() - start
            report.failures.sort(key=lambda f: f[0])
            return report
        SUITES[name] = run
        return run
    return wrap


SUITES: Dict[str, Callable[..., VerifyReport]] = {}


@_suite("concordance", k=12, n=25)
def _concordance(rep: VerifyReport, k_max, n_max) -> None:
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            expected = ps.s_brute(k, n)
            for method, value in ps.concordance(k, n).items():
                rep.check(f"concordance k={k} n={n} {method.value}", expected, value)
        # k = 0: both Lang forms must give n
        rep.check(f"concordance k=0 n={n} lang-original", n, ps.s_lang_original(0, n))
        rep.check(f"concordance k=0 n={n} lang-refined", n, ps.s_lang_refined(0, n))


_ORTHO_TAGS = ("naturals", "squares", "odd_squares", "doubled_triangulars")


@_suite("orthogonality", k=15, n=12)
def _orthogonality(rep: VerifyReport, k_max, n_max) -> None:
    for tag in _ORTHO_TAGS:
        for n in range(0, n_max + 1):
            seq = SequenceSpec(tag, n)
            for k in range(0, k_max + 1):
                expected = Fraction(1 if k == 0 else 0)
                rep.check(f"orthogonality {tag} n={n} k={k}",
                          expected, sf.orthogonality_residual(seq, k))


@_suite("ones", k=15, n=15)
def _ones(rep: VerifyReport, k_max, n_max) -> None:
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            rep.check(f"ones k={k} n={n}", 0, ps.ones_identity_residual(k, n))


@_suite("central", k=6, n=15)
def _central(rep: VerifyReport, k_max, n_max) -> None:
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            rep.check(f"central even k={k} n={n}",
                      ps.s_brute(2 * k, n), ps.s_even_powers(k, n))
        for n in range(1, min(n_max, 12) + 1):
            direct = sum((2 * i - 1) ** (2 * k) for i in range(1, n + 1))
            rep.check(f"central odd k={k} n={n}", direct, ps.s_odd_even_powers(k, n))
            rep.check(f"central odd-poly k={k} n={n}",
                      direct, ps.s_odd_even_powers_poly(k, n))


@_suite("triangular", k=6, n=12)
def _triangular(rep: VerifyReport, k_max, n_max) -> None:
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            direct = sum((i * (i + 1) // 2) ** k for i in range(1, n + 1))
            rep.check(f"triangular ls k={k} n={n}", direct, ps.triangular_sum_ls(k, n))
            rep.check(f"triangular binomial k={k} n={n}",
                      direct, ps.triangular_sum_binomial(k, n))


@_suite("ls_tables")
def _ls_tables(rep: VerifyReport, k_max, n_max) -> None:
    for n, row in enumerate(LS_FIRST_ROWS_0_TO_7):
        for j, expected in enumerate(row):
            rep.check(f"ls1 n={n} j={j}", expected, cmb.legendre_stirling_first(n, j))
    for n, row in enumerate(LS_SECOND_ROWS_0_TO_7):
        for j, expected in enumerate(row):
            rep.check(f"ls2 n={n} j={j}", expected, cmb.legendre_stirling_second(n, j))


@_suite("range", k=8, n=10)
def _range(rep: VerifyReport, k_max, n_max) -> None:
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            rep.check(f"range r=1 k={k} n={n}",
                      ps.s_lang_refined(k, n), ps.s_range(k, n, 1))
            for r in range(1, n + 1):
                expected = ps.s_brute(k, n) - (ps.s_brute(k, r - 1) if r >= 2 else 0)
                rep.check(f"range telescoping k={k} n={n} r={r}",
                          expected, ps.s_range(k, n, r))


@_suite("zeta", k=15)
def _zeta(rep: VerifyReport, k_max, n_max) -> None:
    for k in range(1, k_max + 1):
        rep.check(f"zeta classical-oracle k={k}",
                  zt.zeta_even_classical(k), zt.zeta_even_exact(k))
        rep.check(f"zeta h-consistency k={k}",
                  Fraction(0), zt.h_inverse_squares_check(k))
    rep.check("zeta k=1 coeff", Fraction(1, 6), zt.zeta_even_exact(1).coeff)
    rep.check("zeta k=2 coeff", Fraction(1, 90), zt.zeta_even_exact(2).coeff)
    rep.check("zeta k=3 coeff", Fraction(1, 945), zt.zeta_even_exact(3).coeff)


@_suite("bernoulli", k=25, n=8)
def _bernoulli(rep: VerifyReport, k_max, n_max) -> None:
    for k in range(1, k_max + 1):
        rep.check(f"bernoulli binomial-identity k={k}",
                  Fraction(0), zt.bernoulli_binomial_identity(k))
    for k in range(1, min(k_max, 15) + 1):
        rep.check(f"bernoulli even-recursion k={k}",
                  cmb.bernoulli_number(2 * k), zt.bernoulli_even_recursion(k))
    for k in range(1, min(k_max, 6) + 1):
        for n in range(1, n_max + 1):
            rep.check(f"bernoulli merca-ls k={k} n={n}",
                      Fraction(0), zt.merca_ls_bernoulli_identity(k, n))


@_suite("pn_coeffs", n=12)
def _pn_coeffs(rep: VerifyReport, k_max, n_max) -> None:
    for n in range(1, n_max + 1):
        poly = sf.pn_polynomial_coeffs(n)
        sig = sf.elementary_prefix(SequenceSpec("naturals", n), n)
        for m in range(0, n):
            expected = (n - m) * sig[m] * (-1 if m % 2 else 1)
            rep.check(f"pn n={n} m={m}", expected, poly.coeff(m))


def run_suite(name: str, k_max: Optional[int] = None,
              n_max: Optional[int] = None) -> VerifyReport:
    """Run one suite, or every suite when name == 'all'."""
    if name == "all":
        total = VerifyReport("all")
        start = time.perf_counter()
        for suite_name, fn in SUITES.items():
            total.merge(fn(k_max, n_max))
        total.elapsed = time.perf_counter() - start
        return total
    return SUITES[name](k_max, n_max)

"""Command-line front end.

Subcommands:
  table     --family F --rows N [--format plain|csv|json]
  powersum  --k K --n N [--r R] [--method M|all]
  verify    --suite S [--k-max K] [--n-max N]
  zeta      --k K

Exit codes: 0 success, 1 verification failure, 2 usage error or out of
memory.
All numeric output is exact; the only floating-point rendering is the
clearly-marked decimal approximation printed by `zeta`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Dict, List

from . import combinatorics as cmb
from . import powersums as ps
from .verify import SUITES, run_suite
from .zeta import zeta_even_exact

DEFAULT_ROWS_CAP = 64
ROWS_CAP_ENV = "POWERSUMKIT_ROWS_CAP"

# 50 decimal digits of pi; presentation only, never used in computation
PI_50 = Fraction("3.14159265358979323846264338327950288419716939937510")


def _rows_cap(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get(ROWS_CAP_ENV)
    if raw is None:
        return DEFAULT_ROWS_CAP
    if not (raw.isascii() and raw.isdigit()):
        parser.error(f"{ROWS_CAP_ENV} must be an integer >= 0, got {raw!r}")
    return int(raw)


_FAMILIES: Dict[str, Callable[[int, int], object]] = {
    "stirling1": cmb.stirling_first_unsigned,
    "stirling2": cmb.stirling_second,
    "ls1": cmb.legendre_stirling_first,
    "ls2": cmb.legendre_stirling_second,
    "central_u": lambda n, k: cmb.central_factorial_first(n, k, cmb.Parity.EVEN),
    "central_U": lambda n, k: cmb.central_factorial_second(n, k, cmb.Parity.EVEN),
    "central_v": lambda n, k: cmb.central_factorial_first(n, k, cmb.Parity.ODD),
    "central_V": lambda n, k: cmb.central_factorial_second(n, k, cmb.Parity.ODD),
    "bernoulli": None,  # handled specially: one value per row
}


def table_rows(family: str, rows: int) -> List[List[str]]:
    """Triangle rows 0..rows as exact decimal / fraction strings."""
    if family == "bernoulli":
        return [[str(cmb.bernoulli_number(n))] for n in range(rows + 1)]
    cell = _FAMILIES[family]
    return [[str(cell(n, k)) for k in range(n + 1)] for n in range(rows + 1)]


def render_table(family: str, rows: int, fmt: str) -> str:
    data = table_rows(family, rows)
    if fmt == "plain":
        return "\n".join(" ".join(row) for row in data) + "\n"
    if fmt == "csv":
        return "\n".join(",".join(row) for row in data) + "\n"
    if fmt == "json":
        return json.dumps({"family": family, "rows": data}) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cap = _rows_cap(parser)
    if args.rows < 0 or args.rows > cap:
        parser.error(f"--rows must be in [0, {cap}]")
    sys.stdout.write(render_table(args.family, args.rows, args.format))
    return 0


def _cmd_powersum(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    k, n, r = args.k, args.n, args.r
    if k < 0 or n < 1 or r < 1 or r > n:
        parser.error("need k >= 0, n >= 1, 1 <= r <= n")
    if args.method == "all":
        values = ps.concordance(k, n, r)
        for method, value in values.items():
            print(f"{method.value}: {value}")
        verdict = "OK" if len(set(values.values())) == 1 else "MISMATCH"
        print(f"concordance: {verdict}")
        return 0 if verdict == "OK" else 1
    try:
        value = ps.compute(args.method, k, n, r)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"{args.method}: {value}")
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    report = run_suite(args.suite, args.k_max, args.n_max)
    for cell, expected, actual in report.failures:
        print(f"FAIL {cell}: expected {expected}, got {actual}")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_zeta(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    k = args.k
    if k < 1:
        parser.error("--k must be >= 1")
    value = zeta_even_exact(k)
    print(f"zeta({2 * k}) = {value.coeff} · π^{2 * k}")
    approx = value.coeff * PI_50 ** (2 * k)
    print(f"zeta({2 * k}) ≈ {float(approx):.15g}  (decimal rendering only)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powersumkit",
        description="Exact power-sum formulas, special number triangles, "
                    "identity verification, and even zeta values.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a number triangle")
    p_table.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    p_table.add_argument("--rows", required=True, type=int)
    p_table.add_argument("--format", default="plain", choices=["plain", "csv", "json"])
    p_table.set_defaults(fn=_cmd_table)

    p_ps = sub.add_parser("powersum", help="compute a power sum by any method")
    p_ps.add_argument("--k", required=True, type=int)
    p_ps.add_argument("--n", required=True, type=int)
    p_ps.add_argument("--r", type=int, default=1)
    p_ps.add_argument("--method", default="all",
                      choices=["all"] + [m.value for m in ps.Method])
    p_ps.set_defaults(fn=_cmd_powersum)

    p_verify = sub.add_parser("verify", help="run an identity verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--k-max", type=int, default=None)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.set_defaults(fn=_cmd_verify)

    p_zeta = sub.add_parser("zeta", help="exact zeta at an even argument")
    p_zeta.add_argument("--k", required=True, type=int)
    p_zeta.set_defaults(fn=_cmd_zeta)

    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except MemoryError:
        parser.exit(2, f"{parser.prog}: error: out of memory; try smaller inputs\n")


if __name__ == "__main__":
    sys.exit(main())

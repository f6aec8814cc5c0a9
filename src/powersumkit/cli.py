"""Command-line front end.

Subcommands:
  table     --family F --rows N [--format plain|csv|json]
  powersum  --k K --n N [--r R] [--method M|all]
  verify    --suite S [--k-max K] [--n-max N]
  zeta      --k K

Exit codes: 0 success, 1 verification failure, 2 usage error (a
ValueError from the library), out of memory, or an input too large for
the interpreter (an OverflowError).
All numeric output is exact, and printed in full; the only floating-point
rendering is the clearly-marked decimal approximation printed by `zeta`.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from fractions import Fraction

from . import combinatorics as cmb
from . import powersums as ps
from .exact import _check_int
from .verify import SUITES, run_suite
from .zeta import zeta_even_exact

ROWS_CAP = 64

# 50 decimal digits of pi; presentation only, never used in computation
PI_50 = Fraction("3.14159265358979323846264338327950288419716939937510")


def _sigma_h(family: str) -> Callable[[int], list[list[int]]]:
    return lambda rows: cmb.sigma_h_triangle(family, rows)


# family -> rows 0..rows of its table, looked up in cmb at call time so
# that a rebinding of its functions (perfbench/tracer.py) is seen.  The six
# sigma/h families are read off one DP pass each, the others cell by cell.
_FAMILIES: dict[str, Callable[[int], list[list[object]]]] = {
    "stirling1": lambda rows: [[cmb.stirling_first_unsigned(n, k) for k in range(n + 1)]
                               for n in range(rows + 1)],
    "stirling2": lambda rows: [[cmb.stirling_second(n, k) for k in range(n + 1)]
                               for n in range(rows + 1)],
    **{family: _sigma_h(family) for family in cmb.SIGMA_H_FAMILIES},
    "bernoulli": lambda rows: [[cmb.bernoulli_number(n)] for n in range(rows + 1)],
}


def table_rows(family: str, rows: int) -> list[list[str]]:
    """Rows 0..rows as exact decimal / fraction strings."""
    table = _FAMILIES.get(family)
    if table is None:
        raise ValueError(f"unknown family {family!r}")
    _check_int("rows", rows, 0)
    return [[str(cell) for cell in row] for row in table(rows)]


def render_table(family: str, rows: int, fmt: str) -> str:
    """The table as text: rows of cells joined by a separator, or JSON.  The
    format is checked before any cell is built."""
    if fmt == "json":
        import json  # here, so that no other call pays for the import
        return json.dumps({"family": family, "rows": table_rows(family, rows)}) + "\n"
    sep = {"plain": " ", "csv": ","}.get(fmt)
    if sep is None:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(sep.join(row) for row in table_rows(family, rows)) + "\n"


def _cmd_table(args: argparse.Namespace) -> int:
    if args.rows < 0 or args.rows > ROWS_CAP:
        raise ValueError(f"--rows must be in [0, {ROWS_CAP}]")
    sys.stdout.write(render_table(args.family, args.rows, args.format))
    return 0


def _cmd_powersum(args: argparse.Namespace) -> int:
    if args.method != "all":
        print(f"{args.method}: {ps.compute(args.method, args.k, args.n, args.r)}")
        return 0
    values = ps.concordance(args.k, args.n, args.r)
    for method, value in values.items():
        print(f"{method.value}: {value}")
    verdict = "OK" if len(set(values.values())) == 1 else "MISMATCH"
    print(f"concordance: {verdict}")
    return 0 if verdict == "OK" else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, args.k_max, args.n_max)
    for cell, expected, actual in report.failures:
        print(f"FAIL {cell}: expected {expected}, got {actual}")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_zeta(args: argparse.Namespace) -> int:
    k = args.k
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # print exact values of any size: lift the int-to-str digit limit, if any
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    try:
        set_limit(0)
        return args.fn(args)
    except ValueError as exc:
        parser.error(str(exc))
    except MemoryError:
        parser.exit(2, f"{parser.prog}: error: out of memory; try smaller inputs\n")
    except OverflowError as exc:
        parser.exit(2, f"{parser.prog}: error: input too large: {exc}\n")
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())

"""Reference values for every output the benchmark checks.

Nothing here imports powersumkit, so no check can pass because it ran the
code path it is meant to check:

- power sums come from direct summation;
- number triangles come from their own row recurrences;
- Bernoulli numbers come from tangent numbers (Brent & Harvey), an
  all-integer route unlike the library's Fraction recurrence;
- zeta(2k) comes from the Bernoulli closed form over those numbers;
- a verify run is judged by its summary line and the known cell count.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial, pi

# T(n, k) = T(n-1, k-1) + w(n, k) * T(n-1, k) with T(0, 0) = 1.
TRIANGLE_WEIGHTS = {
    "stirling1": lambda n, k: n - 1,
    "stirling2": lambda n, k: k,
    "ls1": lambda n, k: -n * (n - 1),
    "ls2": lambda n, k: k * (k + 1),
    "central_u": lambda n, k: -(n - 1) ** 2,
    "central_U": lambda n, k: k * k,
    "central_v": lambda n, k: -(2 * n - 1) ** 2,
    "central_V": lambda n, k: (2 * k + 1) ** 2,
}

# Cells checked by `verify --suite all` at its default grids.
VERIFY_ALL_CELLS = 4076
_VERIFY_SUMMARY = re.compile(
    r"suite=all cells=(\d+) failures=0 elapsed=\d+\.\d{3}s \[ok\]")


def triangle(family: str, rows: int) -> list[list[int]]:
    """Rows 0..rows of a number triangle from its row recurrence."""
    weight = TRIANGLE_WEIGHTS[family]
    out = [[1]]
    for n in range(1, rows + 1):
        prev = out[-1]
        out.append([(prev[k - 1] if k else 0) + (weight(n, k) * prev[k] if k < n else 0)
                    for k in range(n + 1)])
    return out


def tangent_numbers(m: int) -> list[int]:
    """[T_1, ..., T_m] by Brent & Harvey's in-place integer recurrence."""
    t = [0] * (m + 1)
    if m >= 1:
        t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_numbers(kmax: int) -> list[Fraction]:
    """[B_0, ..., B_kmax] with B_1 = -1/2, from tangent numbers:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    b = [Fraction(0)] * (kmax + 1)
    b[0] = Fraction(1)
    if kmax >= 1:
        b[1] = Fraction(-1, 2)
    for k, t in enumerate(tangent_numbers(kmax // 2), start=1):
        value = Fraction(2 * k * t, 4 ** k * (4 ** k - 1))
        b[2 * k] = value if k % 2 else -value
    return b


def method_sum(method: str, k: int, n: int, r: int = 1) -> int:
    """What powersums method `method` must return, by direct summation."""
    if method == "even-central":
        return sum(i ** (2 * k) for i in range(1, n + 1))
    if method in ("odd-central", "odd-bernoulli-poly"):
        return sum((2 * i - 1) ** (2 * k) for i in range(1, n + 1))
    if method in ("triangular-ls", "triangular-binomial"):
        return sum((i * (i + 1) // 2) ** k for i in range(1, n + 1))
    return sum(i ** k for i in range(r, n + 1))


class Reference:
    """Precomputed triangles and Bernoulli numbers, plus the checks that
    compare a task's output with them."""

    def __init__(self, rows: int, bernoulli_max: int):
        self.bernoulli = bernoulli_numbers(max(bernoulli_max, rows))
        self.triangles = {family: triangle(family, rows) for family in TRIANGLE_WEIGHTS}
        self.triangles["bernoulli"] = [[b] for b in self.bernoulli[:rows + 1]]

    def zeta_coeff(self, k: int) -> Fraction:
        """Coefficient of pi^(2k) in zeta(2k) = (-1)^(k+1) B_2k 2^(2k-1) / (2k)!."""
        coeff = self.bernoulli[2 * k] * Fraction(2 ** (2 * k - 1), factorial(2 * k))
        return coeff if k % 2 else -coeff

    def table_output(self, family: str, rows: int, fmt: str) -> str:
        """Exact stdout of `table --family F --rows R --format fmt`."""
        cells = [[str(v) for v in row] for row in self.triangles[family][:rows + 1]]
        if fmt == "json":
            return json.dumps({"family": family, "rows": cells}) + "\n"
        sep = " " if fmt == "plain" else ","
        return "\n".join(sep.join(row) for row in cells) + "\n"

    def expected_output(self, kind: str, args: tuple) -> str:
        """The stdout a cold task must print; a verify run may differ in its
        elapsed time and zeta in the last digit of its decimal rendering."""
        if kind == "table":
            return self.table_output(*args)
        if kind == "powersum":
            method, k, n = args
            return f"{method}: {method_sum(method, k, n)}\n"
        if kind == "bernoulli":
            return str(self.bernoulli[args[0]])
        if kind == "zeta":
            (k,) = args
            return (f"zeta({2 * k}) = {self.zeta_coeff(k)} · π^{2 * k}\n"
                    f"zeta({2 * k}) ≈ {self._zeta_float(k):.15g}  (decimal rendering only)\n")
        if kind == "verify":
            return f"suite=all cells={VERIFY_ALL_CELLS} failures=0 elapsed=0.000s [ok]\n"
        raise ValueError(f"unknown task kind {kind!r}")

    def check(self, kind: str, args: tuple, rc, out: str) -> bool:
        """True when a cold task exited 0 with the expected output."""
        if rc != 0:
            return False
        if kind == "zeta":
            return self._check_zeta(args[0], out)
        if kind == "verify":
            match = _VERIFY_SUMMARY.fullmatch(out.rstrip("\n"))
            return match is not None and int(match.group(1)) == VERIFY_ALL_CELLS
        return out == self.expected_output(kind, args)

    def _zeta_float(self, k: int) -> float:
        return float(self.zeta_coeff(k) * Fraction(pi) ** (2 * k))

    def _check_zeta(self, k: int, out: str) -> bool:
        lines = out.splitlines()
        if len(lines) != 2 or lines[0] != f"zeta({2 * k}) = {self.zeta_coeff(k)} · π^{2 * k}":
            return False
        head, _, tail = lines[1].partition(" ≈ ")
        approx, _, note = tail.partition("  ")
        try:
            value = float(approx)
        except ValueError:
            return False
        expected = self._zeta_float(k)
        return (head == f"zeta({2 * k})" and note == "(decimal rendering only)"
                and abs(value - expected) <= 1e-12 * expected)

    def check_query(self, kind: str, args: tuple, value) -> bool:
        """True when a library query returned the expected value."""
        if kind == "compute":
            method, k, n, r = args
            return value == method_sum(method.value, k, n, r)
        if kind == "zeta":
            (k,) = args
            return value.half_exponent == k and value.coeff == self.zeta_coeff(k)
        if kind == "bernoulli":
            return value == self.bernoulli[args[0]]
        family = kind.split(":", 1)[1]
        n, k = args[0], args[1]
        return value == self.triangles[family][n][k]

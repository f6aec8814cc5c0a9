"""The CLI's stdout over a fixed sweep of argvs, pinned by hash.

tests/cli_stdout.json maps each argv of the sweep to its exit code and the
sha256 of its stdout, with verify's `elapsed=...s` masked.  A change that
must leave every output as it is keeps this test passing; a change that
alters an output on purpose regenerates the file, from the repository
root, with

    PYTHONPATH=src python tests/test_cli_stdout.py > tests/cli_stdout.json
"""

import hashlib
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from powersumkit.cli import _FAMILIES, main
from powersumkit.powersums import Method
from powersumkit.verify import SUITES

GOLDEN = Path(__file__).with_name("cli_stdout.json")
_ELAPSED = re.compile(r"elapsed=[0-9.]+s")


def sweep() -> list:
    """The argvs, each as one space-separated string."""
    argvs = [f"table --family {family} --rows {rows} --format {fmt}"
             for family in sorted(_FAMILIES) for rows in (0, 1, 7, 12)
             for fmt in ("plain", "csv", "json")]
    argvs += [f"table --family {family} --rows 64" for family in sorted(_FAMILIES)]
    argvs += [f"powersum --k {k} --n {n}" for k in range(7) for n in range(1, 9)]
    argvs += [f"powersum --k {k} --n {n} --r {r}"
              for k in range(1, 4) for n in (3, 5) for r in range(2, n + 1)]
    argvs += [f"powersum --k 3 --n 5 --method {m.value}" for m in Method]
    argvs += [f"zeta --k {k}" for k in range(1, 21)]
    argvs += [f"verify --suite {suite} --k-max 3 --n-max 4" for suite in sorted(SUITES) + ["all"]]
    return argvs


def outcome(argv: str) -> dict:
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
    masked = _ELAPSED.sub("elapsed=…s", out.getvalue())
    return {"exit": code, "sha256": hashlib.sha256(masked.encode()).hexdigest()}


def outcomes() -> dict:
    return {argv: outcome(argv) for argv in sweep()}


def test_cli_stdout_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(sweep())
    changed = [argv for argv, got in outcomes().items() if got != golden[argv]]
    assert changed == [], f"stdout or exit code changed for: {changed}"


if __name__ == "__main__":
    print("{\n" + ",\n".join(f" {json.dumps(argv)}: {json.dumps(got)}"
                              for argv, got in outcomes().items()) + "\n}")

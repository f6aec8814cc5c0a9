import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

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

import pytest

from powersumkit.verify import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES) + ["all"])
def test_bound_below_1_is_rejected(name):
    """A bound of 0 or less is an error, not the default or an empty grid."""
    for bounds in [(0, None), (-3, None), (None, 0), (2, -1)]:
        with pytest.raises(ValueError, match="must be >= 1"):
            run_suite(name, *bounds)

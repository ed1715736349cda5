"""Property tests with hypothesis over the hardcore-boson domain."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from unruh.errors import TruncationError  # noqa: E402
from unruh.scalar import HardcoreConfig, hardcore_report  # noqa: E402

R = st.floats(min_value=0.0, max_value=25.0)


def _raises(r, hc, oracle) -> bool:
    """Whether the row raises TruncationError; a row that does not must be
    finite and non-negative, and any other exception fails the test."""
    try:
        rep = hardcore_report(r, hc, oracle=oracle)
    except TruncationError:
        return True
    row = rep.as_row()[:-1]  # oracle_discrepancy is NaN without the oracle
    assert all(math.isfinite(v) and v >= 0.0 for v in row), (r, row)
    return False


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(cap=st.sampled_from((1, 2, 8, 16)), mode=st.sampled_from(HardcoreConfig.MODES),
       oracle=st.booleans(), rs=st.lists(R, min_size=2, max_size=8, unique=True))
def test_hardcore_row_is_finite_until_it_raises_for_good(cap, mode, oracle, rs):
    hc = HardcoreConfig(cap=cap, mode=mode)
    raised = [_raises(r, hc, oracle) for r in sorted(rs)]
    assert raised == sorted(raised), sorted(rs)

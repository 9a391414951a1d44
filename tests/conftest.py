"""Fixtures shared by the test modules."""

import pytest

from whitneylah.classical import _ROWS
from whitneylah.qcalc import _GQF_POINTS


@pytest.fixture
def cold_memo():
    """Empty memos before and after the test: the triangle engine's rows
    and the stored generalized q-factorials, the q-factorials among them."""
    _ROWS.clear()
    _GQF_POINTS.clear()
    yield
    _ROWS.clear()
    _GQF_POINTS.clear()

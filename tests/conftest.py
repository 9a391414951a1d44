"""Fixtures shared by the test modules."""

import pytest

from whitneylah import arith
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


@pytest.fixture
def kronecker_calls(monkeypatch):
    """The (len(a), len(b)) of every product ``arith._product`` sends down
    its Kronecker path while the test runs, in order."""
    calls = []
    kronecker = arith._kronecker_product

    def counted(a, b):
        calls.append((len(a), len(b)))
        return kronecker(a, b)

    monkeypatch.setattr(arith, "_kronecker_product", counted)
    return calls

"""Fixtures shared by the test modules."""

import pytest

from whitneylah import arith
from whitneylah.classical import _ROWS
from whitneylah.qcalc import _GQF_POINTS


def clear_memos() -> None:
    """Empty every memo that ``Report.caches`` counts: the triangle
    engine's rows, the stored generalized q-factorials (the q-factorials
    among them), each ``lru_cache`` of ``verify._LRU_CACHE_INFO`` and the
    format tables of ``LaurentPoly.to_str``."""
    from whitneylah.verify import _LRU_CACHE_INFO

    _ROWS.clear()
    _GQF_POINTS.clear()
    arith._FORMATS.clear()
    for info in _LRU_CACHE_INFO.values():
        info.__self__.cache_clear()


@pytest.fixture
def cold_memo():
    """Every memo that ``Report.caches`` counts is empty before and after
    the test."""
    clear_memos()
    yield
    clear_memos()


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


@pytest.fixture
def run_quotients(monkeypatch):
    """The (len(a), m, s) of every quotient ``arith.lp_div_exact`` sends
    down its run path while the test runs, in order."""
    calls = []
    run_quotient = arith._run_quotient

    def counted(a, c, m, s):
        calls.append((len(a), m, s))
        return run_quotient(a, c, m, s)

    monkeypatch.setattr(arith, "_run_quotient", counted)
    return calls

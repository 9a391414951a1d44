"""Triangle engine tests: rows are built without recursion, and only the
rows that callers request are memoized."""

import sys

import pytest

from whitneylah.classical import _ROWS, _tw1_weights, _tw2_weights
from whitneylah.qwhitney import _qw1_weights, qw1, qw2, qwl
from whitneylah.whitney import tw1, tw2, twl


@pytest.fixture
def cold_memo():
    _ROWS.clear()
    yield
    _ROWS.clear()


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize(
    "family, n", [(tw1, 400), (tw2, 400), (twl, 400), (qw1, 12), (qw2, 12), (qwl, 12)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_rows_need_no_recursion(cold_memo, family, n):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        family(2, n, n // 2)
    finally:
        sys.setrecursionlimit(limit)


def test_deep_request_stores_one_row(cold_memo):
    tw1(1, 600, 2)
    assert list(_ROWS[(_tw1_weights, 1)]) == [600]


@pytest.mark.parametrize(
    "family, weights, alpha, top",
    [(tw2, _tw2_weights, 3, 40), (qw1, _qw1_weights, -2, 10)],
    ids=["tw2", "qw1"],
)
def test_requests_out_of_order_match_a_sequential_build(
    cold_memo, family, weights, alpha, top
):
    sequential = [[family(alpha, n, k) for k in range(n + 1)] for n in range(top + 1)]
    _ROWS.clear()
    requested = (top - 4, 2, top // 2, top - 5, top, top - 1)
    for n in requested:
        assert [family(alpha, n, k) for k in range(n + 1)] == sequential[n], n
    assert set(_ROWS[(weights, alpha)]) == set(requested)

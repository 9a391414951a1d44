"""Triangle engine tests: rows are built without recursion, only the rows
that callers request are memoized, a request for column k builds only
columns 0..k of the rows below it, and every stored row is an exact prefix
of its full row."""

import random
import sys
from pathlib import Path

import pytest

from whitneylah import cli
from whitneylah.arith import LaurentPoly
from whitneylah.classical import (
    _ROWS,
    _row,
    _tw1_weights,
    _tw2_weights,
    bell,
    stirling1u,
    stirling2,
)
from whitneylah.qwhitney import (
    _qw1_weights,
    _qw2_weights,
    _qwl_weights,
    qdowling,
    qlah_gr,
    qw1,
    qw2,
    qwl,
)
from whitneylah.whitney import _twl_weights, dowling, tw1, tw2, twl

GOLDEN = Path(__file__).parent / "golden"


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _full_rows(weights, alpha, top, one):
    """Rows 0..top of a triangle, each built whole from the one above: the
    reference the banded engine must agree with."""
    rows = [(one,)]
    for i in range(1, top + 1):
        left, right = weights(alpha, i, 0, i)
        prev = rows[-1]
        middle = [left[j] * prev[j - 1] + right[j] * prev[j] for j in range(1, i)]
        rows.append((right[0] * prev[0], *middle, left[i] * prev[i - 1]))
    return rows


Q1 = LaurentPoly.one()

# (value function (alpha, n, k), its weights, alpha, deepest row, u(0, 0))
FAMILIES = {
    "tw1": (tw1, _tw1_weights, 3, 40, 1),
    "tw2": (tw2, _tw2_weights, 2, 40, 1),
    "twl": (twl, _twl_weights, 2, 40, 1),
    "stirling1u": (lambda a, n, k: stirling1u(n, k), _tw1_weights, 1, 40, 1),
    "stirling2": (lambda a, n, k: stirling2(n, k), _tw2_weights, 1, 40, 1),
    "qw1": (qw1, _qw1_weights, -2, 10, Q1),
    "qw2": (qw2, _qw2_weights, 3, 10, Q1),
    "qwl": (qwl, _qwl_weights, 2, 10, Q1),
    "qlah_gr": (lambda a, n, k: qlah_gr(n, k), _qwl_weights, 1, 10, Q1),
}

# (row sum (alpha, n), u(0, 0))
ROW_SUMS = {
    "bell": (lambda a, n: bell(n), 1),
    "dowling": (dowling, 1),
    "dowling_qi": (lambda a, n: dowling(a, n, route="qi"), 1),
    "qdowling": (qdowling, Q1),
    "qdowling_qi": (lambda a, n: qdowling(a, n, route="qi"), Q1),
}


@pytest.mark.parametrize("name", [*FAMILIES, *ROW_SUMS])
def test_outside_the_triangle_is_the_zero_of_its_ring(cold_memo, name):
    if name in FAMILIES:
        value, _, alpha, _, one = FAMILIES[name]
        outside = [(-1, 0), (-1, -1), (-3, -5), (3, -1), (3, 4), (0, 1)]
        values = [value(alpha, n, k) for n, k in outside]
    else:
        value, one = ROW_SUMS[name]
        values = [value(2, -1), value(2, -4)]
    for v in values:
        # an int 0 compares equal to the zero polynomial, so check the type
        if isinstance(one, LaurentPoly):
            assert isinstance(v, LaurentPoly) and v.is_zero, v
        else:
            assert type(v) is int and v == 0, v


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
    assert len(_ROWS[(_tw1_weights, 1)][600]) == 3


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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", FAMILIES)
def test_banded_values_match_full_rows_in_any_order(cold_memo, name, seed):
    value, weights, alpha, top, one = FAMILIES[name]
    full = _full_rows(weights, alpha, top, one)
    rng = random.Random(f"{name}:{seed}")
    # narrow then wide on one row, a narrow row above a wide one, then any
    requests = [(top, 1), (top, top), (top // 2, 0), (top // 2 + 1, top // 2 + 1)]
    for _ in range(60):
        n = rng.randint(0, top)
        requests.append((n, min(n, rng.choice([0, 1, 2, rng.randint(0, n)]))))
    for n, k in requests:
        assert value(alpha, n, k) == full[n][k], (n, k)
        for m, row in _ROWS[(weights, alpha)].items():
            assert row == full[m][: len(row)], m


def test_row_sums_after_narrow_requests(cold_memo):
    # each row sum asks for a whole row that a narrow request stored in part
    stirling2(30, 2)
    assert bell(30) == sum(_full_rows(_tw2_weights, 1, 30, 1)[30])
    tw2(2, 30, 1)
    assert dowling(2, 30) == sum(_full_rows(_tw2_weights, 2, 30, 1)[30])
    twl(2, 12, 0)
    assert dowling(2, 12, route="qi") == dowling(2, 12)
    qw2(2, 8, 1)
    assert qdowling(2, 8) == sum(_full_rows(_qw2_weights, 2, 8, Q1)[8])
    qwl(2, 6, 1)
    qw2(-2, 6, 0)
    assert qdowling(2, 6, route="qi") == qdowling(2, 6)


# A table after a narrow eval of its own triangle at the table's top row:
# (golden file, the eval's argv, the table's argv).
NARROW_THEN_TABLE = [
    ("table_q-whitney1_alpha-2.csv", ["q-whitney1", "--alpha", "-2"], None),
    ("table_q-whitney2_alpha3.csv", ["q-whitney2", "--alpha", "3"], None),
    ("table_q-whitney-lah_alpha2.csv", ["q-whitney-lah", "--alpha", "2"], None),
    ("table_q-lah.csv", ["q-lah"], None),
    (
        "table_q-dowling_alpha2.csv",
        ["q-whitney2", "--alpha", "2"],
        ["q-dowling", "--alpha", "2"],
    ),
]


@pytest.mark.parametrize(
    "name, family, table", NARROW_THEN_TABLE, ids=[c[0] for c in NARROW_THEN_TABLE]
)
def test_table_after_a_narrow_eval_matches_golden(cold_memo, capsys, name, family, table):
    assert cli.main(["eval", "--family", *family, "--n", "8", "--k", "1"]) == 0
    assert cli.main(["eval", "--family", *family, "--n", "5", "--k", "0"]) == 0
    capsys.readouterr()
    argv = ["table", "--family", *(table or family), "--n-max", "8", "--format", "csv"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


# Cost guards by count, not time: a counting wrapper sees every cell the
# engine computes, since each call computes exactly columns lo..hi of a row.


def _counting(weights):
    cells = []

    def counted(alpha, n, lo, hi):
        cells.append(hi - lo + 1)
        return weights(alpha, n, lo, hi)

    return counted, cells


@pytest.mark.parametrize("n, k", [(60, 0), (60, 2), (60, 30), (60, 60), (9, 20)])
def test_cold_request_computes_at_most_its_band(cold_memo, n, k):
    counted, cells = _counting(_twl_weights)
    row = _row(counted, 2, n, k)
    assert row[: k + 1] == _full_rows(_twl_weights, 2, n, 1)[n][: k + 1]
    assert sum(cells) <= n * (k + 1)


@pytest.mark.parametrize(
    "weights, alpha, one", [(_tw1_weights, 3, 1), (_qw2_weights, -2, Q1)], ids=["tw1", "qw2"]
)
def test_ascending_sweep_computes_each_cell_once(cold_memo, weights, alpha, one):
    top = 12
    counted, cells = _counting(weights)
    full = _full_rows(weights, alpha, top, one)
    for n in range(top + 1):
        for k in range(n + 1):
            assert _row(counted, alpha, n, k, one)[k] == full[n][k]
    # rows 1..top of the full triangle; row 0 is u(0, 0) and is not computed
    assert sum(cells) == sum(i + 1 for i in range(1, top + 1))
    # two extensions per row: column 0, then, asked again, the rest of it
    assert len(cells) == 2 * top


def test_a_wide_row_leaves_narrow_requests_above_it_narrow(cold_memo):
    counted, cells = _counting(_twl_weights)
    full = _full_rows(_twl_weights, 2, 40, 1)
    assert _row(counted, 2, 10, 10) == full[10]
    cells.clear()
    for n in range(11, 41):
        assert _row(counted, 2, n, 2)[:3] == full[n][:3]
    assert sum(cells) == 30 * 3


def test_a_miss_resumes_from_the_nearest_row_that_covers_its_band(cold_memo):
    counted, cells = _counting(_twl_weights)
    full = _full_rows(_twl_weights, 2, 30, 1)
    assert _row(counted, 2, 20, 2) == full[20][:3]
    assert _row(counted, 2, 25, 0) == full[25][:1]
    cells.clear()
    # row 25 holds column 0 only, so rows 21..30 come from row 20, 3 wide
    assert _row(counted, 2, 30, 2) == full[30][:3]
    assert sum(cells) == 30


def test_a_stored_cell_is_read_without_the_row_builder(cold_memo, monkeypatch):
    """``_cell`` answers from a stored prefix; a cell past it goes to ``_row``."""
    from whitneylah import classical

    rows = []
    row = classical._row

    def counted(weights, alpha, n, k, one=1):
        rows.append((n, k))
        return row(weights, alpha, n, k, one)

    monkeypatch.setattr(classical, "_row", counted)
    assert qw2(2, 6, 3) == _full_rows(_qw2_weights, 2, 6, Q1)[6][3]
    assert rows == [(6, 3)]
    assert [qw2(2, 6, k) for k in range(4)] == list(_row(_qw2_weights, 2, 6, 3, Q1)[:4])
    assert rows == [(6, 3)]
    qw2(2, 6, 5)
    assert rows == [(6, 3), (6, 5)]

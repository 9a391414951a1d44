"""The Whitney-Lah EGF check (``r3``) over the integers: the rows ``series``
prints and the two ``int`` sides of ``twl_egf_check`` against the closed
form computed from ``math`` alone, and a stored coefficient that k! does
not divide, which is a domain error."""

import contextlib
import io
import sys

import pytest

from independent import whitney_lah
from whitneylah import cli, whitney
from whitneylah.classical import NonExactDivision, TruncSeries
from whitneylah.verify import get_identity, run_suite
from whitneylah.whitney import twl_egf_check


def series_rows(alpha: int, k: int, order: int) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["series", "--id", "r3", "--alpha", str(alpha), "--k", str(k)]
        rc = cli.main(argv + ["--order", str(order)])
    return rc, out.getvalue().splitlines()


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("k", range(6))
def test_series_rows_are_the_closed_form_at_order_200(alpha, k):
    rc, lines = series_rows(alpha, k, 200)
    expected = [f"{n},{whitney_lah(alpha, n, k)},{whitney_lah(alpha, n, k)}" for n in range(201)]
    assert rc == 0
    assert lines == ["n,lhs,rhs", *expected, "match,yes"]


@pytest.fixture
def default_digit_limit():
    """CPython's default int->str digit limit of 4300 while the test runs,
    the limit found restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int->str digit limit in this Python")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_series_rows_past_the_str_digit_limit(default_digit_limit):
    """At order 1500 the rows pass 4300 digits from n = 1354 on: the CLI
    lifts the limit for the call, and every row is the closed form, which
    the memo's running product of factorials reaches at depth."""
    rc, lines = series_rows(3, 2, 1500)
    assert sys.get_int_max_str_digits() == 4300
    sys.set_int_max_str_digits(0)
    expected = [f"{n},{whitney_lah(3, n, 2)},{whitney_lah(3, n, 2)}" for n in range(1501)]
    assert rc == 0
    assert lines == ["n,lhs,rhs", *expected, "match,yes"]
    assert len(str(whitney_lah(3, 1354, 2))) > 4300


def grid_points(ident: str):
    spec = get_identity(ident)
    for alpha in spec.grid.alphas or (1,):
        for k in range(7):
            for n in range(41):
                yield alpha, k, n


@pytest.mark.parametrize("ident", ["r3", "lah_egf"])
def test_check_returns_two_ints_equal_to_the_closed_form(ident):
    """At every grid point of ``r3`` and of ``lah_egf`` (alpha 1), n up to 40."""
    for alpha, k, n in grid_points(ident):
        lhs, rhs = twl_egf_check(alpha, k, n)
        assert type(lhs) is int and type(rhs) is int, (alpha, k, n)
        assert lhs == rhs == whitney_lah(alpha, n, k), (alpha, k, n)


@pytest.fixture
def indivisible(monkeypatch, cold_memo):
    """The stored series of k = 3 with 1 as its value at n = 2, where
    2! times the t^2 coefficient belongs: 1 is not a multiple of 3!."""
    stored = whitney._egf_series_cached

    def broken(alpha, k, order):
        series = stored(alpha, k, order)
        if k != 3:
            return series
        coeffs = list(series.coeffs)
        coeffs[2] = 1
        return TruncSeries(coeffs, order)

    monkeypatch.setattr(whitney, "_egf_series_cached", broken)


def test_an_indivisible_coefficient_raises(indivisible):
    with pytest.raises(NonExactDivision):
        twl_egf_check(2, 3, 2)
    assert twl_egf_check(2, 3, 3) == (1, 1)


def test_the_suite_records_the_failed_point_and_runs_on(indivisible, monkeypatch):
    broken = run_suite(suite="classical", alpha_list=(1, 2), n_max=4)
    monkeypatch.undo()
    sound = run_suite(suite="classical", alpha_list=(1, 2), n_max=4)
    assert sound.failed == [] and broken.total == sound.total
    assert broken.identities["r3"]["passed"] == sound.identities["r3"]["checks"] - 2
    assert [(r.id, r.params) for r in broken.failed] == [
        ("r3", {"alpha": 1, "k": 3, "n": 2}),
        ("r3", {"alpha": 2, "k": 3, "n": 2}),
    ]
    assert all(
        r.lhs_canonical.startswith("<error: NonExactDivision:") for r in broken.failed
    )


def test_series_exits_2_with_one_error_line(indivisible, capsys):
    argv = ["series", "--id", "r3", "--alpha", "2", "--k", "3", "--order", "4"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

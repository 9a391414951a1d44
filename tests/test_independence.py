"""The independence rule, guarded by corrupting one primitive at a time.

The two sides of a check must stay computationally independent. So a
primitive that one side of an identity reads and the other does not must
make that identity fail when it is corrupted; an identity that reads it
through the same route on both sides would still pass, and that is the
tautology the rule forbids. Each case below corrupts one primitive,
rebinds it in every module that imported it, runs the whole registry at
alpha 1..3 and n_max 6 from cleared memos, and compares the identities
that fail with the expected set. The engine weights' sets are those of
ROADMAP item 7.
"""

import sys

import pytest

from whitneylah import arith, qwhitney, whitney
from whitneylah.arith import TruncSeries
from whitneylah.verify import run_suite


def raise_row_3(weights):
    """The engine weights with every right weight of row 3 raised by one."""

    def corrupted(alpha, n, lo, hi):
        left, right = weights(alpha, n, lo, hi)
        return left, [w + 1 for w in right] if n == 3 else right

    return corrupted


def raise_coefficient_3(geometric):
    """``ts_mul_geometric`` with the t^3 coefficient of its result raised by one."""

    def corrupted(s, c):
        coeffs = list(geometric(s, c).coeffs)
        if len(coeffs) > 3:
            coeffs[3] = coeffs[3] + 1
        return TruncSeries(coeffs, s.order)

    return corrupted


CASES = {
    "_twl_weights": (
        whitney,
        raise_row_3,
        {"gqif1", "mansour", "r1", "r2", "r2.1", "r3", "r4", "wl_conv", "wl_hgf"},
    ),
    "_qwl_weights": (
        qwhitney,
        raise_row_3,
        {"q_defs", "q_limits", "qgqif1", "qr1", "qr1.1", "qr2", "qr2.1", "qw1w2"},
    ),
    # the series sides of the EGF checks and pe2's products; no other
    # identity builds a series, so r2, r2.1 and qr1 pass
    "ts_mul_geometric": (arith, raise_coefficient_3, {"lah_egf", "pe2", "qr1.1", "r3"}),
}


def rebind_everywhere(monkeypatch, module, name, corrupt) -> list[int]:
    """Rebind ``module.name``, corrupted, in every loaded module of the
    package that holds the same object; returns a list that grows by one
    per call of the corrupted primitive."""
    original = getattr(module, name)
    holders = [
        m
        for key, m in sorted(sys.modules.items())
        if key.split(".")[0] == "whitneylah" and getattr(m, name, None) is original
    ]
    assert module in holders
    calls = []
    bad = corrupt(original)

    def counted(*args):
        calls.append(1)
        return bad(*args)

    for m in holders:
        monkeypatch.setattr(m, name, counted)
    return calls


def test_the_sound_registry_passes_on_the_probe_grid(cold_memo):
    report = run_suite(alpha_list=(1, 2, 3), n_max=6)
    assert report.total > 0 and report.failed == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_corrupted_primitive_fails_each_identity_that_reads_it_on_one_side(
    name, cold_memo, monkeypatch
):
    module, corrupt, expected = CASES[name]
    calls = rebind_everywhere(monkeypatch, module, name, corrupt)
    report = run_suite(alpha_list=(1, 2, 3), n_max=6)
    assert calls
    assert {r.id for r in report.failed} == expected

"""The independence rule, guarded by corrupting one primitive at a time.

The two sides of a check must stay computationally independent. So a
primitive that one side of an identity reads and the other does not must
make that identity fail when it is corrupted; an identity that reads it
through the same route on both sides would still pass, and that is the
tautology the rule forbids. Each case below corrupts one primitive,
rebinds it in every module that imported it, runs the whole registry at
alpha 1..3 and n_max 6 from cleared memos, and compares the identities
that fail with the expected set. The engine weights' sets are those of
ROADMAP item 7. A second test runs each identity alone, from cleared
memos, and asserts that every identity that calls the corrupted
primitive fails, unless ``READ_AND_PASS`` names it with its reason.
"""

import sys

import pytest

from whitneylah import base, classical, qcalc, qwhitney, verify, whitney
from whitneylah.base import TruncSeries
from whitneylah.verify import run_suite


def raise_row_3(weights):
    """The engine weights with every right weight of row 3 raised by one."""

    def corrupted(alpha, n, lo, hi):
        left, right = weights(alpha, n, lo, hi)
        return left, [w + 1 for w in right] if n == 3 else right

    return corrupted


def raise_first_of_row_3(weights):
    """The engine weights with the first right weight of each range of
    row 3 raised by one."""

    def corrupted(alpha, n, lo, hi):
        left, right = weights(alpha, n, lo, hi)
        return left, [right[0] + 1, *right[1:]] if n == 3 else right

    return corrupted


def raise_column_2_of_row_3(weights):
    """The engine weights with the right weight of column 2 of row 3 raised
    by one: the last right weight that row 3 reads, as column 3 has no
    right term."""

    def corrupted(alpha, n, lo, hi):
        left, right = weights(alpha, n, lo, hi)
        if n == 3 and lo <= 2 <= hi:
            right = [w + (k == 2) for k, w in enumerate(right, lo)]
        return left, right

    return corrupted


def raise_coefficient_3(geometric):
    """``ts_mul_geometric`` with the t^3 coefficient of its result raised by one."""

    def corrupted(s, c):
        coeffs = list(geometric(s, c).coeffs)
        if len(coeffs) > 3:
            coeffs[3] = coeffs[3] + 1
        return TruncSeries(coeffs, s.order)

    return corrupted


def raise_n_3(point):
    """``gqf_point`` with every value at n = 3 raised by one."""

    def corrupted(t, alpha, n, base=1):
        value = point(t, alpha, n, base)
        return value + 1 if n == 3 else value

    return corrupted


def raise_at_3(primitive):
    """A closed form with its value raised by one where its first
    argument is 3."""

    def corrupted(*args):
        value = primitive(*args)
        return value + 1 if args[0] == 3 else value

    return corrupted


_TW1_ROW_3 = {"lah_conv", "ortho", "q_limits", "stirling_hgf", "w_hgf", "wl_conv"}
_TW2_ROW_3 = _TW1_ROW_3 | {"dobinski", "gqif1", "qi_bell"}
_QW_ROW_3 = {"inv_qtw", "q_defs", "q_limits", "qw1w2"}

# case -> (module, primitive, corruption, the identities that fail)
CASES = {
    "_twl_weights": (
        whitney,
        "_twl_weights",
        raise_row_3,
        {"gqif1", "mansour", "r1", "r2", "r2.1", "r3", "r4", "wl_conv", "wl_hgf"},
    ),
    "_qwl_weights": (
        qwhitney,
        "_qwl_weights",
        raise_row_3,
        {
            "q_defs", "q_limits", "qgqif1", "qr1", "qr1.1", "qr2", "qr2.1", "qw1w2",
            "qwl_product",
        },
    ),
    "_tw1_weights": (classical, "_tw1_weights", raise_row_3, _TW1_ROW_3),
    "_tw2_weights": (classical, "_tw2_weights", raise_row_3, _TW2_ROW_3),
    # the first-weight mutation of _qw2_weights is equivalent here: row 3's
    # first weight multiplies u(2, 0) = 0, while column 2's multiplies
    # u(2, 2) = 1
    "_tw2_weights column 2": (classical, "_tw2_weights", raise_column_2_of_row_3, _TW2_ROW_3),
    "_qw1_weights": (qwhitney, "_qw1_weights", raise_row_3, _QW_ROW_3),
    "_qw2_weights": (qwhitney, "_qw2_weights", raise_row_3, _QW_ROW_3),
    # qgqif1 reads the second-kind triangle's column 0 as well
    "_qw2_weights first weight": (
        qwhitney, "_qw2_weights", raise_first_of_row_3, _QW_ROW_3 | {"qgqif1"}
    ),
    "_qbinom_weights": (
        qcalc,
        "_qbinom_weights",
        raise_row_3,
        {"pe1", "pe2", "qbinom_inv", "qr1", "qr1.1", "qwl_product"},
    ),
    "gqf_point": (
        qcalc,
        "gqf_point",
        raise_n_3,
        {"pe1", "q_defs", "qr1", "qr1.1", "qr2", "qr2.1", "qwl_product"},
    ),
    # the series sides of the EGF checks and pe2's products; no other
    # identity builds a series, so r2, r2.1 and qr1 pass
    "ts_mul_geometric": (
        base, "ts_mul_geometric", raise_coefficient_3, {"lah_egf", "pe2", "qr1.1", "r3"}
    ),
    # the closed forms outside the engine
    "lah": (
        classical,
        "lah",
        raise_at_3,
        {
            "gouqi", "lah_conv", "lah_egf", "lah_hgf", "lah_rec", "q_limits", "qi_bell",
            "r2",
        },
    ),
    "binomial": (classical, "binomial", raise_at_3, {"graham"}),
    # the q-triangles' weights are built from qint, so every identity that
    # reads a q-triangle fails as well
    "qint": (
        qcalc,
        "qint",
        raise_at_3,
        {"qr1", "qr1.1", "qr2", "qr2.1", "qgqif1", "pe1", "qwl_product"} | _QW_ROW_3,
    ),
    "genfact_poly": (
        classical,
        "genfact_poly",
        raise_at_3,
        {"lah_hgf", "stirling_hgf", "w_hgf", "wl_hgf"},
    ),
}

# (case, identity) -> why the identity calls the corrupted primitive and
# still passes
READ_AND_PASS = {
    ("_qw2_weights", "qgqif1"): "an equivalent mutation: row 3 multiplies by [t] + 1"
    " instead of [t] on the +alpha and the -alpha triangles alike, and qgqif1 is a"
    " change of basis that holds for any such sequence; the first-weight case fails it",
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_corrupted_primitive_fails_each_identity_that_reads_it_on_one_side(
    case, cold_memo, monkeypatch
):
    module, name, corrupt, expected = CASES[case]
    calls = rebind_everywhere(monkeypatch, module, name, corrupt)
    report = run_suite(alpha_list=(1, 2, 3), n_max=6)
    assert calls
    assert {r.id for r in report.failed} == expected
    # a corrupted value may leave an exact division with a remainder; any
    # other error would come from a corruption that miscalls the primitive
    raised = [r.lhs for r in report.failed if r.rhs == ""]
    assert all(lhs.startswith("<error: NonExactDivision:") for lhs in raised)


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_identity_that_reads_a_corrupted_primitive_fails(case, monkeypatch):
    """Each identity runs alone from cleared memos, so a call of the
    primitive is its own and not one a memo spared it."""
    module, name, corrupt, expected = CASES[case]
    calls = rebind_everywhere(monkeypatch, module, name, corrupt)
    registry = dict(verify._REGISTRY)
    read, failed = set(), set()
    for ident, spec in registry.items():
        monkeypatch.setattr(verify, "_REGISTRY", {ident: spec})
        base.clear_caches()
        calls.clear()
        alphas = tuple(a for a in (1, 2, 3) if a in spec.grid.alphas)
        if run_suite(alpha_list=alphas, n_max=6).failed:
            failed.add(ident)
        if calls:
            read.add(ident)
    base.clear_caches()
    assert failed == expected
    assert read - failed == {ident for c, ident in READ_AND_PASS if c == case}

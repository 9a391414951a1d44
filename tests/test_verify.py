"""Registry and runner tests: coverage, dispatch, determinism, isolation,
and the erratum-documentation mode."""

import json
import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from whitneylah import (
    arith, base, classical, cli, dense, qcalc, qroutes, qwhitney, verify, whitney,
)
from whitneylah.arith import LaurentPoly, monomial
from whitneylah.base import _MEMOS, clear_caches
from whitneylah.classical import _ROWS, _triangles, lah
from whitneylah.qcalc import gqf_point, qfact, qint, qint_signed
from whitneylah.verify import (
    Config,
    Grid,
    IdentitySpec,
    InvalidConfig,
    ParamsOutOfDomain,
    Report,
    UnknownIdentity,
    _render,
    check_identity,
    get_identity,
    registry_ids,
    report_to_dict,
    report_to_json,
    run_suite,
)
from whitneylah.qroutes import _inverse_weights, _qwl_egf_cached
from whitneylah.qwhitney import qw1, qw2, qwl
from whitneylah.whitney import _egf_series_cached, tw1, twl

EXPECTED_IDS = sorted(
    [
        "lah_rec",
        "lah_egf",
        "lah_hgf",
        "stirling_hgf",
        "lah_conv",
        "qi_bell",
        "w_hgf",
        "wl_rec",
        "wl_hgf",
        "wl_conv",
        "mansour",
        "r1",
        "r2",
        "r2.1",
        "r3",
        "graham",
        "r4",
        "gouqi",
        "ortho",
        "gqif1",
        "dobinski",
        "q_defs",
        "qw1w2",
        "qr1",
        "qwl_product",
        "qr1.1",
        "qr2",
        "qr2.1",
        "inv_qtw",
        "qbinom_inv",
        "pe1",
        "pe2",
        "qgqif1",
        "q_limits",
    ]
)


class TestRegistry:
    def test_complete_coverage(self):
        assert list(registry_ids()) == EXPECTED_IDS

    def test_every_identity_is_executable(self):
        cfg = Config(suite="all", alpha_list=(1,), n_max=2)
        for ident in registry_ids():
            spec = get_identity(ident)
            domain = spec.domain(cfg)
            assert domain, ident
            result = check_identity(ident, domain[0])
            assert result.id == ident

    def test_metadata_present(self):
        for ident in registry_ids():
            spec = get_identity(ident)
            assert spec.description
            assert spec.paper_anchor
            assert spec.suite in ("classical", "q")

    def test_nonempty_intrinsic_domains(self):
        cfg = Config(suite="all", alpha_list=(1, 2, 3), n_max=12)
        for ident in registry_ids():
            assert get_identity(ident).domain(cfg), ident


class TestCheckIdentity:
    def test_integer_identity(self):
        r = check_identity("r4", {"alpha": 1, "k": 2, "n": 2})
        assert r.passed
        assert r.lhs_canonical == "12"
        assert r.rhs_canonical == "12"

    def test_corrected_q_factorial_sum(self):
        r = check_identity("qr2", {"mode": "corrected", "alpha": 1, "k": 1, "n": 1})
        assert r.passed
        assert r.lhs_canonical == "-q^-2 - q^-1"
        assert r.rhs_canonical == "-q^-2 - q^-1"

    def test_printed_q_factorial_sum_documents_discrepancy(self):
        r = check_identity("qr2", {"mode": "as_printed", "alpha": 1, "k": 1, "n": 1})
        assert not r.passed
        assert r.lhs_canonical == "-q^-2 - q^-1"
        assert r.rhs_canonical == "-1 - q"
        assert r.params["mode"] == "as_printed"

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            check_identity("fermat", {"n": 3})

    def test_params_out_of_domain(self):
        with pytest.raises(ParamsOutOfDomain):
            check_identity("r4", {"alpha": 1, "k": 1, "n": 1})  # needs k >= 2
        with pytest.raises(ParamsOutOfDomain):
            check_identity("r4", {"alpha": 7, "k": 2, "n": 2})
        with pytest.raises(ParamsOutOfDomain):
            check_identity("r4", {"alpha": 1, "k": 2, "n": 2, "mode": "as_printed"})

    @pytest.mark.parametrize(
        "ident, point",
        [("r2", {"alpha": 1, "n": 2, "k": 1}), ("qr1", {"alpha": 1, "n": 2, "k": 1})],
    )
    @pytest.mark.parametrize(
        "key, value", [("alpha", True), ("alpha", 1.0), ("n", True), ("n", 2.0), ("k", 2.0)]
    )
    def test_a_bool_or_float_parameter_is_out_of_domain(self, ident, point, key, value):
        """They equal ints of the grid, and hash alike, but no check takes them."""
        assert check_identity(ident, point).passed
        with pytest.raises(ParamsOutOfDomain, match=f"parameter {key!r} .* got {value!r}"):
            check_identity(ident, {**point, key: value})


class TestRunSuite:
    def test_classical_suite_passes(self):
        report = run_suite(suite="classical", alpha_list=(1,), n_max=8)
        assert report.failed == []
        assert report.total == report.passed
        assert report.total > 0

    def test_full_corrected_suite_passes(self):
        report = run_suite(suite="all", alpha_list=(1, 2), n_max=6)
        assert report.failed == []

    def test_as_printed_q_suite_fails_only_factorial_sums(self):
        report = run_suite(suite="q", alpha_list=(1,), n_max=2, mode="as_printed")
        failing = {r.id for r in report.failed}
        assert failing == {"qr2", "qr2.1"}
        assert report.total == report.passed + len(report.failed)

    def test_isolation_failures_do_not_abort(self):
        report = run_suite(suite="q", alpha_list=(1,), n_max=2, mode="as_printed")
        # later identities still ran after the failing ones
        assert report.passed > 0
        assert report.total > len(report.failed)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Config(suite="everything")
        with pytest.raises(ValueError):
            Config(n_max=0)
        with pytest.raises(ValueError):
            Config(mode="fixed")

    def test_alpha_that_no_identity_checks_is_rejected(self):
        with pytest.raises(InvalidConfig, match="checks alpha 4; .* are 1, 2, 3$"):
            Config(suite="q", alpha_list=(1, 4))
        # pe1 runs at the classical alphas, so the q suite checks alpha 3
        cfg = Config(suite="q", alpha_list=(3,), n_max=3)
        assert {p["alpha"] for p in get_identity("pe1").domain(cfg)} == {3}

    @pytest.mark.parametrize("alpha", [1.0, True])
    def test_alpha_that_only_equals_an_int_is_rejected(self, alpha):
        with pytest.raises(InvalidConfig, match=f"^alpha must be an int, got {alpha!r}$"):
            run_suite(suite="classical", alpha_list=(alpha,), n_max=3)

    @pytest.mark.parametrize("n_max", [2.5, 3.0, True, "3", None])
    def test_n_max_that_is_not_an_int_is_rejected(self, n_max):
        with pytest.raises(InvalidConfig, match=f"^n_max must be an int, got {n_max!r}$"):
            run_suite(suite="classical", alpha_list=(1,), n_max=n_max)

    def test_repeated_alpha_is_rejected(self):
        with pytest.raises(InvalidConfig, match="^alpha_list repeats alpha 2$"):
            Config(alpha_list=(2, 1, 2))
        with pytest.raises(InvalidConfig, match="^alpha_list repeats alpha 1, 3$"):
            Config(alpha_list=(3, 1, 3, 1))

    def test_q_limits_runs_no_unselected_alpha(self):
        points = get_identity("q_limits").domain(Config(suite="q", alpha_list=(2,)))
        assert {p.get("alpha") for p in points} == {2, None}
        # the q-Lah points take no alpha
        assert all("alpha" not in p for p in points if p["family"] == "qlah")
        assert sum(p["family"] == "qlah" for p in points) == 45

    def test_config_and_keywords_together_are_rejected(self):
        # the keywords were dropped: this ran 372 classical checks at n_max 2
        with pytest.raises(TypeError, match="not both"):
            run_suite(Config(suite="classical", n_max=2), suite="q", n_max=5)

    def test_check_is_looked_up_at_every_grid_point(self):
        # perfbench/tracer.py times each identity by replacing spec.check
        calls = Counter()

        def counting(ident, check):
            def counted(*args, **kwargs):
                calls[ident] += 1
                return check(*args, **kwargs)

            return counted

        specs = [get_identity(i) for i in registry_ids()]
        originals = [spec.check for spec in specs]
        for spec in specs:
            object.__setattr__(spec, "check", counting(spec.id, spec.check))
        try:
            report = run_suite(alpha_list=(1, 2), n_max=3, mode="as_printed")
        finally:
            for spec, check in zip(specs, originals):
                object.__setattr__(spec, "check", check)
        assert sum(calls.values()) == report.total
        assert set(calls) == set(registry_ids())


class TestReport:
    def test_counts_are_consistent(self):
        report = run_suite(suite="classical", alpha_list=(1, 2), n_max=4)
        assert isinstance(report, Report)
        assert report.total == report.passed + len(report.failed)
        assert report.wall_time >= 0

    def test_json_schema(self):
        report = run_suite(suite="q", alpha_list=(1,), n_max=2, mode="as_printed")
        doc = json.loads(report_to_json(report))
        assert set(doc) == {"config", "total", "passed", "failed", "wall_ms"}
        assert doc["config"] == {
            "suite": "q",
            "alpha_list": [1],
            "n_max": 2,
            "mode": "as_printed",
        }
        assert doc["total"] == doc["passed"] + len(doc["failed"])
        for entry in doc["failed"]:
            assert set(entry) == {"id", "params", "lhs", "rhs"}

    def test_deterministic_serialization(self):
        a = report_to_json(run_suite(suite="q", alpha_list=(1,), n_max=3))
        b = report_to_json(run_suite(suite="q", alpha_list=(1,), n_max=3))
        assert a == b

    def test_failed_entries_are_canonically_ordered(self):
        report = run_suite(suite="all", alpha_list=(1, 2), n_max=4, mode="as_printed")
        keys = [(r.id, json.dumps(r.params, sort_keys=True)) for r in report.failed]
        assert keys == sorted(keys)

    def test_wall_time_is_the_runs_wall_clock(self):
        # the runner's own clock, not the sum of the identities' seconds,
        # which leaves out grid building and the report's bookkeeping
        cfg = Config(suite="classical", alpha_list=(1, 2), n_max=6)
        ratios = []
        for _ in range(3):
            start = time.perf_counter()
            report = run_suite(cfg)
            outer = time.perf_counter() - start
            assert 0 < report.wall_time <= outer
            ratios.append(report.wall_time / outer)
        assert max(ratios) > 0.9

    def test_wall_ms_honest_mode(self):
        report = run_suite(suite="q", alpha_list=(1,), n_max=2)
        doc = report_to_dict(report, deterministic=False)
        assert doc["wall_ms"] >= 0

    def test_per_identity_timings_honest_mode_only(self):
        report = run_suite(suite="classical", alpha_list=(1, 2), n_max=4)
        assert "identities" not in report_to_dict(report)
        tallies = report_to_dict(report, deterministic=False)["identities"]
        assert sum(t["checks"] for t in tallies.values()) == report.total
        assert all(t["checks"] > 0 and t["seconds"] > 0 for t in tallies.values())
        assert sum(t["seconds"] for t in tallies.values()) <= report.wall_time
        assert set(tallies) == {i for i in registry_ids() if get_identity(i).suite == "classical"}

    def test_identities_report_skipped_alphas(self):
        # alpha 3 is accepted for the q-suite because pe1 checks it; every
        # other identity with alphas skips it, and says so
        report = run_suite(suite="q", alpha_list=(3,), n_max=8)
        tallies = report_to_dict(report, deterministic=False)["identities"]
        assert set(tallies) == {i for i in registry_ids() if get_identity(i).suite == "q"}
        assert tallies["q_defs"] == {
            "checks": 0, "passed": 0, "seconds": 0.0, "skipped_alphas": [3],
            "max_n": None,
        }
        assert tallies["pe1"]["checks"] == tallies["pe1"]["passed"] == 77
        assert tallies["pe1"]["skipped_alphas"] == []
        assert tallies["pe2"]["skipped_alphas"] == []  # takes no alpha
        assert sum(t["checks"] for t in tallies.values()) == report.total == 197
        skipping = {i for i, t in tallies.items() if t["skipped_alphas"]}
        assert skipping == {
            "q_defs", "qw1w2", "qr1", "qwl_product", "qr1.1", "qr2", "inv_qtw",
            "qbinom_inv", "qgqif1", "q_limits",
        }

    def test_identities_report_the_largest_n_checked(self):
        # n_max 20 is past every cap: each identity reports its own
        report = run_suite(suite="all", alpha_list=(1,), n_max=20)
        tallies = report_to_dict(report, deterministic=False)["identities"]
        max_n = {i: t["max_n"] for i, t in tallies.items()}
        assert max_n["lah_rec"] == 12 and max_n["lah_hgf"] == 10
        assert max_n["wl_rec"] == 11  # its n runs to top - 1
        assert max_n["q_defs"] == 8 and max_n["pe1"] == 6 and max_n["qgqif1"] == 6
        assert max_n["pe2"] == 4  # n is a fixed axis 1..4
        assert max_n["qbinom_inv"] is None  # its grid has no n

    def test_caches_honest_mode_only(self, cold_memo):
        lru_caches = {
            "egf_series": _egf_series_cached,
            "forward_entries": verify._forward_entry,
            "geometric_products": verify._geometric_product,
            "inverse_weights": _inverse_weights,
            "qwl_egf_series": _qwl_egf_cached,
            "qint": qint,
        }
        cfg = Config(suite="classical", alpha_list=(1, 2), n_max=4)
        cold = report_to_json(run_suite(cfg))
        # fill the memos: the deterministic report must not show them
        tw1(2, 40, 40)
        gqf_point(3, -1, 4)
        get_identity("qr1.1").check(alpha=2, k=1, n=3)
        get_identity("pe2").check(n=3, k=2)
        get_identity("qbinom_inv").check(alpha=2, sample=1, k=3)
        report = run_suite(cfg)
        assert report_to_json(report) == cold
        assert "caches" not in report_to_dict(report)
        caches = report_to_dict(report, deterministic=False)["caches"]
        assert set(caches) == {"triangles", "gqf_points", "render_formats", *lru_caches}
        # [3|-1]_1..4, and the [n]! over q^2 that qr1.1's memo multiplies
        # into its coefficients n = 0..8, that is [1|-1]_1..8 over q^2
        assert caches["gqf_points"] == 4 + 8
        assert caches["geometric_products"] == 1  # prod_{i<3} 1/(1 - q^i t)
        # r3 at alpha 1 and 2, k = 0..6, order 12; lah_egf reads r3's alpha 1
        assert caches["egf_series"] == 14
        assert caches["qwl_egf_series"] == 1  # qr1.1 at (2, 1), order 8
        assert caches["forward_entries"] == 4  # F_0..F_3 of sample 1 at alpha 2
        # the weights of entry 1 (qr1.1) and entry 3 (qbinom_inv) at alpha 2
        assert caches["inverse_weights"] == 2
        assert caches["qint"] == qint.cache_info().currsize > 0
        # rows 1..4 of the suite and row 40: 2 + 3 + 4 + 5 + 41 cells
        tw1_at_2 = {"weights": "_tw1_weights", "alpha": 2, "rows": 5, "cells": 55}
        assert tw1_at_2 in caches["triangles"]
        # pe2 at (3, 2) reads C(4, 2)_q: columns 0..2 of row 4
        qbinom_at_1 = {"weights": "_qbinom_weights", "alpha": 1, "rows": 1, "cells": 3}
        assert qbinom_at_1 in caches["triangles"]

    def test_forward_entries_are_computed_once_each(self, cold_memo, monkeypatch):
        # qbinom_inv reads F_0..F_k at every k: a cold suite computes each
        # (alpha, sample, j) once, 2 alphas x 3 samples x j = 0..6
        calls = []
        entry = verify._qbinom_transform_entry

        def counted(f, j, alpha):
            calls.append((alpha, j))
            return entry(f, j, alpha)

        monkeypatch.setattr(verify, "_qbinom_transform_entry", counted)
        report = run_suite(alpha_list=(1, 2), n_max=6)
        assert report.failed == []
        # one call per sample at each (alpha, j)
        assert Counter(calls) == {(a, j): 3 for a in (1, 2) for j in range(7)}
        assert report.caches["forward_entries"] == 42
        run_suite(suite="q", alpha_list=(1, 2), n_max=6)
        assert len(calls) == 42

    def test_a_failed_point_keeps_every_field_of_its_check(self):
        # the suite records failures only, untimed; check_identity times its point
        report = run_suite(suite="q", alpha_list=(1,), n_max=2, mode="as_printed")
        assert report.failed
        for r in report.failed:
            single = check_identity(r.id, r.params)
            assert r[:-1] == single[:-1] and r.passed is False and r.var == "q"
            assert r.elapsed == 0.0 < single.elapsed
            assert r.lhs_canonical == single.lhs_canonical

    def test_an_identity_that_ran_no_check_took_no_time(self):
        tallies = run_suite(suite="q", alpha_list=(3,), n_max=2).identities
        idle = {i for i, t in tallies.items() if t["checks"] == 0}
        assert idle and all(tallies[i]["seconds"] == 0.0 for i in idle)
        assert all(t["seconds"] > 0 for i, t in tallies.items() if i not in idle)

    def test_cold_memo_empties_every_memo_the_report_counts(self, cold_memo):
        monomial(3).to_str()  # the formats of ``LaurentPoly.to_str``
        filled = run_suite(alpha_list=(1, 2), n_max=4).caches
        assert all(filled.values()), filled
        clear_caches()
        caches = {name: count() for name, (count, _) in _MEMOS.items()}
        assert set(caches) == set(filled)
        assert caches.pop("triangles") == []
        assert all(count == 0 for count in caches.values()), caches

    def test_a_rebound_qint_is_still_counted_and_cleared(self, cold_memo, monkeypatch):
        # the table took qint's cache_info and cache_clear at import, so a
        # wrapper without them, as a tracer installs, hides nothing
        cached = qcalc.qint
        monkeypatch.setattr(qcalc, "qint", lambda n, base=1: cached(n, base))
        report = run_suite(suite="q", alpha_list=(1,), n_max=2)
        assert report.caches["qint"] == cached.cache_info().currsize > 0
        clear_caches()
        assert cached.cache_info().currsize == 0


def test_every_lru_cache_enters_the_memo_table():
    # the parser and each identity's intrinsic grid hold no computed value
    exempt = {id(cli.build_parser), id(verify._intrinsic_domain)}
    entered = {id(getattr(clear, "__self__", None)) for _, clear in _MEMOS.values()}
    missing = [
        f"{module.__name__}.{name}"
        for module in (
            arith, base, classical, cli, dense, qcalc, qroutes, qwhitney, verify, whitney,
        )
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
        and value.__module__ == module.__name__
        and id(value) not in entered | exempt
    ]
    assert missing == []


def test_cache_stats_count_stored_rows_and_cells():
    _ROWS.clear()
    tw1(2, 30, 3)
    tw1(2, 31, 0)
    assert _triangles() == [{"weights": "_tw1_weights", "alpha": 2, "rows": 2, "cells": 5}]
    _ROWS.clear()


class TestSeriesOrderCoversTheGrid:
    """``pe2``, ``qr1.1``, ``r3`` and ``lah_egf`` read coefficient k (resp.
    n) of a truncated series; its order grows with that index past the
    default, 8 for the q-identities and 12 for the classical ones."""

    def test_pe2_at_k_12(self):
        from whitneylah.qcalc import qbinom

        for n in (1, 4, 12):
            lhs, rhs = get_identity("pe2").check(n=n, k=12)
            assert lhs == rhs == qbinom(n + 11, 12)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_qr1_1_at_n_12(self, alpha):
        from whitneylah.qcalc import qfact, qint
        from whitneylah.qwhitney import qwl

        for k in (3, 12):
            lhs, rhs = get_identity("qr1.1").check(alpha=alpha, k=k, n=12)
            expected = qfact(k, alpha) * qint(alpha) ** k * qwl(alpha, 12, k)
            assert lhs == rhs == expected

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_r3_at_n_13_to_16(self, alpha):
        for k in (3, 6):
            for n in range(13, 17):
                lhs, rhs = get_identity("r3").check(alpha=alpha, k=k, n=n)
                assert lhs == rhs == twl(alpha, n, k, route="product")

    def test_lah_egf_at_n_13_to_16(self):
        for k in (3, 6):
            for n in range(13, 17):
                lhs, rhs = get_identity("lah_egf").check(k=k, n=n)
                assert lhs == rhs == Fraction(lah(n, k), math.factorial(n))


class TestRecords:
    def records(self):
        spec = get_identity("lah_rec")
        return [(Config(), "n_max"), (spec.grid, "cap"), (spec, "check")]

    def test_fields_cannot_be_assigned_added_or_deleted(self):
        for record, name in self.records():
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1
            assert getattr(record, name) is not None

    def test_equal_configs_compare_and_hash_equal(self):
        a = Config(suite="q", alpha_list=[1, 2], n_max=3)
        b = Config(suite="q", alpha_list=(1, 2), n_max=3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Config(suite="q", alpha_list=(2, 1), n_max=3)
        assert a != Config(suite="q", alpha_list=(1, 2), n_max=4)
        assert a != ("q", (1, 2), 3, "corrected")

    def test_positional_config_equals_the_keyword_form(self):
        assert Config("q", (1,), 3) == Config(suite="q", alpha_list=(1,), n_max=3)
        assert Config("all", (1, 2), 8, "corrected") == Config()

    def test_config_repr(self):
        assert repr(Config()) == (
            "Config(suite='all', alpha_list=(1, 2), n_max=8, mode='corrected')"
        )

    def test_grid_and_report_are_tuples(self):
        grid = Grid(3, (1,), (("n", "0..top"),))
        assert grid == (3, (1,), (("n", "0..top"),), ())
        assert [p["n"] for p in grid.points((1,), 8, "corrected")] == [0, 1, 2, 3]
        report = run_suite(suite="classical", alpha_list=(1,), n_max=1)
        assert report._fields == (
            "total", "passed", "failed", "wall_time", "config", "identities", "caches"
        )

    def test_identity_spec_keeps_its_fields(self):
        spec = IdentitySpec("x", "d", "a", Grid(1, (), ()), max, "q")
        assert (spec.id, spec.suite, spec.modes, spec.check) == ("x", "q", ("corrected",), max)


class TestCheckResult:
    def test_fields_cannot_be_assigned(self):
        r = check_identity("lah_rec", {"n": 3, "k": 2})
        for name in ("passed", "lhs", "lhs_canonical"):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)

    def test_sides_render_only_when_read(self, monkeypatch):
        rendered = []

        def counted(value, var):
            rendered.append(value)
            return _render(value, var)

        monkeypatch.setattr(verify, "_render", counted)
        r = check_identity("q_defs", {"rel": "def2", "alpha": 1, "n": 3, "m": 2})
        report = run_suite(suite="q", alpha_list=(1,), n_max=2)
        assert r.passed and report.passed == report.total and rendered == []
        assert r.lhs_canonical == r.rhs_canonical == "1 + 3*q + 3*q^2 + q^3"
        assert rendered == [r.lhs, r.rhs]


def _literal_q_defs(rel, alpha, n, m):
    """The sides of ``q_defs`` as sums of one product per term."""
    t = m * alpha
    tval = qint_signed(t)
    if rel == "def1":
        lhs = gqf_point(t, alpha, n)
        return lhs, sum(qw1(alpha, n, k) * tval**k for k in range(n + 1))
    kind = qw2 if rel == "def2" else qwl
    lhs = tval**n if rel == "def2" else gqf_point(t, -alpha, n)
    return lhs, sum(kind(alpha, n, k) * gqf_point(t, alpha, k) for k in range(n + 1))


def _literal_qr2_sum(a, k, n, printed):
    """The alternating q-factorial sum of ``qr2`` term by term."""
    total = LaurentPoly.zero()
    for j in range(k + 1):
        exp = n * j + math.comb(j + 1, 2)
        if not printed:
            exp *= a
        total = total + (-1) ** j * (
            qint(a) ** j * monomial(-exp) * qwl(a, k, j) * qfact(n + j, a)
        )
    return total


class TestHornerSums:
    """The q-checks sum by Horner's rule. Their sides equal the literal
    term-by-term sums, above the grid's cap of 8 too, and a sum makes one
    product per step, each by a q-integer."""

    @pytest.mark.parametrize(
        "rel, alpha",
        [("def1", a) for a in (1, 2, 3, -1, -2, -3)]
        + [("def2", a) for a in (1, 2, 3, -1, -2, -3)]
        + [("def3", a) for a in (1, 2, 3)],
    )
    def test_q_defs_equals_the_literal_sums(self, rel, alpha):
        for n in range(11):
            for m in sorted({0, 1, n // 2, n}):
                sides = verify._chk_q_defs(rel, alpha, n, m)
                assert sides == _literal_q_defs(rel, alpha, n, m), (n, m)
                assert sides[0] == sides[1], (n, m)

    @pytest.mark.parametrize("printed", [False, True])
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_qr2_sum_equals_the_literal_sum(self, a, printed):
        for k in range(1, 7):
            for n in range(k - 1, 11):
                expected = _literal_qr2_sum(a, k, n, printed)
                assert verify._qr2_sum(a, k, n, printed) == expected, (k, n)

    @staticmethod
    def _trace(monkeypatch) -> tuple[list, list]:
        """Record, from here on, every product of two Laurent polynomials as
        the pair of its operands, leaving out those that build a step factor
        of a Horner sum; and, per Horner sum, the products it made. Every
        such product, by ``*`` or in ``lp_dot``, passes ``_times``, which
        ``arith`` and ``dense`` both hold."""
        products, sums = [], []
        times, horner = arith._times, verify._horner

        def recorded(x, y):
            products.append((x, y))
            return times(x, y)

        def traced(coeffs, factor):
            def step(k):
                start = len(products)
                out = factor(k)
                del products[start:]
                return out

            start = len(products)
            out = horner(coeffs, step)
            sums.append(products[start:])
            return out

        monkeypatch.setattr(arith, "_times", recorded)
        monkeypatch.setattr(dense, "_times", recorded)
        monkeypatch.setattr(verify, "_horner", traced)
        return products, sums

    @pytest.mark.parametrize("rel", ["def1", "def2", "def3"])
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_q_defs_rhs_makes_one_product_per_step(self, monkeypatch, rel, alpha):
        """The rhs at (n, m) makes exactly n products, the i-th from the
        inside by [t] (def1) or [t - i alpha] (def2, def3)."""
        products, sums = self._trace(monkeypatch)
        for n, m in [(0, 0), (3, 1), (8, 2), (8, 8), (10, 5)]:
            t = m * alpha
            steps = [qint_signed(t if rel == "def1" else t - i * alpha) for i in range(n)]
            verify._chk_q_defs(rel, alpha, n, m)  # fill the triangle memo
            sums.clear()
            verify._chk_q_defs(rel, alpha, n, m)
            assert len(sums) == 1
            assert [x for x, _ in sums[0]] == steps[::-1], (n, m)

    @pytest.mark.parametrize("printed", [False, True])
    def test_qr2_sum_makes_order_k_products(self, monkeypatch, printed):
        """One product per step j = k..1, by -q^(-e (n+j)) [a (n+j)]_q, and
        one by [n]_{q^a}!: the count does not grow with n."""
        products, sums = self._trace(monkeypatch)
        for a, k in [(1, 1), (2, 3), (3, 6)]:
            for n in (k - 1, 8, 10):
                e = 1 if printed else a
                steps = [
                    monomial(-e * (n + j), -1) * qint(a * (n + j))
                    for j in range(k, 0, -1)
                ]
                verify._qr2_sum(a, k, n, printed)  # fill the memos
                products.clear()
                sums.clear()
                verify._qr2_sum(a, k, n, printed)
                assert [x for x, _ in sums[0]] == steps, (a, k, n)
                assert [x for x, _ in products] == steps + [qfact(n, a)], (a, k, n)

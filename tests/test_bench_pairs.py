"""The verdict of ``tools/bench_pairs.summarise`` on hand-made runs: a gain
needs nine tenths of the pairs and a median margin above the parent's
interquartile range, ties count for neither side, and a metric's
direction decides which side wins; the unscaled figures of each run's
``measured`` line are summarised per side beside the scaled ones."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "checks", "unit": "count", "better": "higher"}
# the parent's runs: median 10.0, quartiles 9.5 and 10.5, so an IQR of 1.0
PARENT = [9.0, 9.4, 9.5, 9.5, 10.0, 10.0, 10.5, 10.5, 10.6, 11.0]


def runs(name: str, parent: list[float], change: list[float]) -> list[dict]:
    """One parent and one change run per pair, as ``main`` records them."""
    return [
        {"pair": i, "side": side, "result": {"metrics": {name: {"value": value}}}}
        for i, pair in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), pair)
    ]


def verdict(metric: dict, parent: list[float], change: list[float]) -> dict:
    return bench_pairs.summarise(runs(metric["name"], parent, change), [metric], 10)[
        metric["name"]
    ]


def test_the_parent_figures():
    got = verdict(LOWER, PARENT, PARENT)
    assert got["parent"] == {"median": 10.0, "q1": 9.5, "q3": 10.5}
    assert got["parent_iqr"] == 1.0
    assert (got["unit"], got["better"], got["bound"], got["pairs"]) == ("s", "lower", 0.25, 10)


def test_a_gain_wins_nine_pairs_by_more_than_the_iqr():
    change = [p - 2 for p in PARENT]
    change[0] = PARENT[0] + 1  # the change loses one pair
    got = verdict(LOWER, PARENT, change)
    assert got["change_wins"] == 9 and got["gain"]


def test_eight_wins_are_no_gain():
    change = [p - 2 for p in PARENT]
    change[0], change[1] = PARENT[0] + 1, PARENT[1] + 1
    got = verdict(LOWER, PARENT, change)
    assert got["change_wins"] == 8 and not got["gain"]


def test_a_margin_inside_the_iqr_is_no_gain():
    got = verdict(LOWER, PARENT, [p - 0.5 for p in PARENT])
    assert got["change_wins"] == 10 and not got["gain"]


def test_a_tie_counts_for_neither_side():
    change = [p - 2 for p in PARENT]
    change[0] = PARENT[0]
    assert verdict(LOWER, PARENT, change)["change_wins"] == 9
    assert verdict(LOWER, PARENT, PARENT)["change_wins"] == 0
    assert not verdict(LOWER, PARENT, PARENT)["gain"]


def test_higher_is_better_flips_the_direction():
    lower_values = [p - 2 for p in PARENT]
    higher_values = [p + 2 for p in PARENT]
    assert verdict(HIGHER, PARENT, lower_values)["change_wins"] == 0
    got = verdict(HIGHER, PARENT, higher_values)
    assert got["change_wins"] == 10 and got["gain"]
    assert not verdict(HIGHER, PARENT, lower_values)["gain"]


@pytest.mark.parametrize("metric", [LOWER, HIGHER])
def test_change_vs_parent_is_the_relative_change_of_the_medians(metric):
    down = verdict(metric, PARENT, [p * 0.75 for p in PARENT])
    up = verdict(metric, PARENT, [p * 1.25 for p in PARENT])
    assert down["change_vs_parent"] == pytest.approx(-0.25)
    assert up["change_vs_parent"] == pytest.approx(0.25)


def test_the_measured_line_is_read_off_stderr():
    stderr = (
        "  warm: 4 passes\n"
        'measured {"setup_s": 0.07, "wall_s": 0.5, "max_op_s": 0.1, "warm_wall_s": 0.01}\n'
        "done\n"
    )
    assert bench_pairs.measured_line(stderr) == {
        "setup_s": 0.07, "wall_s": 0.5, "max_op_s": 0.1, "warm_wall_s": 0.01
    }
    assert bench_pairs.measured_line("  warm: 4 passes\n") is None


def with_measured(all_runs: list[dict], name: str, scale: float) -> list[dict]:
    """``all_runs``, each with its value divided by ``scale`` recorded as
    measured, the way ``main`` keeps a run's ``measured`` line."""
    return [
        {**r, "measured": {name: r["result"]["metrics"][name]["value"] / scale}}
        for r in all_runs
    ]


def test_measured_figures_are_summarised_beside_the_scaled_ones():
    change = [p - 2 for p in PARENT]
    got = bench_pairs.summarise(
        with_measured(runs("wall_s", PARENT, change), "wall_s", 2.0), [LOWER], 10
    )["wall_s"]
    assert got["parent"] == {"median": 10.0, "q1": 9.5, "q3": 10.5}
    assert got["measured"] == {
        "parent": {"median": 5.0, "q1": 4.75, "q3": 5.25},
        "change": {"median": 4.0, "q1": 3.75, "q3": 4.25},
    }


def test_runs_without_a_measured_figure_are_skipped():
    all_runs = with_measured(runs("wall_s", PARENT, PARENT), "wall_s", 1.0)
    for r in all_runs[:4]:
        r["measured"] = None  # a run that printed no measured line
    all_runs[4]["measured"] = {}
    got = bench_pairs.summarise(all_runs, [LOWER], 10)["wall_s"]
    # the parent's runs of pairs 3..9 and the change's of pairs 2..9
    assert got["measured"]["parent"] == bench_pairs.quartiles(PARENT[3:])
    assert got["measured"]["change"] == bench_pairs.quartiles(PARENT[2:])
    assert got["parent"] == bench_pairs.quartiles(PARENT)


def test_a_metric_no_run_measured_has_no_measured_figures():
    got = bench_pairs.summarise(runs("wall_s", PARENT, PARENT), [LOWER], 10)["wall_s"]
    assert "measured" not in got


def test_a_side_with_fewer_than_two_measured_runs_has_no_quartiles():
    all_runs = with_measured(runs("wall_s", PARENT, PARENT), "wall_s", 1.0)
    for r in all_runs:
        if r["side"] == "change" and r["pair"] > 0:
            r["measured"] = None
    got = bench_pairs.summarise(all_runs, [LOWER], 10)["wall_s"]["measured"]
    assert got == {"parent": bench_pairs.quartiles(PARENT), "change": None}

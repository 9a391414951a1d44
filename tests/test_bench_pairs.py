"""The verdict of ``tools/bench_pairs.summarise`` on hand-made runs: a gain
needs nine tenths of the pairs and a median margin above the parent's
interquartile range, ties count for neither side, and a metric's
direction decides which side wins."""

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

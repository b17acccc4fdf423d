"""The verdict of scripts/bench_pairs.py on fixed paired runs."""
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 12.0]   # IQR 12.875 - 11.125


def test_quartiles_and_pairs_won():
    v = bench_pairs.verdict(PARENT, [p - 3.0 for p in PARENT], "lower", 0.25)
    assert v["parent"] == {"q1": 11.125, "median": 12.0, "q3": 12.875}
    assert v["change"]["median"] == 9.0
    assert (v["pairs"], v["won"], v["lost"]) == (10, 10, 0)
    assert v["parent_iqr"] == pytest.approx(1.75)
    assert v["worse_by"] == pytest.approx(-0.25)
    assert v["verdict"] == "gain"


def test_a_gain_needs_nine_pairs_of_ten_and_a_gap_wider_than_the_parent_iqr():
    # nine wins and a gap of 2.75 > IQR 1.75: a gain; eight wins: not
    nine = [p - 3.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    assert bench_pairs.verdict(PARENT, nine, "lower", 0.25)["verdict"] == "gain"
    eight = [p - 3.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    assert bench_pairs.verdict(PARENT, eight, "lower", 0.25)["won"] == 8
    assert bench_pairs.verdict(PARENT, eight, "lower", 0.25)["verdict"] == "same"
    # every pair won, by less than the parent's spread
    closer = [p - 1.0 for p in PARENT]
    assert bench_pairs.verdict(PARENT, closer, "lower", 0.25)["verdict"] == "same"


def test_ties_count_for_neither_side():
    v = bench_pairs.verdict([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "lower", 0.25)
    assert (v["won"], v["lost"]) == (1, 1)


def test_higher_is_better_metrics_turn_the_comparison_round():
    v = bench_pairs.verdict(PARENT, [p + 3.0 for p in PARENT], "higher", 0.25)
    assert (v["won"], v["verdict"]) == (10, "gain")
    lower = [p - 3.0 for p in PARENT]
    assert bench_pairs.verdict(PARENT, lower, "higher", 0.1)["verdict"] == "worse"


def test_worse_and_unresolved():
    # 25 % worse is within a 0.25 bound; 30 % is not
    assert bench_pairs.verdict([10.0] * 4, [12.5] * 4, "lower", 0.25)["verdict"] == "same"
    assert bench_pairs.verdict([10.0] * 4, [13.0] * 4, "lower", 0.25)["verdict"] == "worse"
    # the parent's IQR (1.75 of a median of 12) is wider than a 0.1 bound: a
    # change within the bound cannot be told apart, unless every one of its
    # runs beats every run of the parent
    assert bench_pairs.verdict(PARENT, [12.0] * 10, "lower", 0.1)["verdict"] == "unresolved"
    assert bench_pairs.verdict(PARENT, [9.9] * 10, "lower", 0.1)["verdict"] == "gain"
    # no gain (2.1 is within the parent's IQR of 4), but every run is better
    wide = [10.0, 14.0, 10.0, 14.0]
    assert bench_pairs.verdict(wide, [9.9] * 4, "lower", 0.1)["verdict"] == "same"


def test_unequal_or_empty_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.verdict([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        bench_pairs.verdict([], [], "lower", 0.25)

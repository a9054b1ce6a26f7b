"""The arithmetic of ``tools/bench_pairs.py``: no git and no subprocess."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("values", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0],
                                    [9.0, 3.0, 7.0, 1.0, 5.0, 2.0, 8.0]])
def test_quantiles_equal_numpys_linear_method(values):
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert bench_pairs.quantile(values, q) == pytest.approx(np.quantile(values, q),
                                                                abs=1e-12)


def test_summary_by_hand():
    s = bench_pairs.summary([4.0, 1.0, 3.0, 2.0, 10.0])
    assert (s["median"], s["q1"], s["q3"]) == (3.0, 2.0, 4.0)
    assert s["runs"] == [4.0, 1.0, 3.0, 2.0, 10.0]   # kept in pair order
    with pytest.raises(ValueError):
        bench_pairs.quantile([], 0.5)


def test_win_share_counts_ties_for_neither_side():
    base, change = [10.0, 10.0, 10.0, 10.0], [11.0, 9.0, 10.0, 12.0]
    assert bench_pairs.win_share(base, change, "higher") == 0.5
    assert bench_pairs.win_share(base, change, "lower") == 0.25
    with pytest.raises(ValueError):
        bench_pairs.win_share([1.0], [1.0, 2.0], "higher")


@pytest.mark.parametrize("better, change, worse", [
    ("higher", 74.0, True), ("higher", 75.0, False), ("higher", 130.0, False),
    ("lower", 126.0, True), ("lower", 125.0, False), ("lower", 60.0, False),
])
def test_worse_than_bound_follows_the_metric_direction(better, change, worse):
    assert bench_pairs.worse_than_bound(100.0, change, better, 0.25) is worse


def test_pairs_alternate_which_side_runs_first():
    orders = [bench_pairs.run_order(i) for i in range(1, 5)]
    assert orders == [("base", "change"), ("change", "base")] * 2


def test_metric_report_joins_the_pieces():
    spec = {"name": "eval_mentions_per_s", "unit": "mentions/s", "better": "higher",
            "bound": 0.25}
    report = bench_pairs.metric_report([100.0, 110.0, 90.0], [70.0, 80.0, 95.0], spec)
    assert report["base"]["median"] == 100.0 and report["change"]["median"] == 80.0
    assert report["change_win_share"] == pytest.approx(1 / 3)
    assert report["worse_than_bound"] is False   # 20% worse, within 25%
    assert (report["unit"], report["better"], report["bound"]) == ("mentions/s", "higher", 0.25)

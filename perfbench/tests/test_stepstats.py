import pytest

from stepstats import TAIL_MIN_BEYOND, beyond, percentile, rung
from workloads import WORKLOADS


@pytest.mark.parametrize("n, pct", [
    (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (150, 90.0), (999, 90.0),
    (1000, 99.0), (5000, 99.0),
])
def test_rung_is_highest_with_ten_beyond(n, pct):
    assert rung(n) == pct
    assert beyond(n, rung(n)) >= TAIL_MIN_BEYOND


def test_rung_falls_back_to_lowest():
    assert rung(19) == 50.0 and beyond(19, 50.0) == 9


def test_each_workload_reports_one_fixed_tail_percentile():
    assert {name: wl.tail_pct for name, wl in WORKLOADS.items()} == {
        "train_image": 90.0, "train_video": 75.0, "train_coupled": 75.0,
        "eval_clips": 90.0}


def test_tail_value_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]   # 1..100, shuffled below
    values = values[::2] + values[1::2]
    assert percentile(values, 90.0) == 90.0 and beyond(100, 90.0) == 10


def test_percentile_and_beyond_agree():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 0) == 1.0
    assert beyond(5, 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)

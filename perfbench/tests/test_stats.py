"""The percentile rule, the spread figure and the input seeds of a run."""

import statistics

import pytest

from stats import (MIN_BEYOND, beyond_count, nearest_rank, relative_iqr,
                   tail_percentile)


def test_nearest_rank_returns_an_observed_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 50.0) == 3.0
    assert nearest_rank(values, 100.0) == 5.0
    assert nearest_rank(values, 1.0) == 1.0
    assert nearest_rank(list(range(1, 101)), 90.0) == 90


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


@pytest.mark.parametrize("n, percentile, expected", [
    (19, None, None),        # even the median has only 9 samples beyond
    (20, 50.0, 10),
    (39, 50.0, 19),
    (40, 75.0, 10),
    (99, 75.0, 24),          # p90 would leave 9 beyond
    (100, 90.0, 10),
    (199, 90.0, 19),
    (200, 95.0, 10),
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, percentile, expected):
    values = [float(i) for i in range(n)]
    tail = tail_percentile(values)
    if percentile is None:
        assert tail is None
        return
    got, value, count = tail
    assert got == percentile
    assert count == n
    assert beyond_count(n, got) == expected >= MIN_BEYOND
    # Exactly `expected` samples are strictly greater than the value.
    assert sum(1 for v in values if v > value) == expected


def test_tail_sample_count_reports_every_sample():
    values = [0.1] * 150 + [2.0] * 50
    percentile, value, count = tail_percentile(values)
    assert (percentile, value, count) == (95.0, 2.0, 200)


def test_relative_iqr_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert relative_iqr(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert relative_iqr([3.0]) == 0.0


def test_input_seeds_repeat_the_first_input_then_draw_new_ones():
    from run import input_seed

    plain = [input_seed(7, index, False) for index in range(6)]
    assert plain[0] == plain[1]
    assert len(set(plain[1:])) == 5
    assert plain == [input_seed(7, index, False) for index in range(6)]
    assert all(0 <= seed < 2 ** 31 for seed in plain)
    traced = [input_seed(7, index, True) for index in range(6)]
    assert traced[0::2] == traced[1::2]
    assert len(set(traced)) == 3
    assert input_seed(8, 0, False) != plain[0]

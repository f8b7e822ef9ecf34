import statistics

import pytest

from bench.stats import quartiles, spread


def test_quartiles_match_the_drivers_method():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, median, q3 = quartiles(values)
    expected = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected[0], expected[2])
    assert median == statistics.median(values)
    assert spread(values) == (q3 - q1) / median


def test_one_value_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0


def test_no_values_is_an_error():
    with pytest.raises(ValueError):
        quartiles([])

import time
from fractions import Fraction

from instanton_zeta.qseries import QQ, QSeries
from instanton_zeta.report import compare


def geometric(trunc):
    return QSeries.from_pairs(QQ, [(n, 1) for n in range(int(trunc) + 1)],
                              trunc, 1)


def test_compare_passes_at_the_requested_order():
    result = compare("geometric", lambda: (geometric(6), geometric(8)), 6)
    assert result.passed
    assert result.max_exponent == 6
    assert result.first_difference is None
    assert result.note == ""


def test_compare_fails_when_a_side_stops_short():
    result = compare("short rhs", lambda: (geometric(6), geometric(4)), 6)
    assert not result.passed
    assert result.max_exponent == 4
    assert result.first_difference is None
    assert "q^4" in result.note


def test_compare_reports_first_difference_within_the_compared_bound():
    wrong = geometric(6) + QSeries.from_pairs(QQ, [(Fraction(3), 1)], 6, 1)
    result = compare("perturbed", lambda: (geometric(6), wrong), 6)
    assert not result.passed
    assert result.first_difference == 3


def test_compare_times_the_build():
    calls = []

    def build():
        calls.append(1)
        time.sleep(0.01)
        return geometric(3), geometric(3)

    result = compare("timed", build, 3)
    assert calls == [1]
    assert result.seconds >= 0.01

import time
from fractions import Fraction

from instanton_zeta.qseries import QQ, QSeries
from instanton_zeta.report import VerifyReport, check, compare, csv_rows


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


def test_check_times_the_whole_run_and_defaults_the_bound():
    def run():
        time.sleep(0.01)
        return {"passed": False, "note": "built and read"}

    result = check("structural", 5, run)
    assert result.seconds >= 0.01
    assert (result.name, result.max_exponent, result.passed,
            result.first_difference, result.note) == (
        "structural", 5, False, None, "built and read")


def test_renderings_carry_every_field():
    wrong = geometric(6) + QSeries.from_pairs(QQ, [(Fraction(3), 1)], 6, 1)
    report = VerifyReport(suite="demo", results=[
        compare("perturbed", lambda: (geometric(6), wrong), 6),
        check("note only", Fraction(1, 2),
              lambda: {"passed": True, "note": "zero"})])
    bad, good = report.results
    assert report.as_dict() == {"suite": "demo", "ok": False, "results": [
        {"name": "perturbed", "max_exponent": "6", "passed": False,
         "first_difference": "3", "seconds": round(bad.seconds, 4),
         "note": ""},
        {"name": "note only", "max_exponent": "1/2", "passed": True,
         "first_difference": None, "seconds": round(good.seconds, 4),
         "note": "zero"}]}
    assert csv_rows([report]) == [
        ["suite", "identity", "max_exponent", "passed", "first_difference",
         "seconds"],
        ["demo", "perturbed", "6", False, "3", f"{bad.seconds:.3f}"],
        ["demo", "note only", "1/2", True, "", f"{good.seconds:.3f}"]]
    assert report.lines() == [
        f"FAIL perturbed  (checked to q^6, {bad.seconds:.2f}s)  first "
        f"difference at q^3",
        f"ok   note only  (checked to q^1/2, {good.seconds:.2f}s)  [zero]"]

from fractions import Fraction

import pytest

from instanton_zeta.assembly import DEN
from instanton_zeta.errors import IntegrityError, TruncationError
from instanton_zeta.formexpr import CLOSED_FORMS
from instanton_zeta.laurent import LPoly
from instanton_zeta.forms import as_qseries, gen_form
from instanton_zeta.qseries import LAURENT, QSeries
from instanton_zeta.forms import eta_pow_inverse
from instanton_zeta.results import (RELATIONS, TABLE_CLASSES, TABLE_SOURCES,
                                    assemble_theorem, check_limit_lemmas,
                                    euler_table, theorem_closed_form, ztilde)
from instanton_zeta.tratfunc import exact_quotient

ORDER = 10


def test_ztilde_vodd_leading_cancellation():
    z = ztilde("vOdd", ORDER)
    assert z.coeff(Fraction(-1, 2)) == 0
    assert z.coeff(Fraction(1, 2)) == 20


def test_ztilde_grids_and_integrality():
    zev = ztilde("vEven", ORDER)
    assert zev.leading()[0] == 0
    assert all(e.denominator == 1 and c.denominator == 1
               for e, c in zev.pairs())
    zodd = ztilde("vOdd", ORDER)
    assert zodd.leading()[0] == Fraction(1, 2)
    assert all(c.denominator == 1 for _, c in zodd.pairs())


def test_ztilde_v0_singular_rationals():
    z = ztilde("v0", ORDER)
    assert z.coeff(-1) == Fraction(-1, 4)
    # odd-Delta (even exponent) coefficients are honest Euler numbers
    assert all(z.coeff(e).denominator == 1
               for e in range(0, ORDER, 2))


def test_pipeline_matches_closed_forms():
    for tag in ("v0", "vEven", "vOdd"):
        z = ztilde(tag, ORDER)
        closed = theorem_closed_form(tag, ORDER)
        assert z.first_difference(closed, upto=ORDER) is None, tag


def test_check_limit_lemmas():
    assert check_limit_lemmas(12).ok


def test_assemble_theorem_small():
    report = assemble_theorem(8)
    assert report.ok
    z0 = ztilde("0", 8)
    assert z0.coeff(-1) == Fraction(-1, 8)
    assert ztilde("f_v0", 8).coeff(-1) == 0
    assert all(c.denominator == 1 for _, c in ztilde("f_v0", 8).pairs())
    assert ztilde("even", 8).first_difference(ztilde("vEven", 8)) is None
    assert ztilde("v0_int", 8).first_difference(ztilde("f_v0", 8)) is None


def test_ztilde_reads_every_relation_key():
    inv = eta_pow_inverse(2, 12, 6)
    for key, (tag, c) in RELATIONS.items():
        want = ztilde(tag, 6) + inv.scale(c)
        assert ztilde(key, 6).first_difference(want, upto=6) is None, key


def test_integrality_note_names_the_function(monkeypatch):
    # a relation with a non-integer c breaks integrality at its first term;
    # ztilde caches every key, so no patched series may outlive the patch
    from instanton_zeta import results
    ztilde.cache_clear()
    monkeypatch.setitem(results.RELATIONS, "f_vEven",
                        ("vEven", Fraction(1, 3)))
    try:
        report = assemble_theorem(2)
    finally:
        ztilde.cache_clear()
    line = next(r for r in report.results
                if r.name.startswith("integrality"))
    assert not line.passed
    assert line.note == "Zt_f_vEven[q^-1]=1/3"


def test_theorem_closed_form_rejects_a_key_without_one():
    with pytest.raises(ValueError, match="no closed form for 'f_v0'"):
        theorem_closed_form("f_v0", 2)


def test_theorem_lines_name_the_closed_form_cache_hit():
    # the pipeline lines build theorem_closed_form; the three theorem lines
    # read it from the cache, take about 0 s, and say why
    theorem_closed_form.cache_clear()
    report = assemble_theorem(7)
    notes = {r.name: r.note for r in report.results}
    for tag in ("vEven", "vOdd", "v0"):
        assert "cache" not in notes[f"pipeline Zt_{tag} = closed form"]
    for lam in ("0", "even", "odd"):
        assert notes[f"Zt_{lam} = theorem closed form"] == (
            "closed form from cache; its build is timed on the line that "
            "first built it")


def test_gauge_partition_functions_exact_heads():
    su2 = as_qseries(CLOSED_FORMS["Z_SU2"], 3)
    so3 = as_qseries(CLOSED_FORMS["Z_SO3"], 3)
    assert su2.coeff(-1) == Fraction(-1, 8)
    # the ruling-class term contributes 256 q^(-1/4) to the SO(3) function
    assert so3.coeff(Fraction(-1, 4)) == 256
    assert so3.coeff(-1) == Fraction(-1, 4)


def test_su2_is_half_z0_minus_eta_term():
    su2 = as_qseries(CLOSED_FORMS["Z_SU2"], 5)
    z0 = theorem_closed_form("0", 5)
    eta2_12_inv = (gen_form("eta", 8, 2) ** 12).inverse().truncate(5)
    want = z0.scale(Fraction(1, 2)) - eta2_12_inv.scale(Fraction(1, 16))
    assert su2.first_difference(want) is None


def test_zw_forms_exist_numeric_only():
    w0 = CLOSED_FORMS["Zw0"]
    from instanton_zeta.errors import FractionalExponentError
    from instanton_zeta.errors import InstantonZetaError
    with pytest.raises((FractionalExponentError, InstantonZetaError)):
        as_qseries(w0, 3)


def test_euler_table_odd():
    tab = euler_table("odd", Fraction(7, 2))
    assert [r.delta for r in tab.rows] == [Fraction(1, 2), Fraction(3, 2),
                                           Fraction(5, 2), Fraction(7, 2)]
    r0 = tab.rows[0]
    assert (r0.dim, r0.euler, r0.betti) == (-1, 0, None)
    r1 = tab.rows[1]
    assert r1.dim == 3 and r1.euler == 20 and r1.betti == [1, 9, 9, 1]
    for r in tab.rows:
        if r.betti is not None:
            assert r.betti == r.betti[::-1]
            assert sum(r.betti) == r.euler


def test_euler_table_v0_singular_flags():
    tab = euler_table("v0", 4)
    flags = {r.delta: r.singular for r in tab.rows}
    assert flags == {0: True, 1: False, 2: True, 3: False, 4: True}
    assert all(r.betti is None for r in tab.rows if r.singular)
    chi2 = next(r for r in tab.rows if r.delta == 2)
    assert chi2.euler == 129


def test_euler_table_lambda0():
    tab = euler_table("lambda0", 3)
    chi = {r.delta: r.euler for r in tab.rows}
    assert chi[0] == Fraction(-1, 8)
    assert chi[2] == Fraction(261, 2)
    assert chi[3] == 3680


def test_euler_table_bad_request():
    with pytest.raises(ValueError):
        euler_table("vEven", 3)          # not a table class name
    with pytest.raises(TruncationError):
        euler_table("odd", Fraction(1, 4))


def test_smooth_chi_equals_poincare_at_one():
    from instanton_zeta.assembly import proposition_series
    prop = proposition_series("vEven", 5)
    z = ztilde("vEven", 5)
    for delta in range(1, 6):
        poincare = exact_quotient(prop.coeff(delta), DEN)
        assert poincare.eval_one() == z.coeff(delta - 1)


def test_pole_at_one_is_an_integrity_error(monkeypatch):
    # at the singular Delta = 0 of v0 the numerator is -(t-1)^2, which
    # cancels both factors t - 1 of DEN; off by 1 it cancels neither
    from instanton_zeta import results
    build = results.proposition_series

    def perturbed(tag, trunc):
        series = build(tag, trunc)
        return series + QSeries.from_pairs(LAURENT, [(0, 1)], series.trunc, 1)

    monkeypatch.setattr(results, "proposition_series", perturbed)
    with pytest.raises(IntegrityError) as err:
        ztilde.__wrapped__("v0", 2)
    assert str(err.value) == "v0: pole of order 2 at t = 1"


@pytest.mark.parametrize("table_class", TABLE_CLASSES)
def test_euler_table_builds_the_assembly_once(table_class):
    # a lambda table reads the one pipeline class its relation reads; the
    # rows read Zt to q^(max_delta - 1) and the Betti numbers the assembly
    # to q^max_delta, so the one build stops at max_delta
    from instanton_zeta.assembly import proposition_series
    source = TABLE_SOURCES[table_class]
    base = RELATIONS[source][0] if source in RELATIONS else source
    proposition_series.cache_clear()
    ztilde.cache_clear()
    euler_table(table_class, 3)
    proposition_series(base, 3)
    assert proposition_series.cache_info().misses == 1


def test_table_rejects_a_row_that_fails_the_poincare_checks(monkeypatch):
    # the vEven row at Delta = 2 (dimension 5) made non-palindromic: the
    # table raises before it prints any Betti number
    from instanton_zeta import results
    build = results.proposition_series
    row = LPoly(0, (1, 11, 60, 61, 11, 1))

    def patched(tag, trunc):
        series = build(tag, trunc)
        terms = dict(series.terms)
        terms[2 * series.denom] = DEN * row
        return QSeries(series.ring, series.denom, series.trunc, terms)

    monkeypatch.setattr(results, "proposition_series", patched)
    ztilde.cache_clear()
    try:
        with pytest.raises(IntegrityError) as err:
            euler_table("even", 3)
    finally:
        ztilde.cache_clear()
    assert str(err.value) == ("even: Poincare polynomial at Delta = 2: "
                              "not palindromic")


def test_smoothness_then_ztilde_builds_the_assembly_once():
    # verify --suite all runs the smoothness suite, then the theorem suite
    from instanton_zeta.assembly import proposition_series, smoothness_report
    proposition_series.cache_clear()
    ztilde.cache_clear()
    smoothness_report("vEven", 3)
    ztilde("vEven", 3)
    assert proposition_series.cache_info().misses == 1


def test_off_grid_dimension_is_an_integrity_error(monkeypatch, capsys):
    # a grid offset of 1/3 gives dimension 4/3 - 3 at the first row
    import dataclasses

    from instanton_zeta import cli, results
    from instanton_zeta.surface import CLASSES
    moved = dataclasses.replace(CLASSES["vEven"], grid_offset=Fraction(1, 3))
    monkeypatch.setattr(results, "CLASSES", {**CLASSES, "vEven": moved})
    with pytest.raises(IntegrityError) as err:
        euler_table("even", 2)
    assert str(err.value) == ("even: non-integer dimension -5/3 at "
                              "Delta = 1/3")
    assert cli.main(["table", "--class", "even", "--max-delta", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: even: non-integer dimension -5/3 at Delta = 1/3\n")


def test_theorem_lines_time_the_relations(monkeypatch):
    # every class and relation series is read inside a line, so the lines'
    # seconds cover every sleep injected into its read
    import time

    from instanton_zeta import results
    assemble_theorem(2)   # warm the caches: the lines themselves are fast
    read = results.ztilde
    keys = []

    def slow_ztilde(key, trunc):
        time.sleep(0.01)
        keys.append(key)
        return read(key, trunc)

    monkeypatch.setattr(results, "ztilde", slow_ztilde)
    report = assemble_theorem(2)
    assert set(keys) == {"v0", "vEven", "vOdd", *results.RELATIONS}
    assert sum(r.seconds for r in report.results) >= 0.01 * len(keys)

from fractions import Fraction

import pytest

from instanton_zeta.assembly import DEN
from instanton_zeta.errors import IntegrityError, TruncationError
from instanton_zeta.formexpr import as_qseries
from instanton_zeta.forms import gen_form
from instanton_zeta.qseries import LAURENT, QSeries
from instanton_zeta.results import (assemble_theorem, check_limit_lemmas,
                                    euler_table, gauge_partition_functions,
                                    main_closed_form, theorem_closed_form,
                                    ztilde, zw_forms)
from instanton_zeta.tratfunc import exact_quotient

ORDER = 10


def test_ztilde_vodd_leading_cancellation():
    z = ztilde("vOdd", ORDER).series
    assert z.coeff(Fraction(-1, 2)) == 0
    assert z.coeff(Fraction(1, 2)) == 20


def test_ztilde_grids_and_integrality():
    zev = ztilde("vEven", ORDER).series
    assert zev.leading()[0] == 0
    assert all(e.denominator == 1 and c.denominator == 1
               for e, c in zev.pairs())
    zodd = ztilde("vOdd", ORDER).series
    assert zodd.leading()[0] == Fraction(1, 2)
    assert all(c.denominator == 1 for _, c in zodd.pairs())


def test_ztilde_v0_singular_rationals():
    z = ztilde("v0", ORDER).series
    assert z.coeff(-1) == Fraction(-1, 4)
    # odd-Delta (even exponent) coefficients are honest Euler numbers
    assert all(z.coeff(e).denominator == 1
               for e in range(0, ORDER, 2))


def test_pipeline_matches_closed_forms():
    for tag in ("v0", "vEven", "vOdd"):
        z = ztilde(tag, ORDER).series
        closed = main_closed_form(tag, ORDER)
        assert z.first_difference(closed, upto=ORDER) is None, tag


def test_check_limit_lemmas():
    assert check_limit_lemmas(12).ok


def test_assemble_theorem_small():
    report, funcs = assemble_theorem(8)
    assert report.ok
    z0 = funcs["0"].series
    assert z0.coeff(-1) == Fraction(-1, 8)
    assert funcs["f_v0"].series.coeff(-1) == 0
    assert all(c.denominator == 1 for _, c in funcs["f_v0"].series.pairs())
    assert funcs["even"].series.first_difference(
        funcs["vEven"].series) is None
    assert funcs["v0_int"].series.first_difference(
        funcs["f_v0"].series) is None


def test_theorem_lines_name_the_closed_form_cache_hit():
    # the pipeline lines build theorem_closed_form; the three theorem lines
    # read it from the cache, take about 0 s, and say why
    theorem_closed_form.cache_clear()
    main_closed_form.cache_clear()
    report, _ = assemble_theorem(7)
    notes = {r.name: r.note for r in report.results}
    for tag in ("vEven", "vOdd", "v0"):
        assert "cache" not in notes[f"pipeline Zt_{tag} = closed form"]
    for lam in ("0", "even", "odd"):
        assert notes[f"Zt_{lam} = theorem closed form"] == (
            "closed form from cache; its build is timed on the line that "
            "first built it")


def test_gauge_partition_functions_exact_heads():
    su2, so3 = gauge_partition_functions(3)
    assert su2.series.coeff(-1) == Fraction(-1, 8)
    # the ruling-class term contributes 256 q^(-1/4) to the SO(3) function
    assert so3.series.coeff(Fraction(-1, 4)) == 256
    assert so3.series.coeff(-1) == Fraction(-1, 4)
    assert su2.provenance == "closed-form" and su2.expr is not None


def test_su2_is_half_z0_minus_eta_term():
    su2, _ = gauge_partition_functions(5)
    z0 = theorem_closed_form("0", 5)
    eta2_12_inv = (gen_form("eta", 8, 2) ** 12).inverse().truncate(5)
    want = z0.scale(Fraction(1, 2)) - eta2_12_inv.scale(Fraction(1, 16))
    assert su2.series.first_difference(want) is None


def test_zw_forms_exist_numeric_only():
    w0, w1 = zw_forms()
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
    z = ztilde("vEven", 5).series
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


def test_euler_table_builds_the_assembly_once():
    from instanton_zeta.assembly import proposition_series
    proposition_series.cache_clear()
    ztilde.cache_clear()
    euler_table("v0", 3)
    assert proposition_series.cache_info().misses == 1

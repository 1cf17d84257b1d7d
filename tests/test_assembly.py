from fractions import Fraction

import pytest

from instanton_zeta.assembly import (DEN, a_sum, check_asum_closed_forms,
                                     mg_series, pochhammer16_inverse,
                                     poincare_problems, proposition_series,
                                     smoothness_report,
                                     theta_coset_sub, vacuum_product,
                                     wall_sum_oracle, zeta_factors,
                                     zeta_product_x)
from instanton_zeta.errors import IntegrityError
from instanton_zeta.laurent import LPoly
from instanton_zeta.qseries import LAURENT, QQ, QSeries, euler_product
from instanton_zeta.tratfunc import exact_quotient, value_at_one
from test_qseries import plain_euler_product

_T = LPoly.t_pow(1)
_RULED = (_T + 1) * (_T - 1) ** 2   # the vacuum prefactor's denominator
ONE = LPoly.const(1)


def tp(k, c=1):
    return LPoly.t_pow(k, c)


def zeta_factor(surface, t_pow, q_pow, trunc):
    return euler_product(LAURENT, zeta_factors(surface, t_pow, q_pow), trunc)


def test_zeta_factor_first_order():
    # u = t q: coefficient of q is t (1 + 10 t + t^2)
    z = zeta_factor("X", 1, 1, 2)
    assert z.coeff(0) == ONE
    assert z.coeff(1) == tp(1) + tp(2, 10) + tp(3)


def test_zeta_factor_sigma1_at_t_one():
    # 1/(1-u)^4 when t = 1: binomial tail
    z = zeta_factor("Sigma1", 0, 1, 5)
    for k in range(6):
        from math import comb
        assert z.coeff(k).eval_one() == comb(k + 3, 3)


def test_zeta_factor_requires_positive_q_power():
    with pytest.raises(ValueError):
        zeta_factor("X", 1, 0, 3)


def test_vacuum_f_constant_term():
    # F starts at 1, and its prefactor 1/(t^3 - t^2 - t + 1) is 2t over DEN
    f = vacuum_product("F", 2)
    assert f.coeff(0) == ONE
    assert _RULED == LPoly.from_pairs([(3, 1), (2, -1), (1, -1), (0, 1)])
    assert exact_quotient(DEN, _RULED) == 2 * _T


def test_vacuum_g_regular_at_one():
    g = vacuum_product("G", 6)
    for _, c in g.pairs():
        value_at_one(c, _RULED)  # must not raise
    assert value_at_one(g.coeff(1), _RULED) == 2


def test_a_sum_values_at_one():
    a4 = a_sum(4, 3).map_coeffs(lambda c: c.eval_one(), QQ)
    assert a4.pairs() == [(1, 2), (3, 8)]
    a1v = a_sum(1, 4).map_coeffs(lambda c: c.eval_one(), QQ)
    assert a1v.pairs() == [(4, 4)]
    a2v = a_sum(2, 2).map_coeffs(lambda c: c.eval_one(), QQ)
    assert a2v.pairs() == [(2, 4)]


def test_a_sum_closed_forms_to_20():
    assert check_asum_closed_forms(20).ok


def test_pochhammer16():
    p = pochhammer16_inverse(3)
    assert p.coeff(0) == ONE
    assert p.coeff(1) == tp(2, 16)       # 16 q t^2
    assert p.coeff(2) == tp(4, 152)      # (16 + C(17,2) - 16) ... frozen


def test_theta_coset_sub_values():
    # theta at u^2 with u = t^2 q: the norm-j shell lands at t^(2j) q^j,
    # so the even-sum lattice itself only populates even q-powers
    th = theta_coset_sub((0,) * 8, 4)
    assert th.coeff(0) == ONE
    assert th.coeff(1).is_zero
    assert th.coeff(2) == tp(4, 112)
    assert th.coeff(4) == tp(8, 1136)
    # the norm-1 coset populates the odd powers
    from instanton_zeta.surface import SURFACE
    thq = theta_coset_sub(SURFACE.q_half_e_coords, 3)
    assert thq.coeff(1) == tp(2, 16)
    assert thq.coeff(2).is_zero


def test_mg_series_leading():
    # the q^0 numerator of the ruling-semistable series is the vacuum
    # prefactor's, 2t over DEN: every other factor is 1 + O(q)
    mg = mg_series("v0", 2)
    assert mg.coeff(0) == 2 * _T


def test_mg_series_uses_odd_character_powers():
    # the odd class has quarter-integer exponents from the two half-shifted
    # factors; the product of the two lands on the half-integer grid
    mg = mg_series("vOdd", 3)
    assert all((2 * e).denominator == 1 for e, _ in mg.pairs())
    assert any(e.denominator == 2 for e, _ in mg.pairs())


def test_proposition_smooth_poincare_polynomials():
    prop = proposition_series("vEven", 3)
    c1 = exact_quotient(prop.coeff(1), DEN)
    assert c1.pairs() == [(0, 1), (1, 1)]        # P(P^1) = 1 + t
    c2 = exact_quotient(prop.coeff(2), DEN)
    assert [c2.coeff(k) for k in range(6)] == [1, 11, 60, 60, 11, 1]


def test_proposition_vodd_empty_at_half():
    prop = proposition_series("vOdd", Fraction(5, 2))
    assert prop.coeff(Fraction(1, 2)).is_zero
    c = exact_quotient(prop.coeff(Fraction(3, 2)), DEN)
    assert [c.coeff(k) for k in range(4)] == [1, 9, 9, 1]


def test_proposition_v0_singular_values():
    prop = proposition_series("v0", 2)
    c0 = prop.coeff(0)
    assert exact_quotient(c0, DEN) is None
    assert value_at_one(c0, DEN) == Fraction(-1, 4)
    assert c0 == -(_T - 1) ** 2                 # -1/(2t(t+1)) over DEN
    assert value_at_one(prop.coeff(2), DEN) == 129


def test_smoothness_reports():
    assert smoothness_report("vEven", 6).ok
    assert smoothness_report("vOdd", 6).ok


def test_palindromic_row_that_falls_before_the_middle_is_not_unimodal():
    assert poincare_problems(LPoly(0, (1, 3, 1, 3, 1)), 4) == [
        "not unimodal"]
    assert poincare_problems(LPoly(0, (1, 3, 4, 3, 1)), 4) == []
    assert poincare_problems(LPoly(0, (1, 3, 3, 1)), 3) == []


@pytest.mark.parametrize("poly,dim,problem", [
    (None, 3, "not a polynomial"),
    (ONE, -1, "nonzero below the empty threshold"),
    (LPoly(-1, (1, 1)), 0, "negative t-powers"),
    (LPoly(0, (1, 2, 1)), 3, "degree 2 != 3"),
    (LPoly(0, (1, -1, 1)), 2, "coefficients not nonneg integers"),
    (LPoly(0, (1, 2, 3)), 2, "not palindromic"),
    (LPoly(0, (1, 0, 1)), 2, "not unimodal"),
    (LPoly(0, (2, 2)), 1, "constant term != 1"),
])
def test_each_malformed_row_names_its_one_problem(poly, dim, problem):
    # a row of integers that starts at 1, rises to its middle and mirrors
    # has no negative coefficient, so a negative one also breaks unimodality
    also = ["not unimodal"] if problem.startswith("coefficients") else []
    assert poincare_problems(poly, dim) == [problem] + also


def test_a_smooth_coefficient_with_a_fractional_quotient_is_rejected(
        monkeypatch):
    # t RULED is DEN / 2: its quotient 1/2 would be a fractional Betti number
    from instanton_zeta import assembly

    def assemble(tag, trunc, bracket):
        return QSeries.from_pairs(LAURENT, [(2, _T * _RULED)], trunc, 1)

    monkeypatch.setattr(assembly, "_assemble", assemble)
    with pytest.raises(IntegrityError) as err:
        proposition_series.__wrapped__("vEven", 2)
    assert str(err.value) == ("vEven: coefficient at Delta = 2 is not an "
                              "integer Laurent polynomial despite smoothness")


def test_smoothness_report_flags_a_non_unimodal_row(monkeypatch):
    # Delta = 2 of vEven has dimension 5: a palindromic sextic that dips
    # before the middle keeps Poincare duality and breaks Hard Lefschetz
    from instanton_zeta import assembly
    row = LPoly(0, (1, 3, 1, 1, 3, 1))

    def build(tag, trunc):
        return QSeries.from_pairs(LAURENT, [(2, DEN * row)], trunc, 1)

    monkeypatch.setattr(assembly, "proposition_series", build)
    report = smoothness_report("vEven", 2)
    assert [(r.max_exponent, r.passed, r.note) for r in report.results] == [
        (0, True, ""), (1, True, ""), (2, False, "not unimodal")]


def _zeta_product_factors(surface, shifts, trunc):
    return [f for a in range(1, trunc + 1) for s in shifts
            for f in zeta_factors(surface, 2 * a + s, a)]


def test_assembly_products_match_the_plain_recurrence():
    # zeta_product_x, the vacuum product F, the second product of G and
    # the 16-fold partition denominator, at q^25
    g_second = vacuum_product("F", 25) - vacuum_product("G", 25)
    cases = [
        (zeta_product_x(25), _zeta_product_factors("X", (-1, -1), 25)),
        (vacuum_product("F", 25),
         _zeta_product_factors("Sigma1", (-2, 0), 25)),
        (g_second, _zeta_product_factors("Sigma1", (-1, -1), 25)),
        (pochhammer16_inverse(25),
         [(tp(2 * a), a, 16) for a in range(1, 26)]),
    ]
    for got, factors in cases:
        want = plain_euler_product(LAURENT, factors, 25)
        assert got.trunc == want.trunc
        assert got.terms == want.terms


def test_wall_oracle_small_order():
    closed = proposition_series("vEven", 3)
    oracle = wall_sum_oracle("vEven", 3)
    assert closed.first_difference(oracle) is None


def test_wall_oracle_vodd_small_order():
    closed = proposition_series("vOdd", Fraction(5, 2))
    oracle = wall_sum_oracle("vOdd", Fraction(5, 2))
    assert closed.first_difference(oracle) is None


def test_zeta_product_x_head():
    z = zeta_product_x(2)
    assert z.coeff(0) == ONE
    # single factor a=1 squared: 2 * (coefficient of q in Z(X, t q))
    assert z.coeff(1) == (tp(1) + tp(2, 10) + tp(3)) * 2


def test_vodd_middle_coset_leading():
    # the boundary-filtration stratum of the odd class lives on the
    # norm-(1/2) coset: two vectors of norm 1/2 land at t q^(1/2)
    from instanton_zeta.surface import CLASSES
    shift = CLASSES["vOdd"].half_rep_e_coords
    th = theta_coset_sub(shift, 2)
    assert th.coeff(Fraction(1, 2)) == tp(1, 2)
    assert th.coeff(Fraction(3, 2)) == tp(3, 24)


def test_wall_finite_terms_strictly_positive_q_power():
    # mixed-sign cone terms start at q^1 at the earliest: the smallest
    # contribution is 4 * (1/2) * (1/2) from the half-integer offsets
    oracle = wall_sum_oracle("vEven", 2)
    mg = mg_series("vEven", 2)
    wall_part = oracle - mg
    # at q^0 the wall part is purely the degenerate-ray/middle prefactors
    c0 = wall_part.coeff(0)
    assert exact_quotient(c0, DEN) is None


def test_smoothness_clock_covers_the_build(monkeypatch):
    import time

    from instanton_zeta import assembly
    build = assembly.proposition_series

    def slow_build(tag, trunc):
        time.sleep(0.05)
        return build(tag, trunc)

    monkeypatch.setattr(assembly, "proposition_series", slow_build)
    report = smoothness_report("vEven", 2)
    assert sum(r.seconds for r in report.results) >= 0.05


def test_non_divisible_smooth_coefficient_is_an_integrity_error(monkeypatch):
    # one numerator coefficient off by 1 at the smooth Delta = 1 of vEven
    # is no longer divisible by DEN
    from instanton_zeta import assembly
    assemble = assembly._assemble

    def perturbed(tag, trunc, bracket):
        bump = QSeries.from_pairs(LAURENT, [(1, 1)], trunc, 1)
        return assemble(tag, trunc, bracket) + bump

    monkeypatch.setattr(assembly, "_assemble", perturbed)
    with pytest.raises(IntegrityError) as err:
        proposition_series.__wrapped__("vEven", 2)
    assert str(err.value) == ("vEven: coefficient at Delta = 1 is not an "
                              "integer Laurent polynomial despite smoothness")


def test_coset_theta_term_off_its_grid_is_an_integrity_error(monkeypatch):
    # a shell at q^(1/8) of the coset theta would land at t^(1/2)
    from instanton_zeta import assembly

    def off_grid(ambient, trunc):
        return QSeries.from_pairs(QQ, [(0, 1), (Fraction(1, 8), 2)], trunc, 8)

    monkeypatch.setattr(assembly, "d8_theta_ambient", off_grid)
    with pytest.raises(IntegrityError, match=r"q\^1/8 is off q\^\(Z/4\)"):
        theta_coset_sub((0,) * 8, 2)


def _shifted_coset_points(monkeypatch, dq):
    from instanton_zeta import assembly
    points = assembly.coset_points

    def shifted(gram, shift, max_q):
        for y, qd in points(gram, shift, max_q):
            yield y, qd + dq

    monkeypatch.setattr(assembly, "coset_points", shifted)


def test_wall_oracle_norm_mismatch_is_an_integrity_error(monkeypatch):
    # (2 delta, 2 delta) reported 4 below the norm of the point
    _shifted_coset_points(monkeypatch, -4)
    with pytest.raises(IntegrityError, match="breaks its norm or t-parity"):
        wall_sum_oracle("vEven", 1)


def test_wall_oracle_odd_ray_norm_is_an_integrity_error(monkeypatch):
    # at q^1 no cone term fits the a = 0 strata, so the degenerate ray
    # reads the odd norm first
    _shifted_coset_points(monkeypatch, 1)
    with pytest.raises(IntegrityError, match=r"odd \(2 delta\)\^2"):
        wall_sum_oracle("v0", 1)


def test_wall_oracle_odd_t_power_is_an_integrity_error(monkeypatch):
    # a canonical class moved by H pairs oddly with every 2 xi of vEven,
    # whose representative pairs oddly with H; the first cone term is at q^2
    import copy

    from instanton_zeta import assembly
    from instanton_zeta.surface import SURFACE, vec_add
    surface = copy.copy(SURFACE)
    surface.K = vec_add(SURFACE.K, SURFACE.H)
    monkeypatch.setattr(assembly, "SURFACE", surface)
    with pytest.raises(IntegrityError, match="breaks its norm or t-parity"):
        wall_sum_oracle("vEven", 2)

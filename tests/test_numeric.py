import random
from fractions import Fraction

import mpmath as mp
import pytest

from instanton_zeta.errors import PrecisionError
from instanton_zeta.formexpr import (DERIVED_FORMS, E2Slot, Mul, Pow,
                                     as_qseries, leaf)
from instanton_zeta.forms import gen_form
from instanton_zeta.numeric import (eval_exact_series_at, eval_form,
                                    sduality_check)
from instanton_zeta.results import (gauge_partition_functions,
                                    mnvw_form_expr, zw_forms)

TAU = mp.mpc(0.13, 1.21)


def _close(a, b, digits):
    return abs(a - b) < mp.mpf(10) ** (-digits)


def test_theta3_at_i_closed_form():
    with mp.workdps(60):
        got = eval_form(leaf("theta3"), mp.mpc(0, 1), digits=45)
        want = mp.pi ** mp.mpf(0.25) / mp.gamma(mp.mpf(3) / 4)
        assert _close(got, want, 44)


def test_e2_at_i_is_three_over_pi():
    with mp.workdps(60):
        got = eval_form(leaf("E2"), mp.mpc(0, 1), digits=45)
        assert _close(got, 3 / mp.pi, 44)


def test_anomaly_slot_vanishes_at_i():
    with mp.workdps(60):
        got = eval_form(E2Slot(), mp.mpc(0, 1), digits=45, e2_mode="anomaly")
        assert abs(got) < mp.mpf(10) ** -44


def test_eta_product_vs_series_power():
    # two representations of one function: eta evaluated via its product,
    # raised to 24, against the exact series of eta^24 summed numerically
    eta24 = gen_form("eta", 40) ** 24
    with mp.workdps(60):
        series_val = eval_exact_series_at(eta24, TAU, digits=45)
        prod_val = eval_form(Pow(leaf("eta"), 24), TAU, digits=45)
        assert _close(series_val, prod_val, 38)


def test_product_homomorphism_random_exprs():
    rng = random.Random(3)
    leaves = [leaf("theta2"), leaf("theta3"), leaf("theta4", 2),
              leaf("E4", Fraction(1, 2)), leaf("eta"), leaf("E2", 2)]
    with mp.workdps(55):
        for _ in range(12):
            parts = rng.sample(leaves, k=rng.randint(2, 4))
            prod_expr = Mul(tuple(parts))
            lhs = eval_form(prod_expr, TAU, digits=40)
            rhs = mp.mpc(1)
            for p in parts:
                rhs *= eval_form(p, TAU, digits=40)
            assert abs(lhs - rhs) < mp.mpf(10) ** -38 * max(1, abs(rhs))


def test_exact_vs_numeric_consistency_eisenstein():
    e4 = gen_form("E4", 60)
    with mp.workdps(55):
        series_val = eval_exact_series_at(e4, TAU, digits=40)
        num_val = eval_form(leaf("E4"), TAU, digits=40)
        # tail bound: |q|^61 * growth margin, far below 1e-30 at Im = 1.21
        assert abs(series_val - num_val) < mp.mpf(10) ** -30


def _closed_exprs():
    su2, so3 = gauge_partition_functions()
    exprs = {name: leaf(name) for name in DERIVED_FORMS}
    exprs.update({"Z0": mnvw_form_expr("0"), "Z_even": mnvw_form_expr("even"),
                  "Z_odd": mnvw_form_expr("odd"), "Z_SU2": su2.expr,
                  "Z_SO3": so3.expr})
    return exprs


@pytest.mark.parametrize("name", sorted(_closed_exprs()))
def test_exact_vs_numeric_derived_and_closed_forms(name):
    # both evaluators read the same tree; the q^12 truncation tail is far
    # below 1e-30 at Im tau >= 2
    expr = _closed_exprs()[name]
    series = as_qseries(expr, 12, e2_mode="E2")
    with mp.workdps(55):
        for tau in (mp.mpc(0, 2), mp.mpc(0.3, 2.5)):
            exact = eval_exact_series_at(series, tau)
            num = eval_form(expr, tau, 40, e2_mode="E2")
            assert abs(exact - num) < mp.mpf(10) ** -30 * abs(num), tau


def test_min_im_rejected():
    with pytest.raises(PrecisionError):
        eval_form(leaf("theta3"), mp.mpc(0, 0.01), digits=20)


def test_zw_sum_is_eta_inverse_power():
    w0, w1 = zw_forms()
    with mp.workdps(55):
        lhs = eval_form(w0, TAU, 40) + eval_form(w1, TAU, 40)
        rhs = eval_form(Pow(leaf("eta", Fraction(1, 2)), -12), TAU, 40)
        assert abs(lhs - rhs) < mp.mpf(10) ** -35 * abs(rhs)


@pytest.mark.parametrize("tau", [mp.mpc(0, 1), mp.mpc(0.3, 1.1),
                                 mp.mpc(-0.2, 0.9)])
def test_sduality_at_required_points(tau):
    report = sduality_check(tau, digits=40)
    assert report.passed
    assert report.rel_error < 1e-30
    assert report.seconds < 30


def test_sduality_holomorphic_mode_is_diagnostic():
    report = sduality_check(mp.mpc(0, 1), digits=30, resolution="E2")
    assert report.passed is None
    # the residual is genuinely large: the anomaly term matters
    assert report.rel_error > 1e-6


def test_sduality_check_evaluates_each_leaf_once_per_point(monkeypatch):
    # 21 distinct (leaf, argument) pairs across Z_SU2(-1/tau) and
    # Z_SO3(tau); evaluating every leaf occurrence separately makes 36
    import instanton_zeta.numeric as numeric
    calls = []
    original = numeric.eval_leaf

    def counting(name, tau, *args):
        calls.append((name, tau))
        return original(name, tau, *args)

    monkeypatch.setattr(numeric, "eval_leaf", counting)
    report = numeric.sduality_check(mp.mpc(0.13, 1.21), digits=30)
    assert report.passed
    assert len(calls) == 21
    assert len(set(calls)) == 21

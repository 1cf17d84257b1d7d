import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instanton_zeta.numeric as numeric
from instanton_zeta.errors import PrecisionError
from instanton_zeta.formexpr import (DERIVED_FORMS, E2Slot, Mul, Pow,
                                     as_qseries, leaf)
from instanton_zeta.forms import (DIVISOR_LEAVES, GAUSSIAN_LEAVES,
                                  gen_form, sigma_odd_n_table,
                                  sigma_odd_table, sigma_table)
from instanton_zeta.numeric import (MAX_TERMS, MIN_IM, _qpow, _tail_cutoff,
                                    eval_form, sduality_check)
from instanton_zeta.results import (gauge_partition_functions,
                                    mnvw_form_expr, zw_forms)

TAU = mp.mpc(0.13, 1.21)


def _close(a, b, digits):
    return abs(a - b) < mp.mpf(10) ** (-digits)


def eval_exact_series_at(series, tau, digits=40):
    """Sum a truncated exact series at q = exp(2 pi i tau); used for
    exact-vs-numeric consistency checks (accuracy limited by the series
    truncation, not by digits)."""
    tau = mp.mpc(tau)
    with mp.workdps(digits + 15):
        total = mp.mpc(0)
        for e, c in series.pairs():
            c = Fraction(c)
            total += (mp.mpf(c.numerator) / c.denominator) * _qpow(tau, e)
    return total


# -- oracle: the mpmath loops that the fixed-point kernels replaced -----------

def oracle_eta(q, eps):
    absq = abs(q)
    n_max = _tail_cutoff(absq, eps, 1)
    prod = mp.mpc(1)
    qn = q
    for _ in range(n_max):
        prod *= 1 - qn
        qn *= q
        if abs(qn) < eps * 0.01:
            break
    return prod


def oracle_theta(tau, kind, eps):
    q8 = mp.exp(mp.pi * 1j * tau / 4)
    if kind == "theta2":
        total = mp.mpc(0)
        k = 0
        while True:
            term = 2 * q8 ** ((2 * k + 1) ** 2)
            total += term
            if abs(term) < eps * 0.01:
                return total
            k += 1
            if k > MAX_TERMS:
                raise PrecisionError("theta sum did not converge")
    total = mp.mpc(1)
    k = 1
    while True:
        term = 2 * q8 ** (4 * k * k)
        if kind == "theta4" and k % 2:
            term = -term
        total += term
        if abs(term) < eps * 0.01:
            return total
        k += 1
        if k > MAX_TERMS:
            raise PrecisionError("theta sum did not converge")


def oracle_eisenstein(q, weight_coeff, sig_fn, eps, degree):
    absq = abs(q)
    n_max = _tail_cutoff(absq, eps / max(abs(weight_coeff), 1), degree)
    sig = sig_fn(n_max)
    total = mp.mpc(1)
    qn = mp.mpc(1)
    for n in range(1, n_max + 1):
        qn *= q
        total += weight_coeff * sig[n] * qn
    return total


def oracle_leaf(name, tau, eps):
    """One primitive leaf through the oracle loops: eta as q^(1/24) times
    the Euler product, the thetas as plain Gaussian sums, and the divisor
    leaves as the Eisenstein-type sums 1 + w sum s(n) q^n they were first
    written as."""
    q = mp.exp(2j * mp.pi * tau)
    if name == "eta":
        return mp.exp(2j * mp.pi * tau / 24) * oracle_eta(q, eps)
    if name in ("theta2", "theta3", "theta4"):
        return oracle_theta(tau, name, eps)
    if name == "E2":
        return oracle_eisenstein(q, -24, sigma_table, eps, 2)
    if name == "E4":
        return oracle_eisenstein(q, 240, lambda n: sigma_table(n, 3), eps, 4)
    if name == "e1":
        return -oracle_eisenstein(q, 24, sigma_odd_table, eps, 2) / 6
    if name == "F":
        return oracle_eisenstein(q, 1, sigma_odd_n_table, eps, 2) - 1
    raise ValueError(name)


KERNEL_LEAVES = ("E2", "E4", "e1", "F", "eta", "theta2", "theta3", "theta4")


def _kernel_against_oracle(name, tau, digits):
    """One leaf through the fixed-point kernels and through the oracle
    loops, at eval_form's working precision and tolerance; returns the
    kernel value."""
    with mp.workdps(digits + 15):
        eps = mp.mpf(10) ** (-(digits + 5))
        got = numeric.eval_leaf(name, tau, eps, {})
        want = oracle_leaf(name, tau, eps)
        assert abs(got - want) <= eps * max(1, abs(want)), (name, tau, digits)
    return got


@pytest.mark.parametrize("name", KERNEL_LEAVES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from([-0.5, 0.5]), st.floats(-0.5, 0.5)),
       st.one_of(st.just(MIN_IM), st.floats(MIN_IM, 0.5),
                 st.floats(0.5, 4.0)),
       st.booleans(), st.integers(10, 1000))
def test_kernel_leaves_match_oracle(name, x, y, half_shift, digits):
    # half_shift: the argument tau + 1/2 that a half-shifted leaf sees
    tau = mp.mpc(x, y) + (mp.mpf(1) / 2 if half_shift else 0)
    _kernel_against_oracle(name, tau, digits)


@pytest.mark.parametrize("name", KERNEL_LEAVES)
def test_kernel_leaves_at_minimum_im_and_1000_digits(name):
    # the longest sums: N = 8192 terms for every divisor leaf and for the
    # oracle's eta product
    _kernel_against_oracle(name, mp.mpc(0, MIN_IM), 1000)


def _odd_divisor_form(q, n_max):
    """F = sum over odd n of sigma_1(n) q^n, straight from the divisors."""
    return mp.fsum(sum(d for d in range(1, n + 1) if n % d == 0) * q ** n
                   for n in range(1, n_max + 1, 2))


def test_kernel_leaves_where_q_rounds_to_zero():
    # far above the real axis q lies below the fixed-point grid of the
    # kernels, and so does x = q^(1/m) up to the first power that the
    # Gaussian sums step by.  E2, E4, theta3 and theta4 are then exactly 1,
    # and e1 exactly -1/6.  eta, theta2 and F have no constant term; each
    # keeps its relative accuracy (theta2 is about 9e-103 and F about
    # 2e-819 at 300i) against references independent of the kernels: the
    # oracle F, oracle_eisenstein(...) - 1, is only accurate to eps there.
    for tau, digits in ((mp.mpc(0.3, 300), 10), (mp.mpc(0.1, 130), 40)):
        got = {name: _kernel_against_oracle(name, tau, digits)
               for name in KERNEL_LEAVES}
        with mp.workdps(digits + 15):
            assert (got["E2"] == got["E4"] == got["theta3"] == got["theta4"]
                    == 1)
            assert got["e1"] == mp.mpc(-1) / 6
            assert got["eta"] == mp.exp(2j * mp.pi * tau / 24)
        with mp.workdps(digits + 40):
            q = mp.exp(2j * mp.pi * tau)
            want = {"theta2": mp.jtheta(2, 0, mp.exp(1j * mp.pi * tau)),
                    "eta": mp.exp(2j * mp.pi * tau / 24) * mp.qp(q),
                    "F": _odd_divisor_form(q, 15)}
            tol = mp.mpf(10) ** -digits
            for name, value in want.items():
                assert value != 0
                assert abs(got[name] - value) < tol * abs(value), (name, tau)


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
    # eta summed numerically and raised to 24, against the exact series of
    # eta^24 (a product of exact pentagonal sums) summed numerically
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
    exprs = {name: leaf(name)
             for name in (*DERIVED_FORMS, *DIVISOR_LEAVES, *GAUSSIAN_LEAVES)}
    exprs.update({"Z0": mnvw_form_expr("0"), "Z_even": mnvw_form_expr("even"),
                  "Z_odd": mnvw_form_expr("odd"), "Z_SU2": su2.expr,
                  "Z_SO3": so3.expr})
    return exprs


@pytest.mark.parametrize("name", sorted(_closed_exprs()))
def test_exact_vs_numeric_derived_and_closed_forms(name):
    # both evaluators read the same table or tree; the q^12 truncation
    # tail is far below 1e-30 at Im tau >= 2
    expr = _closed_exprs()[name]
    series = as_qseries(expr, 12, e2_mode="E2")
    with mp.workdps(55):
        for tau in (mp.mpc(0, 2), mp.mpc(0.3, 2.5)):
            exact = eval_exact_series_at(series, tau)
            num = eval_form(expr, tau, 40, e2_mode="E2")
            assert abs(exact - num) < mp.mpf(10) ** -30 * abs(num), tau


def test_exact_gauge_truncations_within_tail_bound():
    # Z_SU2 and Z_SO3 lead with q^-1, so their coefficients grow like
    # exp(4 pi sqrt(e)) (Hardy-Ramanujan-Rademacher).  The majorant
    # |c_e| <= exp(4 pi sqrt(e + 1)) is checked here on every coefficient to
    # q^24.  The exponents lie on the quarter grid, so the tail past the
    # truncation q^T at |q| = r is at most the sum of exp(4 pi sqrt(e + 1))
    # r^e over quarter steps e > T; at Im tau >= 2 each term is below half
    # the one before, so the summed terms plus the last one bound the rest.
    T = 8
    su2, so3 = gauge_partition_functions(T)
    long = gauge_partition_functions(24)
    for pf in long:
        for e, c in pf.series.pairs():
            assert abs(c) <= math.exp(4 * math.pi * math.sqrt(e + 1)), e
    with mp.workdps(65):
        for tau in (mp.mpc(0, 2), mp.mpc(0.5, 2), mp.mpc(-0.31, 2.7)):
            r = mp.exp(-2 * mp.pi * mp.im(tau))
            terms = [mp.exp(4 * mp.pi * mp.sqrt(e + 1)) * r ** e
                     for e in (T + mp.mpf(k) / 4 for k in range(1, 41))]
            assert all(b < a / 2 for a, b in zip(terms, terms[1:]))
            tail = mp.fsum(terms) + terms[-1]
            for pf in (su2, so3):
                exact = eval_exact_series_at(pf.series, tau, digits=50)
                num = eval_form(pf.expr, tau, 50, e2_mode="E2")
                # the bound is tight enough to matter: 4e-29 at Im tau = 2,
                # where |Z| is about 1e4
                assert tail < mp.mpf(10) ** -20 * abs(num)
                assert abs(exact - num) <= tail + mp.mpf(10) ** -45 * abs(num)


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


def _stratified_taus(seed, columns, rows):
    """One point drawn from each cell of a columns x rows grid over the
    truncated fundamental domain (|Re tau| <= 1/2, |tau| >= 1,
    Im tau <= 2.5), each followed by its S-image -1/tau: the layout of the
    benchmark's closed-forms sweep."""
    rng = random.Random(seed)
    y_lo, y_hi = math.sqrt(3) / 2, 2.5
    points = []
    for i in range(columns):
        for j in range(rows):
            while True:
                x = -0.5 + (i + rng.random()) / columns
                y = y_lo + (j + rng.random()) * (y_hi - y_lo) / rows
                if x * x + y * y >= 1:
                    break
            tau = complex(x, y)
            points.extend((tau, -1 / tau))
    return points


@pytest.mark.parametrize("seed", [2, 3])
def test_sduality_seeded_sweep(seed):
    for tau in _stratified_taus(seed, 3, 4):
        report = sduality_check(tau, digits=40)
        assert report.passed, (tau, report.rel_error_str)


def test_sduality_holomorphic_mode_is_diagnostic():
    report = sduality_check(mp.mpc(0, 1), digits=30, resolution="E2")
    assert report.passed is None
    # the residual is genuinely large: the anomaly term matters
    assert report.rel_error > 1e-6


def test_sduality_check_evaluates_each_leaf_once_per_point(monkeypatch):
    # 21 distinct (leaf, argument) pairs across Z_SU2(-1/tau) and
    # Z_SO3(tau); evaluating every leaf occurrence separately makes 36
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

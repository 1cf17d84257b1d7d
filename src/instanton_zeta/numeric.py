"""Arbitrary-precision complex evaluation of form expressions in the upper
half-plane, and the S-duality transformation check.

Each leaf is evaluated from its own convergent representation (eta as an
infinite product, thetas as Gaussian sums, the Eisenstein series from
divisor sums) with a truncation chosen from the geometric tail bound
|q|^(N+1)/(1-|q|) times a coefficient-growth margin; the margin doubles
until the bound clears the precision target, and a cap turns an
unreachable target into an error instead of a silent loss.

One ``eval_form`` call computes each (leaf, argument) pair once: the
values live in a dict passed down the tree walk, keyed on the leaf name,
the scaled argument and the tolerance, and dropped when the call returns.
Every value still comes from the leaf's own series or product at that
argument, never through a modular transformation, which is what the
S-duality check tests."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import PrecisionError
from .formexpr import DERIVED_FORMS, Add, Const, E2Slot, Leaf, Mul, Pow, Scal
from .forms import sigma_odd_table, sigma_table

MIN_IM = 0.05          # reject evaluation closer to the real axis
MAX_TERMS = 200_000    # hard cap on series/product length


def _tail_cutoff(absq, eps, degree):
    """Smallest N with |q|^(N+1)/(1-|q|) * (N+2)^degree * margin < eps,
    the margin doubling with N (crude cover for subexponential growth)."""
    n = 4
    while n < MAX_TERMS:
        bound = (absq ** (n + 1) / (1 - absq)
                 * mp.mpf(n + 2) ** degree * 2 ** (n.bit_length()))
        if bound < eps:
            return n
        n *= 2
    raise PrecisionError(
        "requested precision unreachable within the truncation cap "
        f"(|q| = {mp.nstr(absq, 5)})")


def _eta(q, eps):
    absq = abs(q)
    n_max = _tail_cutoff(absq, eps, 1)
    prod = mp.mpc(1)
    qn = q
    for _ in range(n_max):
        prod *= 1 - qn
        qn *= q
        if abs(qn) < eps * 0.01:
            break
    # q^(1/24) on the principal branch of the given q-power series;
    # q = exp(2 pi i tau) is evaluated from tau directly by the caller
    return prod


def _theta(tau, kind, eps):
    """Gaussian sums in integer powers of exp(2 pi i tau / 8) (no complex
    fractional powers, so no branch ambiguity)."""
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


def _eisenstein(q, weight_coeff, sig_fn, eps, degree):
    absq = abs(q)
    n_max = _tail_cutoff(absq, eps / max(abs(weight_coeff), 1), degree)
    sig = sig_fn(n_max)
    total = mp.mpc(1)
    qn = mp.mpc(1)
    for n in range(1, n_max + 1):
        qn *= q
        total += weight_coeff * sig[n] * qn
    return total


def _qpow(tau, exponent):
    """exp(2 pi i tau * exponent) for rational exponent (branch-free)."""
    e = Fraction(exponent)
    return mp.exp(2j * mp.pi * tau * mp.mpf(e.numerator) / e.denominator)


def eval_leaf(name, tau, eps, values):
    """Value of one named form at tau; a derived form expands through its
    tree, reading and filling ``values`` like ``_eval_node``."""
    if name in DERIVED_FORMS:
        return _eval_node(DERIVED_FORMS[name], tau, eps, "E2", values)
    q = mp.exp(2j * mp.pi * tau)
    if name == "eta":
        return _qpow(tau, Fraction(1, 24)) * _eta(q, eps)
    if name in ("theta2", "theta3", "theta4"):
        return _theta(tau, name, eps)
    if name == "E2":
        return _eisenstein(q, -24, lambda n: sigma_table(n, 1), eps, 2)
    if name == "E4":
        return _eisenstein(q, 240, lambda n: sigma_table(n, 3), eps, 4)
    if name == "e1":
        inner = _eisenstein(q, 24, sigma_odd_table, eps, 2)
        return -inner / 6
    if name == "F":
        f = _eisenstein(q, 1, lambda n: [s if i % 2 else 0 for i, s in
                                         enumerate(sigma_table(n, 1))],
                        eps, 2)
        return f - 1
    raise ValueError(f"no numeric evaluator for leaf {name!r}")


def _leaf_value(name, tau, eps, values):
    key = (name, tau, eps)
    val = values.get(key)
    if val is None:
        val = values[key] = eval_leaf(name, tau, eps, values)
    return val


def _eval_node(node, tau, eps, e2_mode, values):
    """Value of an expression tree; ``values`` holds the leaf values
    already computed in this evaluation, keyed on (name, argument, eps)."""
    if isinstance(node, Leaf):
        tt = tau * mp.mpf(node.scale.numerator) / node.scale.denominator
        if node.half_shift:
            tt = tt + mp.mpf(1) / 2
        return _leaf_value(node.name, tt, eps, values)
    if isinstance(node, E2Slot):
        tt = tau * mp.mpf(node.scale.numerator) / node.scale.denominator
        val = _leaf_value("E2", tt, eps, values)
        if e2_mode == "anomaly":
            val -= 3 / (mp.pi * mp.im(tt))
        return val
    if isinstance(node, Const):
        return mp.mpc(node.value.numerator) / node.value.denominator
    if isinstance(node, Add):
        return mp.fsum(_eval_node(c, tau, eps, e2_mode, values)
                       for c in node.children)
    if isinstance(node, Mul):
        out = mp.mpc(1)
        for c in node.children:
            out *= _eval_node(c, tau, eps, e2_mode, values)
        return out
    if isinstance(node, Pow):
        return _eval_node(node.base, tau, eps, e2_mode, values) ** node.n
    if isinstance(node, Scal):
        w = (mp.mpc(node.re.numerator) / node.re.denominator
             + 1j * mp.mpc(node.im.numerator) / node.im.denominator)
        return w * _eval_node(node.child, tau, eps, e2_mode, values)
    raise TypeError(f"unknown expression node {node!r}")


def eval_form(expr, tau, digits=40, e2_mode="anomaly", min_im=MIN_IM):
    """Value of the expression at tau (Im tau > 0), accurate to roughly the
    requested number of digits."""
    tau = mp.mpc(tau)
    if mp.im(tau) < min_im:
        raise PrecisionError(
            f"Im tau = {mp.nstr(mp.im(tau), 5)} below the configured "
            f"minimum {min_im}")
    with mp.workdps(digits + 15):
        eps = mp.mpf(10) ** (-(digits + 5))
        val = _eval_node(expr, tau, eps, e2_mode, {})
    return val


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


@dataclass
class SDualityReport:
    tau: complex
    digits: int
    resolution: str
    lhs: complex
    rhs: complex
    rel_error: float
    threshold: float | None
    passed: bool | None
    seconds: float

    def lines(self):
        out = [
            f"tau = {self.tau}",
            f"weight-2 slot resolution: {self.resolution}",
            f"LHS  Z_SU2(-1/tau)                = {self.lhs}",
            f"RHS  -(tau/i)^-6 Z_SO3(tau) / 64  = {self.rhs}",
            f"relative error = {self.rel_error}",
        ]
        if self.passed is None:
            out.append("diagnostic mode: residual reported, no pass/fail")
        else:
            out.append(f"threshold {self.threshold}: "
                       + ("pass" if self.passed else "FAIL"))
        out.append(f"({self.seconds:.2f}s)")
        return out


def sduality_check(tau, digits=40, resolution="anomaly"):
    """Evaluate the SU(2) function at -1/tau against the weight -6 multiple
    of the SO(3) function at tau.  With the anomaly-corrected slot this is
    the transformation law and is pass/fail; resolving the slot
    holomorphically is a diagnostic that only reports the residual."""
    from .results import gauge_partition_functions
    t0 = time.perf_counter()
    tau = mp.mpc(tau)
    if mp.im(tau) <= 0:
        raise PrecisionError("tau must lie in the upper half-plane")
    su2, so3 = gauge_partition_functions()
    with mp.workdps(digits + 15):
        tau_dual = -1 / tau
        for name, point in (("tau", tau), ("-1/tau", tau_dual)):
            if mp.im(point) < MIN_IM:
                raise PrecisionError(
                    f"Im({name}) = {mp.nstr(mp.im(point), 5)} below the "
                    f"configured minimum {MIN_IM} for the given tau = "
                    f"{mp.nstr(tau, 5)}")
        lhs = eval_form(su2.expr, tau_dual, digits, e2_mode=resolution)
        so3_val = eval_form(so3.expr, tau, digits, e2_mode=resolution)
        rhs = -(tau / 1j) ** (-6) / 64 * so3_val
        rel = abs(lhs - rhs) / abs(rhs)
        threshold = mp.mpf(10) ** (-(digits - 10))
        passed = bool(rel < threshold) if resolution == "anomaly" else None
    return SDualityReport(
        tau=complex(tau), digits=digits, resolution=resolution,
        lhs=complex(lhs), rhs=complex(rhs), rel_error=float(rel),
        threshold=float(threshold) if passed is not None else None,
        passed=passed, seconds=time.perf_counter() - t0)

"""Arbitrary-precision complex evaluation of form expressions in the upper
half-plane, and the S-duality transformation check.

Each leaf is evaluated from its own convergent representation (eta as an
infinite product, thetas as Gaussian sums, the Eisenstein series from
divisor sums) with a truncation chosen from the geometric tail bound
|q|^(N+1)/(1-|q|) times a coefficient-growth margin; the margin doubles
until the bound clears the precision target, and a cap turns an
unreachable target into an error instead of a silent loss.

The sums and the product run in fixed point.  Each kernel rounds q (or
the theta nome q8) once to the nearest pair of integers scaled by 2^P,
runs the recurrence as integer multiplies and floor shifts by P, and
converts the result back to an mpc once.  P is mpmath's working
precision ``prec`` plus guard bits G.  Write u = 2^-P and let N be the
term count.  Rounding q costs |dq| <= u, and a complex product floors
each component, so it adds an error |rho| < 2u.  Integer coefficients
and additions are exact.  Every |q| < 1, so a later multiplication by q
or by a power of q never enlarges an error already made.

* Eisenstein (E2, E4, e1, F): Horner over the integers
  c_n = w sigma(n), with |w| <= 240 and |c_n| <= |w| n^d, where d is the
  tail degree (sigma_1(n) <= n^2 for d = 2, sigma_3(n) <= n^4 for d = 4).
  The N floors add at most 2Nu.  The rounding of q moves the polynomial
  by at most |dq| sum n|c_n| <= |w| N^(d+2) u.  Together this is below
  2^8 (N+1)^(d+2) u, so G = 32 + (d+2) bitlen(N+1) leaves an error below
  2^-(prec+24).
* eta: the partial products prod_{n<=k}(1 - q^n) are bounded by
  B = prod(1 + |q|^n) <= exp(|q|/(1-|q|)).  The stepped power q^k is off
  by at most 3ku, so the error E_k after k factors obeys
  |E_k| <= |E_(k-1)| (1 + |q|^k)(1 + 3ku) + 3kBu + 2u.  Hence
  |E_N| <= 4 B^2 (N+1)^2 u, and G = 32 + 2 bitlen(N+1) + 2 ceil(log2 B)
  leaves an error below 2^-(prec+30).  The early exit |q^n| < eps/100
  compares the integer norm of q^n with the squared integer of eps/100.
* theta: the term q8^m, m <= (2K+1)^2 after K steps, is a product tree
  of m rounded copies of q8 joined by m - 1 floors, so it is off by less
  than 3mu.  The K+1 doubled terms then err by less than
  6 (2K+1)^3 u < 2^60 u, since K <= MAX_TERMS < 2^18.  So G = 64 leaves
  an error below 2^-(prec+4).

``eval_form`` works at digits + 15 decimal digits against
eps = 10^-(digits+5), so 2^-prec < 10^-(digits+15).  Every bound above
is then far below the eps/100 = 10^-(digits+7) of the termination tests.

One ``eval_form`` call computes each (leaf, argument) pair once: the
values live in a dict passed down the tree walk, keyed on the leaf name,
the scaled argument and the tolerance, and dropped when the call returns.
Every value still comes from the leaf's own series or product at that
argument, never through a modular transformation, which is what the
S-duality check tests."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp

from .errors import PrecisionError
from .formexpr import DERIVED_FORMS, Add, Const, E2Slot, Leaf, Mul, Pow, Scal
from .forms import sigma_odd_table, sigma_table

MIN_IM = 0.05          # reject evaluation closer to the real axis
MAX_TERMS = 200_000    # hard cap on series/product length
THETA_GUARD_BITS = 64  # fixed-point guard bits of the theta sums


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


def _fixed(x, p):
    """The raw mpf ``x`` as the nearest integer multiple of 2^-p."""
    sign, man, exp, bc = x
    shift = exp + p
    if shift >= 0:
        v = man << shift
    elif bc + shift < 0:        # |x| < 2^-(p+1): rounds to 0
        return 0
    else:
        v = (man + (1 << (-shift - 1))) >> -shift
    return -v if sign else v


def _fixed_pair(z, p):
    re, im = z._mpc_
    return _fixed(re, p), _fixed(im, p)


def _from_fixed(re, im, p):
    prec = mp.mp.prec
    return mp.make_mpc((from_man_exp(re, -p, prec, "n"),
                        from_man_exp(im, -p, prec, "n")))


def _stop_norm(eps, p):
    """Integer form of the early exit |x| < eps/100 for x on the 2^-p
    grid: re^2 + im^2 below this value."""
    return _fixed((eps * 0.01)._mpf_, p) ** 2


def _eta(q, eps):
    """prod(1 - q^n); the q^(1/24) factor is the caller's."""
    absq = abs(q)
    n_max = _tail_cutoff(absq, eps, 1)
    r = float(absq)
    log2_bound = math.ceil(r / (1 - r) * math.log2(math.e))
    p = mp.mp.prec + 32 + 2 * (n_max + 1).bit_length() + 2 * log2_bound
    qr, qi = _fixed_pair(q, p)
    stop = _stop_norm(eps, p)
    pr, pi = 1 << p, 0
    xr, xi = qr, qi
    for _ in range(n_max):
        pr, pi = (pr - ((pr * xr - pi * xi) >> p),
                  pi - ((pr * xi + pi * xr) >> p))
        xr, xi = (xr * qr - xi * qi) >> p, (xr * qi + xi * qr) >> p
        if xr * xr + xi * xi < stop:
            break
    return _from_fixed(pr, pi, p)


def _theta(tau, kind, eps):
    """Gaussian sums in integer powers of q8 = exp(2 pi i tau / 8) (no
    complex fractional powers, so no branch ambiguity).  Each term is the
    previous one times a stepped power: q8^((2k+3)^2) = q8^((2k+1)^2) *
    q8^(8k+8) for theta2, x^((k+1)^2) = x^(k^2) * x^(2k+1) with x = q8^4
    for theta3 and theta4; every step multiplies by q8^8."""
    q8 = mp.exp(mp.pi * 1j * tau / 4)
    p = mp.mp.prec + THETA_GUARD_BITS
    ar, ai = _fixed_pair(q8, p)
    xr, xi = ar, ai
    for _ in range(2):                      # x = q8^4
        xr, xi = (xr * xr - xi * xi) >> p, (2 * xr * xi) >> p
    yr, yi = (xr * xr - xi * xi) >> p, (2 * xr * xi) >> p    # q8^8
    if kind == "theta2":
        total_r, k = 0, 0
        tr, ti, sr, si = ar, ai, yr, yi
    else:
        total_r, k = 1 << p, 1
        tr, ti = xr, xi
        sr, si = (xr * yr - xi * yi) >> p, (xr * yi + xi * yr) >> p
    total_i = 0
    negate_odd = kind == "theta4"
    stop = _stop_norm(eps, p)
    while True:
        if negate_odd and k % 2:
            total_r, total_i = total_r - 2 * tr, total_i - 2 * ti
        else:
            total_r, total_i = total_r + 2 * tr, total_i + 2 * ti
        if 4 * (tr * tr + ti * ti) < stop:
            return _from_fixed(total_r, total_i, p)
        k += 1
        if k > MAX_TERMS:
            raise PrecisionError("theta sum did not converge")
        tr, ti = (tr * sr - ti * si) >> p, (tr * si + ti * sr) >> p
        sr, si = (sr * yr - si * yi) >> p, (sr * yi + si * yr) >> p


def _eisenstein(q, weight_coeff, sig_fn, eps, degree):
    """1 + weight_coeff * sum sig(n) q^n, by Horner over the integer
    coefficients."""
    absq = abs(q)
    n_max = _tail_cutoff(absq, eps / max(abs(weight_coeff), 1), degree)
    sig = sig_fn(n_max)
    p = mp.mp.prec + 32 + (degree + 2) * (n_max + 1).bit_length()
    qr, qi = _fixed_pair(q, p)
    re = im = 0
    for c in reversed([1] + [weight_coeff * s for s in sig[1:]]):
        re, im = (((re * qr - im * qi) >> p) + (c << p),
                  (re * qi + im * qr) >> p)
    return _from_fixed(re, im, p)


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
    # the two compared numbers to 5 digits; the floats underflow to 0.0
    # once digits passes about 320
    rel_error_str: str
    threshold_str: str | None

    def lines(self):
        out = [
            f"tau = {self.tau}",
            f"weight-2 slot resolution: {self.resolution}",
            f"LHS  Z_SU2(-1/tau)                = {self.lhs}",
            f"RHS  -(tau/i)^-6 Z_SO3(tau) / 64  = {self.rhs}",
            f"relative error = {self.rel_error_str}",
        ]
        if self.passed is None:
            out.append("diagnostic mode: residual reported, no pass/fail")
        else:
            out.append(f"threshold {self.threshold_str}: "
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
        passed=passed, seconds=time.perf_counter() - t0,
        rel_error_str=mp.nstr(rel, 5),
        threshold_str=mp.nstr(threshold, 5) if passed is not None else None)

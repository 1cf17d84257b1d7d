"""Arbitrary-precision complex evaluation of form expressions in the upper
half-plane, and the S-duality transformation check.

Each primitive leaf is summed at its own argument from its one definition
in ``forms``, the table that the exact expansion reads too.  A divisor
leaf c0 + w sum s(n) q^n (E2, E4, e1, F) is cut where the geometric tail
bound |q|^(N+1)/(1-|q|) times a coefficient-growth margin clears the
target; the margin doubles with N, and a cap turns an unreachable target
into an error instead of a silent loss.  A Gaussian leaf (theta2, theta3,
theta4, eta) sums c (+-1)^k x^(n^2) over the progressions n = n0 + k d in
integer powers of x = q^(1/m) (so no branch ambiguity), until a term
falls below eps/100.  Where c0 = 0 (theta2, eta, F), the kernel sums the
quotient by the lowest monomial, x^(n0^2) or q (every s(1) is 1), and
multiplies it by that monomial in floating point.  The bounds below are
absolute, so on the quotient they are relative, and the leaf keeps its
relative accuracy where q lies far below the fixed-point grid.  The
divisor tail target is then eps |q| / |w|: the quotient's tail is the
plain one over |q|.

The sums run in fixed point.  Each kernel rounds q (or x) once to the
nearest pair of integers scaled by 2^P, runs the recurrence as integer
multiplies and floor shifts by P, and converts the result back to an mpc
once.  P is mpmath's working precision ``prec`` plus guard bits G.  Write
u = 2^-P.  Rounding q costs |dq| <= u, and a complex product floors each
component, so it adds an error |rho| < 2u.  Integer coefficients and
additions are exact, and a rational c0 is rounded once, by less than u.
Every |q| < 1, so a later multiplication by q or by a power of q never
enlarges an error already made.

* Divisor leaves: Horner over the integers c_n = w s(n), with
  |w| <= 240 and |c_n| <= |w| n^d, where d is the tail degree
  (sigma_1(n) <= n^2 for d = 2, sigma_3(n) <= n^4 for d = 4).  The N
  floors add at most 2Nu.  The rounding of q moves the polynomial by at
  most |dq| sum n|c_n| <= |w| N^(d+2) u.  Together this is below
  2^8 (N+1)^(d+2) u, so G = 32 + (d+2) bitlen(N+1) leaves an error below
  2^-(prec+24).
* Gaussian leaves: each step multiplies the term by the stepped power
  x^(2nd + d^2) and that power by x^(2d^2), and the first ones are
  binary powers of x.  So a value standing for x^e is a product of e
  rounded copies of x joined by fewer than e floors, off by less than
  3eu.  A progression takes at most K + 1 terms, K <= MAX_TERMS < 2^18,
  and term k has e <= (n0 + kd)^2 <= 36 (k+1)^2, as n0 <= d <= 6.  With
  |c| <= 2 and at most two progressions the error is below
  12 * 36 sum_(k<=K) (k+1)^2 u <= 432 (K+1)^3 u < 2^63 u, so G = 64
  leaves an error below 2^-(prec+1).

The early exits compare the integer norm c^2 |x^e|^2 of a term with the
squared integer of eps/100.  ``eval_form`` works at digits + 15 decimal
digits against eps = 10^-(digits+5), so 2^-prec < 10^-(digits+15).  Every
bound above is then far below the eps/100 = 10^-(digits+7) of the
termination tests.

One ``eval_form`` call computes each (leaf, argument) pair once: the
values live in a dict passed down the tree walk, keyed on the leaf name,
the scaled argument and the tolerance, and dropped when the call returns.
Every value still comes from the leaf's own sum at that argument, never
through a modular transformation, which is what the S-duality check
tests."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp

from .errors import PrecisionError
from .formexpr import (CLOSED_FORMS, DERIVED_FORMS, Add, Const, E2Slot, Leaf,
                       Mul, Pow, Scal)
from .forms import DIVISOR_LEAVES, GAUSSIAN_LEAVES

MIN_IM = 0.05          # reject evaluation closer to the real axis
MAX_TERMS = 200_000    # hard cap on the terms of a sum
GAUSS_GUARD_BITS = 64  # fixed-point guard bits of the Gaussian sums


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


def _fixed_pow(zr, zi, e, p):
    """z^e on the 2^-p grid, for e >= 0, by binary powering."""
    rr, ri = 1 << p, 0
    while e:
        if e & 1:
            rr, ri = (rr * zr - ri * zi) >> p, (rr * zi + ri * zr) >> p
        e >>= 1
        if e:
            zr, zi = (zr * zr - zi * zi) >> p, (2 * zr * zi) >> p
    return rr, ri


def _gauss(tau, m, c0, progressions, eps):
    """A Gaussian leaf of ``forms.GAUSSIAN_LEAVES`` at tau."""
    lead = 0 if c0 else min(n0 for n0, *_ in progressions) ** 2
    x = mp.exp(2j * mp.pi * tau / m)
    p = mp.mp.prec + GAUSS_GUARD_BITS
    xr, xi = _fixed_pair(x, p)
    stop = _stop_norm(eps, p)
    total_r, total_i = c0 << p, 0
    for n0, d, c, alternating in progressions:
        tr, ti = _fixed_pow(xr, xi, n0 * n0 - lead, p)
        sr, si = _fixed_pow(xr, xi, 2 * n0 * d + d * d, p)
        yr, yi = _fixed_pow(xr, xi, 2 * d * d, p)
        for _ in range(MAX_TERMS + 1):
            total_r, total_i = total_r + c * tr, total_i + c * ti
            if c * c * (tr * tr + ti * ti) < stop:
                break
            tr, ti = (tr * sr - ti * si) >> p, (tr * si + ti * sr) >> p
            sr, si = (sr * yr - si * yi) >> p, (sr * yi + si * yr) >> p
            if alternating:
                c = -c
        else:
            raise PrecisionError("Gaussian sum did not converge")
    value = _from_fixed(total_r, total_i, p)
    return value * _qpow(tau, Fraction(lead, m)) if lead else value


def _eisenstein(tau, c0, w, table, degree, eps):
    """A divisor leaf of ``forms.DIVISOR_LEAVES`` at tau, by Horner over
    the integer coefficients."""
    q = mp.exp(2j * mp.pi * tau)
    absq = abs(q)
    lead = 0 if c0 else 1
    n_max = _tail_cutoff(absq, eps * (absq if lead else 1) / abs(w), degree)
    sig = table(n_max)
    p = mp.mp.prec + 32 + (degree + 2) * (n_max + 1).bit_length()
    qr, qi = _fixed_pair(q, p)
    coeffs = ([(c0.numerator << p) // c0.denominator]
              + [w * s << p for s in sig[1:]])
    re = im = 0
    for c in reversed(coeffs[lead:]):
        re, im = (((re * qr - im * qi) >> p) + c, (re * qi + im * qr) >> p)
    value = _from_fixed(re, im, p)
    return value * q if lead else value


def _qpow(tau, exponent):
    """exp(2 pi i tau * exponent) for rational exponent (branch-free)."""
    e = Fraction(exponent)
    return mp.exp(2j * mp.pi * tau * mp.mpf(e.numerator) / e.denominator)


def eval_leaf(name, tau, eps, values):
    """Value of one named form at tau: a primitive leaf from its table in
    ``forms``, a derived form through its tree, reading and filling
    ``values`` like ``_eval_node``."""
    if name in DERIVED_FORMS:
        return _eval_node(DERIVED_FORMS[name], tau, eps, "E2", values)
    if name in DIVISOR_LEAVES:
        return _eisenstein(tau, *DIVISOR_LEAVES[name], eps)
    if name in GAUSSIAN_LEAVES:
        return _gauss(tau, *GAUSSIAN_LEAVES[name], eps)
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
    t0 = time.perf_counter()
    tau = mp.mpc(tau)
    if mp.im(tau) <= 0:
        raise PrecisionError("tau must lie in the upper half-plane")
    with mp.workdps(digits + 15):
        tau_dual = -1 / tau
        for name, point in (("tau", tau), ("-1/tau", tau_dual)):
            if mp.im(point) < MIN_IM:
                raise PrecisionError(
                    f"Im({name}) = {mp.nstr(mp.im(point), 5)} below the "
                    f"configured minimum {MIN_IM} for the given tau = "
                    f"{mp.nstr(tau, 5)}")
        lhs = eval_form(CLOSED_FORMS["Z_SU2"], tau_dual, digits,
                        e2_mode=resolution)
        so3_val = eval_form(CLOSED_FORMS["Z_SO3"], tau, digits,
                            e2_mode=resolution)
        rhs = -(tau / 1j) ** (-6) / 64 * so3_val
        rel = abs(lhs - rhs) / abs(rhs)
        # 10 digits of slack from 20 digits on, half the digits below: at
        # 10 digits a slack of 10 would pass anything, the holomorphic
        # slot's residual of about 0.3 included
        threshold = mp.mpf(10) ** (-(digits - min(10, digits // 2)))
        passed = bool(rel < threshold) if resolution == "anomaly" else None
    return SDualityReport(
        tau=complex(tau), digits=digits, resolution=resolution,
        lhs=complex(lhs), rhs=complex(rhs), rel_error=float(rel),
        threshold=float(threshold) if passed is not None else None,
        passed=passed, seconds=time.perf_counter() - t0,
        rel_error_str=mp.nstr(rel, 5),
        threshold_str=mp.nstr(threshold, 5) if passed is not None else None)

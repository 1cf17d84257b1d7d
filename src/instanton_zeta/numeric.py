"""Arbitrary-precision complex evaluation of form expressions in the upper
half-plane, and the S-duality transformation check.

Each primitive leaf is summed at its own argument from its one definition
in ``forms``, the table that the exact expansion reads too.  Its nome,
q = exp(2 pi i tau) for a divisor leaf and x = q^(1/m) for a Gaussian
one, comes from one helper and is computed once per (argument, m) in an
evaluation: theta2, theta3 and theta4 at one argument read one x, and E2
and E4 one q.  A divisor leaf c0 + w sum s(n) q^n (E2, E4, e1, F) is cut
where the geometric tail bound |q|^(N+1)/(1-|q|) times a
coefficient-growth margin clears the target; the margin doubles with N,
and a cap turns an unreachable target into an error instead of a silent
loss.  N runs over the grid 4 * 2^k and is chosen in floats first, on
the log of the bound over the target, with log|q| = -2 pi Im tau read
from the argument and log eps from the mantissa and exponent of eps, so
nothing underflows however large Im tau or the precision.  A float
margin within 2^-20 of zero hands the choice to the mpf rule
``_tail_cutoff``, the rule of record, so N is always that rule's.  A
Gaussian leaf (theta2, theta3, theta4, eta) sums c (+-1)^k x^(n^2) over
the progressions n = n0 + k d in integer powers of x = q^(1/m) (so no
branch ambiguity), until a term falls below eps/100.  Where c0 = 0
(theta2, eta, F), the kernel sums the quotient by the lowest monomial,
x^(n0^2) or q (every s(1) is 1), and multiplies it by that monomial in
floating point, as a power of the x or q it has already computed.  The
bounds below are absolute, so on the quotient they are relative, and the
leaf keeps its relative accuracy where q lies far below the fixed-point
grid.  The divisor tail target is then eps |q| / |w|: the quotient's tail
is the plain one over |q|.

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

The bounds above take the nome as exact, but ``mp.exp`` rounds it at the
working precision: x carries a relative error of a few units of 2^-prec,
plus about |2 pi tau / m| 2^-prec from rounding the exponent.  A leaf f
moves by its log-derivative x f'(x) / f(x) times that error.  Where |x|
is small the log-derivative is the lowest exponent of x in the leaf, 0
or 1, and where |x| nears 1, |tau| is small: at tau = MIN_IM i it is
E2(tau), about -362, for eta.  The 10-digit gap between 2^-prec and eps
covers a product up to 10^10, which holds for every |tau| below 10^8.

``eval_form`` compiles an expression once, on its first evaluation, into
a program kept per expression object: its structurally distinct subtrees
in postorder (equal subtrees, compared as frozen dataclasses, share one
step), one step per distinct argument k tau (+ 1/2), and its
Gaussian-rational constants, converted to mpc once per working
precision.  A call runs the steps in order, each reading the values of
earlier steps, with the same arithmetic as a walk of the tree, so the
values agree bit for bit.  One call computes each (leaf, argument) pair
once: the values live in a dict passed to every program the call runs (a
derived leaf runs its own), keyed on the leaf name and the raw mpmath
tuples of the argument and the tolerance, and dropped when the call
returns.  The nomes live in the same dict, keyed on the raw argument and
m.  A divisor leaf's integer coefficients w s(n) are built once per
(leaf, cutoff) and kept, and the nomes' 2 pi i, eps and the S-duality
threshold once per working precision.  Every leaf value still comes from
the leaf's own sum at its own argument, never through a modular
transformation, which is what the S-duality check tests."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import from_man_exp

from .errors import PrecisionError
from .formexpr import (CLOSED_FORMS, DERIVED_FORMS, Add, E2Slot, Leaf, Mul,
                       Pow, Scal)
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


_LOG2 = math.log(2)
# half-width, in natural log, of the band around 0 in which the float
# screen of ``_divisor_cutoff`` defers to the exact rule.  Near 0 the
# screen's terms are about |log eps|, so its float error is near 2^-52
# |log eps| (below 1e-12 at 1000 digits); the exact rule's mpf error is
# below 2^-(prec-10)
_SCREEN_BAND = 2.0 ** -20


def _divisor_cutoff(tau, q, eps, w, lead, degree):
    """The cutoff ``_tail_cutoff(|q|, eps |q|^lead / |w|, degree)`` for the
    nome q = exp(2 pi i tau).  Each candidate N is screened in floats by
    the log of the bound over the target, with log|q| = -2 pi Im tau and
    log eps read from the mpf's mantissa and exponent, so nothing
    underflows; a margin within the band hands the choice to the exact
    rule, so N is always that rule's."""
    log_q = -2 * math.pi * float(tau.imag)
    _, man, exp, _ = eps._mpf_
    log_target = (math.log(man) + exp * _LOG2 + (log_q if lead else 0)
                  - math.log(abs(w)))
    base = -math.log1p(-math.exp(log_q)) - log_target
    n = 4
    while n < MAX_TERMS:
        margin = ((n + 1) * log_q + base + degree * math.log(n + 2)
                  + n.bit_length() * _LOG2)
        if margin < -_SCREEN_BAND:
            return n
        if margin <= _SCREEN_BAND:
            break
        n *= 2
    absq = abs(q)
    return _tail_cutoff(absq, eps * (absq if lead else 1) / abs(w), degree)


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


@functools.lru_cache(maxsize=64)
def _stop_norm(eps, p):
    """Integer form of the early exit |x| < eps/100 for x on the 2^-p
    grid: re^2 + im^2 below this value.  ``eps`` is a raw mpf; p fixes the
    working precision p - GAUSS_GUARD_BITS at which eps/100 is rounded."""
    return _fixed((mp.make_mpf(eps) * 0.01)._mpf_, p) ** 2


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


@functools.lru_cache(maxsize=64)
def _two_pi_i(prec):
    """2 pi i at the working precision ``prec``."""
    with mp.workprec(prec):
        return 2j * mp.pi


def _nome(tau, m):
    """exp(2 pi i tau / m), the only exponential the leaf sums take."""
    return mp.exp(_two_pi_i(mp.mp.prec) * tau / m)


@functools.lru_cache(maxsize=64)
def _tolerances(digits):
    """``eval_form``'s eps = 10^-(digits+5) and ``sduality_check``'s
    threshold, at their working precision of digits + 15 digits."""
    with mp.workdps(digits + 15):
        # 10 digits of slack from 20 digits on, half the digits below: at
        # 10 digits a slack of 10 would pass anything, the holomorphic
        # slot's residual of about 0.3 included
        return (mp.mpf(10) ** (-(digits + 5)),
                mp.mpf(10) ** (-(digits - min(10, digits // 2))))


def _shared_nome(tau, m, values):
    """``_nome(tau, m)``, computed once per evaluation in ``values``."""
    key = (tau._mpc_, m)
    x = values.get(key)
    if x is None:
        x = values[key] = _nome(tau, m)
    return x


def _gauss(x, c0, progressions, eps):
    """A Gaussian leaf of ``forms.GAUSSIAN_LEAVES`` at x = q^(1/m)."""
    lead = 0 if c0 else min(n0 for n0, *_ in progressions) ** 2
    p = mp.mp.prec + GAUSS_GUARD_BITS
    xr, xi = _fixed_pair(x, p)
    stop = _stop_norm(eps._mpf_, p)
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
    return value * x ** lead if lead else value


@functools.lru_cache(maxsize=None)
def _divisor_coefficients(name, n_max):
    """The integer coefficients w s(n), 1 <= n <= n_max, of a divisor leaf;
    the cutoffs are 4 * 2^k below MAX_TERMS, so each leaf keeps at most
    16 tables."""
    _, w, table, _ = DIVISOR_LEAVES[name]
    return tuple(w * s for s in table(n_max)[1:])


def _eisenstein(name, q, n_max):
    """A divisor leaf of ``forms.DIVISOR_LEAVES`` at the nome q, by Horner
    over its integer coefficients to q^n_max."""
    c0, _, _, degree = DIVISOR_LEAVES[name]
    lead = 0 if c0 else 1
    p = mp.mp.prec + 32 + (degree + 2) * (n_max + 1).bit_length()
    qr, qi = _fixed_pair(q, p)
    coeffs = ([(c0.numerator << p) // c0.denominator]
              + [c << p for c in _divisor_coefficients(name, n_max)])
    re = im = 0
    for c in reversed(coeffs[lead:]):
        re, im = (((re * qr - im * qi) >> p) + c, (re * qi + im * qr) >> p)
    value = _from_fixed(re, im, p)
    return value * q if lead else value


def eval_leaf(name, tau, eps, values):
    """Value of one named form at the mpc tau: a primitive leaf from its
    table in ``forms``, a derived form through its tree, reading and
    filling ``values`` like ``eval_form``."""
    if name in DERIVED_FORMS:
        return _run(_program(DERIVED_FORMS[name]), tau, eps, "E2", values)
    if name in DIVISOR_LEAVES:
        c0, w, _, degree = DIVISOR_LEAVES[name]
        q = _shared_nome(tau, 1, values)
        n_max = _divisor_cutoff(tau, q, eps, w, 0 if c0 else 1, degree)
        return _eisenstein(name, q, n_max)
    if name in GAUSSIAN_LEAVES:
        m, c0, progressions = GAUSSIAN_LEAVES[name]
        return _gauss(_shared_nome(tau, m, values), c0, progressions, eps)
    raise ValueError(f"no numeric evaluator for leaf {name!r}")


def _leaf_value(name, tau, eps, values):
    key = (name, tau._mpc_, eps._mpf_)
    val = values.get(key)
    if val is None:
        val = values[key] = eval_leaf(name, tau, eps, values)
    return val


# The steps of a compiled program, each a tuple led by its opcode:
# (_ARG, num, den, half_shift) makes the argument num tau / den (+ 1/2);
# (_LEAF, name, arg) and (_SLOT, arg) are a named form and the weight-2
# slot there; (_ADD, children), (_MUL, children), (_POW, base, n) and
# (_SCAL, k, child), with the k-th constant, combine earlier steps, named
# by their index.
_ARG, _LEAF, _SLOT, _ADD, _MUL, _POW, _SCAL = range(7)


class _Program:
    """A form tree compiled for numeric evaluation: its structurally
    distinct subtrees and arguments as steps in postorder, and its
    Gaussian-rational constants, converted to mpc once per working
    precision."""

    def __init__(self, expr):
        self.steps = []
        self.constants = []     # the Scal nodes, in step order
        self._index = {}        # subtree or argument key -> step index
        self._by_prec = {}
        self._compile(expr)

    def _step(self, key, step):
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self.steps)
            self.steps.append(step)
        return index

    def _arg(self, scale, half_shift=0):
        return self._step(("arg", scale, half_shift),
                          (_ARG, scale.numerator, scale.denominator,
                           half_shift))

    def _constant(self, node):
        self.constants.append(node)
        return len(self.constants) - 1

    def _compile(self, node):
        index = self._index.get(node)
        if index is not None:
            return index
        if isinstance(node, Leaf):
            step = (_LEAF, node.name, self._arg(node.scale, node.half_shift))
        elif isinstance(node, E2Slot):
            step = (_SLOT, self._arg(node.scale))
        elif isinstance(node, (Add, Mul)):
            step = (_ADD if isinstance(node, Add) else _MUL,
                    tuple(self._compile(c) for c in node.children))
        elif isinstance(node, Pow):
            step = (_POW, self._compile(node.base), node.n)
        elif isinstance(node, Scal):
            step = (_SCAL, self._constant(node), self._compile(node.child))
        else:
            raise TypeError(f"unknown expression node {node!r}")
        return self._step(node, step)

    def constants_at(self, prec):
        values = self._by_prec.get(prec)
        if values is None:
            values = self._by_prec[prec] = [
                mp.mpc(c.re.numerator) / c.re.denominator
                + 1j * mp.mpc(c.im.numerator) / c.im.denominator
                for c in self.constants]
        return values


# compiled programs by expression object; each entry holds its expression,
# so no other object can take the id while the entry lives
_PROGRAMS = {}
_MAX_PROGRAMS = 256


def _program(expr):
    entry = _PROGRAMS.get(id(expr))
    if entry is None:
        if len(_PROGRAMS) >= _MAX_PROGRAMS:
            _PROGRAMS.clear()
        entry = _PROGRAMS[id(expr)] = (expr, _Program(expr))
    return entry[1]


def _run(program, tau, eps, e2_mode, values):
    """Value of a compiled expression at tau; ``values`` holds the leaf
    values already computed in this evaluation, keyed on (name, argument,
    eps)."""
    constants = program.constants_at(mp.mp.prec)
    vals = []
    for step in program.steps:
        op = step[0]
        if op == _ARG:
            val = tau * mp.mpf(step[1]) / step[2]
            if step[3]:
                val = val + mp.mpf(1) / 2
        elif op == _LEAF:
            val = _leaf_value(step[1], vals[step[2]], eps, values)
        elif op == _SLOT:
            tt = vals[step[1]]
            val = _leaf_value("E2", tt, eps, values)
            if e2_mode == "anomaly":
                val = val - 3 / (mp.pi * mp.im(tt))
        elif op == _ADD:
            val = mp.fsum([vals[i] for i in step[1]])
        elif op == _MUL:
            val = mp.mpc(1)
            for i in step[1]:
                val *= vals[i]
        elif op == _POW:
            val = vals[step[1]] ** step[2]
        else:
            val = constants[step[1]] * vals[step[2]]
        vals.append(val)
    return vals[-1]


def _check_e2_mode(mode):
    if mode not in ("anomaly", "E2"):
        raise ValueError(f"unknown weight-2 slot mode {mode!r}: expected "
                         f"'anomaly' or 'E2'")


def eval_form(expr, tau, digits=40, e2_mode="anomaly"):
    """Value of the expression at tau (Im tau > 0), accurate to roughly the
    requested number of digits.  ``e2_mode`` resolves the weight-2 slot:
    "anomaly" (the anomaly-corrected form) or "E2" (holomorphic)."""
    _check_e2_mode(e2_mode)
    program = _program(expr)
    with mp.workdps(digits + 15):
        tau = mp.mpc(tau)
        if mp.im(tau) < MIN_IM:
            raise PrecisionError(
                f"Im tau = {mp.nstr(mp.im(tau), 5)} below the configured "
                f"minimum {MIN_IM}")
        return _run(program, tau, _tolerances(digits)[0], e2_mode, {})


@dataclass
class SDualityReport:
    tau: complex
    digits: int
    resolution: str
    lhs: complex
    rhs: complex
    rel_error: float
    threshold: float | None
    # the two compared numbers to 5 digits; the floats underflow to 0.0
    # once digits passes about 320
    rel_error_str: str
    threshold_str: str | None
    passed: bool | None
    seconds: float

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

    def as_dict(self):
        """The JSON fields in field order (a dataclass's ``vars``), each
        complex as re and im."""
        return {**vars(self), "tau": str(self.tau),
                "lhs": {"re": self.lhs.real, "im": self.lhs.imag},
                "rhs": {"re": self.rhs.real, "im": self.rhs.imag},
                "seconds": round(self.seconds, 3)}


def sduality_check(tau, digits=40, resolution="anomaly"):
    """Evaluate the SU(2) function at -1/tau against the weight -6 multiple
    of the SO(3) function at tau.  With the anomaly-corrected slot this is
    the transformation law and is pass/fail; resolving the slot
    holomorphically (``resolution="E2"``) is a diagnostic that only
    reports the residual."""
    t0 = time.perf_counter()
    _check_e2_mode(resolution)
    with mp.workdps(digits + 15):
        tau = mp.mpc(tau)
        if mp.im(tau) <= 0:
            raise PrecisionError("tau must lie in the upper half-plane")
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
        threshold = _tolerances(digits)[1]
        passed = bool(rel < threshold) if resolution == "anomaly" else None
    return SDualityReport(
        tau=complex(tau), digits=digits, resolution=resolution,
        lhs=complex(lhs), rhs=complex(rhs), rel_error=float(rel),
        threshold=float(threshold) if passed is not None else None,
        passed=passed, seconds=time.perf_counter() - t0,
        rel_error_str=mp.nstr(rel, 5),
        threshold_str=mp.nstr(threshold, 5) if passed is not None else None)

"""Arbitrary-precision complex evaluation of form expressions in the upper
half-plane, and the S-duality transformation check.

Each primitive leaf is summed at its own argument from its one definition
in ``forms``, the table that the exact expansion reads too.  Its nome is
q = exp(2 pi i tau) for a divisor leaf and x = q^(1/m) for a Gaussian
one.  A divisor leaf c0 + w sum s(n) q^n (E2, E4, e1, F) is cut
where the geometric tail bound |q|^(N+1)/(1-|q|) times a
coefficient-growth margin clears the target; the margin doubles with N,
and a cap turns an unreachable target into an error instead of a silent
loss.  N runs over the grid 4 * 2^k and is chosen in floats, on the log
of the bound over the target, with log|q| = -2 pi Im tau read from the
argument and log eps from the mantissa and exponent of eps, so nothing
underflows however large Im tau or the precision.  N is accepted only
where that log lies below -2^-20, far beyond its float error, so the
bound holds at every accepted N; a log nearer 0 moves on to 2N.  A
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
working precision: a direct exponential at a leaf argument carries a
relative error of a few units of 2^-prec, plus about |2 pi tau / m|
2^-prec from rounding the exponent.  The power x^k rounds its exponent
like that direct exponential, since k |2 pi u tau| = |2 pi r tau / m|, and
adds about k units of 2^-prec: k times the rounding of x, and one
rounding per product of the chain, each later magnified by the powers
above it.  Here k <= L max(r / m), with L the lcm of the denominators
of the r / m: k <= 2L where every r / m <= 2, and k <= 96 for the closed
forms.  A leaf f
moves by its log-derivative x f'(x) / f(x) times that error.  Where |x|
is small the log-derivative is the lowest exponent of x in the leaf, 0
or 1, and where |x| nears 1, |tau| is small: at tau = MIN_IM i it is
E2(tau), about -362, for eta.  The 10-digit gap between 2^-prec and eps
covers a product of log-derivative and (k + |2 pi r tau / m|) up to
10^10.  Re(u tau) is first moved into [-1/2, 1/2] by an exact integer
period of x, so |2 pi r tau / m| <= k (pi + 2 pi u Im tau) however large
Re tau, and the gap holds for every Im tau below 10^8 and every k below
10^7.

``eval_form`` compiles an expression once, on its first evaluation, into
a program kept per expression object.  The named trees of
``formexpr.TREES`` are inlined, so every leaf argument is r tau + s over
the root tau, r and s rational, and equal (leaf, r, s) share one value,
such as E4(2 tau) in P0 and Peven.  Every nome is then
x^k exp(2 pi i s / m) for one root nome x = exp(2 pi i u tau), u the
largest rational dividing every r / m and k = r / (m u).  A call takes
one exponential, at u tau reduced as above, builds each x^k once by a
chain of squarings and products, negates where s / m lies in Z + 1/2
(any other phase is a constant built once per precision), sums the
Gaussian leaves of each nome in one pass and each divisor leaf once, and
runs the structurally distinct subtrees at each argument as steps in
postorder.  The slot's anomaly term and the divisor cutoff read
Im(r tau + s) = r Im tau.  A program of one unshifted leaf has k = 1:
its nome is the one exponential, at the leaf's argument.  The scalars, the
nomes' 2 pi i, eps and the S-duality threshold are built once per working
precision, and a divisor leaf's coefficients w s(n) once per
(leaf, cutoff).  ``eval_form`` is the one evaluator: a named form is the
expression ``leaf(name)``.  Every leaf value still comes from the leaf's
own sum at its own argument, never through a modular
transformation, which is what the S-duality check tests."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp

from .errors import PrecisionError
from .formexpr import CLOSED_FORMS, TREES, Add, E2Slot, Leaf, Mul, Pow, Scal
from .forms import DIVISOR_LEAVES, GAUSSIAN_LEAVES

MIN_IM = 0.05          # reject evaluation closer to the real axis
MAX_TERMS = 200_000    # hard cap on the terms of a sum
GAUSS_GUARD_BITS = 64  # fixed-point guard bits of the Gaussian sums


_LOG2 = math.log(2)
# how far, in natural log, the float log of the tail bound over its target
# must lie below 0 for ``_divisor_cutoff`` to accept N.  Near 0 the terms
# of that log are about |log eps|, so its float error is near 2^-52
# |log eps|: below 1e-12 at 1000 digits, far inside this margin
_SCREEN_BAND = 2.0 ** -20


def _divisor_cutoff(im, eps, w, lead, degree):
    """The cutoff of a divisor leaf at the nome q = exp(2 pi i tau), with
    ``im`` = Im tau: the smallest N on the grid 4 * 2^k whose tail bound
    |q|^(N+1)/(1-|q|) * (N+2)^degree * 2^bitlen(N) (the doubling factor a
    crude cover for subexponential growth) lies below the target
    eps |q|^lead / |w| by more than _SCREEN_BAND in log.  That log is taken
    in floats, with log|q| = -2 pi Im tau and log eps read from the mpf's
    mantissa and exponent, so nothing underflows."""
    log_q = -2 * math.pi * im
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
        n *= 2
    raise PrecisionError(
        "requested precision unreachable within the truncation cap "
        f"(Im tau = {im:.5g})")


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


def _gauss_sums(x, leaves, eps):
    """The Gaussian leaves (c0, progressions) at one nome x, as a list: x
    is rounded to the fixed-point grid once, and each distinct progression
    (n0, d), with the power it is divided by and c^2 (so its early exit),
    is stepped once, its terms summed apart for even and odd k."""
    p = mp.mp.prec + GAUSS_GUARD_BITS
    xr, xi = _fixed_pair(x, p)
    stop = _stop_norm(eps._mpf_, p)
    leads, totals, runs = [], [], {}
    for j, (c0, progressions) in enumerate(leaves):
        lead = 0 if c0 else min(n0 for n0, *_ in progressions) ** 2
        leads.append(lead)
        totals.append([c0 << p, 0])
        for n0, d, c, alternating in progressions:
            runs.setdefault((n0, d, lead, c * c), []).append(
                (j, c, alternating))
    for (n0, d, lead, c2), members in runs.items():
        tr, ti = _fixed_pow(xr, xi, n0 * n0 - lead, p)
        sr, si = _fixed_pow(xr, xi, 2 * n0 * d + d * d, p)
        yr, yi = _fixed_pow(xr, xi, 2 * d * d, p)
        even_r = even_i = odd_r = odd_i = 0
        odd = False
        for _ in range(MAX_TERMS + 1):
            if odd:
                odd_r, odd_i = odd_r + tr, odd_i + ti
            else:
                even_r, even_i = even_r + tr, even_i + ti
            if c2 * (tr * tr + ti * ti) < stop:
                break
            tr, ti = (tr * sr - ti * si) >> p, (tr * si + ti * sr) >> p
            sr, si = (sr * yr - si * yi) >> p, (sr * yi + si * yr) >> p
            odd = not odd
        else:
            raise PrecisionError("Gaussian sum did not converge")
        for j, c, alternating in members:
            sign = -1 if alternating else 1
            totals[j][0] += c * (even_r + sign * odd_r)
            totals[j][1] += c * (even_i + sign * odd_i)
    values = []
    for (re, im), lead in zip(totals, leads):
        value = _from_fixed(re, im, p)
        values.append(value * x ** lead if lead else value)
    return values


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


def _divisor(name, q, im, eps):
    """A divisor leaf at the nome q of an argument with imaginary part
    ``im``, cut by ``_divisor_cutoff``."""
    c0, w, _, degree = DIVISOR_LEAVES[name]
    n_max = _divisor_cutoff(im, eps, w, 0 if c0 else 1, degree)
    return _eisenstein(name, q, n_max)


# m of each primitive leaf's nome exp(2 pi i tau / m)
_MODULI = {**dict.fromkeys(DIVISOR_LEAVES, 1),
           **{name: m for name, (m, *_) in GAUSSIAN_LEAVES.items()}}


def _power_chain(exponents):
    """Products (k, a, b), x^k = x^a x^b, that build every x^k from x in
    order, each once: the square of x^(k/2) for even k, x^(k-1) x for odd."""
    chain, built = [], {1}
    for k in sorted(exponents):
        todo = []
        while k not in built:
            todo.append(k)
            built.add(k)
            k = k // 2 if k % 2 == 0 else k - 1
        chain += [(k, k // 2, k // 2) if k % 2 == 0 else (k, k - 1, 1)
                  for k in reversed(todo)]
    return chain


# The steps of a compiled program, each (opcode, operands, extra), combine
# earlier values, named by their index: the leaf values come first, in
# ``leaves`` order, then one value per step.  (_SLOT, (leaf,), r) is the
# weight-2 slot over the E2 leaf at r tau; (_ADD, children, None),
# (_MUL, children, None), (_POW, (base,), n) and (_SCAL, (child,), k), with
# the k-th constant, are the tree nodes.
_SLOT, _ADD, _MUL, _POW, _SCAL = range(5)
_HALF = Fraction(1, 2)


class _Program:
    """A form tree compiled for numeric evaluation at a root tau: its
    distinct leaves (name, r, s) at r tau + s, the derived forms inlined,
    their nomes x^k exp(2 pi i s / m), and its steps."""

    def __init__(self, expr):
        self.leaves = []        # distinct (name, r, s)
        self.steps = []
        self.constants = []     # the Scal nodes, in step order
        self._index = {}        # (subtree, r, s) or leaf -> token
        self._by_prec = {}
        top = self._compile(expr, Fraction(1), Fraction(0))
        n = len(self.leaves)

        def at(token):          # leaves are tokens -1, -2, ...
            return -token - 1 if token < 0 else n + token

        self.steps = [(op, tuple(map(at, args)), extra)
                      for op, args, extra in self.steps]
        self.result = at(top)
        self._plan()

    def _leaf(self, name, r, s):
        if name not in _MODULI:
            raise ValueError(f"no numeric evaluator for leaf {name!r}")
        if r <= 0:
            raise ValueError(f"argument scaling of {name!r} must be positive")
        key = (name, r, s)
        token = self._index.get(key)
        if token is None:
            self.leaves.append(key)
            token = self._index[key] = -len(self.leaves)
        return token

    def _emit(self, step):
        self.steps.append(step)
        return len(self.steps) - 1

    def _compile(self, node, r, s):
        """Token of a subtree at the argument r tau + s."""
        key = (node, r, s)
        token = self._index.get(key)
        if token is not None:
            return token
        if isinstance(node, (Leaf, E2Slot)):
            scale = Fraction(node.scale)
            r2, s2 = scale * r, scale * s + node.half_shift * _HALF
            if node.name in TREES:
                token = self._compile(TREES[node.name], r2, s2)
            else:
                token = self._leaf(node.name, r2, s2)
                if isinstance(node, E2Slot):
                    token = self._emit((_SLOT, (token,), r2))
        elif isinstance(node, (Add, Mul)):
            token = self._emit((_ADD if isinstance(node, Add) else _MUL,
                                tuple(self._compile(c, r, s)
                                      for c in node.children), None))
        elif isinstance(node, Pow):
            token = self._emit((_POW, (self._compile(node.base, r, s),),
                                node.n))
        elif isinstance(node, Scal):
            child = self._compile(node.child, r, s)
            self.constants.append(node)
            token = self._emit((_SCAL, (child,), len(self.constants) - 1))
        else:
            raise TypeError(f"unknown expression node {node!r}")
        self._index[key] = token
        return token

    def _plan(self):
        """The root nome's unit u, the distinct nomes (k, s / m mod 1),
        the Gaussian leaves grouped by nome, the divisor leaves and the
        power chain."""
        ratios = [r / _MODULI[name] for name, r, _ in self.leaves]
        den = math.lcm(*(e.denominator for e in ratios))
        self.unit = Fraction(math.gcd(*(int(e * den) for e in ratios)), den)
        self.nomes, gauss, self.divisors = [], {}, []
        for i, ((name, r, s), e) in enumerate(zip(self.leaves, ratios)):
            key = (int(e / self.unit), s / _MODULI[name] % 1)
            if key not in self.nomes:
                self.nomes.append(key)
            nome = self.nomes.index(key)
            if name in GAUSSIAN_LEAVES:
                gauss.setdefault(nome, []).append(i)
            else:
                self.divisors.append((i, name, nome, float(r)))
        self.gauss = [(nome, slots,
                       tuple(GAUSSIAN_LEAVES[self.leaves[i][0]][1:]
                             for i in slots))
                      for nome, slots in gauss.items()]
        # the phases exp(2 pi i f) other than +-1, built per precision
        self.phases = sorted({f for _, f in self.nomes} - {0, _HALF})
        self.chain = _power_chain({k for k, _ in self.nomes})

    def constants_at(self, prec):
        """The scalars as mpc and the phases by fraction, at the working
        precision."""
        values = self._by_prec.get(prec)
        if values is None:
            values = self._by_prec[prec] = (
                [mp.mpc(c.re.numerator) / c.re.denominator
                 + 1j * mp.mpc(c.im.numerator) / c.im.denominator
                 for c in self.constants],
                {f: _nome(f.numerator, f.denominator) for f in self.phases})
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


def _run(program, tau, eps, e2_mode):
    """Value of a compiled expression at its root tau: one exponential, the
    power chain, one Gaussian pass per nome, one sum per divisor leaf, and
    the steps in order."""
    constants, phases = program.constants_at(mp.mp.prec)
    unit, q = program.unit, program.unit.denominator
    w = tau * unit.numerator if unit.numerator != 1 else tau
    if abs(float(w.real)) > q / 2:
        # x = exp(2 pi i w / q) has period q in w: move Re w into
        # [-q/2, q/2], exactly
        shift = mp.fmul(mp.nint(w.real / q), q, exact=True)
        w = mp.mpc(mp.fsub(w.real, shift, exact=True), w.imag)
    powers = {1: _nome(w, q)}
    for k, a, b in program.chain:
        powers[k] = powers[a] * powers[b]
    nomes = [powers[k] if not f else -powers[k] if f == _HALF
             else powers[k] * phases[f] for k, f in program.nomes]
    vals = [None] * len(program.leaves)
    for nome, slots, leaves in program.gauss:
        for i, val in zip(slots, _gauss_sums(nomes[nome], leaves, eps)):
            vals[i] = val
    im = float(tau.imag)
    for i, name, nome, r in program.divisors:
        vals[i] = _divisor(name, nomes[nome], im * r, eps)
    for op, args, extra in program.steps:
        if op == _ADD:
            val = mp.fsum([vals[i] for i in args])
        elif op == _MUL:
            val = vals[args[0]]
            for i in args[1:]:
                val = val * vals[i]
        elif op == _POW:
            val = vals[args[0]] ** extra
        elif op == _SCAL:
            val = constants[extra] * vals[args[0]]
        else:
            val = vals[args[0]]
            if e2_mode == "anomaly":
                val = val - 3 / (mp.pi * (mp.im(tau) * mp.mpf(extra.numerator)
                                          / extra.denominator))
        vals.append(val)
    return vals[program.result]


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
        return _run(program, tau, _tolerances(digits)[0], e2_mode)


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

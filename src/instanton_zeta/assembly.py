"""Generating functions for rank-2 sheaf counting: zeta factors, vacuum
series, the four double sums, the ruling-semistable series, the closed
wall-crossing assemblies for the three first-Chern-class orbits, and a
brute-force oracle that recomputes the wall terms from raw degree-2
cohomology classes.

Everything here is a QSeries over the Laurent polynomials in t; the
substitution u = t^2 q is baked into each constructor.  The assemblies are
built as Laurent-polynomial numerators over the one denominator DEN, with
no division; ``tratfunc`` applies DEN where a value is read.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction
from math import comb, floor

from .errors import ConfigurationError, IntegrityError
from .forms import eta_pow_inverse, gen_form, sieve
from .laurent import LPoly
from .lattice import (coset_parities, coset_points, d8_ambient,
                      zn_shell_counts_dp)
from .qseries import LAURENT, QQ, QSeries
from .report import IdentityResult, VerifyReport, compare
from .surface import CLASSES, SURFACE, C1Class, pair, vec_add, vec_scale
from .tratfunc import exact_quotient

_BETTI = {"X": (1, 10, 1), "Sigma1": (1, 2, 1)}


def _geometric_power(t_pow, q_pow, mult, trunc):
    """1 / (1 - t^t_pow q^q_pow)^mult as an exact q-series."""
    trunc = Fraction(trunc)
    kmax = int(trunc / q_pow)
    pairs = [(k * q_pow, LPoly.t_pow(t_pow * k, comb(k + mult - 1, k)))
             for k in range(kmax + 1)]
    return QSeries.from_pairs(LAURENT, pairs, trunc, 1)


def zeta_factor(surface, u_t_power, u_q_power, trunc):
    """Weil-style zeta 1/((1-u)(1-tu)^b2 (1-t^2 u)) of the surface under
    the monomial substitution u = t^u_t_power q^u_q_power."""
    if u_q_power < 1:
        raise ValueError("u must carry a positive power of q")
    b0, b2, b4 = _BETTI[surface]
    out = _geometric_power(u_t_power, u_q_power, b0, trunc)
    out = out * _geometric_power(u_t_power + 1, u_q_power, b2, trunc)
    out = out * _geometric_power(u_t_power + 2, u_q_power, b4, trunc)
    return out


@functools.lru_cache(maxsize=None)
def zeta_product_x(trunc):
    """prod_{a >= 1} Z(X, t^(2a-1) q^a)^2, exact: factors with a > trunc
    are 1 + O(q^(>trunc))."""
    trunc = Fraction(trunc)
    out = QSeries.constant(LAURENT, 1, trunc)
    a = 1
    while a <= trunc:
        out = out * zeta_factor("X", 2 * a - 1, a, trunc) ** 2
        a += 1
    return out


# Every rational prefactor of the assembly divides one polynomial,
# DEN = 2 t (t-1)^2 (t+1).  Terms are carried as Laurent-polynomial
# numerators over DEN, so every product stays polynomial, and DEN is
# applied only where a coefficient is read.
_T = LPoly.t_pow(1)
DEN = 2 * _T * (_T - 1) ** 2 * (_T + 1)


@functools.lru_cache(maxsize=None)
def vacuum_product(kind, trunc):
    """The two vacuum products over the ruled surface before their
    1/((t^2-1)(t-1)) prefactor: F is the product of Z(Sigma1, t^(2a-2) q^a)
    Z(Sigma1, t^(2a) q^a) over a >= 1, G is F less the product of
    Z(Sigma1, t^(2a-1) q^a)^2."""
    trunc = Fraction(trunc)
    if kind not in ("F", "G"):
        raise ValueError(f"unknown vacuum kind {kind!r}")
    shifts = (-2, 0) if kind == "F" else (-1, -1)
    out = QSeries.constant(LAURENT, 1, trunc)
    a = 1
    while a <= trunc:
        for s in shifts:
            out = out * zeta_factor("Sigma1", 2 * a + s, a, trunc)
        a += 1
    return out if kind == "F" else vacuum_product("F", trunc) - out


def _odd_gap_ratio(k):
    """(t^k - t^-k)/(t - 1) = t^-k (1 + t + ... + t^(2k-1))."""
    return LPoly(-k, (1,) * (2 * k), 1)


@functools.lru_cache(maxsize=None)
def a_sum(i, trunc):
    """The four double sums over (m, n > 0) with u = t^2 q:
    exponents 4mn / 2m(2n-1) / (2m-1)2n / (2m-1)(2n-1) in u, weight
    (t^(2m) - t^(-2m))/(t-1) for i in (1, 2) and the odd analogue for
    i in (3, 4)."""
    trunc = Fraction(trunc)
    if i not in (1, 2, 3, 4):
        raise ValueError("index must be 1..4")

    def u_exp(m, n):
        mf = 2 * m if i in (1, 2) else 2 * m - 1
        nf = 2 * n if i in (1, 3) else 2 * n - 1
        return mf * nf

    terms = {}
    m = 1
    while u_exp(m, 1) <= trunc:
        k = 2 * m if i in (1, 2) else 2 * m - 1
        weight = _odd_gap_ratio(k)
        n = 1
        while u_exp(m, n) <= trunc:
            e = u_exp(m, n)
            # u^e = t^(2e) q^e
            terms[e] = terms.get(e, LAURENT.zero) + weight.shift(2 * e)
            n += 1
        m += 1
    pairs = [(e, c) for e, c in terms.items() if c]
    return QSeries.from_pairs(LAURENT, pairs, trunc, 1)


@functools.lru_cache(maxsize=None)
def pochhammer16_inverse(trunc):
    """1 / prod_{a >= 1} (1 - u^a)^16 under u = t^2 q, read off
    q^(2/3) / eta^16."""
    trunc = Fraction(trunc)
    shift = Fraction(2, 3)
    inv16 = eta_pow_inverse(1, 16, trunc - shift).shift_exp(shift)
    pairs = [(e, LPoly.t_pow(2 * int(e), int(c)))
             for e, c in inv16.pairs()]
    return QSeries.from_pairs(LAURENT, pairs, trunc, 1)


# -- rank-8 coset thetas under u = t^2 q --------------------------------------

def theta_coset_sub(e_coords, trunc):
    """Theta of the even-sum rank-8 lattice coset (shift in e-basis
    coordinates), evaluated at u^2 with u = t^2 q: the norm-j shell
    contributes (count) * t^(2j) q^j."""
    trunc = Fraction(trunc)
    max_q = int(4 * trunc)  # doubled-coordinate norms: 4 * (x, x)
    counts = zn_shell_counts_dp(*coset_parities(d8_ambient(e_coords)), max_q)
    pairs = []
    for qq, c in counts.items():
        norm = Fraction(qq, 4)
        tpow = 2 * norm
        assert tpow.denominator == 1
        pairs.append((norm, LPoly.t_pow(int(tpow), c)))
    return QSeries.from_pairs(LAURENT, pairs, trunc, 4).normalize_denom()


def _coset_shift(c1: C1Class, eps1, eps2):
    """e-basis coordinates of eps1*p + eps2*q + l/2."""
    s = SURFACE
    return tuple(h + eps1 * p + eps2 * q for h, p, q in zip(
        c1.half_rep_e_coords, s.p_half_e_coords, s.q_half_e_coords))


# -- the three closed assemblies ----------------------------------------------

# numerators over DEN of the closed wall-crossing bracket
_RAY_EVEN = LPoly.const(-2)    # -1/(t (t^2-1)(t-1)), even-b degenerate ray
_RAY_ODD = -2 * _T             # -1/((t^2-1)(t-1)), odd-b degenerate ray
_A_SUMS = 2 * (_T - 1) ** 2 * (_T + 1)   # 1/t, the four double sums
_MIDDLE = 1 - _T ** 2          # -1/(2 t (t-1)), boundary filtration term


@functools.lru_cache(maxsize=None)
def mg_series(tag, trunc):
    """Ruling-semistable generating series as numerators over DEN: vacuum
    F times the character theta powers B0^(8-n) B1^n at u = t^2 q over the
    16-fold partition denominator.  The 1/((t^2-1)(t-1)) prefactor of F is
    2t over DEN."""
    from .lattice import b_substituted
    c1 = CLASSES[tag]
    trunc = Fraction(trunc)
    n = c1.blowup_parity
    out = vacuum_product("F", trunc) * b_substituted(0, trunc) ** (8 - n)
    if n:
        out = out * b_substituted(Fraction(1, 2), trunc) ** n
    return (out * pochhammer16_inverse(trunc)).scale(2 * _T)


def _assemble(tag, trunc, bracket):
    """The ruling-semistable series plus the zeta product times a wall
    bracket, all numerators over DEN."""
    return mg_series(tag, trunc) + zeta_product_x(trunc) * bracket


@functools.lru_cache(maxsize=None)
def proposition_series(tag, trunc):
    """Sum over discriminants of the Poincare polynomial of the moduli of
    rank-2 sheaves with the given first Chern class, as a q-series whose
    coefficients are Laurent-polynomial numerators over DEN.  Smooth-case
    coefficients are checked to be divisible by DEN, so that their
    quotients are Laurent polynomials."""
    c1 = CLASSES[tag]
    trunc = Fraction(trunc)
    theta = {eps: theta_coset_sub(_coset_shift(c1, *eps), trunc)
             for eps in ((0, 0), (0, 1), (1, 0), (1, 1))}
    asums = sum(a_sum(i, trunc) * theta[eps] for i, eps in
                ((1, (0, 0)), (2, (1, 0)), (3, (0, 1)), (4, (1, 1))))
    bracket = (theta[(0, 0)].scale(_RAY_EVEN) + theta[(0, 1)].scale(_RAY_ODD)
               + asums.scale(_A_SUMS) + theta[(0, 0)].scale(_MIDDLE))
    out = _assemble(tag, trunc, bracket)
    _validate_smooth(tag, out)
    return out


def _validate_smooth(tag, series):
    for delta, coeff in series.pairs():
        if (CLASSES[tag].is_smooth(delta)
                and exact_quotient(coeff, DEN) is None):
            raise IntegrityError(
                f"{tag}: coefficient at Delta = {delta} is not a Laurent "
                f"polynomial despite smoothness")


def smoothness_report(tag, trunc):
    """Structural check of the smooth-case coefficients: Laurent polynomial,
    nonnegative integer coefficients, palindromic of degree 4*Delta - 3,
    vanishing when that degree is negative, constant term 1 when
    nonempty."""
    trunc = Fraction(trunc)
    t0 = time.perf_counter()   # the first line's time includes the build
    series = proposition_series(tag, trunc)
    results = []
    c1 = CLASSES[tag]
    delta = c1.grid_offset
    while delta <= trunc:
        coeff = series.coeff(delta)
        smooth = c1.is_smooth(delta)
        problems = []
        dim = 4 * delta - 3
        if smooth:
            poly = exact_quotient(coeff, DEN)
            if poly is None:
                problems.append("not a polynomial")
            elif dim < 0:
                if not poly.is_zero:
                    problems.append("nonzero below the empty threshold")
            elif not poly.is_zero:
                if poly.low() != 0:
                    problems.append("negative t-powers")
                if poly.degree() != dim:
                    problems.append(f"degree {poly.degree()} != {dim}")
                cs = [poly.coeff(k) for k in range(poly.degree() + 1)]
                if any(c.denominator != 1 or c < 0 for c in cs):
                    problems.append("coefficients not nonneg integers")
                if cs != cs[::-1]:
                    problems.append("not palindromic")
                if cs and cs[0] != 1:
                    problems.append("constant term != 1")
        results.append(IdentityResult(
            name=f"{tag} Delta={delta}: Poincare polynomial structure",
            max_exponent=delta, passed=not problems,
            note="; ".join(problems),
            seconds=time.perf_counter() - t0))
        t0 = time.perf_counter()
        delta += 1
    return VerifyReport(suite=f"smoothness[{tag}]", results=results)


# -- the independent wall-sum oracle ------------------------------------------

def wall_sum_oracle(tag, trunc):
    """Direct evaluation of the wall-crossing difference: the two
    mixed-sign cone sums and the boundary-filtration term, computed from
    raw 10-dimensional classes xi = a f + b g + delta with every pairing
    taken in the full intersection form.  Classes are carried doubled,
    2 xi = A f + B g + 2 delta with A = 2a, B = 2b, so every coordinate is
    an integer.  Degenerate rays (a = 0, the q-power independent of b) are
    summed as geometric series in t."""
    c1 = CLASSES[tag]
    s = SURFACE
    trunc = Fraction(trunc)
    # integer bound on 4 (delta, delta)_* and on -(2 xi, 2 xi), both integers
    max_q = floor(4 * trunc)

    # coset self-check: representatives must be integral classes and the
    # glue must recover a unimodular overlattice (checked in SurfaceData);
    # here: each stratum representative lies in H^2 + l/2.
    for eps1, eps2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        shift2 = [2 * x for x in _coset_shift(c1, eps1, eps2)]
        rep2 = vec_add(vec_scale(eps1, s.f), vec_scale(eps2, s.g),
                       s.from_e_coords(shift2))
        if any((x - r) % 2 for x, r in zip(rep2, c1.rep)):
            raise ConfigurationError(
                f"stratum ({eps1},{eps2}) does not lie in H^2 + l/2")

    # (4 q-exponent, t-power) -> integer coefficient of the numerator over
    # DEN; the wall prefactor 1/(t (t-1)) is 2 (t^2-1)/DEN
    num = {}
    wall = [(e, int(c)) for e, c in (2 * (_T ** 2 - 1)).pairs()]
    middle = [(e, int(c)) for e, c in _MIDDLE.pairs()]

    def add(norm4, k, poly, sign):
        for e, c in poly:
            key = (norm4, k + e)
            num[key] = num.get(key, 0) + sign * c

    f, g, K = s.f, s.g, s.K
    for eps1, eps2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        A_min = 1 if eps1 else 2   # smallest positive A
        B_min = 1 if eps2 else 2   # smallest positive B
        # a point with 4 A_min B_min + qd > max_q fits in no cone, and only
        # the eps1 = 0 strata have a degenerate ray
        budget = max_q - 4 * A_min * B_min if eps1 else max_q
        for y, qd in coset_points(s.e_gram, _coset_shift(c1, eps1, eps2),
                                  budget):
            d2 = s.from_e_coords(y)   # 2 delta, (2 delta, 2 delta)_* = qd
            if pair(d2, f) or pair(d2, g):
                raise ConfigurationError("delta not orthogonal to <f, g>")

            def emit(A, B, sign):
                xi2 = tuple([A * a + B * b + c for a, b, c in zip(f, g, d2)])
                norm4 = -pair(xi2, xi2)   # 4 q-exponent
                tpow2 = norm4 + pair(xi2, K)
                assert tpow2 % 2 == 0 and norm4 == -4 * A * B + qd
                add(norm4, tpow2 // 2, wall, sign)

            # first cone: (xi, g) > 0, (xi, f) < 0, i.e. A > 0 > B
            A = A_min
            while 4 * A * B_min + qd <= max_q:
                B = -B_min
                while 4 * A * (-B) + qd <= max_q:
                    emit(A, B, +1)
                    B -= 2
                A += 2
            # second cone: (xi, g) < 0 < (xi, f); the A = 0 boundary of the
            # (xi, g) <= 0 condition is the degenerate ray handled below
            A = -A_min
            while 4 * (-A) * B_min + qd <= max_q:
                B = B_min
                while 4 * (-A) * B + qd <= max_q:
                    emit(A, B, -1)
                    B += 2
                A -= 2
            if eps1 == 0:
                # degenerate ray a = 0, b > 0: q-power = (delta, delta)_*,
                # t-power 2*(that) - 2b; the sum of t^(-2b) over b is
                # t^eps2/(t^2-1), which times the wall prefactor leaves
                # -2 t^eps2 over DEN
                assert qd % 2 == 0
                add(qd, qd // 2 + eps2, ((0, -2),), 1)
                if eps2 == 0:
                    # middle stratum contribution only from a = b = 0
                    add(qd, qd // 2, middle, 1)

    by_norm = {}
    for (norm4, tpow), c in num.items():
        by_norm.setdefault(norm4, []).append((tpow, c))
    return _assemble(tag, trunc, QSeries.from_pairs(
        LAURENT, [(Fraction(n4, 4), LPoly.from_pairs(terms))
                  for n4, terms in by_norm.items()], trunc, 4))


def verify_wall_oracle(trunc):
    """Exact coefficientwise comparison of the closed assemblies against
    the raw wall-sum oracle for all three classes."""
    trunc = Fraction(trunc)
    return VerifyReport(suite="wall-oracle", results=[
        compare(f"closed assembly = wall-sum oracle [{tag}]",
                lambda: (proposition_series(tag, trunc),
                         wall_sum_oracle(tag, trunc)), trunc)
        for tag in ("v0", "vEven", "vOdd")])


def check_asum_closed_forms(trunc):
    """The four double sums at t = 1 against their E2-dilate closed forms
    and their raw divisor-sum expressions."""
    trunc = Fraction(trunc)
    one = QSeries.constant(QQ, 1, trunc)

    def e2(scaling):
        return gen_form("E2", trunc, scaling)

    def at_one(i):
        return a_sum(i, trunc).map_coeffs(lambda c: c.eval_one(), QQ)

    def sigma1(n):
        return sum(d for d in range(1, n + 1) if n % d == 0)

    def sigma1_odd(n):
        return sum(d for d in range(1, n + 1, 2) if n % d == 0)

    cases = [
        ("A1(1,q) = (1 - E2(4t))/6", 1,
         lambda: (one - e2(4)).scale(Fraction(1, 6))),
        ("A1(1,q) = 4 sum sigma1(n) q^(4n)", 1,
         lambda: sieve(trunc, lambda n: 4 * sigma1(n // 4)
                       if n % 4 == 0 else 0)),
        ("A2(1,q) = (E2(4t) - E2(2t))/6", 2,
         lambda: (e2(4) - e2(2)).scale(Fraction(1, 6))),
        ("A2(1,q) = 4 sum_(m,n) m q^(2m(2n-1))", 2,
         lambda: sieve(trunc, lambda n: 4 * sum(
             m for m in range(1, n + 1)
             if n % (2 * m) == 0 and (n // (2 * m)) % 2 == 1))),
        ("A3(1,q) = (-E2(2t) + 2E2(4t) - 1)/12", 3,
         lambda: (e2(4).scale(2) - e2(2) - one).scale(Fraction(1, 12))),
        ("A3(1,q) = 2 sum sigma1_odd(n) q^(2n)", 3,
         lambda: sieve(trunc, lambda n: 2 * sigma1_odd(n // 2)
                       if n % 2 == 0 else 0)),
        ("A4(1,q) = 2 F", 4, lambda: gen_form("F", trunc).scale(2)),
        ("A4(1,q) = sum 2(2m-1) q^((2m-1)(2n-1))", 4,
         lambda: sieve(trunc, lambda n: 2 * sum(
             d for d in range(1, n + 1, 2)
             if n % d == 0 and (n // d) % 2 == 1))),
    ]
    return VerifyReport(suite="a-sums", results=[
        compare(name, lambda: (at_one(i), rhs()), trunc)
        for name, i, rhs in cases])

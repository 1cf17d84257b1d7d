"""Reading a Laurent-polynomial numerator over a known denominator.

The assembly carries every coefficient in t as an integer Laurent
polynomial over one fixed denominator (``assembly.DEN``), so no rational
function is ever reduced.  The denominator is applied only where a value
is read, by one of two functions of a numerator and a denominator
``LPoly``: the exact quotient (the Poincare polynomial of a smooth moduli
space) and the value at t = 1 (its Euler characteristic).

The value at t = 1 reads each polynomial through its Taylor coefficients
there, ``p(1 + e) = c_0(p) + c_1(p) e + ...`` with ``c_j(p)`` the sum of
``binom(k, j) a_k`` over the terms ``a_k t^k``; the binomial is the
generalized one for negative ``k``.  If ``c_k(den)`` is the first nonzero
one, the value is ``c_k(num) / c_k(den)``, and a nonzero ``c_j(num)`` with
``j < k`` is a pole of order ``k - j``.  No factor t - 1 is divided out.

The module keeps its name from when it held the rational-function class:
the benchmark's tracer (``perfbench/tracer.py``) imports it by that name
to look up its layers, and reports the ones it no longer finds as
untraced.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import PoleAtOneError
from .laurent import LPoly, _content, poly_divexact_z


def exact_quotient(num, den):
    """``num / den`` as an ``LPoly``, or None when it is not a Laurent
    polynomial.

    Powers of t are units and the trimmed coefficient lists have nonzero
    constant terms, so only the lists need to divide.  Dividing by the
    primitive part of the denominator's list keeps that division over Z:
    by Gauss's lemma a primitive integer polynomial that divides an integer
    polynomial over Q leaves an integer quotient."""
    if num.is_zero:
        return LPoly()
    g = _content(den.num)
    try:
        quot = poly_divexact_z(num.num, [c // g for c in den.num])
    except ValueError:
        return None
    return LPoly(num.off - den.off, [c * den.den for c in quot], num.den * g)


def _binom(k, j):
    """The binomial coefficient k(k-1)...(k-j+1)/j! for any integer k."""
    return comb(k, j) if k >= 0 else (-1) ** j * comb(j - k - 1, j)


def _taylor(poly, j):
    """``poly.den`` times ``c_j(poly)``, the j-th Taylor coefficient at
    t = 1: an integer."""
    return sum(_binom(k, j) * a
               for k, a in enumerate(poly.num, poly.off) if a)


def value_at_one(num, den):
    """Exact value of ``num / den`` at t = 1.

    ``den`` vanishes to order ``k`` at 1.  When ``num`` vanishes there to
    an order ``j < k``, the quotient has a pole of order ``k - j`` and
    ``PoleAtOneError(k - j)`` is raised."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return Fraction(0)
    k = 0
    while not _taylor(den, k):
        k += 1
    for j in range(k):
        if _taylor(num, j):
            raise PoleAtOneError(k - j)
    return Fraction(_taylor(num, k) * den.den, _taylor(den, k) * num.den)

"""Reading a Laurent-polynomial numerator over a known denominator.

The assembly carries every coefficient in t as an integer Laurent
polynomial over one fixed denominator (``assembly.DEN``), so no rational
function is ever reduced.  The denominator is applied only where a value
is read, by one of two functions of a numerator and a denominator
``LPoly``: the exact quotient (the Poincare polynomial of a smooth moduli
space) and the value at t = 1 (its Euler characteristic).

The module keeps its name from when it held the rational-function class:
the benchmark's tracer (``perfbench/tracer.py``) imports it by that name
to look up its layers, and reports the ones it no longer finds as
untraced.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleAtOneError
from .laurent import LPoly, _content, poly_divexact_z

_T_MINUS_ONE = [-1, 1]  # low-to-high


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


def _strip_one(coeffs):
    """The coefficient list divided by t - 1."""
    return poly_divexact_z(coeffs, _T_MINUS_ONE)


def value_at_one(num, den):
    """Exact value of ``num / den`` at t = 1.

    ``den`` has ``k`` factors t - 1.  They are stripped, and so are up to
    ``k`` factors of ``num``; when ``num`` still does not vanish at 1 after
    ``j < k`` of them, the quotient has a pole of order ``k - j`` there and
    ``PoleAtOneError(k - j)`` is raised."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return Fraction(0)
    d = list(den.num)
    k = 0
    while sum(d) == 0:
        d = _strip_one(d)
        k += 1
    n = list(num.num)
    for j in range(k):
        if sum(n):
            raise PoleAtOneError(k - j)
        n = _strip_one(n)
    return Fraction(sum(n) * den.den, sum(d) * num.den)

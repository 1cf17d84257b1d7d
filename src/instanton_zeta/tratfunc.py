"""Reading an integer Laurent-polynomial numerator over a known
denominator.

The assembly carries every coefficient in t as a Laurent polynomial over Z,
the numerator over one fixed denominator (``assembly.DEN``), so no rational
function is ever reduced.  The denominator is applied only where a value
is read, by one of two functions of a numerator and a denominator
``LPoly``: the exact quotient (the Poincare polynomial of a smooth moduli
space, whose Betti numbers are integers, so a fractional quotient is
none) and the value at t = 1 (its Euler characteristic, a rational).

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
from .laurent import LPoly, poly_divexact_z


def exact_quotient(num, den):
    """``num / den`` as an ``LPoly``, or None when it is not an integer
    Laurent polynomial.

    Powers of t are units and the trimmed coefficient lists have nonzero
    constant terms, so only the lists need to divide.  Long division over Z
    from the top term finds every integer quotient: a rational quotient
    meets a coefficient that the denominator's top one does not divide."""
    if num.is_zero:
        return LPoly()
    try:
        return LPoly(num.off - den.off, poly_divexact_z(num.num, den.num))
    except ValueError:
        return None


def _binom(k, j):
    """The binomial coefficient k(k-1)...(k-j+1)/j! for any integer k."""
    return comb(k, j) if k >= 0 else (-1) ** j * comb(j - k - 1, j)


def _taylor(poly, j):
    """``c_j(poly)``, the j-th Taylor coefficient at t = 1: an integer."""
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
    return Fraction(_taylor(num, k), _taylor(den, k))

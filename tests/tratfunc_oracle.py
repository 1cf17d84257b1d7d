"""Reference implementation for the t-coefficient layer: canonically
reduced fractions of Laurent polynomials in t over exact rationals.

The library carries every t-coefficient as a Laurent-polynomial numerator
over a known denominator and reads it through ``tratfunc.exact_quotient``
and ``tratfunc.value_at_one``.  This class is the general machinery those
two functions replaced; the tests check them against it.

Canonical form: the denominator is an honest polynomial (its lowest
exponent is 0 and its constant term is nonzero -- powers of t are units and
live in the numerator offset), it is monic at the highest t-power, and it
shares no factor with the numerator.  Equal values therefore have identical
representations, so ``==`` and ``hash`` are structural.
"""

from __future__ import annotations

from fractions import Fraction

from instanton_zeta.errors import PoleAtOneError
from instanton_zeta.laurent import LPoly, _content, _z_trim, poly_divexact_z

_POLY_ONE = LPoly.const(1)


# -- the integer polynomial gcd ------------------------------------------------

def _z_primitive(a):
    a = _z_trim(a)
    if not a:
        return a
    g = _content(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _z_pseudo_rem(a, b):
    """Pseudo-remainder of a by b (b nonzero), over Z."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        a = _z_trim(a)
        if len(a) - 1 < db:
            break
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
        a = _z_trim(a)
        if not a:
            break
    return _z_trim(a)


def poly_gcd_z(a, b):
    """Primitive gcd of two integer coefficient lists (low-to-high)."""
    a = _z_primitive(a)
    b = _z_primitive(b)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _z_pseudo_rem(a, b)
        a, b = b, _z_primitive(r)
    return a


# -- reduced rational functions ------------------------------------------------

_MINUS_ONE_ONE = (-1, 1)  # the polynomial t - 1, low-to-high


class TRatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if not isinstance(num, LPoly):
            num = LPoly.const(num)
        if den is None:
            den = _POLY_ONE
        elif not isinstance(den, LPoly):
            den = LPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("TRatFunc is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(value):
        return TRatFunc(LPoly.const(value), _POLY_ONE, _reduced=True)

    @staticmethod
    def t_pow(k, coeff=1):
        return TRatFunc(LPoly.t_pow(k, coeff), _POLY_ONE, _reduced=True)

    @staticmethod
    def _coerce(x):
        if isinstance(x, TRatFunc):
            return x
        if isinstance(x, LPoly):
            return TRatFunc(x, _POLY_ONE, _reduced=True)
        if isinstance(x, (int, Fraction)):
            return TRatFunc.const(x)
        return None

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return not self.num.is_zero

    @property
    def is_zero(self):
        return self.num.is_zero

    def is_polynomial(self):
        """True when the reduced denominator is 1 (Laurent polynomial)."""
        return self.den == _POLY_ONE

    def as_lpoly(self):
        if not self.is_polynomial():
            raise ValueError("denominator is not trivial")
        return self.num

    def __eq__(self, other):
        other = TRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = TRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return TRatFunc(self.num + other.num, self.den)
        return TRatFunc(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return TRatFunc(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        other = TRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return TRatFunc._coerce(other) + (-self)

    def __mul__(self, other):
        other = TRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_polynomial() and other.is_polynomial():
            return TRatFunc(self.num * other.num, _POLY_ONE, _reduced=True)
        return TRatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.num.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return TRatFunc(self.den, self.num)

    def __truediv__(self, other):
        other = TRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return TRatFunc._coerce(other) * self.reciprocal()

    def __pow__(self, n):
        if n == 0:
            return TRatFunc.const(1)
        if n < 0:
            return self.reciprocal() ** (-n)
        result = TRatFunc.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation ----------------------------------------------------------

    def eval_one(self):
        """Exact value at t = 1; raises PoleAtOneError if the reduced
        denominator vanishes there."""
        dv = self.den.eval_one()
        if dv == 0:
            order = 0
            rem = list(self.den.num)
            while rem and sum(rem) == 0:
                rem = poly_divexact_z(rem, list(_MINUS_ONE_ONE))
                order += 1
            raise PoleAtOneError(order)
        return self.num.eval_one() / dv

    def eval_at(self, x):
        x = Fraction(x)
        dv = self.den.eval_at(x)
        if dv == 0:
            raise ZeroDivisionError(f"pole at t = {x}")
        return self.num.eval_at(x) / dv

    def stretch(self, k):
        return TRatFunc(self.num.stretch(k), self.den.stretch(k),
                        _reduced=True)

    def compress(self, k):
        return TRatFunc(self.num.compress(k), self.den.compress(k),
                        _reduced=True)

    def __repr__(self):
        if self.is_polynomial():
            return f"TRatFunc({self.num!r})"
        return f"TRatFunc({self.num!r} / {self.den!r})"


def _reduce(num, den):
    """Canonical reduction: clear t-units from den, cancel the polynomial
    gcd, make den monic at its top power."""
    if num.is_zero:
        return LPoly(), _POLY_ONE
    # move any power of t from den into num
    if den.low() != 0:
        num = num.shift(-den.low())
        den = den.shift(-den.low())
    if len(den.num) > 1:
        g = poly_gcd_z(list(num.num), list(den.num))
        if len(g) > 1:
            num = LPoly(num.off, poly_divexact_z(list(num.num), g), num.den)
            den = LPoly(den.off, poly_divexact_z(list(den.num), g), den.den)
    # monic normalization: divide both by the top coefficient of den
    lead = Fraction(den.num[-1], den.den)
    if lead != 1:
        inv = 1 / lead
        num = num * LPoly.const(inv)
        den = den * LPoly.const(inv)
    return num, den

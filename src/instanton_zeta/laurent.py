"""Laurent polynomials in one variable t over exact rationals.

A polynomial is stored as ``t**off * (num[0] + num[1] t + ...) / den`` with
integer coefficients ``num`` and a single positive integer denominator
``den``.  Keeping one shared denominator lets every ring operation run in
plain integer arithmetic; long convolutions are dispatched to a
Kronecker-substitution kernel (pack into one big integer, multiply once,
unpack) which CPython's big-int multiplication makes fast.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _trim(num):
    lo = 0
    hi = len(num)
    while hi > lo and num[hi - 1] == 0:
        hi -= 1
    while lo < hi and num[lo] == 0:
        lo += 1
    return lo, num[lo:hi]


def _content(num):
    g = 0
    for c in num:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _conv_school(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


# Packed layout: coefficient i sits in a signed slot of ``nbytes`` bytes at
# bit 8 * nbytes * i, so that a list packs to ``sum c_i * 2**(8 * nbytes * i)``
# and products and sums of packed lists are packed convolutions and sums.
# A slot holds any value in [-2**(8 * nbytes - 1), 2**(8 * nbytes - 1)):
# adding the half width to every slot turns each one into a plain unsigned
# byte field, which is how both directions convert.

def _slot_bytes(bound):
    """Bytes of the narrowest signed slot that holds every |v| <= bound."""
    return bound.bit_length() // 8 + 1


def _slot_count(value, nbytes):
    """Slots that ``_unpack`` reads to reach the top slot of ``value``."""
    return abs(value).bit_length() // (8 * nbytes) + 1


def _bias(nbytes, count):
    """The half width in each of ``count`` slots."""
    half = (1 << (8 * nbytes - 1)).to_bytes(nbytes, "little")
    return int.from_bytes(half * count, "little")


def _pack(coeffs, nbytes):
    half = 1 << (8 * nbytes - 1)
    raw = b"".join((c + half).to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _bias(nbytes, len(coeffs))


def _unpack(value, nbytes, count):
    """The ``count`` lowest slots of a packed value; exact when every slot
    of the value is in range and ``count`` reaches its top nonzero slot."""
    half = 1 << (8 * nbytes - 1)
    raw = (value + _bias(nbytes, count)).to_bytes(nbytes * count, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little") - half
            for i in range(0, nbytes * count, nbytes)]


def _conv_kronecker(a, b):
    """One packed multiply; ``max|a| max|b| min(len)`` bounds every output
    slot, so ``_slot_bytes`` of it is exact."""
    nbytes = _slot_bytes(max(map(abs, a)) * max(map(abs, b))
                         * min(len(a), len(b)))
    return _unpack(_pack(a, nbytes) * _pack(b, nbytes), nbytes,
                   len(a) + len(b) - 1)


def _conv(a, b):
    if min(len(a), len(b)) < 24:
        return _conv_school(a, b)
    return _conv_kronecker(a, b)


class LPoly:
    """Immutable Laurent polynomial over Q."""

    __slots__ = ("off", "num", "den")

    def __init__(self, off=0, num=(), den=1):
        num = tuple(num)
        if den < 0:
            den = -den
            num = tuple(-c for c in num)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        lo, num = _trim(num)
        if not num:
            off, den = 0, 1
        else:
            off += lo
            g = gcd(_content(num), den)
            if g > 1:
                num = tuple(c // g for c in num)
                den //= g
        object.__setattr__(self, "off", off)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("LPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value):
        value = Fraction(value)
        return LPoly(0, (value.numerator,), value.denominator)

    @staticmethod
    def t_pow(k, coeff=1):
        coeff = Fraction(coeff)
        return LPoly(k, (coeff.numerator,), coeff.denominator)

    @staticmethod
    def from_pairs(pairs):
        """Build from an iterable of (exponent, Fraction) pairs."""
        pairs = [(e, Fraction(c)) for e, c in pairs if c]
        if not pairs:
            return LPoly()
        den = lcm(*(c.denominator for _, c in pairs))
        lo = min(e for e, _ in pairs)
        hi = max(e for e, _ in pairs)
        num = [0] * (hi - lo + 1)
        for e, c in pairs:
            num[e - lo] += c.numerator * (den // c.denominator)
        return LPoly(lo, num, den)

    # -- predicates / views ------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    @property
    def is_zero(self):
        return not self.num

    def degree(self):
        if not self.num:
            raise ValueError("degree of zero polynomial")
        return self.off + len(self.num) - 1

    def low(self):
        if not self.num:
            raise ValueError("low exponent of zero polynomial")
        return self.off

    def coeff(self, e):
        i = e - self.off
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    def pairs(self):
        return [(self.off + i, Fraction(c, self.den))
                for i, c in enumerate(self.num) if c]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LPoly.const(other)
        return None

    def __add__(self, other):
        other = LPoly._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        lo = min(self.off, other.off)
        hi = max(self.off + len(self.num), other.off + len(other.num))
        den = lcm(self.den, other.den)
        sa = den // self.den
        sb = den // other.den
        num = [0] * (hi - lo)
        for i, c in enumerate(self.num):
            num[self.off - lo + i] = c * sa
        for i, c in enumerate(other.num):
            num[other.off - lo + i] += c * sb
        return LPoly(lo, num, den)

    __radd__ = __add__

    def __neg__(self):
        return LPoly(self.off, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = LPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return LPoly._coerce(other) + (-self)

    def __mul__(self, other):
        other = LPoly._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return LPoly()
        return LPoly(self.off + other.off,
                     _conv(self.num, other.num),
                     self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of LPoly")
        result = LPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = LPoly._coerce(other)
        if other is None:
            return NotImplemented
        return (self.off == other.off and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.off, self.num, self.den))

    # -- evaluation and exponent surgery -----------------------------------

    def eval_one(self):
        return Fraction(sum(self.num), self.den)

    def shift(self, k):
        """Multiply by t**k."""
        if not self.num:
            return self
        return LPoly(self.off + k, self.num, self.den)

    def stretch(self, k):
        """Substitute t -> t**k (k positive integer)."""
        if k == 1 or not self.num:
            return self
        num = [0] * ((len(self.num) - 1) * k + 1)
        for i, c in enumerate(self.num):
            num[i * k] = c
        return LPoly(self.off * k, num, self.den)

    def __repr__(self):
        if not self.num:
            return "LPoly(0)"
        parts = []
        for e, c in self.pairs():
            parts.append(f"{c}*t^{e}" if e else f"{c}")
        return "LPoly(" + " + ".join(parts) + ")"


# -- exact division of integer coefficient lists ------------------------------

def _z_trim(a):
    i = len(a)
    while i and a[i - 1] == 0:
        i -= 1
    return list(a[:i])


def poly_divexact_z(a, b):
    """Exact division of integer coefficient lists; raises if not exact."""
    a = _z_trim(a)
    b = _z_trim(b)
    if not b:
        raise ZeroDivisionError
    if not a:
        return []
    if len(a) < len(b):
        raise ValueError("not divisible")
    out = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        if c % b[-1]:
            raise ValueError("not divisible")
        c //= b[-1]
        out[k] = c
        if c:
            for i, bc in enumerate(b):
                rem[k + i] -= c * bc
    if any(rem):
        raise ValueError("not divisible")
    return out

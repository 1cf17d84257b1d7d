"""Laurent polynomials in one variable t over Z.

A polynomial is stored as ``t**off * (num[0] + num[1] t + ...)`` with
integer coefficients ``num``, trimmed so that the first and last are
nonzero; the zero polynomial has ``off = 0`` and no coefficients.  Every
t-coefficient of the assembly is one of these (rationals enter only as
values at t = 1), so every ring operation runs in plain integer
arithmetic; long convolutions are dispatched to a Kronecker-substitution
kernel (pack into one big integer, multiply once, unpack) which CPython's
big-int multiplication makes fast.
"""

from __future__ import annotations

from fractions import Fraction


def _trim(num):
    lo = 0
    hi = len(num)
    while hi > lo and num[hi - 1] == 0:
        hi -= 1
    while lo < hi and num[lo] == 0:
        lo += 1
    return lo, num[lo:hi]


def _integer(value):
    """``value`` as an int: an int, or a Fraction with denominator 1 (the
    coset thetas count in Fractions).  Anything else raises TypeError."""
    if isinstance(value, int) or (isinstance(value, Fraction)
                                  and value.denominator == 1):
        return int(value)
    raise TypeError(f"{value!r} is not an integer")


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
    """Immutable Laurent polynomial over Z."""

    __slots__ = ("off", "num")

    def __init__(self, off=0, num=()):
        lo, num = _trim(tuple(num))
        object.__setattr__(self, "off", off + lo if num else 0)
        object.__setattr__(self, "num", num)

    def __setattr__(self, *args):
        raise AttributeError("LPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value):
        return LPoly(0, (_integer(value),))

    @staticmethod
    def t_pow(k, coeff=1):
        return LPoly(k, (_integer(coeff),))

    @staticmethod
    def from_pairs(pairs):
        """Build from an iterable of (exponent, integer) pairs."""
        pairs = [(e, _integer(c)) for e, c in pairs if c]
        if not pairs:
            return LPoly()
        lo = min(e for e, _ in pairs)
        hi = max(e for e, _ in pairs)
        num = [0] * (hi - lo + 1)
        for e, c in pairs:
            num[e - lo] += c
        return LPoly(lo, num)

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
        return self.num[i] if 0 <= i < len(self.num) else 0

    def pairs(self):
        return [(self.off + i, c) for i, c in enumerate(self.num) if c]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        """``other`` as an ``LPoly``, or None when it is not an integer."""
        if isinstance(other, LPoly):
            return other
        try:
            return LPoly.const(other)
        except TypeError:
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
        num = [0] * (hi - lo)
        num[self.off - lo:self.off - lo + len(self.num)] = self.num
        for i, c in enumerate(other.num, other.off - lo):
            num[i] += c
        return LPoly(lo, num)

    __radd__ = __add__

    def __neg__(self):
        return LPoly(self.off, [-c for c in self.num])

    def __sub__(self, other):
        other = LPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = LPoly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = LPoly._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return LPoly()
        return LPoly(self.off + other.off, _conv(self.num, other.num))

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
        return self.off == other.off and self.num == other.num

    def __hash__(self):
        return hash((self.off, self.num))

    # -- evaluation and exponent surgery -----------------------------------

    def eval_one(self):
        return sum(self.num)

    def shift(self, k):
        """Multiply by t**k."""
        if not self.num:
            return self
        return LPoly(self.off + k, self.num)

    def stretch(self, k):
        """Substitute t -> t**k (k positive integer)."""
        if k == 1 or not self.num:
            return self
        num = [0] * ((len(self.num) - 1) * k + 1)
        for i, c in enumerate(self.num):
            num[i * k] = c
        return LPoly(self.off * k, num)

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

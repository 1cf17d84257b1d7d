"""Truncated formal power series in q**(1/D) over a pluggable exact ring.

A series knows its exponent granularity D (exponents are integers over D),
an inclusive rational truncation bound N (terms with exponent <= N are
exact, anything beyond is unknown), and a sparse map from exponent
numerator to nonzero coefficient.  Requesting a coefficient beyond N is an
error, never a silent zero.

Multiplication truncates at ``min(Na + min(lead_b, 0), Nb + min(lead_a, 0))``.
For series with nonnegative leading exponents this is the plain
``min(Na, Nb)``; when a factor starts at a negative power (eta**-24 and
friends) the bound is tightened, because the unknown tail of one factor
times the negative head of the other would otherwise contaminate reported
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd

from .errors import (FractionalExponentError, NotInvertibleError,
                     RingMismatchError, TruncationError)
from .laurent import LPoly
from .tratfunc import TRatFunc


class RationalRing:
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    @staticmethod
    def invert(c):
        if c == 0:
            raise NotInvertibleError("zero is not invertible in Q")
        return 1 / c


class TRatRing:
    name = "Q(t)"
    zero = TRatFunc.const(0)
    one = TRatFunc.const(1)

    @staticmethod
    def coerce(x):
        if isinstance(x, TRatFunc):
            return x
        if isinstance(x, LPoly):
            return TRatFunc(x)
        if isinstance(x, (int, Fraction)):
            return TRatFunc.const(x)
        raise TypeError(f"cannot coerce {x!r} into Q(t)")

    @staticmethod
    def invert(c):
        if c.is_zero:
            raise NotInvertibleError("zero is not invertible in Q(t)")
        return c.reciprocal()


QQ = RationalRing()
TRAT = TRatRing()

DEFAULT_DENOM = 48


def _lcm(a, b):
    return a * b // gcd(a, b)


class QSeries:
    __slots__ = ("ring", "denom", "trunc", "terms")

    def __init__(self, ring, denom, trunc, terms, _checked=False):
        self.ring = ring
        self.denom = denom
        self.trunc = Fraction(trunc)
        if _checked:
            self.terms = terms
        else:
            bound = self.trunc * denom
            clean = {}
            for k, c in terms.items():
                if k > bound:
                    raise TruncationError(
                        f"term q^({k}/{denom}) beyond truncation {trunc}")
                if c:
                    clean[k] = c
            self.terms = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_pairs(ring, pairs, trunc, denom=DEFAULT_DENOM):
        """Build from (rational exponent, coefficient) pairs."""
        terms = {}
        for e, c in pairs:
            e = Fraction(e)
            k = e * denom
            if k.denominator != 1:
                raise ValueError(f"exponent {e} not on the 1/{denom} grid")
            terms[int(k)] = terms.get(int(k), ring.zero) + ring.coerce(c)
        return QSeries(ring, denom, trunc, terms)

    @staticmethod
    def zero(ring, trunc, denom=1):
        return QSeries(ring, denom, trunc, {}, _checked=True)

    @staticmethod
    def constant(ring, value, trunc, denom=1):
        value = ring.coerce(value)
        terms = {0: value} if value else {}
        return QSeries(ring, denom, trunc, terms, _checked=True)

    # -- views ---------------------------------------------------------------

    def exponents(self):
        return sorted(Fraction(k, self.denom) for k in self.terms)

    def pairs(self):
        return [(Fraction(k, self.denom), self.terms[k])
                for k in sorted(self.terms)]

    def leading(self):
        """(exponent, coefficient) of the lowest term, or None if zero."""
        if not self.terms:
            return None
        k = min(self.terms)
        return Fraction(k, self.denom), self.terms[k]

    def is_zero(self):
        return not self.terms

    def coeff(self, e):
        e = Fraction(e)
        if e > self.trunc:
            raise TruncationError(
                f"coefficient at q^{e} is beyond truncation {self.trunc}")
        k = e * self.denom
        if k.denominator != 1:
            return self.ring.zero
        return self.terms.get(int(k), self.ring.zero)

    def __repr__(self):
        head = ", ".join(f"q^{e}: {c}" for e, c in self.pairs()[:6])
        more = "" if len(self.terms) <= 6 else ", ..."
        return (f"QSeries[{self.ring.name}] O(q^>{self.trunc}) "
                f"{{{head}{more}}}")

    # -- denominators --------------------------------------------------------

    def lift(self, denom):
        if denom == self.denom:
            return self
        if denom % self.denom:
            raise ValueError("new denominator must be a multiple")
        m = denom // self.denom
        return QSeries(self.ring, denom, self.trunc,
                       {k * m: c for k, c in self.terms.items()},
                       _checked=True)

    def normalize_denom(self):
        """Shrink D to the smallest grid carrying all exponents."""
        g = self.denom
        for k in self.terms:
            g = gcd(g, k)
            if g == 1:
                return self
        return QSeries(self.ring, self.denom // g, self.trunc,
                       {k // g: c for k, c in self.terms.items()},
                       _checked=True)

    def _common(self, other):
        if self.ring is not other.ring:
            raise RingMismatchError(
                f"cannot combine {self.ring.name} and {other.ring.name}")
        d = _lcm(self.denom, other.denom)
        return self.lift(d), other.lift(d)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, TRatFunc, LPoly)):
            other = QSeries.constant(self.ring, other, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        trunc = min(a.trunc, b.trunc)
        bound = trunc * a.denom
        terms = {k: c for k, c in a.terms.items() if k <= bound}
        for k, c in b.terms.items():
            if k <= bound:
                s = terms.get(k)
                s = c if s is None else s + c
                if s:
                    terms[k] = s
                elif k in terms:
                    del terms[k]
        return QSeries(self.ring, a.denom, trunc, terms, _checked=True)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.ring, self.denom, self.trunc,
                       {k: -c for k, c in self.terms.items()}, _checked=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, TRatFunc, LPoly)):
            other = QSeries.constant(self.ring, other, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Multiply every coefficient by a ring scalar."""
        c = self.ring.coerce(c)
        if not c:
            return QSeries.zero(self.ring, self.trunc, self.denom)
        return QSeries(self.ring, self.denom, self.trunc,
                       {k: c * v for k, v in self.terms.items()},
                       _checked=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) or (
                self.ring is TRAT and isinstance(other, (TRatFunc, LPoly))):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        la = min(a.terms) if a.terms else 0
        lb = min(b.terms) if b.terms else 0
        bound_frac = min(a.trunc + Fraction(min(lb, 0), a.denom),
                         b.trunc + Fraction(min(la, 0), a.denom))
        bound = bound_frac * a.denom
        terms = {}
        bi = sorted(b.terms.items())
        for ka, ca in sorted(a.terms.items()):
            for kb, cb in bi:
                k = ka + kb
                if k > bound:
                    break
                p = ca * cb
                s = terms.get(k)
                s = p if s is None else s + p
                terms[k] = s
        terms = {k: c for k, c in terms.items() if c}
        return QSeries(self.ring, a.denom, bound_frac, terms, _checked=True)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            # raise first, invert once: a single inversion costs
            # 2*|lead| of truncation instead of one loss per squaring
            return (self ** (-n)).inverse()
        result = QSeries.constant(self.ring, 1, self.trunc, self.denom)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self):
        """Multiplicative inverse. The result is exact to
        ``trunc - 2 * leading_exponent``."""
        if not self.terms:
            raise NotInvertibleError("cannot invert the zero series")
        lead_k = min(self.terms)
        c0 = self.terms[lead_k]
        c0_inv = self.ring.invert(c0)
        # r = (series / lead) - 1, supported on positive offsets
        r = {k - lead_k: c0_inv * c for k, c in self.terms.items()
             if k != lead_k}
        span = floor(self.trunc * self.denom) - lead_k
        g = 0
        for d in r:
            g = gcd(g, d)
        out = {0: self.ring.one}
        if r and g:
            inv = [self.ring.one]  # inv[j] = coefficient at offset j*g
            for j in range(1, span // g + 1):
                acc = None
                for d, cd in r.items():
                    jj = j - d // g
                    if jj >= 0 and (d % g) == 0:
                        term = cd * inv[jj]
                        acc = term if acc is None else acc + term
                if acc is None:
                    inv.append(self.ring.zero)
                else:
                    inv.append(-acc)
            out = {j * g: c for j, c in enumerate(inv) if c}
        trunc = self.trunc - Fraction(2 * lead_k, self.denom)
        terms = {k - lead_k: c0_inv * c for k, c in out.items()}
        return QSeries(self.ring, self.denom, trunc, terms, _checked=True)

    # -- exponent surgery ----------------------------------------------------

    def dilate(self, k):
        """Substitute q -> q**k (argument scaling tau -> k*tau), k > 0."""
        k = Fraction(k)
        if k <= 0:
            raise ValueError("dilation factor must be positive")
        denom = self.denom * k.denominator
        terms = {kk * k.numerator: c for kk, c in self.terms.items()}
        s = QSeries(self.ring, denom, self.trunc * k, terms, _checked=True)
        return s.normalize_denom()

    def half_period_shift(self):
        """tau -> tau + 1/2: multiply the q^e term by (-1)^e.  Requires
        every exponent to be an integer."""
        terms = {}
        for k, c in self.terms.items():
            if k % self.denom:
                raise FractionalExponentError(
                    f"exponent {Fraction(k, self.denom)} is not an integer")
            e = k // self.denom
            terms[k] = -c if e % 2 else c
        return QSeries(self.ring, self.denom, self.trunc, terms,
                       _checked=True)

    def shift_exp(self, d):
        """Multiply by q**d (d rational, possibly negative)."""
        d = Fraction(d)
        denom = _lcm(self.denom, d.denominator)
        s = self.lift(denom)
        step = int(d * denom)
        return QSeries(self.ring, denom, s.trunc + d,
                       {k + step: c for k, c in s.terms.items()},
                       _checked=True)

    def truncate(self, trunc):
        trunc = Fraction(trunc)
        if trunc > self.trunc:
            raise TruncationError(
                f"cannot extend truncation {self.trunc} to {trunc}")
        bound = trunc * self.denom
        return QSeries(self.ring, self.denom, trunc,
                       {k: c for k, c in self.terms.items() if k <= bound},
                       _checked=True)

    def map_coeffs(self, fn, ring=None):
        """Apply fn to every coefficient (e.g. evaluate t -> 1)."""
        ring = ring or self.ring
        terms = {}
        for k, c in self.terms.items():
            v = fn(c)
            if v:
                terms[k] = v
        return QSeries(ring, self.denom, self.trunc, terms, _checked=True)

    # -- comparison ----------------------------------------------------------

    def first_difference(self, other, upto=None):
        """Smallest exponent (<= min truncation and <= upto) where the two
        series differ, or None when they agree on that range."""
        a, b = self._common(other)
        bound = min(a.trunc, b.trunc)
        if upto is not None:
            bound = min(bound, Fraction(upto))
        kb = bound * a.denom
        keys = set(a.terms) | set(b.terms)
        diffs = [k for k in keys
                 if k <= kb and a.terms.get(k) != b.terms.get(k)]
        if not diffs:
            return None
        return Fraction(min(diffs), a.denom)

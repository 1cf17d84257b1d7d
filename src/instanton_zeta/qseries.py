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

Every product, and through it every power and inverse, runs in one integer
kernel, ``_product``.  Each factor is cleared once: its coefficients become
integer t-polynomial numerators over one integer denominator.  Over Q
they are the rationals' numerators over the lcm of their denominators,
each a one-slot polynomial; over Z[t,1/t] they are the polynomials
themselves, aligned to one lowest t-power, over 1.  One-slot factors
convolve densely on their exponent grid compressed by its gcd.
Wider ones pack each numerator once into a single integer, coefficient i
in a signed slot of ``w`` bits at bit ``w * i`` (``laurent._pack``), then
multiply and accumulate per output exponent, and unpack each sum once.
No coefficient object is built per term pair; the ring builds one per
output term, which is canonical, so outputs equal the term-by-term
product exactly.

The unpack is exact because of the slot width.  A slot of a sum holds
``sum over pairs of sum_j a_j b_(i-j)``.  At most ``min(terms_a, terms_b)``
pairs meet at one exponent, each convolution overlaps in at most
``min(width_a, width_b)`` places, and every factor is at most ``max|a|``
and ``max|b|``.  So ``|slot| <= L = max|a| max|b| min(width) min(terms)``,
and ``w`` is ``laurent._slot_bytes(L)`` bytes, the fewest that make
``|slot| < 2**(w - 1)``.  Slots in that range are the
unique signed base-``2**w`` digits of the sum, which the unpack reads back.
Inverses are Newton steps ``x <- x - x (u x - 1)`` on the unit part
``u``, each one a pair of kernel products that doubles the exact range;
the leading coefficient must be a unit, a nonzero rational or ``±t^k``.

Every infinite product ``P = prod (1 - x q^a)^(-m)`` over factor triples
``(x, a, m)`` (``x`` in the ring, ``a >= 1``, ``m`` of either sign) is built
by ``euler_product`` from its logarithmic derivative ``q P'/P = sum s_k q^k``,
``s_k = sum_{a | k} m a x^(k/a)``: Euler's recurrence ``n p_n = sum_{k=1..n}
s_k p_(n-k)`` from ``p_0 = 1``, run in plain integers. The factors are cleared
once to integer t-polynomial numerators over one denominator ``D`` (a rational
is the one-slot case; over Z[t,1/t], ``D = 1``), and two substitutions make
them integral polynomials:
``q -> q t^r``, with the least integer ``r`` (of either sign) that leaves no
negative t-power in any ``x t^(r a)``, and ``q -> D q``, which turns each
factor into ``1 - Y D^(a-1) q^a`` with ``Y = x t^(r a) D`` and the recurrence
into one for ``D^n p_n``. Each ``Y D^(a-1)`` is packed once at ``t = 2**w``,
so every ``s_k`` and every ``p_n`` is one integer. The slot width ``w`` comes
from the majorant ``prod (1 - |Y D^(a-1)|_1 q^a)^(-|m|)``, itself one cheap
one-slot recurrence: its coefficient at ``q^n`` bounds the l1 norm of
``D^n p_n``, so ``laurent._slot_bytes`` of its largest coefficient holds
every coefficient of every ``p_n``. When every ``Y`` is one slot (always over
Q) the values are the integers themselves and no width is needed. Evaluation
at ``2**w`` is a ring homomorphism and ``D^n p_n`` is integral, so each
division by ``n`` is exact; a remainder raises ``IntegrityError``. Each
``p_n`` is unpacked once, shifted back by ``t^(-r n)`` and put over ``D^n``.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, lcm
from operator import mul

from .errors import (FractionalExponentError, IntegrityError,
                     NotInvertibleError, RingMismatchError, TruncationError)
from .laurent import (LPoly, _conv, _pack, _slot_bytes, _slot_count, _trim,
                      _unpack)


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

    @staticmethod
    def numerators(cs):
        """Integer numerators over one denominator, each a one-slot
        t-polynomial: ``(nums, t offset, den)``."""
        den = lcm(*(c.denominator for c in cs))
        return [[c.numerator * (den // c.denominator)] for c in cs], 0, den

    @staticmethod
    def from_numerator(num, off, den):
        return Fraction(num[0], den)


class LaurentRing:
    """Laurent polynomials in t over Z.  The units are the ``±t^k``."""
    name = "Z[t,1/t]"
    zero = LPoly()
    one = LPoly.const(1)

    @staticmethod
    def coerce(x):
        """``x`` itself, or an int or integral Fraction as a constant; any
        other value raises TypeError."""
        return x if isinstance(x, LPoly) else LPoly.const(x)

    @staticmethod
    def invert(c):
        if c.num not in ((1,), (-1,)):
            raise NotInvertibleError(
                f"{c!r} is not ±t^k, so not a unit of Z[t,1/t]")
        return LPoly(-c.off, c.num)

    @staticmethod
    def numerators(cs):
        """The coefficient lists aligned to one lowest t-power, over the
        denominator 1: ``(nums, t offset, 1)``."""
        off = min(c.off for c in cs)
        return [[0] * (c.off - off) + list(c.num) for c in cs], off, 1

    @staticmethod
    def from_numerator(num, off, den):
        """The numerator itself: every denominator over Z[t,1/t] is 1."""
        return LPoly(off, num)


QQ = RationalRing()
LAURENT = LaurentRing()

DEFAULT_DENOM = 48


def _product(ring, a, b, bound):
    """Terms of the product of the term maps ``a`` and ``b`` (exponent
    numerators on one grid) up to the exponent numerator ``bound``.

    Each factor is cleared once to integer t-polynomial numerators over one
    denominator.  When every numerator is a single integer the factors
    convolve densely on their gcd-compressed exponent grid (``_conv``, which
    switches to Kronecker substitution for long grids).  Otherwise each
    numerator is packed once into one integer with slots wide enough for
    any output coefficient, the packed terms multiply-accumulate per output
    exponent, and each sum unpacks once.
    """
    if not a or not b:
        return {}
    la, lb = min(a), min(b)
    ka = sorted(k for k in a if k + lb <= bound)
    kb = sorted(k for k in b if k + la <= bound)
    if not ka or not kb:
        return {}
    na, offa, da = ring.numerators([a[k] for k in ka])
    nb, offb, db = ring.numerators([b[k] for k in kb])
    off, den = offa + offb, da * db
    make = ring.from_numerator
    wa = max(map(len, na))
    wb = max(map(len, nb))
    out = {}
    if wa == wb == 1:
        g = 0
        for k in ka:
            g = gcd(g, k - la)
        for k in kb:
            g = gcd(g, k - lb)
        g = g or 1
        grid_a = [0] * ((ka[-1] - la) // g + 1)
        for k, n in zip(ka, na):
            grid_a[(k - la) // g] = n[0]
        grid_b = [0] * ((kb[-1] - lb) // g + 1)
        for k, n in zip(kb, nb):
            grid_b[(k - lb) // g] = n[0]
        k = la + lb
        for c in _conv(grid_a, grid_b):
            if k > bound:
                break
            if c:
                out[k] = make([c], off, den)
            k += g
        return out
    # |each slot of a sum| <= pairs per exponent * overlap * max * max
    top_a = max(max(map(abs, n)) for n in na)
    top_b = max(max(map(abs, n)) for n in nb)
    limit = top_a * top_b * min(wa, wb) * min(len(ka), len(kb))
    nbytes = _slot_bytes(limit)
    bits = 8 * nbytes
    # each term packs from its own lowest t-power, shifted into place once
    # per pair, so the multiplies see no leading zero slots
    packed_a = _packed(ka, na, nbytes, bits)
    packed_b = _packed(kb, nb, nbytes, bits)
    sums = {}
    for k1, s1, p1 in packed_a:
        rest = bound - k1
        for k2, s2, p2 in packed_b:
            if k2 > rest:
                break
            k = k1 + k2
            sums[k] = sums.get(k, 0) + (p1 * p2 << (s1 + s2))
    for k in sorted(sums):
        total = sums[k]
        if total:
            low = ((total & -total).bit_length() - 1) // bits
            total >>= low * bits
            num = _unpack(total, nbytes, _slot_count(total, nbytes))
            out[k] = make(num, off + low, den)
    return out


def _packed(keys, nums, nbytes, bits):
    """(exponent, bit shift of the lowest t-power, packed numerator) per
    nonzero term."""
    out = []
    for k, n in zip(keys, nums):
        lo, n = _trim(n)
        if n:
            out.append((k, lo * bits, _pack(n, nbytes)))
    return out


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
        d = lcm(self.denom, other.denom)
        return self.lift(d), other.lift(d)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, LPoly)):
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
        if isinstance(other, (int, Fraction, LPoly)):
            other = QSeries.constant(self.ring, other, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """Multiply every coefficient by a ring scalar."""
        c = self.ring.coerce(c)
        if not c:
            return QSeries.zero(self.ring, self.trunc, self.denom)
        return QSeries(self.ring, self.denom, self.trunc,
                       {k: c * v for k, v in self.terms.items()},
                       _checked=True)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        la = min(a.terms) if a.terms else 0
        lb = min(b.terms) if b.terms else 0
        bound_frac = min(a.trunc + Fraction(min(lb, 0), a.denom),
                         b.trunc + Fraction(min(la, 0), a.denom))
        terms = _product(self.ring, a.terms, b.terms,
                         floor(bound_frac * a.denom))
        return QSeries(self.ring, a.denom, bound_frac, terms, _checked=True)

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
        ring = self.ring
        lead_k = min(self.terms)
        c0_inv = ring.invert(self.terms[lead_k])
        # u = series / (c0 q^lead) = 1 + r is known on offsets 0..span, and
        # so is its inverse x; x = 1 is exact below the first offset of r
        span = floor(self.trunc * self.denom) - lead_k
        u = {k - lead_k: c0_inv * c for k, c in self.terms.items()}
        x = {0: ring.one}
        exact = min((k for k in u if k), default=span + 1)
        while exact <= span:
            # Newton step x <- x - x (u x - 1): u x - 1 starts at offset
            # `exact`, so the step changes nothing below it and doubles it
            exact = min(2 * exact, span + 1)
            err = _product(ring, u, x, exact - 1)
            del err[0]
            for k, c in _product(ring, x, err, exact - 1).items():
                s = x.get(k)
                s = -c if s is None else s - c
                if s:
                    x[k] = s
                else:
                    del x[k]
        trunc = self.trunc - Fraction(2 * lead_k, self.denom)
        terms = {k - lead_k: c0_inv * c for k, c in x.items()}
        return QSeries(ring, self.denom, trunc, terms, _checked=True)

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
        denom = lcm(self.denom, d.denominator)
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



def euler_product(ring, factors, trunc):
    """``prod (1 - x q^a)^(-m)`` over the triples ``(x, a, m)``, exact to
    ``trunc``, by Euler's recurrence in packed integers (see the module
    docstring)."""
    top = floor(trunc)
    merged = {}
    for x, a, m in factors:
        if a < 1:
            raise ValueError(f"factor q^{a} is not a positive power of q")
        if m and a <= top:
            x = ring.coerce(x)
            if x:
                # equal (x, a) multiply: (1 - x q^a)^(-m1 - m2)
                merged[x, a] = merged.get((x, a), 0) + m
    kept = [(x, a, m) for (x, a), m in merged.items() if m]
    if top < 0:
        # a negative trunc knows no coefficient, not even p_0
        return QSeries(ring, 1, trunc, {}, _checked=True)
    if not kept:
        return QSeries.constant(ring, 1, trunc)
    nums, off, den = ring.numerators([x for x, _, _ in kept])
    trimmed = [_trim(n) for n in nums]
    # q -> q t^r with the least r that makes every x t^(r a) a polynomial
    # in t: the lowest t-powers, and so the packed integers, stay small
    r = max(-((off + lo) // a) for (lo, _), (_, a, _) in zip(trimmed, kept))
    # q -> den q: each factor becomes (1 - Y den^(a-1) q^a) with the integer
    # t-polynomial Y = x t^(r a) den, and the recurrence runs on den^n p_n
    ys = [([0] * (off + lo + r * a) + [c * den ** (a - 1) for c in n], a, m)
          for (lo, n), (_, a, m) in zip(trimmed, kept)]
    wide = max(len(y) for y, _, _ in ys) > 1
    if wide:
        # the l1 norm of every p_n is at most the coefficient of q^n in
        # prod (1 - |Y|_1 q^a)^(-|m|), so a signed slot above the largest
        # of those holds every coefficient of every p_n
        majorant = _recurrence(_log_derivative(
            [(sum(map(abs, y)), a, abs(m)) for y, a, m in ys], top))
        nbytes = _slot_bytes(max(majorant))
        packed = [(_pack(y, nbytes), a, m) for y, a, m in ys]
    else:
        packed = [(y[0], a, m) for y, a, m in ys]
    terms = {}
    for n, v in enumerate(_recurrence(_log_derivative(packed, top))):
        if v:
            num = (_unpack(v, nbytes, _slot_count(v, nbytes))
                   if wide else [v])
            terms[n] = ring.from_numerator(num, -r * n, den ** n)
    return QSeries(ring, 1, trunc, terms, _checked=True)


def _log_derivative(factors, top):
    """``s_0 .. s_top`` of ``q P'/P`` for ``P = prod (1 - z q^a)^(-m)`` over
    integer triples ``(z, a, m)``: ``s_k = sum_{a | k} m a z^(k/a)``."""
    s = [0] * (top + 1)
    for z, a, m in factors:
        c = m * a
        for k in range(a, top + 1, a):
            c *= z
            s[k] += c
    return s


def _recurrence(s):
    """``p_0 .. p_top``, ``top = len(s) - 1``, of Euler's recurrence
    ``n p_n = sum_{k=1..n} s_k p_(n-k)`` from ``p_0 = 1`` in integers.
    Every division by ``n`` is exact when ``s`` is the logarithmic
    derivative of a product with integer coefficients, so a remainder is a
    broken invariant."""
    p = [1]
    for n in range(1, len(s)):
        pn, rem = divmod(sum(map(mul, s[1:n + 1], reversed(p))), n)
        if rem:
            raise IntegrityError(
                f"Euler recurrence: n p_n is not divisible by n = {n}")
        p.append(pn)
    return p

"""Positive-definite lattice theta series with half-vector shifts.

Points are counted exactly.  Three engines exist:

* a generic recursive enumerator working from an exact LDL^T decomposition
  of the Gram matrix (rational arithmetic, no floats), usable for any
  positive-definite lattice and shift; it yields the points themselves
  (``coset_points``), and is the only enumerator that does, so the
  wall-sum oracle walks its cosets with it;
* an integer enumerator for lattices realized inside Z^m with a
  coordinate-sum parity constraint (the rank-8 even-sum lattice and Z^m
  itself): doubling coordinates turns every bound into plain integer
  arithmetic;
* a shell-counting convolution over coordinates for the same realized
  lattices, used where truncations make point-by-point enumeration
  wasteful (the rank-8 root lattice theta at high order).

The engines are cross-checked against each other and against a box
search in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import ConfigurationError
from .laurent import LPoly
from .qseries import QQ, QSeries, TRAT
from .report import VerifyReport, compare
from .tratfunc import TRatFunc


def _ldl(gram):
    """Exact LDL^T data: Q(y) = sum_i d[i] * (y_i + sum_{j>i} c[i][j] y_j)^2."""
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ConfigurationError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            c[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= c[i][j] * a[i][k]
    return d, c


class ShiftVector:
    """Coset offset in lattice-basis coordinates; entries in (1/2)Z."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(Fraction(x) for x in coords)
        for x in coords:
            if (2 * x).denominator != 1:
                raise ConfigurationError(
                    f"shift coordinate {x} is not a half-integer")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("ShiftVector is immutable")

    def __len__(self):
        return len(self.coords)

    def __add__(self, other):
        return ShiftVector(tuple(a + b for a, b in
                                 zip(self.coords, other.coords)))

    def __eq__(self, other):
        return isinstance(other, ShiftVector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)


class IntegralLattice:
    """Positive-definite integral lattice given by its Gram matrix, with an
    optional realization inside Z^m (basis rows plus an even-coordinate-sum
    membership constraint)."""

    def __init__(self, name, gram, zn_rows=None, zn_even_sum=False):
        gram = tuple(tuple(int(x) for x in row) for row in gram)
        n = len(gram)
        for i in range(n):
            if len(gram[i]) != n:
                raise ConfigurationError("Gram matrix is not square")
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ConfigurationError("Gram matrix is not symmetric")
        _ldl(gram)  # positive-definiteness check
        self.name = name
        self.rank = n
        self.gram = gram
        self.zn_rows = (tuple(tuple(r) for r in zn_rows)
                        if zn_rows is not None else None)
        self.zn_even_sum = zn_even_sum
        if self.zn_rows is not None:
            m = len(self.zn_rows[0])
            dots = tuple(tuple(sum(a * b for a, b in zip(ri, rj))
                               for rj in self.zn_rows) for ri in self.zn_rows)
            if dots != gram:
                raise ConfigurationError(
                    "Z^m realization does not reproduce the Gram matrix")
            if zn_even_sum:
                for r in self.zn_rows:
                    if sum(r) % 2:
                        raise ConfigurationError(
                            "basis row violates the even-sum constraint")
            self.zn_dim = m

    def zero_shift(self):
        return ShiftVector((0,) * self.rank)

    def to_ambient(self, shift):
        """Map basis-coordinate shift to ambient Z^m/2 coordinates."""
        if self.zn_rows is None:
            raise ConfigurationError(f"{self.name} has no Z^m realization")
        m = self.zn_dim
        out = [Fraction(0)] * m
        for coef, row in zip(shift.coords, self.zn_rows):
            for i in range(m):
                out[i] += coef * row[i]
        return tuple(out)


def zn(n):
    rows = tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))
    return IntegralLattice(f"Z{n}", rows, zn_rows=rows, zn_even_sum=False)


def a1():
    return IntegralLattice("A1", ((2,),))


# Simple-root rows of the even-sum sublattice of Z^8: a chain of seven
# difference vectors with the eighth root attached at the fork.
_D8_ROWS = (
    (1, -1, 0, 0, 0, 0, 0, 0),
    (0, 1, -1, 0, 0, 0, 0, 0),
    (0, 0, 1, -1, 0, 0, 0, 0),
    (0, 0, 0, 1, -1, 0, 0, 0),
    (0, 0, 0, 0, 1, -1, 0, 0),
    (0, 0, 0, 0, 0, 1, -1, 0),
    (0, 0, 0, 0, 0, 0, 1, -1),
    (0, 0, 0, 0, 0, 0, 1, 1),
)


def d8():
    gram = tuple(tuple(sum(a * b for a, b in zip(ri, rj)) for rj in _D8_ROWS)
                 for ri in _D8_ROWS)
    return IntegralLattice("D8", gram, zn_rows=_D8_ROWS, zn_even_sum=True)


_E8_CARTAN = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)


def e8():
    return IntegralLattice("E8", _E8_CARTAN)


# -- exact enumeration -------------------------------------------------------

def coset_points(gram, shift_coords, max_q):
    """Yield (y, Q) for every y = 2x with x in Z^n + shift and doubled norm
    Q = y^T G y <= max_q; y is a tuple of integers and Q an integer.
    Exact rational LDL bounds; every candidate is re-checked against the
    budget before recursing."""
    n = len(gram)
    d, c = _ldl(gram)
    par = []
    for s in shift_coords:
        two = 2 * Fraction(s)
        if two.denominator != 1:
            raise ConfigurationError("shift must have half-integer entries")
        par.append(int(two) % 2)
    max_q = Fraction(max_q)
    ys = [0] * n

    def rec(i, budget):
        di = d[i]
        t = Fraction(0)
        ci = c[i]
        for j in range(i + 1, n):
            if ci[j]:
                t += ci[j] * ys[j]
        # |y + t| <= sqrt(budget/d_i); pad the integer window and filter
        r = budget / di
        root = isqrt(r.numerator * r.denominator) // r.denominator + 1
        lo = -root - int(t) - 2
        hi = root - int(t) + 2
        if (lo - par[i]) % 2:
            lo += 1
        for y in range(lo, hi + 1, 2):
            contrib = di * (y + t) ** 2
            if contrib > budget:
                continue
            ys[i] = y
            if i == 0:
                q = max_q - (budget - contrib)
                if q.denominator != 1:
                    raise ConfigurationError("non-integral doubled norm")
                yield tuple(ys), int(q)
            else:
                yield from rec(i - 1, budget - contrib)
        ys[i] = 0

    if n:
        yield from rec(n - 1, max_q)
    else:
        yield (), 0


def generic_shell_counts(gram, shift_coords, max_q):
    """Counts of doubled norms Q(y) = (2x)^T G (2x) <= max_q over lattice
    points x in Z^n + shift."""
    counts = {}
    for _, q in coset_points(gram, shift_coords, max_q):
        counts[q] = counts.get(q, 0) + 1
    return counts


def zn_shell_counts(parities, target4, max_q):
    """Counts of sum(y_i^2) <= max_q over integer vectors with prescribed
    coordinate parities and (optionally) sum(y) congruent to target mod 4.
    Point-by-point enumeration with integer bounds."""
    n = len(parities)
    counts = [0] * (max_q + 1)

    def rec(i, rem, sacc):
        p = parities[i]
        if i == 0:
            base = max_q - rem
            if target4 is None:
                if p == 0:
                    counts[base] += 1
                    y = 2
                else:
                    y = 1
                while y * y <= rem:
                    counts[base + y * y] += 2
                    y += 2
            else:
                need = (target4 - sacc) % 4
                if (need - p) % 2:
                    return
                y = need
                while y * y <= rem:
                    counts[base + y * y] += 1
                    y += 4
                y = need - 4
                while y * y <= rem:
                    counts[base + y * y] += 1
                    y -= 4
            return
        r = isqrt(rem)
        start = -r
        if (start - p) % 2:
            start += 1
        for y in range(start, r + 1, 2):
            rec(i - 1, rem - y * y, sacc + y)

    if n:
        rec(n - 1, max_q, 0)
    else:
        counts[0] = 1
    return {q: c for q, c in enumerate(counts) if c}


def zn_shell_counts_dp(parities, target4, max_q):
    """Same counts as zn_shell_counts, via convolution over coordinates
    (tracking the coordinate sum mod 4)."""
    f = [[0] * (max_q + 1) for _ in range(4)]
    f[0][0] = 1
    for p in parities:
        onedim = []
        y = p
        while y * y <= max_q:
            onedim.append((y % 4, y * y))
            if y:
                onedim.append(((-y) % 4, y * y))
            y += 2
        g = [[0] * (max_q + 1) for _ in range(4)]
        for r in range(4):
            row = f[r]
            for res, q1 in onedim:
                grow = g[(r + res) % 4]
                for q in range(max_q + 1 - q1):
                    v = row[q]
                    if v:
                        grow[q + q1] += v
        f = g
    if target4 is None:
        total = [sum(f[r][q] for r in range(4)) for q in range(max_q + 1)]
    else:
        total = f[target4 % 4]
    return {q: c for q, c in enumerate(total) if c}


def zn_coset_counts(shift_ambient, even_sum, max_q, dp):
    """Counts of doubled norms sum(y_i^2) <= max_q over y = 2x, x in the
    coset (lattice + shift_ambient) of Z^m, or of its even-sum sublattice
    when even_sum is set; dp selects the convolution engine."""
    two = [2 * Fraction(a) for a in shift_ambient]
    if any(v.denominator != 1 for v in two):
        raise ConfigurationError("shift must have half-integer entries")
    parities = tuple(int(v) % 2 for v in two)
    target4 = int(sum(two)) % 4 if even_sum else None
    fn = zn_shell_counts_dp if dp else zn_shell_counts
    return fn(parities, target4, max_q)


def _counts_to_series(counts, trunc):
    pairs = [(Fraction(q, 8), c) for q, c in counts.items()]
    return QSeries.from_pairs(QQ, pairs, Fraction(trunc),
                              denom=8).normalize_denom()


def shifted_theta(lattice, shift=None, trunc=10, method="auto"):
    """Theta series sum over lattice + shift of u^((n,n)/2), exact to the
    requested truncation."""
    trunc = Fraction(trunc)
    if shift is None:
        shift = lattice.zero_shift()
    if len(shift) != lattice.rank:
        raise ConfigurationError("shift rank mismatch")
    max_q = int(8 * trunc)
    if lattice.zn_rows is not None and method != "generic":
        dp = method == "dp" or (method == "auto" and max_q > 96)
        counts = zn_coset_counts(lattice.to_ambient(shift),
                                 lattice.zn_even_sum, max_q, dp=dp)
    else:
        counts = generic_shell_counts(lattice.gram, shift.coords, max_q)
    return _counts_to_series(counts, trunc)


def e8_theta_series(trunc):
    """Theta of the rank-8 root lattice, realized as the even-sum sublattice
    of Z^8 glued with its half-sum coset."""
    trunc = Fraction(trunc)
    max_q = int(8 * trunc)
    counts = zn_shell_counts_dp((0,) * 8, 0, max_q)
    for q, c in zn_shell_counts_dp((1,) * 8, 0, max_q).items():
        counts[q] = counts.get(q, 0) + c
    return _counts_to_series(counts, trunc)


def box_shell_counts(gram, shift_coords, max_norm):
    """Brute-force oracle: exhaustive box search with Cauchy-Schwarz
    coordinate bounds from the inverse Gram matrix.  Returns counts keyed
    by 4*(x,x) like the other engines (with max_norm = max over (x,x))."""
    n = len(gram)
    inv = _fraction_inverse(gram)
    shift = [Fraction(s) for s in shift_coords]
    bounds = []
    for i in range(n):
        r = inv[i][i] * max_norm
        bounds.append(isqrt(r.numerator * r.denominator) // r.denominator + 1)
    counts = {}

    def rec(i, coords):
        if i == n:
            norm = Fraction(0)
            for a in range(n):
                for b in range(n):
                    norm += coords[a] * gram[a][b] * coords[b]
            if norm <= max_norm:
                key = 4 * norm
                assert key.denominator == 1
                counts[int(key)] = counts.get(int(key), 0) + 1
            return
        for v in range(-bounds[i], bounds[i] + 1):
            coords[i] = v + shift[i]
            rec(i + 1, coords)
        coords[i] = 0

    rec(0, [Fraction(0)] * n)
    return counts


def _fraction_inverse(gram):
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] +
         [Fraction(1 if k == i else 0) for k in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


# -- one-dimensional theta with character (B series) -------------------------

def a1_theta_with_char(shift, trunc):
    """B series: sum over n in Z (+ 1/2 when shift = 1/2) of u^(n^2) t^n.

    Returns (series, t_den): coefficients are Laurent polynomials in
    t^(1/t_den), encoded with integer exponents in s = t^(1/t_den).
    The unshifted series has t_den = 1, the half-shifted one t_den = 2."""
    trunc = Fraction(trunc)
    shift = Fraction(shift)
    if shift not in (0, Fraction(1, 2)):
        raise ConfigurationError("shift must be 0 or 1/2")
    pairs = []
    if shift == 0:
        t_den = 1
        pairs.append((0, TRatFunc.const(1)))
        n = 1
        while n * n <= trunc:
            coeff = TRatFunc(LPoly.from_pairs([(n, 1), (-n, 1)]))
            pairs.append((n * n, coeff))
            n += 1
        denom = 1
    else:
        t_den = 2
        k = 0
        while Fraction((2 * k + 1) ** 2, 4) <= trunc:
            m = 2 * k + 1  # s-exponent of t^(k + 1/2) with s = t^(1/2)
            coeff = TRatFunc(LPoly.from_pairs([(m, 1), (-m, 1)]))
            pairs.append((Fraction(m * m, 4), coeff))
            k += 1
        denom = 4
    series = QSeries.from_pairs(TRAT, pairs, trunc, denom)
    return series, t_den


def b_substituted(shift, trunc, char=True, t_scale=1):
    """B series after the substitution u = t^2 q: exponent n^2 in q and
    2 n^2 + n in t (or 2 n^2 when the character variable is set to 1).

    With ``t_scale = k`` the coefficients are encoded in s = t^(1/k); the
    half-shifted series with the character at 1 has half-odd t-powers and
    needs t_scale = 2."""
    trunc = Fraction(trunc)
    shift = Fraction(shift)
    pairs = []
    if shift == 0:
        denom = 1
        rng = []
        n = 0
        while n * n <= trunc:
            rng.append(n)
            if n:
                rng.append(-n)
            n += 1
        for n in rng:
            tpow = t_scale * (2 * n * n + (n if char else 0))
            pairs.append((n * n, TRatFunc.t_pow(tpow)))
    else:
        denom = 4
        k = 0
        while Fraction((2 * k + 1) ** 2, 4) <= trunc:
            for n in (Fraction(2 * k + 1, 2), Fraction(-(2 * k + 1), 2)):
                tpow = t_scale * (2 * n * n + (n if char else 0))
                if tpow.denominator != 1:
                    raise ConfigurationError(
                        f"t-power {tpow} needs a finer encoding; "
                        f"raise t_scale")
                pairs.append((n * n, TRatFunc.t_pow(int(tpow))))
            k += 1
    return QSeries.from_pairs(TRAT, pairs, trunc, denom)


def b0_product_formula(trunc):
    """Triple-product form of the unshifted B series (in u, with character),
    used as an independent cross-check of the lattice sum."""
    trunc = Fraction(trunc)
    one = QSeries.constant(TRAT, 1, trunc)
    prod = one
    m = 1
    while 2 * m - 1 <= trunc:
        t = TRatFunc.t_pow(1)
        tinv = TRatFunc.t_pow(-1)
        f1 = QSeries.from_pairs(TRAT, [(0, 1), (2 * m, -1)], trunc, 1)
        f2 = QSeries.from_pairs(TRAT, [(0, 1), (2 * m - 1, t)], trunc, 1)
        f3 = QSeries.from_pairs(TRAT, [(0, 1), (2 * m - 1, tinv)], trunc, 1)
        prod = prod * f1 * f2 * f3
        m += 1
    return prod


# -- the rank-8 decomposition suite ------------------------------------------

D8_SHIFT_P = tuple(Fraction(x, 2) for x in (1, -1, 1, -1, 1, -1, 1, 1))
D8_SHIFT_Q = tuple(Fraction(x) for x in (0, 0, 0, 0, 0, 0, 1, 0))
D8_SHIFT_E1_HALF = tuple(Fraction(x, 2) for x in (1, -1, 0, 0, 0, 0, 0, 0))


def _add_vec(*vecs):
    return tuple(sum(col) for col in zip(*vecs))


def d8_theta_ambient(shift_ambient, trunc, method="auto"):
    """Theta of the even-sum sublattice of Z^8 shifted by an ambient
    half-integer vector."""
    trunc = Fraction(trunc)
    counts = zn_coset_counts(shift_ambient, True, int(8 * trunc),
                             dp=method == "dp")
    return _counts_to_series(counts, trunc)


def verify_d8_decompositions(trunc, method="enumerate", provider=None):
    """Check the eight coset thetas of the even-sum rank-8 lattice against
    their one-dimensional theta expressions, plus the bridge identity used
    by the wall-crossing assembly."""
    from .forms import gen_form
    trunc = Fraction(trunc)
    if trunc < 1:
        raise ValueError("trunc must be at least 1")

    def th(name):
        return gen_form(name, trunc, provider=provider)

    half = Fraction(1, 2)
    zero = (Fraction(0),) * 8
    p, q, e1h = D8_SHIFT_P, D8_SHIFT_Q, D8_SHIFT_E1_HALF
    cases = [
        ("Theta_D8 = (theta^8 + theta~^8)/2", zero,
         lambda: (th("theta3") ** 8 + th("theta4") ** 8).scale(half)),
        ("Theta_D8|q = (theta^8 - theta~^8)/2", q,
         lambda: (th("theta3") ** 8 - th("theta4") ** 8).scale(half)),
        ("Theta_D8|p = theta_half^8/2", p,
         lambda: (th("theta2") ** 8).scale(half)),
        ("Theta_D8|(p+q) = theta_half^8/2", _add_vec(p, q),
         lambda: (th("theta2") ** 8).scale(half)),
        ("Theta_D8|(e1/2) = theta^6 theta_half^2/2", e1h,
         lambda: (th("theta3") ** 6 * th("theta2") ** 2).scale(half)),
        ("Theta_D8|(e1/2+q) = theta^6 theta_half^2/2", _add_vec(e1h, q),
         lambda: (th("theta3") ** 6 * th("theta2") ** 2).scale(half)),
        ("Theta_D8|(e1/2+p) = theta^2 theta_half^6/2", _add_vec(e1h, p),
         lambda: (th("theta3") ** 2 * th("theta2") ** 6).scale(half)),
        ("Theta_D8|(e1/2+p+q) = theta^2 theta_half^6/2", _add_vec(e1h, p, q),
         lambda: (th("theta3") ** 2 * th("theta2") ** 6).scale(half)),
    ]
    results = [compare(name, lambda: (d8_theta_ambient(shift, trunc, method),
                                      rhs()), trunc)
               for name, shift, rhs in cases]

    # bridge: (Theta_D8 + Theta_D8|q)(0, u^2) = B0(1, u)^8
    def bridge():
        lhs = (d8_theta_ambient(zero, trunc / 2, method)
               + d8_theta_ambient(q, trunc / 2, method)).dilate(2)
        return lhs, gen_form("theta3", trunc, 2, provider=provider) ** 8

    results.append(compare("(Theta_D8 + Theta_D8|q)(0,u^2) = B0(1,u)^8",
                           bridge, trunc))
    return VerifyReport(suite="d8", results=results)

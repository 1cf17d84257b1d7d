"""Exact theta series of positive-definite lattices with half-vector shifts.

Plain functions of a Gram matrix and a shift tuple in basis coordinates,
or of a shift in ambient Z^m coordinates.  Points are counted exactly, one
engine per job:

* ``coset_points`` yields the points of any coset from an exact LDL^T
  decomposition of the Gram matrix (rational arithmetic, no floats); the
  wall-sum oracle walks its cosets with it;
* ``zn_shell_counts_dp`` counts the shells of a coset of Z^m, or of its
  even-sum sublattice, by a convolution over coordinates in doubled
  integer coordinates; the rank-8 coset thetas use it.

``zn_shell_counts`` counts the same shells point by point.  It is the
reference engine: the tests and the rank-8 acceptance check compare the
convolution against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import ConfigurationError
from .qseries import QQ, QSeries, TRAT
from .report import VerifyReport, compare
from .tratfunc import TRatFunc


def _ldl(gram):
    """Exact LDL^T data: Q(y) = sum_i d[i] * (y_i + sum_{j>i} c[i][j] y_j)^2.
    Rejects a Gram matrix that is not square, symmetric and positive
    definite."""
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ConfigurationError("Gram matrix is not square")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise ConfigurationError("Gram matrix is not symmetric")
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

D8_GRAM = tuple(tuple(sum(a * b for a, b in zip(ri, rj)) for rj in _D8_ROWS)
                for ri in _D8_ROWS)


def d8_ambient(coords):
    """Ambient Z^8 coordinates of the vector with the given coordinates in
    the basis ``_D8_ROWS``."""
    return tuple(sum(c * row[i] for c, row in zip(coords, _D8_ROWS))
                 for i in range(8))


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
    elif target4 is None or target4 % 4 == 0:
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


def coset_parities(shift_ambient):
    """Coordinate parities of y = 2x and the residue of sum(y) mod 4 for x
    in the coset (even-sum sublattice of Z^m) + shift_ambient: the
    arguments (parities, target4) of ``zn_shell_counts`` and
    ``zn_shell_counts_dp``."""
    two = [2 * Fraction(a) for a in shift_ambient]
    if any(v.denominator != 1 for v in two):
        raise ConfigurationError("shift must have half-integer entries")
    return tuple(int(v) % 2 for v in two), int(sum(two)) % 4


def _counts_to_series(counts, trunc):
    pairs = [(Fraction(q, 8), c) for q, c in counts.items()]
    return QSeries.from_pairs(QQ, pairs, Fraction(trunc),
                              denom=8).normalize_denom()


def e8_theta_series(trunc):
    """Theta of the rank-8 root lattice, realized as the even-sum sublattice
    of Z^8 glued with its half-sum coset."""
    trunc = Fraction(trunc)
    max_q = int(8 * trunc)
    counts = zn_shell_counts_dp((0,) * 8, 0, max_q)
    for q, c in zn_shell_counts_dp((1,) * 8, 0, max_q).items():
        counts[q] = counts.get(q, 0) + c
    return _counts_to_series(counts, trunc)


# -- one-dimensional theta with character (B series) -------------------------

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
    """Triple-product form of the unshifted B series with the character at
    u = t^2 q, prod_m (1 - t^(4m) q^(2m)) (1 + t^(4m-1) q^(2m-1))
    (1 + t^(4m-3) q^(2m-1)): an independent cross-check of the lattice sum
    ``b_substituted(0, trunc)``."""
    trunc = Fraction(trunc)
    prod = QSeries.constant(TRAT, 1, trunc)
    m = 1
    while 2 * m - 1 <= trunc:
        for e, c in ((2 * m, -TRatFunc.t_pow(4 * m)),
                     (2 * m - 1, TRatFunc.t_pow(4 * m - 1)),
                     (2 * m - 1, TRatFunc.t_pow(4 * m - 3))):
            prod = prod * QSeries.from_pairs(TRAT, [(0, 1), (e, c)], trunc, 1)
        m += 1
    return prod


# -- the rank-8 decomposition suite ------------------------------------------

D8_SHIFT_P = tuple(Fraction(x, 2) for x in (1, -1, 1, -1, 1, -1, 1, 1))
D8_SHIFT_Q = tuple(Fraction(x) for x in (0, 0, 0, 0, 0, 0, 1, 0))
D8_SHIFT_E1_HALF = tuple(Fraction(x, 2) for x in (1, -1, 0, 0, 0, 0, 0, 0))


def _add_vec(*vecs):
    return tuple(sum(col) for col in zip(*vecs))


def d8_theta_ambient(shift_ambient, trunc):
    """Theta of the even-sum sublattice of Z^8 shifted by an ambient
    half-integer vector."""
    trunc = Fraction(trunc)
    counts = zn_shell_counts_dp(*coset_parities(shift_ambient),
                                int(8 * trunc))
    return _counts_to_series(counts, trunc)


def verify_d8_decompositions(trunc, provider=None):
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
    results = [compare(name, lambda: (d8_theta_ambient(shift, trunc),
                                      rhs()), trunc)
               for name, shift, rhs in cases]

    # bridge: (Theta_D8 + Theta_D8|q)(0, u^2) = B0(1, u)^8
    def bridge():
        lhs = (d8_theta_ambient(zero, trunc / 2)
               + d8_theta_ambient(q, trunc / 2)).dilate(2)
        return lhs, gen_form("theta3", trunc, 2, provider=provider) ** 8

    results.append(compare("(Theta_D8 + Theta_D8|q)(0,u^2) = B0(1,u)^8",
                           bridge, trunc))
    return VerifyReport(suite="d8", results=results)

"""Exact theta series of positive-definite lattices with half-vector shifts.

Plain functions of a Gram matrix and a shift tuple in basis coordinates,
or of a shift in ambient Z^m coordinates.  Points are counted exactly, one
engine per job:

* ``coset_points`` yields the points of any coset by integer
  Fincke-Pohst over the exact LDL^T decomposition of the Gram matrix,
  rescaled to integers (no floats, no rationals per point).  Each level's
  window is exact: the scaled norm is a sum of integer terms, so the
  integer budget test and its ``isqrt`` bound admit exactly the points of
  norm at most the bound.  The wall-sum oracle walks its cosets with it;
* ``zn_shell_counts_dp`` counts the shells of a coset of Z^m, or of its
  even-sum sublattice, by a convolution over coordinates in doubled
  integer coordinates; the rank-8 coset thetas use it.  The tests compare
  it against point-by-point enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt, lcm

from .errors import ConfigurationError
from .laurent import LPoly
from .qseries import LAURENT, QQ, QSeries
from .report import VerifyReport, compare


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
    Nothing is yielded when max_q < 0.

    Integer Fincke-Pohst over the LDL^T data of ``_ldl``, with
    Q(y) = sum_i d_i (y_i + t_i)^2 and t_i = sum_{j>i} c_ij y_j.  Row i is
    scaled by the lcm M_i of its denominators, C_ij = M_i c_ij, and every
    d_i / M_i^2 by one global lcm L, W_i = L d_i / M_i^2, so that

        L Q(y) = sum_i W_i (M_i y_i + T_i)^2,   T_i = sum_{j>i} C_ij y_j,

    with integer W_i, M_i, C_ij.  Every term is an integer, so L Q(y) <=
    L max_q holds exactly when it holds against floor(L max_q), and at
    level i the term W_i v^2 (v = M_i y_i + T_i) fits a remaining integer
    budget b exactly when |v| <= isqrt(b // W_i).  The window is therefore
    exact: every candidate it admits is a point, and no point lies outside
    it."""
    n = len(gram)
    d, c = _ldl(gram)
    par = []
    for s in shift_coords:
        two = 2 * Fraction(s)
        if two.denominator != 1:
            raise ConfigurationError("shift must have half-integer entries")
        par.append(int(two) % 2)
    if max_q < 0:
        return
    mult = [lcm(*(c[i][j].denominator for j in range(i + 1, n)))
            for i in range(n)]
    rows = [tuple((j, int(mult[i] * c[i][j])) for j in range(i + 1, n)
                  if c[i][j]) for i in range(n)]
    scaled = [d[i] / mult[i] ** 2 for i in range(n)]
    lam = lcm(*(w.denominator for w in scaled))
    weight = [int(lam * w) for w in scaled]
    top = floor(lam * Fraction(max_q))
    ys = [0] * n

    def rec(i, budget):
        m = mult[i]
        w = weight[i]
        t = 0
        for j, cij in rows[i]:
            t += cij * ys[j]
        r = isqrt(budget // w)
        lo = -((r + t) // m)
        if (lo - par[i]) % 2:
            lo += 1
        for y in range(lo, (r - t) // m + 1, 2):
            v = m * y + t
            ys[i] = y
            if i:
                yield from rec(i - 1, budget - w * v * v)
            else:
                q, frac = divmod(top - budget + w * v * v, lam)
                if frac:
                    raise ConfigurationError("non-integral doubled norm")
                yield tuple(ys), q
        ys[i] = 0

    if n:
        yield from rec(n - 1, top)
    else:
        yield (), 0


def zn_shell_counts_dp(parities, target4, max_q):
    """Counts of sum(y_i^2) <= max_q, keyed by that sum, over integer
    vectors y with prescribed coordinate parities and, unless ``target4``
    is None, with sum(y) congruent to ``target4`` mod 4: a convolution
    over coordinates that tracks the coordinate sum mod 4."""
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
    arguments (parities, target4) of ``zn_shell_counts_dp``."""
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
            pairs.append((n * n, LPoly.t_pow(tpow)))
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
                pairs.append((n * n, LPoly.t_pow(int(tpow))))
            k += 1
    return QSeries.from_pairs(LAURENT, pairs, trunc, denom)


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

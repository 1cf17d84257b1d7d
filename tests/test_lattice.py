import itertools
import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from instanton_zeta.assembly import _coset_shift
from instanton_zeta.errors import ConfigurationError
from instanton_zeta.forms import gen_form
from instanton_zeta.lattice import (D8_GRAM, D8_SHIFT_E1_HALF, D8_SHIFT_P,
                                    D8_SHIFT_Q, _counts_to_series, _ldl,
                                    b_substituted, coset_parities,
                                    coset_points, d8_ambient,
                                    d8_theta_ambient, e8_theta_series,
                                    verify_d8_decompositions,
                                    zn_shell_counts_dp)
from instanton_zeta.laurent import LPoly
from instanton_zeta.qseries import LAURENT, QQ, QSeries
from instanton_zeta.surface import CLASSES, SURFACE

_A1_GRAM = ((2,),)
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


def fraction_inverse(gram):
    """Exact inverse of a Gram matrix by Gauss-Jordan elimination."""
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


def box_shell_counts(gram, shift_coords, max_norm):
    """Brute-force oracle: exhaustive box search with Cauchy-Schwarz
    coordinate bounds from the inverse Gram matrix.  Returns counts keyed
    by 4*(x,x) like the other engines (with max_norm = max over (x,x))."""
    n = len(gram)
    inv = fraction_inverse(gram)
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


def fraction_coset_points(gram, shift_coords, max_q):
    """Reference enumerator: the Fincke-Pohst recursion with rational LDL
    bounds that ``coset_points`` replaced.  Pads each window by 2 and
    filters each candidate against the remaining budget."""
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
    """Reference counts for ``zn_shell_counts_dp``: sum(y_i^2) <= max_q
    over integer vectors with prescribed coordinate parities and
    (optionally) sum(y) congruent to target mod 4, point by point with
    integer bounds."""
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


def coset_theta(gram, shift, trunc):
    """Theta series sum of u^((x,x)/2) over x in Z^n + shift, from the
    points of coset_points."""
    counts = Counter(q for _, q in coset_points(gram, shift, int(8 * trunc)))
    return _counts_to_series(counts, trunc)


def b0_product_formula(trunc):
    """Triple-product form of the unshifted B series with the character at
    u = t^2 q, prod_m (1 - t^(4m) q^(2m)) (1 + t^(4m-1) q^(2m-1))
    (1 + t^(4m-3) q^(2m-1)): an independent cross-check of the lattice sum
    ``b_substituted(0, trunc)``."""
    trunc = Fraction(trunc)
    prod = QSeries.constant(LAURENT, 1, trunc)
    m = 1
    while 2 * m - 1 <= trunc:
        for e, c in ((2 * m, -LPoly.t_pow(4 * m)),
                     (2 * m - 1, LPoly.t_pow(4 * m - 1)),
                     (2 * m - 1, LPoly.t_pow(4 * m - 3))):
            prod = prod * QSeries.from_pairs(LAURENT, [(0, 1), (e, c)],
                                             trunc, 1)
        m += 1
    return prod


def d8_cosets():
    """The eight ambient shifts eps1 p + eps2 q + half e1/2 of the cosets
    read by the rank-8 decomposition suite."""
    for eps1, eps2, half in itertools.product((0, 1), repeat=3):
        yield tuple(a * eps1 + b * eps2 + c * half for a, b, c in zip(
            D8_SHIFT_P, D8_SHIFT_Q, D8_SHIFT_E1_HALF))


def test_shift_vector_validation():
    list(coset_points(((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                      (Fraction(1, 2), 0, Fraction(-3, 2)), 16))
    with pytest.raises(ConfigurationError):
        list(coset_points(_A1_GRAM, (Fraction(1, 3),), 4))
    coset_parities((Fraction(-3, 2),) + (0,) * 7)
    with pytest.raises(ConfigurationError):
        coset_parities((Fraction(1, 3),) + (0,) * 7)


def test_lattice_validation():
    with pytest.raises(ConfigurationError):
        _ldl(((1, 2), (3, 1)))      # not symmetric
    with pytest.raises(ConfigurationError):
        _ldl(((0, 1), (1, 0)))      # not positive definite
    with pytest.raises(ConfigurationError):
        _ldl(((2, 1), (1,)))        # not square
    with pytest.raises(ConfigurationError):
        list(coset_points(((1, 2), (3, 1)), (0, 0), 4))
    with pytest.raises(ConfigurationError):
        # y = 2 has doubled norm 4/3
        list(coset_points(((Fraction(1, 3),),), (0,), 4))


@pytest.mark.parametrize("max_q", [-1, Fraction(-1, 2), Fraction(-1, 100)],
                         ids=["-1", "-1/2", "-1/100"])
def test_coset_points_negative_budget_is_empty(max_q):
    assert list(coset_points(_A1_GRAM, (0,), max_q)) == []
    assert list(coset_points(D8_GRAM, (Fraction(1, 2),) * 8, max_q)) == []
    assert list(coset_points((), (), max_q)) == []
    assert list(coset_points((), (), 0)) == [((), 0)]


def test_d8_theta_low_shells():
    th = d8_theta_ambient((0,) * 8, 3)
    assert th.coeff(0) == 1
    assert th.coeff(1) == 112
    assert th.coeff(2) == 1136
    assert th.coeff(3) == 3136


def test_e8_equals_e4():
    e4 = gen_form("E4", 25)
    assert e8_theta_series(25).first_difference(e4) is None


def test_e8_cartan_generic_enumeration_matches_glue():
    th_generic = coset_theta(_E8_CARTAN, (0,) * 8, 4)
    assert th_generic.first_difference(e8_theta_series(4)) is None


def test_a1_half_shift_leading():
    th = coset_theta(_A1_GRAM, (Fraction(1, 2),), 3)
    assert th.pairs() == [(Fraction(1, 4), 2), (Fraction(9, 4), 2)]


def test_shift_by_full_lattice_vector_is_translation_invariant():
    th0 = d8_theta_ambient((0,) * 8, 5)
    th_shifted = d8_theta_ambient(d8_ambient((2, 0, 0, -2, 0, 0, 0, 2)), 5)
    assert th0.first_difference(th_shifted) is None


def test_engines_agree_on_d8_cosets():
    # the convolution behind d8_theta_ambient against point enumeration
    for shift in d8_cosets():
        enum = _counts_to_series(zn_shell_counts(*coset_parities(shift), 40),
                                 5)
        assert enum.first_difference(d8_theta_ambient(shift, 5)) is None


def test_generic_engine_agrees_with_ambient_integer_engine():
    th_gen = coset_theta(D8_GRAM, (0,) * 8, 4)
    th_amb = d8_theta_ambient((0,) * 8, 4)
    assert th_gen.first_difference(th_amb) is None
    # a shifted coset through the basis-coordinate route
    shift = (Fraction(1, 2),) + (0,) * 7  # e1/2 in basis coords
    assert d8_ambient(shift) == D8_SHIFT_E1_HALF
    th_gen = coset_theta(D8_GRAM, shift, 4)
    th_amb = d8_theta_ambient(D8_SHIFT_E1_HALF, 4)
    assert th_gen.first_difference(th_amb) is None


def test_random_lattices_against_box_search():
    rng = random.Random(424242)
    trials = 0
    while trials < 10:
        n = rng.randint(1, 3)
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        gram = tuple(tuple(sum(m[k][i] * m[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))
        try:
            _ldl(gram)
        except ConfigurationError:
            continue
        trials += 1
        shift = tuple(Fraction(rng.randint(0, 1), 2) for _ in range(n))
        got = Counter(q for _, q in coset_points(gram, shift, 32))
        want = {k: v for k, v in box_shell_counts(gram, shift, 8).items()
                if k <= 32}
        assert got == want


@st.composite
def _gram_and_shift(draw, min_n=1, max_n=3):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    gram = tuple(tuple(sum(m[k][i] * m[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))
    try:
        _ldl(gram)
    except ConfigurationError:
        assume(False)
    shift = tuple(Fraction(draw(st.integers(-1, 1)), 2) for _ in range(n))
    return gram, shift


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_gram_and_shift(), st.integers(0, 24))
def test_coset_points_properties(gram_shift, max_q):
    gram, shift = gram_shift
    n = len(gram)
    points = list(coset_points(gram, shift, max_q))
    ys = [y for y, _ in points]
    assert len(set(ys)) == len(ys)
    counts = {}
    for y, q in points:
        assert len(y) == n
        assert all((yi - 2 * si) % 2 == 0 for yi, si in zip(y, shift))
        norm = sum(y[i] * gram[i][j] * y[j]
                   for i in range(n) for j in range(n))
        assert norm == q <= max_q
        counts[q] = counts.get(q, 0) + 1
    assert counts == box_shell_counts(gram, shift, Fraction(max_q, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_gram_and_shift(0, 4),
       st.one_of(st.integers(-3, 24),
                 st.sampled_from([Fraction(4, 3), Fraction(1, 2),
                                  Fraction(-1, 2), Fraction(47, 6)]),
                 st.fractions(-2, 24, max_denominator=12)))
def test_coset_points_equal_fraction_recursion(gram_shift, max_q):
    # the same points in the same order as the rational-bound recursion,
    # for integer, fractional and negative budgets; the recursion has no
    # points below zero budget (it cannot take the root of one)
    gram, shift = gram_shift
    want = [] if max_q < 0 else list(fraction_coset_points(gram, shift,
                                                           max_q))
    assert list(coset_points(gram, shift, max_q)) == want


def _oracle_cosets():
    """The twelve cosets the wall-sum oracle walks: three classes times
    four strata, as e-basis shifts."""
    return [(tag, eps, _coset_shift(CLASSES[tag], *eps))
            for tag in ("v0", "vEven", "vOdd")
            for eps in ((0, 0), (0, 1), (1, 0), (1, 1))]


def test_coset_points_on_oracle_cosets():
    # identical to the rational-bound recursion point for point to
    # doubled norm 16 ...
    gram = SURFACE.e_gram
    for tag, eps, shift in _oracle_cosets():
        assert (list(coset_points(gram, shift, 16))
                == list(fraction_coset_points(gram, shift, 16))), (tag, eps)
    # ... and to 40, where the recursion would take about twenty times as
    # long, through what fixes its list: each point of the coset with
    # Q <= 40 exactly once, in ascending order of (y_8, ..., y_1).  A
    # strictly ascending list of valid points with the convolution's shell
    # counts is that list.
    terms = [(i, j, gram[i][j] * (1 if i == j else 2))
             for i in range(8) for j in range(i, 8) if gram[i][j]]
    for tag, eps, shift in _oracle_cosets():
        points = list(coset_points(gram, shift, 40))
        keys = [y[::-1] for y, _ in points]
        assert all(a < b for a, b in zip(keys, keys[1:])), (tag, eps)
        par = tuple(int(2 * s) % 2 for s in shift)
        for y, q in points:
            assert tuple(yi % 2 for yi in y) == par
            assert q == sum([c * y[i] * y[j] for i, j, c in terms])
        want = zn_shell_counts_dp(*coset_parities(d8_ambient(shift)), 40)
        assert Counter(q for _, q in points) == want, (tag, eps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 8).flatmap(
           lambda n: st.tuples(*[st.integers(0, 1)] * n)),
       st.sampled_from([None, 0, 1, 2, 3]), st.integers(0, 40))
def test_zn_counts_enumeration_vs_dp(parities, target4, max_q):
    assert zn_shell_counts(parities, target4, max_q) == \
        zn_shell_counts_dp(parities, target4, max_q)


def test_b0_series_low_terms():
    # u^(n^2) t^n at u = t^2 q: the q^(n^2) coefficient is t^(2n^2+n)
    pairs = dict(b_substituted(0, 4).pairs())
    assert pairs[Fraction(0)].pairs() == [(0, 1)]
    assert sorted(pairs[Fraction(1)].pairs()) == [(1, 1), (3, 1)]
    assert sorted(pairs[Fraction(4)].pairs()) == [(6, 1), (10, 1)]


def test_b1_series_low_terms():
    pairs = dict(b_substituted(Fraction(1, 2), Fraction(9, 4)).pairs())
    # n = +-1/2 gives t^1 and t^0, n = +-3/2 gives t^6 and t^3
    assert sorted(pairs[Fraction(1, 4)].pairs()) == [(0, 1), (1, 1)]
    assert sorted(pairs[Fraction(9, 4)].pairs()) == [(3, 1), (6, 1)]
    # with the character at 1 in s = t^(1/2): 2 t^(1/2) and 2 t^(9/2)
    at1 = dict(b_substituted(Fraction(1, 2), Fraction(9, 4), char=False,
                             t_scale=2).pairs())
    assert at1[Fraction(1, 4)].pairs() == [(1, 2)]
    assert at1[Fraction(9, 4)].pairs() == [(9, 2)]


def test_b0_product_formula_matches_sum():
    prod = b0_product_formula(10)
    assert prod.first_difference(b_substituted(0, 10)) is None


def test_b_series_at_char_one_match_shifted_theta():
    # at t = 1 the B series is the theta series of the rank-1 lattice <2>
    for shift in (0, Fraction(1, 2)):
        at1 = b_substituted(shift, 9).map_coeffs(lambda c: c.eval_one(), QQ)
        th = coset_theta(_A1_GRAM, (shift,), 9)
        assert at1.first_difference(th) is None


def test_b_substituted_grids():
    b0 = b_substituted(0, 5)
    assert all(e.denominator == 1 for e, _ in b0.pairs())
    b1 = b_substituted(Fraction(1, 2), 5)
    assert all(e.denominator == 4 for e, _ in b1.pairs())
    sq = b1 * b1
    assert all(e.denominator in (1, 2) for e, _ in sq.pairs())


def test_verify_d8_decompositions():
    report = verify_d8_decompositions(6)
    assert report.ok
    assert len(report.results) == 9


def test_d8_spinor_coset_leading_count():
    th = d8_theta_ambient(D8_SHIFT_P, 2)
    assert th.pairs()[0] == (1, 128)


def test_zn_lattice_theta_is_theta3_power():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    want = gen_form("theta3", 6) ** 3
    assert coset_theta(identity, (0, 0, 0), 6).first_difference(want) is None
    counts = zn_shell_counts_dp((0, 0, 0), None, 48)
    assert _counts_to_series(counts, 6).first_difference(want) is None

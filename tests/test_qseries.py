import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instanton_zeta.errors import (FractionalExponentError,
                                   NotInvertibleError, RingMismatchError,
                                   TruncationError)
from instanton_zeta.forms import gen_form
from instanton_zeta.laurent import LPoly
from instanton_zeta.qseries import LAURENT, QQ, QSeries


def qs(pairs, trunc, denom=1, ring=QQ):
    return QSeries.from_pairs(ring, pairs, trunc, denom)


def dict_product(x, y):
    """The product term pair by term pair in the ring's own arithmetic: the
    oracle for the packed integer kernel of ``QSeries.__mul__``."""
    a, b = x._common(y)
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
            terms[k] = terms[k] + ca * cb if k in terms else ca * cb
    terms = {k: c for k, c in terms.items() if c}
    return QSeries(a.ring, a.denom, bound_frac, terms, _checked=True)


@st.composite
def _sparse_series(draw, ring, size):
    """A sparse series on a 1/denom grid: possibly negative lead, fractional
    truncation, up to ``size`` terms.  Over Q[t,1/t] the coefficients are
    Laurent polynomials with negative offsets and mixed rational
    contents."""
    denom = draw(st.sampled_from([1, 2, 3, 4, 6]))
    lead_k = draw(st.integers(-4 * denom, 3 * denom))
    trunc = Fraction(lead_k, denom) + draw(st.fractions(
        min_value=0, max_value=Fraction(60, denom), max_denominator=6))
    top = floor(trunc * denom)
    ks = {lead_k} | set(draw(st.lists(st.integers(lead_k, top),
                                      max_size=size)))
    big = draw(st.booleans())

    def scalar():
        if big:
            return Fraction(draw(st.integers(-10 ** 30, 10 ** 30)),
                            draw(st.integers(1, 10 ** 6)))
        return draw(st.fractions(min_value=-9, max_value=9,
                                 max_denominator=12))

    def coeff():
        if ring is QQ:
            return scalar()
        off = draw(st.integers(-4, 3))
        return LPoly.from_pairs((off + i, scalar()) for i in range(
            draw(st.integers(1, 6))))

    pairs = [(Fraction(k, denom), coeff()) for k in sorted(ks)]
    return QSeries.from_pairs(ring, pairs, trunc, denom)


@st.composite
def _factor_pairs(draw):
    ring = draw(st.sampled_from([QQ, LAURENT]))
    # up to 40 terms reaches both sides of the length-24 switch to
    # Kronecker substitution; polynomial coefficients keep the oracle quick
    size = 40 if ring is QQ else 16
    return (draw(_sparse_series(ring, size)),
            draw(_sparse_series(ring, size)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_factor_pairs())
def test_kernel_product_matches_dict_product(factors):
    a, b = factors
    got = a * b
    want = dict_product(a, b)
    assert (got.denom, got.trunc) == (want.denom, want.trunc)
    assert got.terms == want.terms
    assert repr(got.pairs()) == repr(want.pairs())


def test_polynomial_product_builds_no_coefficient_per_pair(monkeypatch):
    calls = []
    original = LPoly.__mul__

    def counting(self, other):
        calls.append(type(self).__name__)
        return original(self, other)

    monkeypatch.setattr(LPoly, "__mul__", counting)
    a = QSeries.from_pairs(LAURENT, [(k, LPoly.from_pairs(
        [(-k, 1), (0, k), (k + 1, Fraction(1, k + 1))])) for k in range(12)],
        11)
    b = QSeries.from_pairs(LAURENT, [(Fraction(k, 2), LPoly.t_pow(k, 3))
                                     for k in range(-2, 19)], 9, 2)
    calls.clear()
    prod = a * b
    assert calls == []
    assert len(prod.terms) > 20


def test_mul_difference_of_squares():
    a = qs([(0, 1), (1, 1)], 5)
    b = qs([(0, 1), (1, -1)], 5)
    assert (a * b).pairs() == [(0, Fraction(1)), (2, Fraction(-1))]


def test_mul_theta3_cross_term():
    th3 = gen_form("theta3", 5)
    sq = th3 * th3
    assert sq.coeff(Fraction(1, 2)) == 4


def test_mul_truncation_contract():
    a = qs([(0, 1), (1, 2)], 3)
    b = qs([(0, 1), (1, 5)], 7)
    assert (a * b).trunc == 3


def test_mul_negative_lead_tightens_truncation():
    # unknown tail of b (beyond q^3) times the q^-1 head of a would land at
    # q^3 already, so the product cannot honestly claim order 3
    a = qs([(-1, 1)], 3)
    b = qs([(0, 1)], 3)
    assert (a * b).trunc == 2


def test_mixed_rings_rejected():
    a = qs([(0, 1)], 3)
    b = qs([(0, 1)], 3, ring=LAURENT)
    with pytest.raises(RingMismatchError):
        a * b
    with pytest.raises(RingMismatchError):
        a + b


def test_inverse_geometric():
    a = qs([(0, 1), (1, -1)], 10)
    inv = a.inverse()
    assert inv.pairs()[:4] == [(0, Fraction(1)), (1, Fraction(1)),
                               (2, Fraction(1)), (3, Fraction(1))]


def test_inverse_eta24():
    eta24 = gen_form("eta", 10) ** 24
    inv = eta24.inverse()
    e, c = inv.leading()
    assert (e, c) == (Fraction(-1), 1)
    assert inv.coeff(0) == 24
    assert inv.coeff(1) == 324


def test_inverse_monomial_times_unit():
    a = qs([(2, 1), (3, 1)], 8)  # q^2 (1 + q)
    inv = a.inverse()
    assert inv.leading()[0] == Fraction(-2)
    assert inv.coeff(-1) == -1
    assert inv.coeff(0) == 1


def test_inverse_errors():
    with pytest.raises(NotInvertibleError):
        QSeries.zero(QQ, 5).inverse()


def test_inverse_needs_a_monomial_lead_over_laurent():
    # only the monomials are units of Q[t,1/t]
    t = LPoly.t_pow(1)
    for lead in (t + 1, 1 - t ** 2, LPoly.t_pow(-1) + 2):
        a = QSeries.from_pairs(LAURENT, [(0, lead), (1, t)], 4)
        with pytest.raises(NotInvertibleError):
            a.inverse()
    a = QSeries.from_pairs(LAURENT, [(0, LPoly.t_pow(-2, 3)), (1, t + 1)], 4)
    one = QSeries.constant(LAURENT, 1, 4)
    assert dict_product(a, a.inverse()).first_difference(one) is None


def test_inverse_roundtrip_randomized():
    # a * a.inverse() is 1, multiplied by the dict oracle so the inverse is
    # checked independently of the kernel
    rng = random.Random(13)
    for _ in range(200):
        denom = rng.choice([1, 2, 4])
        trunc = Fraction(rng.randint(4, 9))
        lead = rng.randint(-3, 3)
        pairs = [(Fraction(lead), rng.choice([1, -1, 2, Fraction(1, 2)]))]
        for _ in range(rng.randint(0, 6)):
            e = Fraction(rng.randint(lead * denom + 1, int(trunc * denom)),
                         denom)
            pairs.append((e, rng.randint(-5, 5)))
        a = qs(pairs, trunc, denom)
        prod = dict_product(a, a.inverse())
        one = QSeries.constant(QQ, 1, prod.trunc)
        assert prod.first_difference(one) is None
    # over Q[t,1/t] the leading coefficient is a monomial, a unit, and the
    # others are binomials with negative offsets
    rng = random.Random(17)
    for _ in range(100):
        denom = rng.choice([1, 2])
        trunc = Fraction(rng.randint(4, 5))
        lead = rng.randint(-3, 3)

        def coeff(c):
            low = rng.randint(-2, 2)
            return LPoly.from_pairs([(low, c), (low + rng.randint(1, 3), 1)])

        pairs = [(Fraction(lead), LPoly.t_pow(
            rng.randint(-2, 2), rng.choice([1, -1, 2, Fraction(1, 2)])))]
        for _ in range(rng.randint(0, 6)):
            e = Fraction(rng.randint(lead * denom + 1, int(trunc * denom)),
                         denom)
            pairs.append((e, coeff(rng.randint(-5, 5))))
        a = qs(pairs, trunc, denom, LAURENT)
        prod = dict_product(a, a.inverse())
        one = QSeries.constant(LAURENT, 1, prod.trunc)
        assert prod.first_difference(one) is None


@st.composite
def _invertible_series(draw):
    """A series on the 1/denom grid with a possibly negative leading
    exponent and a possibly fractional truncation, over Q or Q[t,1/t]; over
    Q[t,1/t] the leading coefficient is a monomial, a unit."""
    ring = draw(st.sampled_from([QQ, LAURENT]))
    denom = draw(st.sampled_from([1, 2]))
    lead_k = draw(st.integers(-3 * denom, 2 * denom))
    trunc = Fraction(lead_k, denom) + draw(st.fractions(
        min_value=0, max_value=4, max_denominator=6))
    ks = draw(st.lists(st.integers(lead_k + 1, floor(trunc * denom)),
                       max_size=4)) if trunc * denom >= lead_k + 1 else []

    def coeff(terms):
        if ring is QQ:
            return draw(st.fractions(min_value=-4, max_value=4,
                                     max_denominator=3).filter(bool))
        return LPoly.from_pairs(
            [(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
             for _ in range(terms)])

    pairs = [(Fraction(lead_k, denom), coeff(1))] + [
        (Fraction(k, denom), coeff(draw(st.integers(1, 2)))) for k in ks]
    return QSeries.from_pairs(ring, pairs, trunc, denom), Fraction(lead_k,
                                                                   denom)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_invertible_series())
def test_inverse_truncation_bound(series_lead):
    a, lead = series_lead
    inv = a.inverse()
    assert inv.trunc == a.trunc - 2 * lead
    assert all(e <= inv.trunc for e in inv.exponents())
    prod = a * inv
    assert prod.trunc == min(a.trunc, a.trunc - 2 * lead)
    one = QSeries.constant(a.ring, 1, prod.trunc)
    assert prod.first_difference(one) is None
    # the bound is honest: a tail beyond the truncation cannot move any
    # coefficient the inverse reports
    first_unknown = Fraction(floor(a.trunc * a.denom) + 1, a.denom)
    tail = QSeries.from_pairs(a.ring, [(first_unknown, 1)], a.trunc + 2,
                              a.denom)
    extended = QSeries(a.ring, a.denom, a.trunc + 2, a.terms) + tail
    assert extended.inverse().first_difference(inv, upto=inv.trunc) is None


def test_ring_axioms_randomized():
    rng = random.Random(99)

    def random_series(ring):
        denom = rng.choice([1, 2])
        trunc = Fraction(6)
        pairs = []
        for _ in range(rng.randint(0, 5)):
            e = Fraction(rng.randint(-4, 6 * denom), denom)
            if e <= trunc:
                if ring is QQ:
                    c = Fraction(rng.randint(-9, 9))
                else:
                    c = LPoly.from_pairs(
                        [(rng.randint(-2, 2), rng.randint(-3, 3))
                         for _ in range(rng.randint(1, 3))])
                pairs.append((e, c))
        return QSeries.from_pairs(ring, pairs, trunc, denom)

    for ring in (QQ, LAURENT):
        for _ in range(60):
            a, b, c = (random_series(ring) for _ in range(3))
            assert ((a * b) * c).first_difference(a * (b * c)) is None
            assert (a * b).first_difference(b * a) is None
            assert (a + b).first_difference(b + a) is None
            lhs = a * (b + c)
            rhs = a * b + a * c
            assert lhs.first_difference(rhs) is None


def test_truncation_monotonicity_randomized():
    rng = random.Random(5)
    for _ in range(120):
        ta, tb = Fraction(rng.randint(3, 8)), Fraction(rng.randint(3, 8))
        a = qs([(rng.randint(0, 3), rng.randint(1, 5))], ta)
        b = qs([(rng.randint(0, 3), rng.randint(1, 5))], tb)
        for out in (a + b, a - b, a * b):
            assert out.trunc <= min(ta, tb)
            assert all(e <= out.trunc for e, _ in out.pairs())


def test_dilate_e2():
    e2 = gen_form("E2", 4)
    d = e2.dilate(2)
    assert d.coeff(2) == -24 and d.coeff(4) == -72
    assert d.coeff(1) == 0 and d.coeff(3) == 0


def test_dilate_half_theta3():
    th3 = gen_form("theta3", 2)
    d = th3.dilate(Fraction(1, 2))
    assert d.coeff(Fraction(1, 4)) == 2
    assert d.coeff(0) == 1


def test_dilate_roundtrip():
    a = gen_form("theta2", 3)
    back = a.dilate(2).dilate(Fraction(1, 2))
    assert a.first_difference(back) is None


def test_half_period_shift_e4():
    e4 = gen_form("E4", 3)
    s = e4.half_period_shift()
    assert s.coeff(1) == -240 and s.coeff(2) == 2160 and s.coeff(3) == -6720
    assert s.half_period_shift().first_difference(e4) is None


def test_half_period_shift_requires_integer_exponents():
    th2 = gen_form("theta2", 2)
    with pytest.raises(FractionalExponentError):
        th2.half_period_shift()


def test_coeff_extract_contract():
    a = qs([(0, 1), (1, -1)], 10)
    assert a.coeff(5) == 0
    # pentagonal-number sparsity: exponent 1/24 + 5 carries +1, 1/24 + 3
    # is an honest zero inside the truncation
    eta = gen_form("eta", 6)
    assert eta.coeff(Fraction(1, 24) + 5) == 1
    assert eta.coeff(Fraction(1, 24) + 3) == 0
    eta24 = gen_form("eta", 5) ** 24
    assert eta24.coeff(3) == 252
    with pytest.raises(TruncationError):
        a.coeff(11)


def test_shift_exp_and_truncate():
    a = qs([(0, 1), (2, 3)], 4)
    s = a.shift_exp(Fraction(-1, 2))
    assert s.coeff(Fraction(-1, 2)) == 1
    assert s.trunc == Fraction(7, 2)
    t = a.truncate(1)
    assert t.trunc == 1 and t.pairs() == [(Fraction(0), Fraction(1))]
    with pytest.raises(TruncationError):
        a.truncate(9)

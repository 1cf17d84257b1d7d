import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instanton_zeta.errors import PoleAtOneError
from instanton_zeta.assembly import DEN
from instanton_zeta.laurent import (LPoly, _conv_kronecker, _conv_school,
                                    poly_divexact_z)
from instanton_zeta.qseries import LAURENT, QSeries
from instanton_zeta.tratfunc import exact_quotient, value_at_one
from tratfunc_oracle import TRatFunc, poly_gcd_z


def lp(*pairs):
    return LPoly.from_pairs(pairs)


def test_lpoly_basic_arithmetic():
    p = lp((0, 1), (1, 1))           # 1 + t
    q = lp((0, -1), (1, 1))          # t - 1
    assert (p * q).pairs() == [(0, Fraction(-1)), (2, Fraction(1))]
    assert (p + q).pairs() == [(1, Fraction(2))]
    assert (p - p).is_zero
    assert p ** 3 == lp((0, 1), (1, 3), (2, 3), (3, 1))


def test_lpoly_laurent_offsets():
    m = LPoly.t_pow(-3, Fraction(5, 2))
    assert m.low() == -3 and m.degree() == -3
    assert m * LPoly.t_pow(3) == LPoly.const(Fraction(5, 2))
    assert m.eval_at(Fraction(2)) == Fraction(5, 2) / 8


def test_lpoly_canonical_content():
    a = LPoly(0, (2, 4), 6)
    assert a.num == (1, 2) and a.den == 3
    b = LPoly(0, (2, 4), -6)
    assert b.num == (-1, -2) and b.den == 3


def test_lpoly_stretch_compress_roundtrip():
    p = lp((-1, Fraction(1, 2)), (2, 3))
    assert p.stretch(2).compress(2) == p
    with pytest.raises(ValueError):
        lp((1, 1)).compress(2)


def test_kronecker_matches_schoolbook():
    rng = random.Random(20240811)
    for _ in range(120):
        a = [rng.randint(-10 ** 6, 10 ** 6)
             for _ in range(rng.randint(1, 80))]
        b = [rng.randint(-10 ** 6, 10 ** 6)
             for _ in range(rng.randint(1, 80))]
        assert _conv_school(a, b) == _conv_kronecker(a, b)


def test_poly_gcd_and_divexact():
    # (t-1)^2 (t+2) and (t-1)(t+3)
    a = [2, -3, 0, 1]
    b = [-3, 2, 1]
    g = poly_gcd_z(a, b)
    assert g == [-1, 1]
    assert poly_divexact_z([-1, 0, 1], [-1, 1]) == [1, 1]
    with pytest.raises(ValueError):
        poly_divexact_z([1, 1, 1], [-1, 1])


def test_tratfunc_reduction_canonical():
    num = lp((2, 1), (0, -1))        # t^2 - 1
    den = lp((1, 1), (0, -1))        # t - 1
    f = TRatFunc(num, den)
    assert f.is_polynomial()
    assert f.as_lpoly() == lp((0, 1), (1, 1))
    # denominators normalized monic, t-units cleared into the numerator
    g = TRatFunc(lp((0, 1)), lp((2, 2), (1, -2)))   # 1/(2t^2 - 2t)
    assert g.den == lp((0, -1), (1, 1))
    assert g.num == LPoly.t_pow(-1, Fraction(1, 2))


def test_tratfunc_reduction_idempotent_and_closed():
    rng = random.Random(7)
    for _ in range(200):
        n = LPoly.from_pairs([(e, rng.randint(-4, 4))
                              for e in range(rng.randint(1, 5))])
        d = LPoly.from_pairs([(e, rng.randint(-4, 4))
                              for e in range(rng.randint(1, 4))])
        if d.is_zero:
            continue
        f = TRatFunc(n, d)
        # rebuilding from the reduced parts must be the identity
        assert TRatFunc(f.num, f.den) == f
        g = TRatFunc(d, d + LPoly.const(1)) if not (d + 1).is_zero else f
        for h in (f + g, f * g, f - g):
            assert TRatFunc(h.num, h.den) == h


def test_eval_at_one_examples():
    assert TRatFunc(lp((2, 1), (0, -1)), lp((1, 1), (0, -1))).eval_one() == 2
    f = TRatFunc(lp((3, 1), (1, -3), (0, 2)),
                 lp((2, 1), (1, -2), (0, 1)))
    assert f.eval_one() == 3
    with pytest.raises(PoleAtOneError) as err:
        TRatFunc(lp((0, 1)), lp((1, 1), (0, -1))).eval_one()
    assert err.value.order == 1
    with pytest.raises(PoleAtOneError) as err:
        TRatFunc(lp((0, 1)), lp((1, 1), (0, -1)) ** 3).eval_one()
    assert err.value.order == 3


def test_polynomial_tratfunc_arithmetic_builds_no_constant(monkeypatch):
    # the trivial denominator is one shared LPoly, never rebuilt
    a = TRatFunc(lp((0, 1), (1, 2)))
    b = TRatFunc(lp((-1, 3), (2, -1)))
    calls = []
    const = LPoly.const
    monkeypatch.setattr(LPoly, "const",
                        staticmethod(lambda v: calls.append(v) or const(v)))
    prod, total, zero = a * b, a + b, a - a
    flags = [x.is_polynomial() for x in (prod, total, zero)]
    assert calls == []
    assert flags == [True, True, True]
    assert prod.num == a.num * b.num and total.num == a.num + b.num
    assert zero.is_zero


def test_tratfunc_field_operations():
    f = TRatFunc(lp((0, 1)), lp((1, 1), (0, -1)))     # 1/(t-1)
    assert (f * f.reciprocal()) == TRatFunc.const(1)
    assert (f - f).is_zero
    assert f ** -2 == (f.reciprocal()) ** 2
    assert (f / f) == TRatFunc.const(1)


def test_tratfunc_hash_consistency():
    a = TRatFunc(lp((2, 2), (0, -2)), lp((1, 4), (0, -4)))
    b = TRatFunc(lp((1, Fraction(1, 2)), (0, Fraction(1, 2))))
    assert a == b and hash(a) == hash(b)


_T = LPoly.t_pow(1)
_DEN_FACTORS = (_T, _T - 1, _T + 1, LPoly.const(2))


@st.composite
def _lpolys(draw):
    return LPoly(draw(st.integers(-2, 2)),
                 draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4)),
                 draw(st.integers(1, 3)))


@st.composite
def _denominators(draw):
    """A random nonzero polynomial times factors t, t-1, t+1 and 2."""
    d = draw(_lpolys().filter(bool))
    for f in draw(st.lists(st.sampled_from(_DEN_FACTORS), max_size=4)):
        d = d * f
    return d


@st.composite
def _tratfuncs(draw):
    return TRatFunc(draw(_lpolys()), draw(_denominators()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lpolys(), _lpolys(), _lpolys(),
       _denominators(), _denominators(), _denominators())
def test_tratfunc_canonical_form_is_structural(a, b, c, d1, d2, d3):
    # a b / (d1 d2) + c / d3, reduced in one step and built term by term
    one_step = TRatFunc(a * b * d3 + c * d1 * d2, d1 * d2 * d3)
    by_terms = TRatFunc(a, d1) * TRatFunc(b, d2) + TRatFunc(c, d3)
    assert one_step == by_terms
    assert hash(one_step) == hash(by_terms)
    den = one_step.den
    assert den.low() == 0 and den.coeff(den.degree()) == 1


@st.composite
def _laurent_series(draw):
    denom = draw(st.sampled_from([1, 2]))
    trunc = Fraction(draw(st.integers(0, 4 * denom)), denom)
    ks = draw(st.lists(st.integers(0, int(trunc * denom)), max_size=4))
    return QSeries.from_pairs(
        LAURENT, [(Fraction(k, denom), draw(_lpolys())) for k in ks],
        trunc, denom)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_laurent_series(), _laurent_series(), _lpolys(), _lpolys())
def test_trat_series_scale_laws(a, b, x, y):
    for lhs, rhs in (((a.scale(x) * b).scale(y), (a * b).scale(x * y)),
                     ((a + b).scale(x), a.scale(x) + b.scale(x))):
        assert lhs.trunc == rhs.trunc
        assert lhs.first_difference(rhs) is None


# -- the two readers of a numerator over a known denominator, against the
# reduced rational function

_RULED = (_T + 1) * (_T - 1) ** 2


@st.composite
def _numerators(draw):
    """An integer Laurent polynomial with a possibly negative offset, forced
    to vanish at t = 1 to order 0..3 by factors t - 1, and often carrying
    the other factors of the denominators, so that some quotients are
    exact."""
    num = LPoly(draw(st.integers(-4, 2)),
                draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6)))
    for f in draw(st.lists(st.sampled_from([_T + 1, _T ** 2 + 1, 2 * _T]),
                           max_size=3)):
        num = num * f
    return num * (_T - 1) ** draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_numerators(), st.sampled_from([DEN, _RULED, _RULED.stretch(2)]))
def test_quotient_and_value_at_one_match_oracle(num, den):
    ref = TRatFunc(num, den)
    try:
        want = ref.eval_one()
    except PoleAtOneError as exc:
        with pytest.raises(PoleAtOneError) as err:
            value_at_one(num, den)
        assert err.value.order == exc.order
    else:
        assert value_at_one(num, den) == want
    quot = exact_quotient(num, den)
    if ref.is_polynomial():
        assert quot == ref.as_lpoly()
    else:
        assert quot is None


def test_quotient_and_value_at_one_examples():
    assert exact_quotient(DEN * LPoly.t_pow(-3, 5), DEN) == LPoly.t_pow(-3, 5)
    assert exact_quotient(LPoly.const(1), _T + 1) is None
    assert exact_quotient(_T + 1, 2 * _T + 2) == LPoly.const(Fraction(1, 2))
    assert exact_quotient(LPoly(), DEN) == LPoly()
    third = LPoly.const(Fraction(1, 3))
    assert exact_quotient(_T + 1, (_T + 1) * third) == LPoly.const(3)
    assert exact_quotient(LPoly.t_pow(2, Fraction(1, 2)), 4 * _T * third) == \
        LPoly.t_pow(1, Fraction(3, 8))
    assert value_at_one(LPoly.const(Fraction(1, 2)), (_T + 1) * third) == \
        Fraction(3, 4)
    # -(t-1)^2 over DEN is -1/(2t(t+1)), which is -1/4 at t = 1
    assert value_at_one(-(_T - 1) ** 2, DEN) == Fraction(-1, 4)
    assert value_at_one(LPoly(), DEN) == 0
    with pytest.raises(PoleAtOneError) as err:
        value_at_one(_T, DEN)
    assert err.value.order == 2
    with pytest.raises(PoleAtOneError) as err:
        value_at_one((_T - 1) * (_T + 3), DEN)
    assert err.value.order == 1

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instanton_zeta.errors import PoleAtOneError
from instanton_zeta.laurent import (LPoly, _conv_kronecker, _conv_school,
                                    poly_divexact_z, poly_gcd_z)
from instanton_zeta.qseries import QSeries, TRAT
from instanton_zeta.tratfunc import TRatFunc


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
    assert (m * LPoly.t_pow(3)).as_fraction() == Fraction(5, 2)
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
def _trat_series(draw):
    denom = draw(st.sampled_from([1, 2]))
    trunc = Fraction(draw(st.integers(0, 4 * denom)), denom)
    ks = draw(st.lists(st.integers(0, int(trunc * denom)), max_size=4))
    return QSeries.from_pairs(
        TRAT, [(Fraction(k, denom), draw(_tratfuncs())) for k in ks],
        trunc, denom)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_trat_series(), _trat_series(), _tratfuncs(), _tratfuncs())
def test_trat_series_scale_laws(a, b, x, y):
    for lhs, rhs in (((a.scale(x) * b).scale(y), (a * b).scale(x * y)),
                     ((a + b).scale(x), a.scale(x) + b.scale(x))):
        assert lhs.trunc == rhs.trunc
        assert lhs.first_difference(rhs) is None

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from instanton_zeta.errors import ConfigurationError
from instanton_zeta.forms import gen_form
from instanton_zeta.lattice import (D8_SHIFT_E1_HALF, D8_SHIFT_P, D8_SHIFT_Q,
                                    IntegralLattice, ShiftVector, a1,
                                    a1_theta_with_char, b0_product_formula,
                                    b_substituted, box_shell_counts,
                                    coset_points, d8,
                                    d8_theta_ambient, e8, e8_theta_series,
                                    generic_shell_counts, shifted_theta,
                                    verify_d8_decompositions, zn,
                                    zn_shell_counts, zn_shell_counts_dp)
from instanton_zeta.qseries import QQ


def test_shift_vector_validation():
    ShiftVector([Fraction(1, 2), 0, Fraction(-3, 2)])
    with pytest.raises(ConfigurationError):
        ShiftVector([Fraction(1, 3)])


def test_lattice_validation():
    with pytest.raises(ConfigurationError):
        IntegralLattice("bad", ((1, 2), (3, 1)))      # not symmetric
    with pytest.raises(ConfigurationError):
        IntegralLattice("bad", ((0, 1), (1, 0)))      # not positive definite


def test_a1_gram():
    assert a1().gram == ((2,),)


def test_d8_theta_low_shells():
    th = shifted_theta(d8(), None, 3)
    assert th.coeff(0) == 1
    assert th.coeff(1) == 112
    assert th.coeff(2) == 1136
    assert th.coeff(3) == 3136


def test_e8_equals_e4():
    e4 = gen_form("E4", 25)
    assert e8_theta_series(25).first_difference(e4) is None


def test_e8_cartan_generic_enumeration_matches_glue():
    th_generic = shifted_theta(e8(), None, 4, method="generic")
    assert th_generic.first_difference(e8_theta_series(4)) is None


def test_a1_half_shift_leading():
    th = shifted_theta(a1(), ShiftVector([Fraction(1, 2)]), 3)
    assert th.pairs() == [(Fraction(1, 4), 2), (Fraction(9, 4), 2)]


def test_shift_by_full_lattice_vector_is_translation_invariant():
    lat = d8()
    th0 = shifted_theta(lat, None, 5)
    th_shifted = shifted_theta(
        lat, ShiftVector([2, 0, 0, -2, 0, 0, 0, 2]), 5)
    assert th0.first_difference(th_shifted) is None


def test_engines_agree_on_d8_cosets():
    for eps1, eps2, half in itertools.product((0, 1), repeat=3):
        shift = tuple(a * eps1 + b * eps2 + c * half for a, b, c in zip(
            D8_SHIFT_P, D8_SHIFT_Q, D8_SHIFT_E1_HALF))
        enum = d8_theta_ambient(shift, 5, method="enumerate")
        dp = d8_theta_ambient(shift, 5, method="dp")
        assert enum.first_difference(dp) is None


def test_generic_engine_agrees_with_ambient_integer_engine():
    lat = d8()
    th_gen = shifted_theta(lat, None, 4, method="generic")
    th_amb = d8_theta_ambient((0,) * 8, 4)
    assert th_gen.first_difference(th_amb) is None
    # a shifted coset through the basis-coordinate route
    shift = ShiftVector([Fraction(1, 2)] + [0] * 7)  # e1/2 in basis coords
    th_gen = shifted_theta(lat, shift, 4, method="generic")
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
            IntegralLattice("rnd", gram)
        except ConfigurationError:
            continue
        trials += 1
        shift = tuple(Fraction(rng.randint(0, 1), 2) for _ in range(n))
        got = generic_shell_counts(gram, shift, 32)
        want = {k: v for k, v in box_shell_counts(gram, shift, 8).items()
                if k <= 32}
        assert got == want


@st.composite
def _gram_and_shift(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    gram = tuple(tuple(sum(m[k][i] * m[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))
    try:
        IntegralLattice("rnd", gram)
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


def test_zn_counts_enumeration_vs_dp():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        parities = tuple(rng.randint(0, 1) for _ in range(n))
        target = rng.choice([None, 0, 1, 2, 3])
        max_q = rng.randint(4, 30)
        assert zn_shell_counts(parities, target, max_q) == \
            zn_shell_counts_dp(parities, target, max_q)


def test_b0_series_low_terms():
    b0, t_den = a1_theta_with_char(0, 4)
    assert t_den == 1
    pairs = dict(b0.pairs())
    assert pairs[Fraction(0)].as_lpoly().pairs() == [(0, 1)]
    assert sorted(pairs[Fraction(1)].as_lpoly().pairs()) == [(-1, 1), (1, 1)]
    assert sorted(pairs[Fraction(4)].as_lpoly().pairs()) == [(-2, 1), (2, 1)]


def test_b1_series_low_terms():
    b1, t_den = a1_theta_with_char(Fraction(1, 2), Fraction(9, 4))
    assert t_den == 2
    pairs = dict(b1.pairs())
    # s = t^(1/2): the u^(1/4) coefficient is t^(1/2) + t^(-1/2)
    assert sorted(pairs[Fraction(1, 4)].as_lpoly().pairs()) == [(-1, 1),
                                                                (1, 1)]
    assert sorted(pairs[Fraction(9, 4)].as_lpoly().pairs()) == [(-3, 1),
                                                                (3, 1)]


def test_b0_product_formula_matches_sum():
    prod = b0_product_formula(10)
    summed, _ = a1_theta_with_char(0, 10)
    assert prod.first_difference(summed) is None


def test_b_series_at_char_one_match_shifted_theta():
    b0, _ = a1_theta_with_char(0, 9)
    at1 = b0.map_coeffs(lambda c: c.eval_one(), QQ)
    assert at1.first_difference(shifted_theta(a1(), None, 9)) is None
    b1, _ = a1_theta_with_char(Fraction(1, 2), 9)
    at1 = b1.map_coeffs(lambda c: c.eval_one(), QQ)
    th = shifted_theta(a1(), ShiftVector([Fraction(1, 2)]), 9)
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
    th = shifted_theta(zn(3), None, 6)
    want = gen_form("theta3", 6) ** 3
    assert th.first_difference(want) is None

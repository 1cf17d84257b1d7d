from fractions import Fraction

import pytest

from instanton_zeta.errors import ConfigurationError
from instanton_zeta.lattice import _D8_ROWS
from instanton_zeta.surface import (CLASSES, SURFACE, pair, star,
                                    vec_add, vec_scale)
from test_lattice import fraction_inverse


def e_coords(x):
    """Coordinates of the <f,g>-orthogonal part of x in the e-basis: the
    solution c of e_gram c = (star(x, e_i))_i."""
    inv = fraction_inverse(SURFACE.e_gram)
    rhs = [star(x, v) for v in SURFACE.e]
    return tuple(sum(inv[i][j] * rhs[j] for j in range(8)) for i in range(8))


def test_intersection_numbers():
    s = SURFACE
    assert pair(s.H, s.H) == 1
    assert all(pair(c, c) == -1 for c in s.C)
    assert pair(s.f, s.f) == 0
    assert pair(s.g, s.g) == 0
    assert pair(s.f, s.g) == 2
    assert s.K == vec_scale(-1, s.f)
    assert s.chi == 12
    assert s.betti == (1, 10, 1) and s.sigma1_betti == (1, 2, 1)


def test_e_basis_orthogonal_and_gram():
    s = SURFACE
    for v in s.e:
        assert pair(v, s.f) == 0 and pair(v, s.g) == 0
    zn_gram = tuple(tuple(sum(a * b for a, b in zip(r1, r2))
                          for r2 in _D8_ROWS) for r1 in _D8_ROWS)
    assert s.e_gram == zn_gram


def test_glue_vectors_are_integral_classes():
    s = SURFACE
    half = Fraction(1, 2)
    for v in (vec_add(vec_scale(half, s.f), s.p_half),
              vec_add(vec_scale(half, s.g), s.q_half)):
        assert all(Fraction(x).denominator == 1 for x in v)


def test_half_vector_norms():
    s = SURFACE
    assert star(s.q_half, s.q_half) == 1
    assert star(s.p_half, s.p_half) == 2


def test_class_representatives():
    assert CLASSES["v0"].rep == (0,) * 10
    assert CLASSES["vOdd"].rep == (0, 0, 0, 0, 0, 0, 0, 0, 1, -1)  # C8 - C9
    even = CLASSES["vEven"].rep
    assert star(even, even) == 4
    odd = CLASSES["vOdd"].rep
    assert star(odd, odd) == 2


def test_class_grid_offsets_and_parities():
    assert CLASSES["v0"].grid_offset == 0
    assert CLASSES["vEven"].grid_offset == 0
    assert CLASSES["vOdd"].grid_offset == Fraction(1, 2)
    assert CLASSES["v0"].blowup_parity == 0
    assert CLASSES["vEven"].blowup_parity == 0
    assert CLASSES["vOdd"].blowup_parity == 2


def test_e_coordinate_roundtrip():
    s = SURFACE
    x = vec_add(s.e[1], vec_scale(-3, s.e[5]), vec_scale(2, s.e[7]))
    coords = e_coords(x)
    assert coords == (0, 1, 0, 0, 0, -3, 0, 2)
    assert s.from_e_coords(coords) == tuple(Fraction(v) for v in x)


def test_declared_e_coordinates():
    # the coset shifts' e-coordinates are given, not solved for, on build
    s = SURFACE
    assert e_coords(s.p_half) == s.p_half_e_coords
    assert e_coords(s.q_half) == s.q_half_e_coords
    for c1 in CLASSES.values():
        assert e_coords(c1.rep) == tuple(2 * c for c in c1.half_rep_e_coords)
        assert s.from_e_coords(c1.half_rep_e_coords) == vec_scale(
            Fraction(1, 2), c1.rep)


def test_fg_components():
    s = SURFACE
    x = vec_add(vec_scale(2, s.f), vec_scale(-1, s.g), s.e[3])
    # x = a f + b g + (e-part) with (f, g) = 2: a = (x, g)/2, b = (x, f)/2
    a, b = Fraction(pair(x, s.g), 2), Fraction(pair(x, s.f), 2)
    assert (a, b) == (2, -1)
    rest = vec_add(x, vec_scale(-a, s.f), vec_scale(-b, s.g))
    assert e_coords(rest) == (0, 0, 0, 1, 0, 0, 0, 0)


def test_unknown_class_tag():
    with pytest.raises(ConfigurationError):
        from instanton_zeta.surface import _build_class
        _build_class("vBogus")


def test_c1class_is_frozen():
    with pytest.raises(AttributeError):
        CLASSES["v0"].tag = "other"

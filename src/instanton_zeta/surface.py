"""Cohomological data of the rational elliptic surface and its ruling.

The degree-2 cohomology lattice is Z^10 with basis (H, C1..C9) and
intersection form diag(1, -1, ..., -1).  Distinguished classes: the
elliptic fiber f = 3H - sum(C_i) (anticanonical, K = -f), the ruling fiber
g = H - C1, the orthogonal complement of <f, g> spanned by e1..e8 with the
even-sum rank-8 Gram matrix, and the half-vectors p, q generating the
index-4 glue group of <f, g> + <e1..e8> inside the full lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import mul

from .errors import ConfigurationError
from .lattice import D8_GRAM, _ldl

DIM = 10


def pair(x, y):
    """Intersection pairing in the (H, C1..C9) basis: the form
    diag(1, -1, ..., -1), written as 2 x_H y_H - sum_i x_i y_i."""
    return 2 * x[0] * y[0] - sum(map(mul, x, y))


def star(x, y):
    """Sign-flipped pairing; positive definite on <f, g>-perp."""
    return -pair(x, y)


def vec_add(*vs):
    return tuple(sum(col) for col in zip(*vs))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def _basis_vec(i):
    return tuple(1 if j == i else 0 for j in range(DIM))


class SurfaceData:
    """Fixed data of the surface; all invariants are checked on build."""

    def __init__(self):
        self.H = _basis_vec(0)
        self.C = tuple(_basis_vec(i) for i in range(1, 10))  # C1..C9
        self.f = vec_add(vec_scale(3, self.H),
                         *[vec_scale(-1, c) for c in self.C])
        self.g = vec_add(self.H, vec_scale(-1, self.C[0]))
        self.K = vec_scale(-1, self.f)
        # e1..e7 = C(9-i) - C(10-i); e8 = H - C1 - C2 - C3
        es = [vec_add(self.C[8 - i], vec_scale(-1, self.C[9 - i]))
              for i in range(1, 8)]
        es.append(vec_add(self.H, vec_scale(-1, self.C[0]),
                          vec_scale(-1, self.C[1]), vec_scale(-1, self.C[2])))
        self.e = tuple(es)
        self._e_cols = tuple(zip(*es))
        # p = (e1 + e3 + e5 + e8)/2 and q = (e7 + e8)/2, kept with their
        # e-basis coordinates
        half = Fraction(1, 2)
        p2, q2 = (1, 0, 1, 0, 1, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1, 1)
        self.p_half = vec_scale(half, self.from_e_coords(p2))
        self.q_half = vec_scale(half, self.from_e_coords(q2))
        self.p_half_e_coords = vec_scale(half, p2)
        self.q_half_e_coords = vec_scale(half, q2)
        self.betti = (1, 10, 1)
        self.sigma1_betti = (1, 2, 1)
        self.chi = 12
        # Gram of the e-basis under the star pairing; the e-basis spans the
        # even-sum rank-8 lattice realized in Z^8
        self.e_gram = tuple(tuple(star(a, b) for b in self.e)
                            for a in self.e)
        self._check()

    def _check(self):
        if pair(self.f, self.f) != 0 or pair(self.g, self.g) != 0:
            raise ConfigurationError("fiber classes must be isotropic")
        if pair(self.f, self.g) != 2:
            raise ConfigurationError("(f, g) must equal 2")
        for v in self.e:
            if pair(v, self.f) != 0 or pair(v, self.g) != 0:
                raise ConfigurationError("e-basis not orthogonal to <f, g>")
        if self.e_gram != D8_GRAM:
            raise ConfigurationError(
                "e-basis Gram does not match the even-sum rank-8 lattice")
        # glue vectors must be integral classes
        for v in (vec_add(vec_scale(Fraction(1, 2), self.f), self.p_half),
                  vec_add(vec_scale(Fraction(1, 2), self.g), self.q_half)):
            if any(Fraction(x).denominator != 1 for x in v):
                raise ConfigurationError("glue vector is not integral")
        # index-4 glue of a determinant-(-4) plane and a determinant-4
        # definite summand recovers a unimodular overlattice
        disc_fg = abs(pair(self.f, self.f) * pair(self.g, self.g)
                      - pair(self.f, self.g) ** 2)
        disc_d8 = prod(_ldl(self.e_gram)[0])
        if Fraction(disc_fg * disc_d8, 4 ** 2) != 1:
            raise ConfigurationError("glue index does not give determinant 1")

    def from_e_coords(self, coords):
        """The class sum_i coords[i] e_i in the (H, C1..C9) basis."""
        return tuple([sum(map(mul, coords, col)) for col in self._e_cols])


SURFACE = SurfaceData()


@dataclass(frozen=True)
class C1Class:
    """One of the three first-Chern-class orbit representatives."""

    tag: str               # "v0" | "vEven" | "vOdd"
    rep: tuple             # representative in the (H, C1..C9) basis
    grid_offset: Fraction  # discriminants live on Z + grid_offset
    blowup_parity: int     # number of C_i (2 <= i <= 9) pairing oddly
    half_rep_e_coords: tuple  # e-basis coordinates of rep / 2

    def is_smooth(self, delta):
        """Whether the moduli at discriminant ``delta`` are smooth: they
        are singular only for the trivial class at even discriminant."""
        return self.tag != "v0" or delta % 2 == 1


# e-basis coordinates of the representatives: 0, e7 + e8 and e1 = C8 - C9
_REP_E_COORDS = {"v0": (0,) * 8, "vEven": (0, 0, 0, 0, 0, 0, 1, 1),
                 "vOdd": (1, 0, 0, 0, 0, 0, 0, 0)}


def _build_class(tag):
    s = SURFACE
    if tag not in _REP_E_COORDS:
        raise ConfigurationError(f"unknown class tag {tag!r}")
    coords = _REP_E_COORDS[tag]
    rep = s.from_e_coords(coords)
    norm_star = star(rep, rep)
    offset = Fraction(norm_star, 4) % 1  # Delta = c2 - (c1^2)/4 mod 1
    n = sum(1 for i in range(1, 9) if pair(rep, s.C[i]) % 2)
    expected_n = {"v0": 0, "vEven": 0, "vOdd": 2}[tag]
    if n != expected_n:
        raise ConfigurationError(
            f"blow-up parity count for {tag} is {n}, expected {expected_n}")
    return C1Class(tag=tag, rep=rep, grid_offset=offset, blowup_parity=n,
                   half_rep_e_coords=vec_scale(Fraction(1, 2), coords))


V0 = _build_class("v0")
V_EVEN = _build_class("vEven")
V_ODD = _build_class("vOdd")
CLASSES = {"v0": V0, "vEven": V_EVEN, "vOdd": V_ODD}

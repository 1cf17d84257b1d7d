"""Symbolic expressions over the named forms.

A FormExpr is a small tree whose leaves are named forms with a rational
argument scaling (and an optional half-period shift tau -> k tau + 1/2)
and an unresolved quasi-modular slot; nodes are sums, products, integer
powers and scalar multiples (Gaussian-rational scalars, so the two
sqrt(-1)-weighted eta combinations are representable).  A leaf names a
primitive form (``forms.DIVISOR_LEAVES``, ``forms.GAUSSIAN_LEAVES``) or a
tree of the one table ``TREES``: the derived forms and the closed
partition functions.

The module holds trees only.  The same tree evaluates two ways: as an
exact q-series by ``forms.as_qseries`` (when every leaf has one; the slot
resolves to the holomorphic series) and as an arbitrary-precision complex
number by ``numeric.eval_form`` (the slot resolves to the
anomaly-corrected weight-2 form).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


class FormExpr:
    """Base class; combinators build trees without manual node wrapping."""

    def __add__(self, other):
        return Add((self, _coerce(other)))

    def __sub__(self, other):
        return Add((self, Scal(Fraction(-1), Fraction(0), _coerce(other))))

    def __mul__(self, other):
        return Mul((self, _coerce(other)))

    def __pow__(self, n):
        return Pow(self, operator.index(n))

    def scaled(self, re, im=0):
        return Scal(Fraction(re), Fraction(im), self)


def _coerce(x):
    if isinstance(x, FormExpr):
        return x
    raise TypeError(f"cannot use {x!r} in a form expression")


@dataclass(frozen=True)
class Leaf(FormExpr):
    name: str
    scale: Fraction = Fraction(1)
    half_shift: int = 0  # evaluate at scale*tau + half_shift/2


@dataclass(frozen=True)
class E2Slot(FormExpr):
    """Weight-2 quasi-modular slot: filled with the holomorphic series in
    the exact layer and with the anomaly-corrected form numerically."""
    scale: Fraction = Fraction(1)
    # the exact layer expands the slot as the leaf E2 at the same scale
    name = "E2"
    half_shift = 0


@dataclass(frozen=True)
class Add(FormExpr):
    children: tuple


@dataclass(frozen=True)
class Mul(FormExpr):
    children: tuple


@dataclass(frozen=True)
class Pow(FormExpr):
    base: FormExpr
    n: int


@dataclass(frozen=True)
class Scal(FormExpr):
    re: Fraction
    im: Fraction
    child: FormExpr


def leaf(name, scale=1, half_shift=0):
    return Leaf(name, Fraction(scale), half_shift)


_HALF = Fraction(1, 2)

# The derived forms, each defined once over the primitive leaves.
DERIVED_FORMS = {
    "BigTheta": leaf("theta3", 2),
    "P0": leaf("E4", 2),
    "Peven": ((leaf("E4", _HALF) + leaf("E4", _HALF, 1)).scaled(_HALF)
              - leaf("E4", 2)),
    "Podd": (leaf("E4", _HALF) - leaf("E4", _HALF, 1)).scaled(_HALF),
}


def _averaged(bracket):
    """-1/24 eta^-24 times the bracket: the shape of the three averaged
    closed forms."""
    return (Pow(leaf("eta"), -24) * bracket).scaled(Fraction(-1, 24))


_TH2, _TH3, _TH4 = leaf("theta2"), leaf("theta3"), leaf("theta4")
_EIGHTH = Fraction(1, 8)
_ETA_HALF = Pow(leaf("eta", _HALF), -12)
_ETA_HALF_SHIFTED = Pow(leaf("eta", _HALF, 1), -12)

# The closed partition functions, each defined once with the weight-2 slot
# unresolved: the SU(2) and SO(3) combinations of the S-duality law, which
# read the three averaged functions by name, those three, and the two
# section-class functions (numeric only: the half-period-shifted eta has no
# rational q-series).  Both evaluators, the results module and the CLI read
# them here.
CLOSED_FORMS = {
    "Z_SU2": (leaf("Z0").scaled(_HALF)
              + Pow(leaf("eta", 2), -12).scaled(Fraction(-1, 16))),
    "Z_SO3": (leaf("Z0").scaled(2) + leaf("Z_even").scaled(270)
              + leaf("Z_odd").scaled(240) + _ETA_HALF.scaled(256)),
    "Z0": _averaged(E2Slot() * leaf("P0")
                    + (_TH3 ** 4 * _TH4 ** 4 - (_TH2 ** 8).scaled(_EIGHTH))
                    * (_TH3 ** 4 + _TH4 ** 4)),
    "Z_even": _averaged(E2Slot() * leaf("Peven").scaled(Fraction(1, 135))
                        - (_TH2 ** 8 * (_TH3 ** 4 + _TH4 ** 4))
                        .scaled(_EIGHTH)),
    "Z_odd": _averaged(E2Slot() * leaf("Podd").scaled(Fraction(1, 120))
                       - (_TH2 ** 4 * leaf("E4")).scaled(_EIGHTH)),
    "Zw0": _ETA_HALF.scaled(_HALF) + _ETA_HALF_SHIFTED.scaled(0, _HALF),
    "Zw1": _ETA_HALF.scaled(_HALF) + _ETA_HALF_SHIFTED.scaled(0, -_HALF),
}

# The one table of named trees: a leaf named here stands for its tree, which
# forms.FormProvider expands and caches per provider and truncation and
# numeric.eval_form inlines.  A tree inside another is reached by its name.
TREES = {**DERIVED_FORMS, **CLOSED_FORMS}

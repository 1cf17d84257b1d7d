"""Constructors for the named q-expansions and the weight identities
relating them.

Every form is produced as an exact QSeries over Q on the 1/48 exponent
grid.  The eight primitive leaves are defined once each, in two tables
that the numeric evaluator reads as well: the divisor sums E2, E4, e1 and
F in ``DIVISOR_LEAVES``, and the Gaussian sums theta2, theta3, theta4 and
eta in ``GAUSSIAN_LEAVES``.  Every other name is a tree of the one table
``formexpr.TREES``: the derived forms (Theta = theta3(2*tau) and the three
weight-4 combinations P0 / Peven / Podd) and the closed partition
functions, which read the averaged Z0, Z_even and Z_odd by name.  The
provider expands a named tree like a leaf, so each provider caches every
named tree once per truncation.

``as_qseries`` expands any form tree exactly, each leaf read from
``DEFAULT_PROVIDER``: the one exact walk of a tree, next to the leaves it
reads.  The weight-2 slot is the holomorphic ``E2`` at the slot's scale
here; the anomaly-corrected slot exists only numerically.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import floor

from .errors import InstantonZetaError
from .formexpr import TREES, Add, E2Slot, Leaf, Mul, Pow, Scal
from .qseries import DEFAULT_DENOM, QQ, QSeries, euler_product
from .report import VerifyReport, compare


def sigma_table(n_max, power=1):
    """sigma_power(n) for 0 <= n <= n_max by divisor sieve."""
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dk = d ** power
        for n in range(d, n_max + 1, d):
            sig[n] += dk
    return sig


def sigma_odd_table(n_max):
    """Sum of odd divisors of n."""
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1, 2):
        for n in range(d, n_max + 1, d):
            sig[n] += d
    return sig


def sigma_odd_n_table(n_max):
    """sigma_1(n) on odd n, 0 on even n."""
    return [s if n % 2 else 0 for n, s in enumerate(sigma_table(n_max))]


# The primitive leaves, each defined once; the exact expansion
# (FormProvider) and the numeric kernels (numeric.eval_form) both read
# these tables.
#
# Divisor leaves c0 + w sum_{n>=1} s(n) q^n: (c0, w, table of s(n) for
# n <= n_max, tail degree d with |s(n)| <= n^d).  Every table has s(1) = 1.
DIVISOR_LEAVES = {
    "E2": (Fraction(1), -24, sigma_table, 2),
    "E4": (Fraction(1), 240, functools.partial(sigma_table, power=3), 4),
    "e1": (Fraction(-1, 6), -4, sigma_odd_table, 2),
    "F": (Fraction(0), 1, sigma_odd_n_table, 2),
}

# Gaussian leaves c0 + sum over progressions n = n0 + k d (k >= 0) of
# c (-1)^(k alternating) q^(n^2/m): (m, c0, ((n0, d, c, alternating), ...)).
# The numeric error bound needs 0 < n0 <= d <= 6, |c| <= 2 and at most two
# progressions.  eta is Euler's pentagonal theorem,
# sum_{n>0} chi_12(n) q^(n^2/24).
GAUSSIAN_LEAVES = {
    "theta2": (8, 0, ((1, 2, 2, False),)),
    "theta3": (8, 1, ((2, 2, 2, False),)),
    "theta4": (8, 1, ((2, 2, -2, True),)),
    "eta": (24, 0, ((1, 6, 1, True), (5, 6, -1, True))),
}


class FormProvider:
    """Deterministic, cached constructor for the named forms.

    ``perturb`` injects a deliberate error into one base expansion; it
    exists so that the verification suites can be shown to catch a wrong
    coefficient (negative controls)."""

    def __init__(self):
        self._cache = {}
        self._perturbations = {}

    def perturbed(self, name, exponent, delta):
        clone = FormProvider()
        clone._perturbations = {k: list(v)
                                for k, v in self._perturbations.items()}
        clone._perturbations.setdefault(name, []).append(
            (Fraction(exponent), Fraction(delta)))
        return clone

    def series(self, name, trunc, scaling=1):
        scaling = Fraction(scaling)
        if scaling <= 0:
            raise ValueError("argument scaling must be positive")
        trunc = Fraction(trunc)
        key = (name, scaling, trunc)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        base = self._base(name, trunc / scaling)
        for e, d in self._perturbations.get(name, ()):
            if e <= base.trunc:
                base = base + QSeries.from_pairs(QQ, [(e, d)], base.trunc,
                                                 base.denom)
        s = base.dilate(scaling) if scaling != 1 else base
        self._cache[key] = s
        return s

    def _base(self, name, trunc):
        if name in TREES:
            return _exact(TREES[name], trunc, self)
        if name in DIVISOR_LEAVES:
            c0, w, table, _ = DIVISOR_LEAVES[name]
            sig = table(int(trunc))
            pairs = [(n, w * sig[n]) for n in range(1, len(sig))]
        elif name in GAUSSIAN_LEAVES:
            m, c0, progressions = GAUSSIAN_LEAVES[name]
            pairs = []
            for n, d, c, alternating in progressions:
                while Fraction(n * n, m) <= trunc:
                    pairs.append((Fraction(n * n, m), c))
                    n += d
                    c = -c if alternating else c
        else:
            raise InstantonZetaError(f"unknown form name {name!r}")
        if c0:
            pairs.insert(0, (0, c0))
        return QSeries.from_pairs(QQ, pairs, trunc, DEFAULT_DENOM)


DEFAULT_PROVIDER = FormProvider()


def _exact(node, trunc, provider):
    """Exact q-expansion of the tree, each leaf, primitive or named, read
    from ``provider``."""
    if isinstance(node, (Leaf, E2Slot)):
        base = provider.series(node.name, trunc / node.scale)
        if node.half_shift:
            base = base.half_period_shift()
        return base.dilate(node.scale) if node.scale != 1 else base
    if isinstance(node, Add):
        out = None
        for ch in node.children:
            s = _exact(ch, trunc, provider)
            out = s if out is None else out + s
        return out
    if isinstance(node, Mul):
        out = None
        for ch in node.children:
            s = _exact(ch, trunc, provider)
            out = s if out is None else out * s
        return out
    if isinstance(node, Pow):
        return _exact(node.base, trunc, provider) ** node.n
    if isinstance(node, Scal):
        if node.im:
            raise InstantonZetaError(
                "imaginary scalar weight has no rational q-series")
        return _exact(node.child, trunc, provider).scale(node.re)
    raise TypeError(f"unknown expression node {node!r}")


def as_qseries(expr, trunc):
    """Exact q-expansion of the expression, with the holomorphic E2 in the
    weight-2 slot, guaranteed to the requested truncation (internal
    computations run with a margin that is widened until inverse powers
    stop eating into the bound)."""
    trunc = Fraction(trunc)
    margin = Fraction(2)
    for _ in range(8):
        s = _exact(expr, trunc + margin, DEFAULT_PROVIDER)
        if s.trunc >= trunc:
            return s.truncate(trunc)
        margin += trunc - s.trunc
    raise InstantonZetaError("could not reach the requested truncation")


def gen_form(name, trunc, scaling=1):
    return DEFAULT_PROVIDER.series(name, trunc, scaling)


def sieve(trunc, fn):
    """The series sum of fn(n) q^n over 1 <= n <= trunc."""
    pairs = [(n, fn(n)) for n in range(1, int(trunc) + 1)]
    return QSeries.from_pairs(QQ, [(e, c) for e, c in pairs if c],
                              Fraction(trunc), 1)


def double_sum(ring, trunc, term):
    """The series sum of c q^e over m, n >= 1, with (e, c) = term(m, n)
    and e increasing in both m and n."""
    trunc = Fraction(trunc)
    acc = {}
    m = 1
    while term(m, 1)[0] <= trunc:
        n = 1
        while True:
            e, c = term(m, n)
            if e > trunc:
                break
            acc[e] = acc.get(e, ring.zero) + c
            n += 1
        m += 1
    return QSeries.from_pairs(ring, [(e, c) for e, c in acc.items() if c],
                              trunc, 1)


@functools.lru_cache(maxsize=None)
def eta_pow_inverse(scale, power, trunc):
    """1 / eta(scale tau)^power = q^-lead / prod_(n>=1) (1 - q^(scale n))^power
    with lead = power scale / 24, exact to trunc."""
    lead = Fraction(power, 24) * scale
    top = (trunc + lead) / scale   # the truncation in q^scale
    factors = [(1, n, power) for n in range(1, floor(top) + 1)]
    return euler_product(QQ, factors, top).dilate(scale).shift_exp(-lead)


def verify_section1(trunc, provider=None):
    """Check the quasi-modular and theta identities coefficientwise up to
    the requested order.  The rank-8 root lattice theta series is imported
    lazily to keep this module free of the lattice machinery."""
    trunc = Fraction(trunc)
    if trunc < 1:
        raise ValueError("trunc must be at least 1")
    p = provider or DEFAULT_PROVIDER

    def f(name, scaling=1):
        return p.series(name, trunc, scaling)

    def divisor_lhs(signed):
        def total(n):
            return sum(-d if (signed and d % 2) else d
                       for d in range(1, n + 1)
                       if n % d == 0 and (n // d) % 2 == 1)
        return sieve(trunc, total)

    def e8():
        from .lattice import e8_theta_series
        return e8_theta_series(trunc)

    half = Fraction(1, 2)
    identities = [
        ("e1 = -(1/6)(-E2 + 2 E2(2t))", lambda: (
            f("e1"),
            (-(-f("E2") + f("E2", 2).scale(2))).scale(Fraction(1, 6)))),
        ("F = -(1/24)(E2 - 3 E2(2t) + 2 E2(4t))", lambda: (
            f("F"),
            (f("E2") - f("E2", 2).scale(3) + f("E2", 4).scale(2))
            .scale(Fraction(-1, 24)))),
        ("sum over odd-cofactor divisors = (E2(2t) - E2)/24", lambda: (
            divisor_lhs(False),
            (f("E2", 2) - f("E2")).scale(Fraction(1, 24)))),
        ("signed odd-cofactor sum = (E2 - 5 E2(2t) + 4 E2(4t))/24", lambda: (
            divisor_lhs(True),
            (f("E2") - f("E2", 2).scale(5) + f("E2", 4).scale(4))
            .scale(Fraction(1, 24)))),
        ("-6 e1 = (theta3^4 + theta4^4)/2", lambda: (
            f("e1").scale(-6),
            (f("theta3") ** 4 + f("theta4") ** 4).scale(half))),
        ("-6 e1 = Theta^4 + 16 F", lambda: (
            f("e1").scale(-6), f("BigTheta") ** 4 + f("F").scale(16))),
        ("theta4(2t)^4 = Theta^4 - 16 F", lambda: (
            f("theta4", 2) ** 4, f("BigTheta") ** 4 - f("F").scale(16))),
        ("theta2(2t)^4 = 16 F", lambda: (
            f("theta2", 2) ** 4, f("F").scale(16))),
        ("theta2^8 = 256 Theta^4 F", lambda: (
            f("theta2") ** 8, (f("BigTheta") ** 4 * f("F")).scale(256))),
        ("theta2^4 = theta3^4 - theta4^4", lambda: (
            f("theta2") ** 4, f("theta3") ** 4 - f("theta4") ** 4)),
        ("(theta2^8 + theta3^8 + theta4^8)/2 = E4", lambda: (
            (f("theta2") ** 8 + f("theta3") ** 8 + f("theta4") ** 8)
            .scale(half),
            f("E4"))),
        ("Theta_E8 = E4", lambda: (e8(), f("E4"))),
        ("P0 = (theta2(2t)^8 + theta3(2t)^8 + theta4(2t)^8)/2", lambda: (
            f("P0"),
            (f("theta2", 2) ** 8 + f("theta3", 2) ** 8
             + f("theta4", 2) ** 8).scale(half))),
        ("Peven = 135 (theta2(2t)^8 + theta3(2t)^8 - theta4(2t)^8)/2",
         lambda: (
             f("Peven"),
             (f("theta2", 2) ** 8 + f("theta3", 2) ** 8
              - f("theta4", 2) ** 8).scale(Fraction(135, 2)))),
        ("Podd = 120 (theta2(2t)^6 theta3(2t)^2 + "
         "theta2(2t)^2 theta3(2t)^6)/2", lambda: (
             f("Podd"),
             (f("theta2", 2) ** 6 * f("theta3", 2) ** 2
              + f("theta2", 2) ** 2 * f("theta3", 2) ** 6)
             .scale(Fraction(120, 2)))),
    ]
    return VerifyReport(suite="section1",
                        results=[compare(name, build, trunc)
                                 for name, build in identities])

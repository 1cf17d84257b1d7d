"""Constructors for the named q-expansions and the weight identities
relating them.

Every form is produced as an exact QSeries over Q on the 1/48 exponent
grid: the three Jacobi theta constants, the quasi-modular E2, the
Eisenstein E4, the eta product and the odd-divisor forms e1 and F.  The
derived forms (Theta = theta3(2*tau) and the three weight-4 combinations
P0 / Peven / Podd) are expanded from their trees in
``formexpr.DERIVED_FORMS``.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .errors import InstantonZetaError
from .formexpr import DERIVED_FORMS, _exact
from .qseries import DEFAULT_DENOM, QQ, QSeries
from .report import IdentityResult, VerifyReport


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
        clone._perturbations = dict(self._perturbations)
        key = name
        bucket = clone._perturbations.setdefault(key, [])
        bucket.append((Fraction(exponent), Fraction(delta)))
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
        if name in DERIVED_FORMS:
            return _exact(DERIVED_FORMS[name], trunc, "E2", self)
        n_int = int(trunc)
        if name == "E2":
            sig = sigma_table(n_int, 1)
            pairs = [(0, 1)] + [(n, -24 * sig[n]) for n in range(1, n_int + 1)]
        elif name == "E4":
            sig = sigma_table(n_int, 3)
            pairs = [(0, 1)] + [(n, 240 * sig[n]) for n in range(1, n_int + 1)]
        elif name == "e1":
            sig = sigma_odd_table(n_int)
            pairs = [(0, Fraction(-1, 6))] + [(n, -4 * sig[n])
                                              for n in range(1, n_int + 1)]
        elif name == "F":
            sig = sigma_table(n_int, 1)
            pairs = [(n, sig[n]) for n in range(1, n_int + 1, 2)]
        elif name == "theta3":
            pairs = [(0, 1)]
            k = 1
            while Fraction(k * k, 2) <= trunc:
                pairs.append((Fraction(k * k, 2), 2))
                k += 1
        elif name == "theta4":
            pairs = [(0, 1)]
            k = 1
            while Fraction(k * k, 2) <= trunc:
                pairs.append((Fraction(k * k, 2), 2 if k % 2 == 0 else -2))
                k += 1
        elif name == "theta2":
            pairs = []
            k = 0
            while Fraction((2 * k + 1) ** 2, 8) <= trunc:
                pairs.append((Fraction((2 * k + 1) ** 2, 8), 2))
                k += 1
        elif name == "eta":
            if trunc < Fraction(1, 24):
                return QSeries.zero(QQ, trunc, DEFAULT_DENOM)
            prod = QSeries.constant(QQ, 1, trunc - Fraction(1, 24))
            n = 1
            while n <= prod.trunc:
                prod = prod * QSeries.from_pairs(
                    QQ, [(0, 1), (n, -1)], prod.trunc, 1)
                n += 1
            return prod.shift_exp(Fraction(1, 24)).lift(DEFAULT_DENOM)
        else:
            raise InstantonZetaError(f"unknown form name {name!r}")
        return QSeries.from_pairs(QQ, pairs, trunc, DEFAULT_DENOM)


_DEFAULT = FormProvider()


def gen_form(name, trunc, scaling=1, provider=None):
    return (provider or _DEFAULT).series(name, trunc, scaling)


def p_weight(kind, trunc, provider=None):
    if kind not in ("P0", "Peven", "Podd"):
        raise InstantonZetaError(f"unknown weight kind {kind!r}")
    return (provider or _DEFAULT).series(kind, trunc)


def verify_section1(trunc, provider=None, e8_theta_fn=None):
    """Check the quasi-modular and theta identities coefficientwise up to
    the requested order.  ``e8_theta_fn(trunc)`` supplies the rank-8 root
    lattice theta series; the import happens lazily to keep this module
    free of the lattice machinery."""
    trunc = Fraction(trunc)
    if trunc < 1:
        raise ValueError("trunc must be at least 1")
    p = provider or _DEFAULT

    def f(name, scaling=1, order=trunc):
        return p.series(name, order, scaling)

    def divisor_lhs(signed):
        n_int = int(trunc)
        pairs = []
        for n in range(1, n_int + 1):
            total = 0
            for d in range(1, n + 1):
                if n % d == 0 and (n // d) % 2 == 1:
                    total += (-d if (signed and d % 2) else d)
            pairs.append((n, total))
        return QSeries.from_pairs(QQ, pairs, trunc, 1)

    sixth = Fraction(1, 6)

    def checks():
        e2, e2_2, e2_4 = f("E2"), f("E2", 2), f("E2", 4)
        yield ("e1 = -(1/6)(-E2 + 2 E2(2t))",
               f("e1"), (-(-e2 + e2_2.scale(2))).scale(sixth))
        yield ("F = -(1/24)(E2 - 3 E2(2t) + 2 E2(4t))",
               f("F"),
               (e2 - e2_2.scale(3) + e2_4.scale(2)).scale(Fraction(-1, 24)))
        yield ("sum over odd-cofactor divisors = (E2(2t) - E2)/24",
               divisor_lhs(False), (e2_2 - e2).scale(Fraction(1, 24)))
        yield ("signed odd-cofactor sum = (E2 - 5 E2(2t) + 4 E2(4t))/24",
               divisor_lhs(True),
               (e2 - e2_2.scale(5) + e2_4.scale(4)).scale(Fraction(1, 24)))
        th2, th3, th4 = f("theta2"), f("theta3"), f("theta4")
        big = f("BigTheta")
        ff = f("F")
        yield ("-6 e1 = (theta3^4 + theta4^4)/2",
               f("e1").scale(-6), (th3 ** 4 + th4 ** 4).scale(Fraction(1, 2)))
        yield ("-6 e1 = Theta^4 + 16 F",
               f("e1").scale(-6), big ** 4 + ff.scale(16))
        yield ("theta4(2t)^4 = Theta^4 - 16 F",
               f("theta4", 2) ** 4, big ** 4 - ff.scale(16))
        yield ("theta2(2t)^4 = 16 F", f("theta2", 2) ** 4, ff.scale(16))
        yield ("theta2^8 = 256 Theta^4 F",
               th2 ** 8, (big ** 4 * ff).scale(256))
        yield ("theta2^4 = theta3^4 - theta4^4",
               th2 ** 4, th3 ** 4 - th4 ** 4)
        e4 = f("E4")
        yield ("(theta2^8 + theta3^8 + theta4^8)/2 = E4",
               (th2 ** 8 + th3 ** 8 + th4 ** 8).scale(Fraction(1, 2)), e4)
        if e8_theta_fn is None:
            from .lattice import e8_theta_series
            e8 = e8_theta_series(trunc)
        else:
            e8 = e8_theta_fn(trunc)
        yield ("Theta_E8 = E4", e8, e4)
        t2d, t3d, t4d = f("theta2", 2), f("theta3", 2), f("theta4", 2)
        yield ("P0 = (theta2(2t)^8 + theta3(2t)^8 + theta4(2t)^8)/2",
               f("P0"),
               (t2d ** 8 + t3d ** 8 + t4d ** 8).scale(Fraction(1, 2)))
        yield ("Peven = 135 (theta2(2t)^8 + theta3(2t)^8 - theta4(2t)^8)/2",
               f("Peven"),
               (t2d ** 8 + t3d ** 8 - t4d ** 8).scale(Fraction(135, 2)))
        yield ("Podd = 120 (theta2(2t)^6 theta3(2t)^2 + "
               "theta2(2t)^2 theta3(2t)^6)/2",
               f("Podd"),
               (t2d ** 6 * t3d ** 2 + t2d ** 2 * t3d ** 6)
               .scale(Fraction(120, 2)))

    results = []
    for name, lhs, rhs in checks():
        t0 = time.perf_counter()
        diff = lhs.first_difference(rhs, upto=trunc)
        max_e = min(lhs.trunc, rhs.trunc, trunc)
        results.append(IdentityResult(
            name=name, max_exponent=max_e, passed=diff is None,
            first_difference=diff, seconds=time.perf_counter() - t0))
    return VerifyReport(suite="section1", results=results)

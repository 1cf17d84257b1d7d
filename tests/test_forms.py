import contextlib
import io
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instanton_zeta import cli, forms
from instanton_zeta.cli import FORM_LEAVES
from instanton_zeta.errors import InstantonZetaError
from instanton_zeta.formexpr import (CLOSED_FORMS, DERIVED_FORMS, TREES, Mul,
                                     Pow, leaf)
from instanton_zeta.forms import (DIVISOR_LEAVES, GAUSSIAN_LEAVES,
                                  FormProvider, as_qseries, double_sum,
                                  eta_pow_inverse, gen_form, sieve,
                                  verify_section1)
from instanton_zeta.lattice import zn_shell_counts_dp
from instanton_zeta.numeric import eval_form
from instanton_zeta.qseries import DEFAULT_DENOM, QQ, QSeries


def euler_product_eta(trunc):
    """eta = q^(1/24) prod_{n>=1} (1 - q^n) to trunc, multiplied out factor
    by factor: an independent oracle for the pentagonal sum."""
    trunc = Fraction(trunc)
    if trunc < Fraction(1, 24):
        return QSeries.zero(QQ, trunc, DEFAULT_DENOM)
    prod = QSeries.constant(QQ, 1, trunc - Fraction(1, 24))
    n = 1
    while n <= prod.trunc:
        prod = prod * QSeries.from_pairs(
            QQ, [(0, 1), (n, -1)], prod.trunc, 1)
        n += 1
    return prod.shift_exp(Fraction(1, 24)).lift(DEFAULT_DENOM)


@pytest.mark.parametrize("trunc", [0, Fraction(1, 48), Fraction(1, 25),
                                   Fraction(1, 24), Fraction(25, 24),
                                   Fraction(7, 2), 200])
def test_eta_pentagonal_sum_equals_euler_product(trunc):
    got = FormProvider().series("eta", trunc)
    want = euler_product_eta(trunc)
    assert got.pairs() == want.pairs()
    assert got.trunc == want.trunc and got.denom == want.denom


@pytest.mark.parametrize("scale", [Fraction(1, 2), 1, 2, 3])
@pytest.mark.parametrize("power", [1, 8, 12, 16, 24])
def test_eta_pow_inverse_equals_the_inverted_eta_power(scale, power):
    # the old route: the pentagonal eta to trunc + 2 lead, raised to the
    # power and inverted by Newton steps
    lead = Fraction(power, 24) * scale
    for trunc in (0, Fraction(7, 3), 12):
        got = eta_pow_inverse(scale, power, trunc)
        eta = gen_form("eta", trunc + 2 * lead, scale)
        want = (eta ** power).inverse().truncate(trunc)
        assert got.pairs() == want.pairs()
        assert got.trunc == want.trunc


@pytest.mark.parametrize("trunc", [0, Fraction(13, 2), 12])
def test_double_sum_is_the_signed_divisor_sum(trunc):
    # sum over m, n >= 1 of (-1)^m q^(mn) is sum_k (sum_(d | k) (-1)^d) q^k,
    # whose coefficient vanishes at k = 2, 6, 10
    got = double_sum(QQ, trunc, lambda m, n: (m * n, (-1) ** m))
    want = sieve(trunc, lambda k: sum((-1) ** d for d in range(1, k + 1)
                                      if k % d == 0))
    assert got.pairs() == want.pairs() and got.trunc == want.trunc


def test_every_leaf_has_one_definition():
    # each name the command line offers (the weight-2 slot E2hat aside) is
    # defined in exactly one table, and both evaluators read it
    tables = (DERIVED_FORMS, DIVISOR_LEAVES, GAUSSIAN_LEAVES)
    names = [name for name in FORM_LEAVES if name != "E2hat"]
    assert sorted(names) == sorted(name for t in tables for name in t)
    for name in names:
        assert sum(name in t for t in tables) == 1, name
        assert gen_form(name, 2).trunc == 2
        assert mp.isfinite(eval_form(leaf(name), 0.1 + 1.1j, 15, "E2"))
    with pytest.raises(ValueError, match="no numeric evaluator"):
        eval_form(leaf("E6"), 0.1 + 1.1j, 15, "E2")


def test_leaf_tables_within_the_kernel_bounds():
    # the hypotheses of the fixed-point error bounds in the numeric module
    # docstring
    for c0, w, table, degree in DIVISOR_LEAVES.values():
        sig = table(400)
        assert sig[1] == 1 and 0 < abs(w) <= 240
        assert all(abs(s) <= n ** degree for n, s in enumerate(sig))
    for m, c0, progressions in GAUSSIAN_LEAVES.values():
        assert c0 in (0, 1) and 1 <= len(progressions) <= 2
        for n0, d, c, _ in progressions:
            assert 0 < n0 <= d <= 6 and abs(c) <= 2


def test_e2_expansion():
    e2 = gen_form("E2", 3)
    assert [(e, c) for e, c in e2.pairs()] == [
        (0, 1), (1, -24), (2, -72), (3, -96)]


def test_theta2_expansion():
    th2 = gen_form("theta2", 2)
    assert th2.pairs() == [(Fraction(1, 8), 2), (Fraction(9, 8), 2)]


def test_f_form_odd_divisor_sums():
    f = gen_form("F", 5)
    assert f.pairs() == [(1, 1), (3, 4), (5, 6)]


def test_eta_coefficients():
    eta24 = gen_form("eta", 6) ** 24
    assert eta24.coeff(1) == 1
    assert eta24.coeff(2) == -24
    assert eta24.coeff(3) == 252
    assert eta24.coeff(4) == -1472


def test_bigtheta_is_dilated_theta3():
    big = gen_form("BigTheta", 9)
    th3 = gen_form("theta3", 9)
    assert big.first_difference(th3.dilate(2)) is None


def test_p0_expansion():
    p0 = gen_form("P0", 2)
    assert p0.pairs() == [(0, 1), (2, 240)]


def test_podd_leading():
    podd = gen_form("Podd", Fraction(1, 2))
    assert podd.pairs() == [(Fraction(1, 2), 240)]


def test_peven_constant_vanishes_and_q1():
    pev = gen_form("Peven", 2)
    assert pev.coeff(0) == 0
    assert pev.coeff(1) == 240 * 9  # 240 * sigma3(2)


def test_peven_via_explicit_composition():
    e4 = gen_form("E4", 4)
    comp = ((e4 + e4.half_period_shift()).dilate(Fraction(1, 2))
            .scale(Fraction(1, 2)) - e4.dilate(2))
    assert comp.first_difference(gen_form("Peven", 2), upto=2) is None


def test_form_power_takes_integer_exponents_only():
    # a non-integer exponent raises rather than truncating to an integer
    for n in (1.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            leaf("E4") ** n
    assert leaf("eta") ** -24 == Pow(leaf("eta"), -24)
    assert (leaf("eta") ** -24).n == -24


def test_unknown_form_rejected():
    with pytest.raises(InstantonZetaError):
        gen_form("E6", 4)


def test_gen_form_deterministic():
    a = gen_form("theta3", 7, Fraction(3, 2))
    b = gen_form("theta3", 7, Fraction(3, 2))
    assert a.terms == b.terms and a.denom == b.denom and a.trunc == b.trunc


def test_theta3_eighth_power_counts_lattice_points():
    th38 = gen_form("theta3", 6) ** 8
    counts = zn_shell_counts_dp((0,) * 8, None, 4 * 12)
    for n in range(13):
        # theta3^8 coefficient at q^(n/2) counts integer 8-vectors of norm n
        got = th38.coeff(Fraction(n, 2))
        want = counts.get(4 * n, 0)
        assert got == want, n


def test_verify_section1_passes():
    report = verify_section1(12)
    assert report.ok
    names = [r.name for r in report.results]
    assert len(names) == 15
    assert all(r.max_exponent == 12 for r in report.results)


def test_verify_section1_rejects_tiny_order():
    with pytest.raises(ValueError):
        verify_section1(Fraction(1, 2))


def test_negative_control_perturbed_e1():
    provider = FormProvider().perturbed("e1", 1, Fraction(1, 7))
    report = verify_section1(8, provider=provider)
    assert not report.ok
    first = next(r for r in report.results if not r.passed)
    assert first.name.startswith("e1 =")
    assert first.first_difference == 1


def test_negative_control_perturbed_theta():
    provider = FormProvider().perturbed("theta3", Fraction(1, 2), 1)
    report = verify_section1(8, provider=provider)
    assert not report.ok
    failing = [r for r in report.results if not r.passed]
    corollary = next(r for r in failing
                     if r.name == "theta2^4 = theta3^4 - theta4^4")
    assert corollary.first_difference == Fraction(1, 2)


def test_perturbed_leaves_the_provider_it_starts_from_unchanged():
    # a negative control built in steps: the second step must not reach
    # back into the first provider's perturbation list
    first = FormProvider().perturbed("e1", 1, Fraction(1, 7))
    second = first.perturbed("e1", 2, Fraction(1, 5))
    assert first._perturbations == {"e1": [(1, Fraction(1, 7))]}
    assert second._perturbations == {"e1": [(1, Fraction(1, 7)),
                                            (2, Fraction(1, 5))]}
    base = gen_form("e1", 4)
    assert first.series("e1", 4).coeff(2) == base.coeff(2)
    assert second.series("e1", 4).coeff(2) == base.coeff(2) + Fraction(1, 5)


def test_corollary_first_coefficient():
    # both sides of the quartic theta identity carry 16 at q^(1/2):
    # (2 q^(1/8))^4 on the left, 2 * 4 * theta3-cross-terms on the right
    th2 = gen_form("theta2", 1)
    th3 = gen_form("theta3", 1)
    th4 = gen_form("theta4", 1)
    assert (th2 ** 4).coeff(Fraction(1, 2)) == 16
    assert (th3 ** 4 - th4 ** 4).coeff(Fraction(1, 2)) == 16


def test_denominator_preserved_by_ring_ops():
    a = gen_form("theta2", 3)         # D = 48
    b = gen_form("theta3", 3)
    assert (a * b).denom == 48 and (a + b).denom == 48
    assert (a * a).denom == 48


# -- the named trees, cached per provider and truncation -----------------------

AVERAGED = ("Z0", "Z_even", "Z_odd")
SERIES_FORMS = ("Z_SU2", "Z_SO3", *AVERAGED)


def test_each_averaged_tree_is_walked_once_per_provider_and_order(
        monkeypatch):
    # a walk of a named tree starts at the table's tree object
    roots = {id(TREES[n]): n for n in SERIES_FORMS}
    walks = {n: 0 for n in SERIES_FORMS}
    exact = forms._exact

    def counting(node, trunc, provider):
        if id(node) in roots:
            walks[roots[id(node)]] += 1
        return exact(node, trunc, provider)

    monkeypatch.setattr(forms, "_exact", counting)
    monkeypatch.setattr(forms, "DEFAULT_PROVIDER", FormProvider())
    for _ in range(2):
        for name in SERIES_FORMS:
            as_qseries(leaf(name), 12)
    assert walks == {n: 1 for n in SERIES_FORMS}
    FormProvider().series("Z_SO3", 14)
    assert walks == {"Z_SU2": 1, "Z_SO3": 2, **{n: 2 for n in AVERAGED}}


class _Forgetful(dict):
    """A cache that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def _forgetful():
    """A provider that reads no named tree from its cache: it walks every
    tree afresh wherever a name occurs."""
    provider = FormProvider()
    provider._cache = _Forgetful()
    return provider


def _uncached(expr, trunc):
    """``as_qseries`` through a forgetful provider: the plain walk of every
    tree."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forms, "DEFAULT_PROVIDER", _forgetful())
        return as_qseries(expr, trunc)


def _same(a, b):
    return (a.pairs(), a.trunc, a.denom) == (b.pairs(), b.trunc, b.denom)


# the product of two averaged forms, each with a q^-1 head, loses one more
# order than the margin covers, so ``as_qseries`` retries it wider
_READS = {**{n: leaf(n) for n in SERIES_FORMS},
          "Z_SU2 tree": CLOSED_FORMS["Z_SU2"],
          "Z_SO3 tree": CLOSED_FORMS["Z_SO3"],
          "Z0^2": Pow(leaf("Z0"), 2),
          "Z_even Z_odd": Mul((leaf("Z_even"), leaf("Z_odd")))}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(sorted(_READS)),
                          st.fractions(-1, 6, max_denominator=4)),
                min_size=1, max_size=5),
       st.integers(-1, 4), st.fractions(-3, 3).filter(bool))
def test_cached_closed_forms_equal_fresh_expansions(reads, exponent, delta):
    provider = FormProvider()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forms, "DEFAULT_PROVIDER", provider)
        for name, order in reads:
            got = as_qseries(_READS[name], order)
            assert _same(got, _uncached(_READS[name], order)), (name, order)
        su2 = provider.series("Z_SU2", 6)
        # eval --series --form Zw0 fails as before and caches no closed form
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["eval", "--form", "Zw0", "--series",
                             "--order", "3"])
        assert (code, stderr.getvalue()) == (
            1, "error: imaginary scalar weight has no rational q-series\n")
    # every cached closed form is a fresh walk at its order
    cached = [(k, v) for k, v in provider._cache.items()
              if k[0] in CLOSED_FORMS]
    assert {k[0] for k, _ in cached} <= set(SERIES_FORMS)
    for (name, scaling, trunc), series in cached:
        fresh = _forgetful().series(name, trunc, scaling)
        assert _same(series, fresh), (name, trunc)
    # a perturbed clone builds its own entries; the provider it starts
    # from keeps its own
    clone = provider.perturbed("Z0", exponent, delta)
    assert clone._cache == {}
    diff = clone.series("Z_SU2", 6) - su2
    assert diff.pairs() == [(exponent, delta / 2)]
    assert _same(provider.series("Z_SU2", 6), su2)

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instanton_zeta
import instanton_zeta.numeric as numeric
from instanton_zeta.errors import PrecisionError
from instanton_zeta.formexpr import (CLOSED_FORMS, DERIVED_FORMS, TREES, Add,
                                     E2Slot, Leaf, Mul, Pow, Scal, leaf)
from instanton_zeta.forms import (DIVISOR_LEAVES, GAUSSIAN_LEAVES, as_qseries,
                                  gen_form, sigma_odd_n_table,
                                  sigma_odd_table, sigma_table)
from instanton_zeta.numeric import (MAX_TERMS, MIN_IM, eval_form,
                                    sduality_check)

TAU = mp.mpc(0.13, 1.21)


def _close(a, b, digits):
    return abs(a - b) < mp.mpf(10) ** (-digits)


def _qpow(tau, exponent):
    """exp(2 pi i tau * exponent) for rational exponent (branch-free)."""
    e = Fraction(exponent)
    return mp.exp(2j * mp.pi * tau * mp.mpf(e.numerator) / e.denominator)


def eval_exact_series_at(series, tau, digits=40):
    """Sum a truncated exact series at q = exp(2 pi i tau); used for
    exact-vs-numeric consistency checks (accuracy limited by the series
    truncation, not by digits)."""
    tau = mp.mpc(tau)
    with mp.workdps(digits + 15):
        total = mp.mpc(0)
        for e, c in series.pairs():
            c = Fraction(c)
            total += (mp.mpf(c.numerator) / c.denominator) * _qpow(tau, e)
    return total


# -- oracle: the mpmath loops that the fixed-point kernels replaced -----------

def _tail_bound(absq, n, degree):
    """The divisor tail bound |q|^(n+1)/(1-|q|) * (n+2)^degree * 2^bitlen(n),
    the margin doubling with n (crude cover for subexponential growth)."""
    return (absq ** (n + 1) / (1 - absq) * mp.mpf(n + 2) ** degree
            * 2 ** n.bit_length())


def _tail_cutoff(absq, eps, degree):
    """The cutoff rule in mpf: the smallest N on the grid 4 * 2^k whose tail
    bound lies below eps."""
    n = 4
    while n < MAX_TERMS:
        if _tail_bound(absq, n, degree) < eps:
            return n
        n *= 2
    raise PrecisionError("requested precision unreachable")


def oracle_eta(q, eps):
    absq = abs(q)
    n_max = _tail_cutoff(absq, eps, 1)
    prod = mp.mpc(1)
    qn = q
    for _ in range(n_max):
        prod *= 1 - qn
        qn *= q
        if abs(qn) < eps * 0.01:
            break
    return prod


def oracle_theta(tau, kind, eps):
    q8 = mp.exp(mp.pi * 1j * tau / 4)
    if kind == "theta2":
        total = mp.mpc(0)
        k = 0
        while True:
            term = 2 * q8 ** ((2 * k + 1) ** 2)
            total += term
            if abs(term) < eps * 0.01:
                return total
            k += 1
            if k > MAX_TERMS:
                raise PrecisionError("theta sum did not converge")
    total = mp.mpc(1)
    k = 1
    while True:
        term = 2 * q8 ** (4 * k * k)
        if kind == "theta4" and k % 2:
            term = -term
        total += term
        if abs(term) < eps * 0.01:
            return total
        k += 1
        if k > MAX_TERMS:
            raise PrecisionError("theta sum did not converge")


def oracle_eisenstein(q, weight_coeff, sig_fn, eps, degree):
    absq = abs(q)
    n_max = _tail_cutoff(absq, eps / max(abs(weight_coeff), 1), degree)
    sig = sig_fn(n_max)
    total = mp.mpc(1)
    qn = mp.mpc(1)
    for n in range(1, n_max + 1):
        qn *= q
        total += weight_coeff * sig[n] * qn
    return total


def oracle_leaf(name, tau, eps):
    """One primitive leaf through the oracle loops: eta as q^(1/24) times
    the Euler product, the thetas as plain Gaussian sums, and the divisor
    leaves as the Eisenstein-type sums 1 + w sum s(n) q^n they were first
    written as."""
    q = mp.exp(2j * mp.pi * tau)
    if name == "eta":
        return mp.exp(2j * mp.pi * tau / 24) * oracle_eta(q, eps)
    if name in ("theta2", "theta3", "theta4"):
        return oracle_theta(tau, name, eps)
    if name == "E2":
        return oracle_eisenstein(q, -24, sigma_table, eps, 2)
    if name == "E4":
        return oracle_eisenstein(q, 240, lambda n: sigma_table(n, 3), eps, 4)
    if name == "e1":
        return -oracle_eisenstein(q, 24, sigma_odd_table, eps, 2) / 6
    if name == "F":
        return oracle_eisenstein(q, 1, sigma_odd_n_table, eps, 2) - 1
    raise ValueError(name)


KERNEL_LEAVES = ("E2", "E4", "e1", "F", "eta", "theta2", "theta3", "theta4")


def _kernel_against_oracle(name, tau, digits):
    """One leaf through the fixed-point kernels and through the oracle
    loops, at eval_form's working precision and tolerance; returns the
    kernel value."""
    with mp.workdps(digits + 15):
        eps = mp.mpf(10) ** (-(digits + 5))
        got = eval_form(leaf(name), tau, digits, "E2")
        want = oracle_leaf(name, tau, eps)
        assert abs(got - want) <= eps * max(1, abs(want)), (name, tau, digits)
    return got


@pytest.mark.parametrize("name", KERNEL_LEAVES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from([-0.5, 0.5]), st.floats(-0.5, 0.5)),
       st.one_of(st.just(MIN_IM), st.floats(MIN_IM, 0.5),
                 st.floats(0.5, 4.0)),
       st.booleans(), st.integers(10, 1000))
def test_kernel_leaves_match_oracle(name, x, y, half_shift, digits):
    # half_shift: the argument tau + 1/2 that a half-shifted leaf sees
    tau = mp.mpc(x, y) + (mp.mpf(1) / 2 if half_shift else 0)
    _kernel_against_oracle(name, tau, digits)


@pytest.mark.parametrize("name", KERNEL_LEAVES)
def test_kernel_leaves_at_minimum_im_and_1000_digits(name):
    # the longest sums: N = 8192 terms for every divisor leaf and for the
    # oracle's eta product
    _kernel_against_oracle(name, mp.mpc(0, MIN_IM), 1000)


def _odd_divisor_form(q, n_max):
    """F = sum over odd n of sigma_1(n) q^n, straight from the divisors."""
    return mp.fsum(sum(d for d in range(1, n + 1) if n % d == 0) * q ** n
                   for n in range(1, n_max + 1, 2))


def test_kernel_leaves_where_q_rounds_to_zero():
    # far above the real axis q lies below the fixed-point grid of the
    # kernels, and so does x = q^(1/m) up to the first power that the
    # Gaussian sums step by.  E2, E4, theta3 and theta4 are then exactly 1,
    # and e1 exactly -1/6.  eta, theta2 and F have no constant term; each
    # keeps its relative accuracy (theta2 is about 9e-103 and F about
    # 2e-819 at 300i) against references independent of the kernels: the
    # oracle F, oracle_eisenstein(...) - 1, is only accurate to eps there.
    for tau, digits in ((mp.mpc(0.3, 300), 10), (mp.mpc(0.1, 130), 40)):
        got = {name: _kernel_against_oracle(name, tau, digits)
               for name in KERNEL_LEAVES}
        with mp.workdps(digits + 15):
            assert (got["E2"] == got["E4"] == got["theta3"] == got["theta4"]
                    == 1)
            assert got["e1"] == mp.mpc(-1) / 6
            assert got["eta"] == mp.exp(2j * mp.pi * tau / 24)
        with mp.workdps(digits + 40):
            q = mp.exp(2j * mp.pi * tau)
            want = {"theta2": mp.jtheta(2, 0, mp.exp(1j * mp.pi * tau)),
                    "eta": mp.exp(2j * mp.pi * tau / 24) * mp.qp(q),
                    "F": _odd_divisor_form(q, 15)}
            tol = mp.mpf(10) ** -digits
            for name, value in want.items():
                assert value != 0
                assert abs(got[name] - value) < tol * abs(value), (name, tau)


# -- oracle: one exponential per leaf and the cutoff from |q| ---------------

def _exact_cutoff(q, eps, w, lead, degree):
    absq = abs(q)
    return _tail_cutoff(absq, eps * (absq if lead else 1) / abs(w), degree)


def reduced(w, q):
    """w with its real part moved into [-q/2, q/2] by an integer multiple
    of q, a period of exp(2 pi i w / q)."""
    if abs(float(w.real)) <= q / 2:
        return w
    return w - q * mp.nint(w.real / q)


def per_leaf_recipe(name, tau, eps):
    """A primitive leaf as each kernel once computed it alone: its own
    mp.exp for the nome, at its argument with the real part reduced by the
    nome's period, and the divisor cutoff from abs(q) by the mpf rule."""
    tau = reduced(tau, _modulus(name))
    if name in DIVISOR_LEAVES:
        c0, w, _, degree = DIVISOR_LEAVES[name]
        q = mp.exp(2j * mp.pi * tau)
        return numeric._eisenstein(
            name, q, _exact_cutoff(q, eps, w, 0 if c0 else 1, degree))
    m, c0, progressions = GAUSSIAN_LEAVES[name]
    return numeric._gauss_sums(mp.exp(2j * mp.pi * tau / m),
                               ((c0, progressions),), eps)[0]


_IM_TAU = st.one_of(st.just(MIN_IM), st.floats(MIN_IM, 2.0),
                    st.floats(2.0, 300.0), st.just(300.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-0.5, 0.5), _IM_TAU, st.integers(10, 1000),
       st.sampled_from([2, 4]), st.sampled_from([0, 1]),
       st.sampled_from([-24, 240, -4, 1]))
def test_screened_cutoff_is_the_exact_rule(x, y, digits, degree, lead, w):
    tau = mp.mpc(x, y)
    with mp.workdps(digits + 15):
        eps = mp.mpf(10) ** (-(digits + 5))
        q = numeric._nome(tau, 1)
        assert (numeric._divisor_cutoff(y, eps, w, lead, degree)
                == _exact_cutoff(q, eps, w, lead, degree))


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("lead", [0, 1])
def test_screened_cutoff_at_a_grid_boundary(degree, lead):
    # a target equal to the bound at N: the float log of the bound over the
    # target is about 0, too near to accept N, so the rule moves on to 2N
    tau = mp.mpc(0.21, 0.37)
    with mp.workdps(55):
        absq = abs(numeric._nome(tau, 1))
        for n in (4, 8, 16, 32, 64, 128):
            bound = _tail_bound(absq, n, degree)
            eps = bound / absq if lead else bound
            assert numeric._divisor_cutoff(0.37, eps, 1, lead,
                                           degree) == 2 * n, n


@pytest.mark.parametrize("lead", [0, 1])
def test_divisor_cutoff_raises_where_no_grid_point_meets_the_target(lead):
    # the last grid point below MAX_TERMS meets a target of twice its bound;
    # half its bound leaves no N below the cap, an error and not a silent
    # loss of digits
    n = 4
    while 2 * n < MAX_TERMS:
        n *= 2
    with mp.workdps(30):
        absq = mp.exp(-2 * mp.pi * MIN_IM)
        bound = _tail_bound(absq, n, 4) / (absq if lead else 1)
        assert numeric._divisor_cutoff(MIN_IM, 2 * bound, 1, lead, 4) == n
        with pytest.raises(PrecisionError, match="truncation cap"):
            numeric._divisor_cutoff(MIN_IM, bound / 2, 1, lead, 4)


def test_eval_form_raises_where_the_divisor_cap_is_too_low():
    with pytest.raises(PrecisionError, match="truncation cap"):
        eval_form(leaf("E4"), complex(0, MIN_IM), 30000)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.floats(-0.5, 0.5), _IM_TAU, st.booleans(), st.integers(10, 1000))
def test_eval_form_of_a_leaf_matches_the_per_leaf_recipe(x, y, half_shift,
                                                        digits):
    # bit for bit: a program of one unshifted leaf takes its nome at its own
    # argument, and its cutoff agrees with the mpf rule
    tau = mp.mpc(x, y) + (mp.mpf(1) / 2 if half_shift else 0)
    with mp.workdps(digits + 15):
        eps = mp.mpf(10) ** (-(digits + 5))
        for name in KERNEL_LEAVES:
            got = eval_form(leaf(name), tau, digits, "E2")
            assert got._mpc_ == per_leaf_recipe(name, tau, eps)._mpc_, name


# theta2(3 tau) has the unit 3/8, a numerator above 1
_PERIODIC = {**CLOSED_FORMS, "theta2(3 tau)": leaf("theta2", 3)}


@pytest.mark.parametrize("name", list(_PERIODIC))
def test_a_period_of_the_root_nome_leaves_every_value_unchanged(name):
    # x = exp(2 pi i w / q), w = p tau for the unit u = p / q, has period q
    # in tau; eval_form reduces Re w exactly, so a real part of 48 * 10^29
    # costs no digit
    expr = _PERIODIC[name]
    period = numeric._program(expr).unit.denominator
    with mp.workprec(300):
        tau0 = mp.mpc(mp.mpf(1) / 4, mp.mpf("1.1"))
        shifted = [tau0 + k * period for k in (10 ** 8, 10 ** 29)]
    for mode in ("anomaly", "E2"):
        want = eval_form(expr, tau0, 40, mode)._mpc_
        for tau in shifted:
            assert eval_form(expr, tau, 40, mode)._mpc_ == want, (tau, mode)


def test_precision_constants_follow_every_switch_of_precision():
    # the nome's 2 pi i, eval_form's eps and the S-duality threshold are
    # built once per working precision; moving the precision down, up and
    # back must still give the direct expressions bit for bit
    tau = mp.mpc(0.17, 1.09)
    for digits in (40, 20, 300, 40):
        with mp.workdps(digits + 15):
            eps = mp.mpf(10) ** (-(digits + 5))
            threshold = mp.mpf(10) ** (-(digits - min(10, digits // 2)))
            assert ([c._mpf_ for c in numeric._tolerances(digits)]
                    == [eps._mpf_, threshold._mpf_]), digits
            for m in (1, 8, 24):
                assert (numeric._nome(tau, m)._mpc_
                        == mp.exp(2j * mp.pi * tau / m)._mpc_), (digits, m)
            for name in KERNEL_LEAVES:
                got = eval_form(leaf(name), tau, digits, "E2")
                assert got._mpc_ == per_leaf_recipe(name, tau, eps)._mpc_, (
                    digits, name)


# -- oracle: the recursive tree walk that the compiled program replaced --------

def leaf_at(name, tt, eps, x=None):
    """A primitive leaf at the argument tt through the kernels, at its own
    nome exp(2 pi i tt / m) or at the nome x given."""
    if x is None:
        x = numeric._nome(tt, _modulus(name))
    if name in DIVISOR_LEAVES:
        return numeric._divisor(name, x, float(tt.imag), eps)
    _, c0, progressions = GAUSSIAN_LEAVES[name]
    return numeric._gauss_sums(x, ((c0, progressions),), eps)[0]


def _walk_leaf(name, tt, at, eps, e2_mode, values, nome):
    key = (name, tt, eps)
    if key not in values:
        if name in TREES:
            values[key] = walk_node(TREES[name], tt, eps, e2_mode, values,
                                    nome, at)
        else:
            values[key] = leaf_at(name, tt, eps,
                                  nome(name, *at) if nome else None)
    return values[key]


def walk_node(node, tau, eps, e2_mode, values, nome=None,
              at=(Fraction(1), Fraction(0))):
    """Value of an expression tree, revisiting every occurrence of a
    subtree; ``values`` holds the leaf values already computed, keyed on
    (name, argument, eps), a named tree walked at its leaf's argument.
    ``at`` is (r, s), the node's argument r tau0 + s over the root tau0, and
    ``nome(name, r, s)``, when given, is the nome a leaf there reads."""
    if isinstance(node, (Leaf, E2Slot)):
        tt = tau * mp.mpf(node.scale.numerator) / node.scale.denominator
        if node.half_shift:
            tt = tt + mp.mpf(1) / 2
        r, s = at
        inner = (node.scale * r, node.scale * s + Fraction(node.half_shift, 2))
        val = _walk_leaf(node.name, tt, inner, eps, e2_mode, values, nome)
        if isinstance(node, E2Slot) and e2_mode == "anomaly":
            val -= 3 / (mp.pi * mp.im(tt))
        return val
    children = (node.children if isinstance(node, (Add, Mul)) else
                (node.base,) if isinstance(node, Pow) else (node.child,))
    vals = [walk_node(c, tau, eps, e2_mode, values, nome, at)
            for c in children]
    if isinstance(node, Add):
        return mp.fsum(vals)
    if isinstance(node, Mul):
        out = mp.mpc(1)
        for v in vals:
            out *= v
        return out
    if isinstance(node, Pow):
        return vals[0] ** node.n
    w = (mp.mpc(node.re.numerator) / node.re.denominator
         + 1j * mp.mpc(node.im.numerator) / node.im.denominator)
    return w * vals[0]


def _modulus(name):
    return GAUSSIAN_LEAVES[name][0] if name in GAUSSIAN_LEAVES else 1


def _primitive_leaves(node, r, s):
    """(name, r, s) of every primitive leaf under ``node`` at the argument
    r tau + s, the named trees expanded."""
    if isinstance(node, (Leaf, E2Slot)):
        r, s = node.scale * r, node.scale * s + Fraction(node.half_shift, 2)
        if node.name in TREES:
            yield from _primitive_leaves(TREES[node.name], r, s)
        else:
            yield node.name, r, s
        return
    for value in vars(node).values():
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, (Leaf, E2Slot, Add, Mul, Pow, Scal)):
                yield from _primitive_leaves(child, r, s)


def power_rule(expr, tau):
    """The nome of each leaf by the x^k rule, rebuilt from the tree: x =
    exp(2 pi i u tau) for the largest rational u dividing every r / m, x^k
    as the square of x^(k/2) or x^(k-1) x, and the phase exp(2 pi i s / m)
    as a sign or a product.  x is taken at u tau with its real part reduced
    into [-1/2, 1/2]."""
    ratios = [r / _modulus(name)
              for name, r, _ in _primitive_leaves(expr, Fraction(1), 0)]
    den = math.lcm(*(e.denominator for e in ratios))
    unit = Fraction(math.gcd(*(int(e * den) for e in ratios)), den)
    powers = {1: numeric._nome(reduced(tau * unit.numerator,
                                       unit.denominator), unit.denominator)}

    def power(k):
        if k not in powers:
            powers[k] = (power(k // 2) * power(k // 2) if k % 2 == 0
                         else power(k - 1) * powers[1])
        return powers[k]

    def nome(name, r, s):
        m = _modulus(name)
        x, phase = power(int(r / m / unit)), s / m % 1
        if phase == 0:
            return x
        if phase == Fraction(1, 2):
            return -x
        return x * numeric._nome(phase.numerator, phase.denominator)

    return nome


def walk_form(expr, tau, digits, e2_mode, rule=None):
    """eval_form through the recursive walk: each leaf with its own nome at
    its argument, or with the nome that ``rule(expr, tau)`` gives it."""
    tau = mp.mpc(tau)
    with mp.workdps(digits + 15):
        eps = mp.mpf(10) ** (-(digits + 5))
        nome = rule(expr, tau) if rule else None
        return walk_node(expr, tau, eps, e2_mode, {}, nome)


def _outcome(evaluate, *args):
    """The raw value of an evaluation, or the type of what it raised."""
    try:
        return evaluate(*args)._mpc_
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


NAMED_LEAVES = (*DIVISOR_LEAVES, *GAUSSIAN_LEAVES, *TREES)
_SCALES = (Fraction(1, 2), Fraction(1), Fraction(2))
_FRACTIONS = st.fractions(-7, 7, max_denominator=12)


def _repeated(parts):
    # one subtree at three places: as a factor, a summand and a power base
    a, b = parts
    return Mul((a, Add((b, a)), Pow(a, 2)))


_TREES = st.recursive(
    st.one_of(
        st.builds(Leaf, st.sampled_from(NAMED_LEAVES),
                  st.sampled_from(_SCALES), st.sampled_from((0, 1))),
        st.builds(E2Slot, st.sampled_from(_SCALES))),
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(
            lambda c: Add(tuple(c))),
        st.lists(kids, min_size=1, max_size=3).map(
            lambda c: Mul(tuple(c))),
        st.builds(Pow, kids, st.sampled_from((-3, -2, -1, 0, 1, 2))),
        st.builds(Scal, _FRACTIONS, _FRACTIONS.filter(bool), kids),
        st.tuples(kids, kids).map(_repeated)),
    max_leaves=8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_TREES, st.sampled_from([mp.mpc(0.13, 1.21), mp.mpc(-0.41, 0.93),
                                mp.mpc(0, 1)]),
       st.sampled_from([20, 40]))
def test_compiled_program_matches_the_tree_walk(expr, tau, digits):
    # bit for bit, with the walk reading its nomes by the x^k rule: in both
    # slot modes, shared subtrees, inlined derived forms and the exceptions
    # of a zero raised to a negative power included
    for mode in ("anomaly", "E2"):
        assert (_outcome(eval_form, expr, tau, digits, mode)
                == _outcome(walk_form, expr, tau, digits, mode,
                            power_rule)), mode


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_closed_forms_match_the_tree_walk(name):
    expr = CLOSED_FORMS[name]
    for tau in (mp.mpc(0, 1), mp.mpc(0.3, 1.1), mp.mpc(-0.2, 0.9)):
        for digits in (20, 40, 300):
            for mode in ("anomaly", "E2"):
                got = eval_form(expr, tau, digits, mode)
                want = walk_form(expr, tau, digits, mode, power_rule)
                assert got._mpc_ == want._mpc_, (tau, digits, mode)


def magnitude(node, tau, eps, e2_mode, values):
    """An error scale of the walked value, |value| where no sum cancels: a
    sum adds its terms' scales, a product multiplies them, and a power
    raises the base's ratio of scale to size to |n|, with the named trees
    expanded.  Leaves accurate to eps relative leave the value within about
    eps times this scale."""
    if isinstance(node, (Leaf, E2Slot)):
        tt = tau * mp.mpf(node.scale.numerator) / node.scale.denominator
        if node.half_shift:
            tt = tt + mp.mpf(1) / 2
        if node.name in TREES:
            return magnitude(TREES[node.name], tt, eps, e2_mode, values)
        size = abs(_walk_leaf(node.name, tt, None, eps, e2_mode, values,
                              None))
        if isinstance(node, E2Slot) and e2_mode == "anomaly":
            size += 3 / (mp.pi * mp.im(tt))
        return size
    children = (node.children if isinstance(node, (Add, Mul)) else
                (node.base,) if isinstance(node, Pow) else (node.child,))
    scales = [magnitude(c, tau, eps, e2_mode, values) for c in children]
    if isinstance(node, Add):
        return mp.fsum(scales)
    if isinstance(node, Mul):
        return mp.fprod(scales)
    if isinstance(node, Pow):
        if node.n >= 0:
            return scales[0] ** node.n
        size = abs(walk_node(node.base, tau, eps, e2_mode, values))
        return scales[0] ** -node.n / size ** (-2 * node.n)
    return abs(mp.mpc(mp.mpf(node.re.numerator) / node.re.denominator,
                      mp.mpf(node.im.numerator) / node.im.denominator)
               ) * scales[0]


def _agrees(expr, tau, digits, e2_mode):
    """eval_form within eps = 10^-(digits+5) of the walk with one nome per
    argument, relative to the walk's error scale above 1 and absolute
    below, or both raising the same exception type."""
    got = _outcome(eval_form, expr, tau, digits, e2_mode)
    want = _outcome(walk_form, expr, tau, digits, e2_mode)
    if isinstance(got, type) or isinstance(want, type):
        return got == want
    with mp.workdps(digits + 15):
        eps = mp.mpf(10) ** (-(digits + 5))
        scale = magnitude(expr, mp.mpc(tau), eps, e2_mode, {})
        diff = abs(mp.make_mpc(got) - mp.make_mpc(want))
        return diff <= eps * max(1, scale)


_ACCURACY_TAUS = st.one_of(
    st.builds(complex, st.floats(-0.5, 0.5), _IM_TAU),
    st.just(complex(123.4, 0.71)), st.just(complex(-101.25, 300.0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(list(CLOSED_FORMS.values())), _TREES),
       _ACCURACY_TAUS, st.integers(10, 1000))
def test_compiled_program_matches_the_per_leaf_nome_walk(expr, tau, digits):
    # the nomes x^k times a phase against one exponential per argument:
    # within eps, in both slot modes, far from the real axis, far along it
    # and up to 1000 digits.  Where a sum cancels, as the two halves of Zw1
    # or the E4 values in Peven do at large Im tau, the scale is the terms'
    for mode in ("anomaly", "E2"):
        assert _agrees(expr, tau, digits, mode), (mode, tau, digits)


def test_divisor_tables_are_built_once_per_cutoff(monkeypatch):
    # one sieve per (leaf, cutoff), however many points read it
    built = []
    sieve = DIVISOR_LEAVES["E4"]

    def counting(n_max):
        built.append(n_max)
        return sieve[2](n_max)

    monkeypatch.setitem(DIVISOR_LEAVES, "E4", (*sieve[:2], counting,
                                               sieve[3]))
    numeric._divisor_coefficients.cache_clear()
    for tau in (mp.mpc(0, 1), mp.mpc(0.2, 1), mp.mpc(0.4, 1)):
        eval_form(leaf("E4"), tau, 40)
    assert len(built) == 1
    numeric._divisor_coefficients.cache_clear()


def test_eval_form_reads_tau_at_the_working_precision():
    # a tau finer than a double, passed from the default context: it is
    # converted at digits + 15, not rounded to 53 bits first
    with mp.workdps(60):
        tau = mp.mpc(1, 9) / 7
    got = eval_form(leaf("E4"), tau, 40)
    with mp.workdps(60):
        want = eval_form(leaf("E4"), tau, 50)
        assert abs(got - want) < mp.mpf(10) ** -40 * abs(want)


@pytest.mark.parametrize("mode", ["anomally", "holomorphic", None])
def test_eval_form_refuses_an_unknown_slot_mode(mode):
    with pytest.raises(ValueError, match="'anomaly' or 'E2'"):
        eval_form(E2Slot(), TAU, 20, e2_mode=mode)


@pytest.mark.parametrize("resolution", ["anomally", "x"])
def test_sduality_check_refuses_an_unknown_resolution(resolution):
    with pytest.raises(ValueError, match="'anomaly' or 'E2'"):
        sduality_check(TAU, 20, resolution=resolution)


def test_theta3_at_i_closed_form():
    with mp.workdps(60):
        got = eval_form(leaf("theta3"), mp.mpc(0, 1), digits=45)
        want = mp.pi ** mp.mpf(0.25) / mp.gamma(mp.mpf(3) / 4)
        assert _close(got, want, 44)


def test_e2_at_i_is_three_over_pi():
    with mp.workdps(60):
        got = eval_form(leaf("E2"), mp.mpc(0, 1), digits=45)
        assert _close(got, 3 / mp.pi, 44)


def test_anomaly_slot_vanishes_at_i():
    with mp.workdps(60):
        got = eval_form(E2Slot(), mp.mpc(0, 1), digits=45, e2_mode="anomaly")
        assert abs(got) < mp.mpf(10) ** -44


def test_eta_product_vs_series_power():
    # eta summed numerically and raised to 24, against the exact series of
    # eta^24 (a product of exact pentagonal sums) summed numerically
    eta24 = gen_form("eta", 40) ** 24
    with mp.workdps(60):
        series_val = eval_exact_series_at(eta24, TAU, digits=45)
        prod_val = eval_form(Pow(leaf("eta"), 24), TAU, digits=45)
        assert _close(series_val, prod_val, 38)


def test_product_homomorphism_random_exprs():
    rng = random.Random(3)
    leaves = [leaf("theta2"), leaf("theta3"), leaf("theta4", 2),
              leaf("E4", Fraction(1, 2)), leaf("eta"), leaf("E2", 2)]
    with mp.workdps(55):
        for _ in range(12):
            parts = rng.sample(leaves, k=rng.randint(2, 4))
            prod_expr = Mul(tuple(parts))
            lhs = eval_form(prod_expr, TAU, digits=40)
            rhs = mp.mpc(1)
            for p in parts:
                rhs *= eval_form(p, TAU, digits=40)
            assert abs(lhs - rhs) < mp.mpf(10) ** -38 * max(1, abs(rhs))


def test_exact_vs_numeric_consistency_eisenstein():
    e4 = gen_form("E4", 60)
    with mp.workdps(55):
        series_val = eval_exact_series_at(e4, TAU, digits=40)
        num_val = eval_form(leaf("E4"), TAU, digits=40)
        # tail bound: |q|^61 * growth margin, far below 1e-30 at Im = 1.21
        assert abs(series_val - num_val) < mp.mpf(10) ** -30


def _closed_exprs():
    exprs = {name: leaf(name)
             for name in (*DERIVED_FORMS, *DIVISOR_LEAVES, *GAUSSIAN_LEAVES)}
    # every closed form with a q-series (Zw0 and Zw1 have none)
    exprs.update((name, CLOSED_FORMS[name])
                 for name in ("Z0", "Z_even", "Z_odd", "Z_SU2", "Z_SO3"))
    return exprs


@pytest.mark.parametrize("name", sorted(_closed_exprs()))
def test_exact_vs_numeric_derived_and_closed_forms(name):
    # both evaluators read the same table or tree; the q^12 truncation
    # tail is far below 1e-30 at Im tau >= 2
    expr = _closed_exprs()[name]
    series = as_qseries(expr, 12)
    with mp.workdps(55):
        for tau in (mp.mpc(0, 2), mp.mpc(0.3, 2.5)):
            exact = eval_exact_series_at(series, tau)
            num = eval_form(expr, tau, 40, e2_mode="E2")
            assert abs(exact - num) < mp.mpf(10) ** -30 * abs(num), tau


def test_exact_gauge_truncations_within_tail_bound():
    # Z_SU2 and Z_SO3 lead with q^-1, so their coefficients grow like
    # exp(4 pi sqrt(e)) (Hardy-Ramanujan-Rademacher).  The majorant
    # |c_e| <= exp(4 pi sqrt(e + 1)) is checked here on every coefficient to
    # q^24.  The exponents lie on the quarter grid, so the tail past the
    # truncation q^T at |q| = r is at most the sum of exp(4 pi sqrt(e + 1))
    # r^e over quarter steps e > T; at Im tau >= 2 each term is below half
    # the one before, so the summed terms plus the last one bound the rest.
    T = 8
    names = ("Z_SU2", "Z_SO3")
    short = {name: as_qseries(CLOSED_FORMS[name], T) for name in names}
    for name in names:
        for e, c in as_qseries(CLOSED_FORMS[name], 24).pairs():
            assert abs(c) <= math.exp(4 * math.pi * math.sqrt(e + 1)), e
    with mp.workdps(65):
        for tau in (mp.mpc(0, 2), mp.mpc(0.5, 2), mp.mpc(-0.31, 2.7)):
            r = mp.exp(-2 * mp.pi * mp.im(tau))
            terms = [mp.exp(4 * mp.pi * mp.sqrt(e + 1)) * r ** e
                     for e in (T + mp.mpf(k) / 4 for k in range(1, 41))]
            assert all(b < a / 2 for a, b in zip(terms, terms[1:]))
            tail = mp.fsum(terms) + terms[-1]
            for name in names:
                exact = eval_exact_series_at(short[name], tau, digits=50)
                num = eval_form(CLOSED_FORMS[name], tau, 50, e2_mode="E2")
                # the bound is tight enough to matter: 4e-29 at Im tau = 2,
                # where |Z| is about 1e4
                assert tail < mp.mpf(10) ** -20 * abs(num)
                assert abs(exact - num) <= tail + mp.mpf(10) ** -45 * abs(num)


def test_min_im_rejected():
    with pytest.raises(PrecisionError):
        eval_form(leaf("theta3"), mp.mpc(0, 0.01), digits=20)


@pytest.mark.parametrize("scale", [0, -1, Fraction(-1, 2)])
def test_nonpositive_leaf_scale_rejected(scale):
    # a leaf on or below the real axis has no convergent sum, and a power
    # x^k with k <= 0 has no chain: the compiler refuses it by name
    with pytest.raises(ValueError, match="must be positive"):
        eval_form(Add((leaf("theta3"), leaf("E4", scale))), TAU, 20)


def test_zw_sum_is_eta_inverse_power():
    w0, w1 = CLOSED_FORMS["Zw0"], CLOSED_FORMS["Zw1"]
    with mp.workdps(55):
        lhs = eval_form(w0, TAU, 40) + eval_form(w1, TAU, 40)
        rhs = eval_form(Pow(leaf("eta", Fraction(1, 2)), -12), TAU, 40)
        assert abs(lhs - rhs) < mp.mpf(10) ** -35 * abs(rhs)


@pytest.mark.parametrize("tau", [mp.mpc(0, 1), mp.mpc(0.3, 1.1),
                                 mp.mpc(-0.2, 0.9)])
def test_sduality_at_required_points(tau):
    report = sduality_check(tau, digits=40)
    assert report.passed
    assert report.rel_error < 1e-30
    assert report.seconds < 30


@pytest.mark.parametrize("tau", [mp.mpc(0, 1), mp.mpc(0.3, 1.1),
                                 mp.mpc(-0.2, 0.9)])
def test_sduality_at_ten_digits_rejects_the_holomorphic_slot(tau):
    # at the smallest --digits the threshold still separates the law from
    # the wrong one: the holomorphic slot's residual is above it
    report = sduality_check(tau, digits=10)
    assert report.passed
    assert sduality_check(tau, 10, "E2").rel_error > report.threshold


def test_sduality_check_leaves_results_unimported():
    # the check reads its two trees from formexpr, not from results
    src = os.path.dirname(os.path.dirname(instanton_zeta.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys\n"
            "from instanton_zeta.numeric import sduality_check\n"
            "assert sduality_check(1j).passed\n"
            "print('instanton_zeta.results' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _stratified_taus(seed, columns, rows):
    """One point drawn from each cell of a columns x rows grid over the
    truncated fundamental domain (|Re tau| <= 1/2, |tau| >= 1,
    Im tau <= 2.5), each followed by its S-image -1/tau: the layout of the
    benchmark's closed-forms sweep."""
    rng = random.Random(seed)
    y_lo, y_hi = math.sqrt(3) / 2, 2.5
    points = []
    for i in range(columns):
        for j in range(rows):
            while True:
                x = -0.5 + (i + rng.random()) / columns
                y = y_lo + (j + rng.random()) * (y_hi - y_lo) / rows
                if x * x + y * y >= 1:
                    break
            tau = complex(x, y)
            points.extend((tau, -1 / tau))
    return points


@pytest.mark.parametrize("seed", [2, 3])
def test_sduality_seeded_sweep(seed):
    for tau in _stratified_taus(seed, 3, 4):
        report = sduality_check(tau, digits=40)
        assert report.passed, (tau, report.rel_error_str)


@pytest.mark.parametrize("digits", [20, 300])
@pytest.mark.parametrize("seed", [2, 3])
def test_sduality_seeded_sweep_at_other_precisions(seed, digits):
    for tau in _stratified_taus(seed, 3, 4):
        report = sduality_check(tau, digits=digits)
        assert report.passed, (tau, digits, report.rel_error_str)


def test_sduality_holomorphic_mode_is_diagnostic():
    report = sduality_check(mp.mpc(0, 1), digits=30, resolution="E2")
    assert report.passed is None
    # the residual is genuinely large: the anomaly term matters
    assert report.rel_error > 1e-6


def test_sduality_check_evaluates_each_leaf_once_per_point(monkeypatch):
    # 17 distinct primitive (leaf, argument) pairs across Z_SU2(-1/tau) and
    # Z_SO3(tau), the derived forms inlined; evaluating every leaf
    # occurrence separately makes 36.  Each of the two evaluations takes one
    # exponential; its nomes are powers of it.  The 10 Gaussian leaves run
    # in 6 passes, one per nome, whose 12 progression loops include one
    # that theta3 and theta4 share; the 7 divisor leaves run one sum each
    nomes, passes, horner, loops = [], [], [], []
    nome, sums = numeric._nome, numeric._gauss_sums
    eisenstein, fixed_pow = numeric._eisenstein, numeric._fixed_pow

    def counting_nome(tau, m):
        nomes.append((tau, m))
        return nome(tau, m)

    def counting_sums(x, leaves, eps):
        passes.append(leaves)
        return sums(x, leaves, eps)

    def counting_horner(name, q, n_max):
        horner.append((name, q))
        return eisenstein(name, q, n_max)

    def counting_pow(zr, zi, e, p):
        loops.append(e)
        return fixed_pow(zr, zi, e, p)

    monkeypatch.setattr(numeric, "_nome", counting_nome)
    monkeypatch.setattr(numeric, "_gauss_sums", counting_sums)
    monkeypatch.setattr(numeric, "_eisenstein", counting_horner)
    monkeypatch.setattr(numeric, "_fixed_pow", counting_pow)
    report = numeric.sduality_check(mp.mpc(0.13, 1.21), digits=30)
    assert report.passed
    assert len(nomes) == 2
    thetas = tuple(GAUSSIAN_LEAVES[name][1:]
                   for name in ("theta3", "theta4", "theta2"))
    assert sorted(len(p) for p in passes) == [1, 1, 1, 1, 3, 3]
    assert passes.count(thetas) == 2
    assert len(horner) == 7
    # each progression loop builds its first term, step and step of step
    assert len(loops) == 3 * 12

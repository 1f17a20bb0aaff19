"""Scalar tests: sympy as the independent oracle of construction and
arithmetic, exact rational bounds (and sympy where they do not decide) of
sign, floor and order; and the guards around them."""

import copy
import pickle
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import floor, gcd, isqrt
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ordcut import scalars
from ordcut.errors import DomainError
from ordcut.scalars import (KIND_Q, KIND_Z, Scalar, compare_cross, contains,
                            divisible_hull_kind, is_discrete_kind)

import sampling
from sampling import generators, height, quad_q, quad_z


# numerators to 96 over denominators to 12: every fraction of [-8, 8] with
# a denominator to 12, and more, drawn without st.fractions' flatmap
rats = st.builds(Fraction, st.integers(-96, 96), st.integers(1, 12))


def test_sign_examples():
    assert Scalar.make(1, -1, 2).sign() == -1
    assert Scalar.make(0).sign() == 0
    assert Scalar.make(Fraction(7, 5), -1, 2).sign() == -1


def test_compare_cross_examples():
    assert compare_cross(Scalar.make(1, 1, 2), Scalar.make(1, 1, 3)) == -1
    assert compare_cross(Scalar.make(Fraction(1, 2)),
                         Scalar.make(Fraction(1, 2))) == 0
    assert compare_cross(Scalar.make(2, 1, 2), Scalar.make(1, 1, 5)) == 1


def test_contains_examples():
    assert not contains(quad_z(2), Scalar.make(Fraction(1, 2)))
    assert not contains(KIND_Q, Scalar.make(0, 1, 2))
    assert contains(KIND_Z, Scalar.make(3))
    assert contains(quad_z(2), Scalar.make(1, -2, 2))
    assert contains(quad_q(2), Scalar.make(Fraction(1, 3), 2, 2))
    assert not contains(quad_q(2), Scalar.make(0, 1, 3))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([KIND_Z, KIND_Q, quad_z(2), quad_q(3)]),
       rats, rats, rats, rats)
def test_contains_closed_under_group_ops(kind, a1, b1, a2, b2):
    def project(a, b):
        if kind.tag == "Z":
            a = Fraction(a.numerator)
            b = Fraction(b.numerator)
        if kind.d == 0:
            b = Fraction(0)
        return Scalar.make(a, b, kind.d)

    x = project(a1, b1)
    y = project(a2, b2)
    assert contains(kind, x) and contains(kind, y)
    assert contains(kind, x + y)
    assert contains(kind, x - y)


def test_divisible_hull_kind():
    assert divisible_hull_kind(KIND_Z) == KIND_Q
    assert divisible_hull_kind(quad_z(2)) == quad_q(2)
    assert divisible_hull_kind(KIND_Q) == KIND_Q
    for kind in (KIND_Z, KIND_Q, quad_z(2), quad_q(5)):
        hull = divisible_hull_kind(kind)
        assert divisible_hull_kind(hull) == hull
        assert not is_discrete_kind(hull)


def test_is_discrete_kind():
    assert is_discrete_kind(KIND_Z)
    assert not is_discrete_kind(quad_z(2))
    assert not is_discrete_kind(KIND_Q)
    # oracle for the density of Z + Z*sqrt(2): an element below 1/100 exists
    small = scalars.small_positive(quad_z(2), Scalar.make(Fraction(1, 100)))
    assert contains(quad_z(2), small)
    assert small.sign() > 0
    assert compare_cross(small, Scalar.make(Fraction(1, 100))) < 0
    # over Z, 1 lies below a bound above 1; no integer lies below 1
    assert scalars.small_positive(KIND_Z, Scalar.make(Fraction(3, 2))) == \
        scalars.ONE


def test_first_difference_positions_and_signs():
    first = scalars.first_difference
    one, two = Scalar.make(1), Scalar.make(2)
    # positions count from 1
    assert first([(one, two)]) == (1, -1)
    assert first([(one, one), (two, one)]) == (2, 1)
    # a tie, and no pairs at all
    assert first([(one, one), (two, two)]) == (None, 0)
    assert first([]) == (None, 0)
    # pairs over two radicals: sqrt 2 < sqrt 3, 1 + sqrt 3 > 1 + sqrt 2,
    # and 1 + sqrt 2 < 5/2
    r2, r3 = Scalar.make(0, 1, 2), Scalar.make(0, 1, 3)
    assert first([(r2, r2), (r2, r3)]) == (2, -1)
    assert first(iter([(one + r3, one + r2), (r2, r3)])) == (1, 1)
    assert first([(r3, r3), (one + r2, Scalar.make(Fraction(5, 2)))]) == \
        (2, -1)


def test_small_positive_and_element_below():
    for kind in (KIND_Q, quad_q(2), quad_z(2)):
        bound = Scalar.make(Fraction(1, 7))
        s = scalars.small_positive(kind, bound)
        assert contains(kind, s)
        assert s.sign() > 0 and compare_cross(s, bound) < 0
    # rational gap inside Z + Z*sqrt(2)
    q = scalars.element_below(quad_z(2), Scalar.make(Fraction(1, 2)),
                              Scalar.make(Fraction(1, 5)))
    assert contains(quad_z(2), q)
    # irrational gap inside Q, and a foreign-field gap inside Q(sqrt 2)
    q2 = scalars.element_below(KIND_Q, Scalar.make(0, 1, 2),
                               Scalar.make(Fraction(1, 6)))
    assert contains(KIND_Q, q2)
    q3 = scalars.element_below(quad_q(2), Scalar.make(0, 1, 3),
                               Scalar.make(Fraction(1, 6)))
    assert contains(quad_q(2), q3)


def test_make_returns_a_scalar_as_it_is():
    for x in (Scalar.make(3), Scalar.make(Fraction(1, 3), 2, 5)):
        assert Scalar.make(x) is x
        assert Scalar.make(x, 0, 0) is x


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


def test_make_reads_ints_and_fractions_and_refuses_the_rest():
    # an int, not a bool, or a Fraction is read exactly; anything else, what
    # Fraction(x) would read included, is refused with its type's name
    for x in (3, -10 ** 40, Fraction(-7, 4), Fraction(5)):
        assert (Scalar.make(x).a, Scalar.make(0, x, 2).b) == (Fraction(x),) * 2
        assert all(type(v) is int for v in (Scalar.make(x).p,
                                            Scalar.make(1, x, 3).q))
    # a Scalar is returned as it is when b = d = 0, and is no coefficient;
    # a subclass of int or of Fraction is refused, as bool is
    root = Scalar.make(1, 1, 2)
    for x in (True, False, 0.375, -2.0, float("nan"), float("-inf"),
              Decimal("-1.25"), Decimal("NaN"), Decimal("Infinity"), "5/6",
              " -2 ", "1/0", "x", None, 1j, [1], (1,), root,
              _Int(3), _Fraction(1, 3)):
        message = ("^a coefficient is an int or a Fraction, not %s$"
                   % type(x).__name__)
        for a, b, d in ((x, 0, 0), (1, x, 0), (x, 1, 2), (0, x, 2)):
            if a is not root or b or d:
                with pytest.raises(DomainError, match=message):
                    Scalar.make(a, b, d)


def test_a_fraction_is_read_once_fractions_is_loaded_or_reloaded():
    # ordcut imports no fractions: an int scalar is built first, then
    # fractions is imported and its Fraction read; after a reload of
    # fractions, a Fraction of the new class is read too
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, %r)\n"
            "from ordcut.scalars import Scalar\n"
            "x = Scalar.make(5)\n"
            "print(x.p, x.n, 'fractions' in sys.modules)\n"
            "import fractions, importlib\n"
            "x = Scalar.make(fractions.Fraction(-3, 4))\n"
            "print(x.p, x.q, x.n, x.d)\n"
            "old = fractions.Fraction\n"
            "new = importlib.reload(fractions).Fraction\n"
            "x = Scalar.make(0, new(-10, 4), 8)\n"
            "print(new is not old, x.p, x.q, x.n, x.d)" % str(src))
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # -5/2*sqrt(8) = -5*sqrt(2)
    assert done.stdout.splitlines() == ["5 1 False", "-3 0 4 0",
                                        "True 0 -5 1 2"]


def test_canonical_form():
    assert Scalar.make(1, 1, 8) == Scalar.make(1, 2, 2)
    assert Scalar.make(1, 2, 1) == Scalar.make(3)
    assert Scalar.make(1, 0, 7) == Scalar.make(1)


# ---------------------------------------------------------------------------
# the independent oracles: one property for construction and arithmetic,
# one for sign, floor and order, each run by one test per family of
# delicate scalars below

def sympy_square_free(d):
    k = d0 = 1
    for p, e in sympy.factorint(d).items():
        k *= p ** (e // 2)
        d0 *= p ** (e % 2)
    return k, d0


def sympy_value(a, b, d, roots=None):
    """a + b*sqrt(d) in sympy; roots gives sqrt(d) for a radicand whose
    square factor sympy does not take out."""
    root = roots[d] if roots and d in roots else sympy.sqrt(d)
    return sympy.Rational(a) + sympy.Rational(b) * root


def value(x, roots=None):
    return sympy_value(x.a, x.b, x.d, roots)


def sympy_sign(value):
    s = sympy.sign(value)
    assert s in (-1, 0, 1), "sympy left the sign undecided"
    return int(s)


def near(p, d):
    """An integer within 1 of p*sqrt(d)."""
    t = isqrt(p * p * d)
    return t if p > 0 else -t


SMALL_PRIMES = list(sympy.primerange(2, scalars._TRIAL))


def assert_canonical(x):
    assert x.n > 0 and gcd(x.p, x.q, x.n) == 1
    assert (x.d == 0) == (x.q == 0)
    assert all(type(v) is int for v in (x.p, x.q, x.n, x.d))
    # d is 0 or a radicand that make keeps as it is: no square it can split
    root = Scalar.make(0, 1, x.d)
    assert x.d == 0 or (root.p, root.q, root.n, root.d) == (0, 1, 1, x.d)
    assert x.d >= 1 << 30 or sympy_square_free(x.d) == (1, x.d)


def assert_split(d):
    """sqrt(d) = k*sqrt(d0) as make reads it: d0 = 1 exactly when d is a
    square, else a non-square with no p^2 for p < 2^10 dividing it; and
    sympy's split below 2^30.  A second make reads the memo."""
    x, again = Scalar.make(0, 1, d), Scalar.make(0, 1, d)
    assert (again.p, again.q, again.n, again.d) == (x.p, x.q, x.n, x.d)
    k, d0 = (x.q, x.d) if x.d else (x.p, 1)
    assert x.n == 1 and k * k * d0 == d
    assert (isqrt(d0) ** 2 == d0) == (d0 == 1)
    assert all(d0 % (p * p) for p in SMALL_PRIMES)
    if d < 1 << 30:
        assert (k, d0) == sympy_square_free(d)


huge = st.integers(-10 ** 40, 10 ** 40)
huge_rats = st.builds(Fraction, huge, st.integers(1, 10 ** 40))
tall_rats = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                      st.integers(1, 10 ** 30))
wide_rats = st.fractions(min_value=-10 ** 40, max_value=10 ** 40,
                         max_denominator=10 ** 20)
# square-free bases times squares: d square-free, a square, or neither
base_rads = st.sampled_from([2, 3, 5, 6, 7, 10, 1009, 99991])
radicands = st.one_of(st.just(0), base_rads,
                      st.builds(lambda s, k: s * k * k,
                                st.sampled_from([1, 2, 3, 6, 1009]),
                                st.integers(2, 40)))
TALL_RADS = [2, 3, 7, 8, 12, 18, 99991, 10 ** 8 + 7, 4 * 999983]
big_primes = st.integers(scalars._TRIAL, 10 ** 6).map(sympy.nextprime)
# (d, e, k): e = k^2 * d, one square class; 8 and 12 split on input, while
# 1031 is past the primes that the split takes out, so 1031^2*1033 stays
ONE_CLASS = [(2, 8, 2), (3, 12, 2), (2, 50, 5), (1033, 1031 ** 2 * 1033, 1031)]


@st.composite
def delicate(draw, d=None, rats=huge_rats):
    """(a, b, d) at heights up to 10^40 (or those of rats); half the draws
    put a + b*sqrt(d) within 1/q of an integer."""
    d = draw(radicands) if d is None else d
    b = draw(rats)
    if d and draw(st.booleans()):
        q = draw(st.integers(1, 10 ** 6))
        a = Fraction(-near(b.numerator * q, d) // b.denominator
                     + draw(st.integers(-2, 2)), q)
    else:
        a = draw(rats)
    return a, b, d


@st.composite
def tall(draw):
    """(a, b, d) with |b| >= 10^30 and d possibly not square-free; half the
    draws put a + b*sqrt(d) within 1/q of an integer."""
    h = draw(st.sampled_from([10 ** 30, 10 ** 60]))
    p = draw(st.sampled_from([-1, 1])) * (h + draw(st.integers(0, 10 ** 6)))
    q = draw(st.integers(1, 1000))
    d = draw(st.sampled_from(TALL_RADS))
    if draw(st.booleans()):
        num = -near(p, d) + draw(st.integers(-2, 2))
    else:
        num = draw(st.integers(-h * 10 ** 4, h * 10 ** 4))
    return Fraction(num, q), Fraction(p, q), d


@st.composite
def mixed(draw):
    """(a, b, d) with a and b of opposite signs; half the draws put a
    within 1/q of -b*sqrt(d)."""
    b = Fraction(draw(st.integers(1, 10 ** 12)), draw(st.integers(1, 10 ** 6)))
    d = draw(st.sampled_from(TALL_RADS))
    q = draw(st.integers(1, 10 ** 6))
    if draw(st.booleans()):
        a = Fraction(isqrt(int(b * b * d * q * q)) + draw(st.integers(-2, 2)),
                     q)
    else:
        a = Fraction(draw(st.integers(1, 10 ** 18)), q)
    s = draw(st.sampled_from([-1, 1]))
    return s * a, -s * b, d


# Each family draws (x, y, roots): x and y as (a, b, d), and the roots that
# sympy needs for them.

# heights below 100: radicands of two classes, of one (2, 8, 18, 50),
# squares and 0
small_parts = st.tuples(rats, rats,
                        st.sampled_from([0, 1, 2, 3, 4, 5, 8, 12, 18, 50]))


@st.composite
def one_value(draw):
    """x over e = k^2*d, and y the same value over d, or a rational off."""
    d, e, k = draw(st.sampled_from(ONE_CLASS))
    a, b = draw(rats | huge_rats), draw(rats | huge_rats)
    off = draw(st.sampled_from([0, 0, Fraction(1, 10 ** 6), -1]))
    return (a, b, e), (a + off, b * k, d), None


@st.composite
def big(draw):
    """Heights up to 10^40: y over x's class, rational, or any radicand."""
    s = draw(base_rads)
    x = draw(delicate(d=s * draw(st.integers(1, 5)) ** 2))
    return x, draw(delicate(d=draw(st.sampled_from([0, s, 4 * s]) |
                                  radicands))), None


@st.composite
def crossing(draw):
    """x = p*sqrt(d) and y = c*sqrt(e) + an integer: y - x within 3 of a
    small integer, at heights 10^30 and 10^60, over one radical or two."""
    h = draw(st.sampled_from([10 ** 30, 10 ** 60]))
    i, j = draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(-10 ** 6,
                                                                 10 ** 6))
    d, e = draw(st.sampled_from(TALL_RADS)), draw(st.sampled_from(TALL_RADS))
    p = h + i if j % 2 else -(h + i)
    c = h + j if i % 2 else -(h + j)
    return (0, p, d), (near(p, d) - near(c, e) + draw(st.integers(-2, 2)),
                       c, e), None


@st.composite
def squaring(draw):
    """x - y = u + v*sqrt(d) + w*sqrt(e) with v, w of opposite signs and u
    within 3/10^6 of -(v*sqrt(d) + w*sqrt(e)): two radicals, or one class,
    decided by squaring."""
    _, v, d = draw(mixed())
    _, w, e = draw(mixed())
    pair = draw(st.sampled_from([None] + ONE_CLASS))
    if pair:
        d, e = pair[:2]
    if (v > 0) == (w > 0):
        w = -w
    lead = (near(v.numerator * 10 ** 6, d) // v.denominator +
            near(w.numerator * 10 ** 6, e) // w.denominator)
    u = -Fraction(lead + draw(st.integers(-3, 3)), 10 ** 6)
    return (u, v, d), (0, -w, e), None


@st.composite
def square_class(draw):
    """x over P^2*c for primes P, c past the trial bound, which the split
    leaves apart; y is x's value over c, a rational away from it, or any
    scalar over c or rational.  sympy reads sqrt(P^2*c) as P*sqrt(c)."""
    P, c = draw(big_primes), draw(big_primes)
    x = draw(delicate(d=P * P * c, rats=tall_rats.filter(bool)))
    how = draw(st.sampled_from(["same", "near", "any"]))
    if how == "any":
        y = draw(delicate(d=draw(st.sampled_from([0, c])), rats=tall_rats))
    else:
        off = Fraction(draw(st.integers(-2, 2)), 10 ** 6) \
            if how == "near" else 0
        y = (x[0] + off, x[1] * P, c)
    return x, y, {P * P * c: P * sympy.sqrt(c)}


@st.composite
def rational(draw):
    """Rationals up to 10^40, and a b that a zero radicand drops."""
    b = draw(wide_rats | st.integers(-10 ** 30, 10 ** 30))
    return ((draw(wide_rats), b, 0),
            (draw(wide_rats | st.integers(-10 ** 30, 10 ** 30)), 0, 0), None)


# radicands to split: below 2^30, where sympy splits them too, larger, and
# squares of primes past the trial bound times such a prime
split_radicands = st.one_of(
    st.integers(1, 10 ** 12), st.integers(1, 1 << 30),
    st.builds(lambda k, P, c: k * k * P * P * c, st.integers(1, 100),
              big_primes, big_primes))


def one_class(x, y):
    """Whether x and y lie over one square class, where x + y is a scalar."""
    return not x.q or not y.q or sympy.sqrt(x.d * y.d).is_Rational


def arithmetic(case, r):
    """The property of construction and arithmetic, on one draw."""
    (a, b, e), (a2, b2, e2), roots = case
    x, y = Scalar.make(a, b, e), Scalar.make(a2, b2, e2)
    vx, vy, vr = sympy_value(a, b, e, roots), sympy_value(a2, b2, e2, roots), \
        sympy.Rational(r)
    # (result, numerator, denominator): the result times the denominator is
    # the numerator
    checks = [(x, vx, 1), (y, vy, 1), (-x, -vx, 1), (x + r, vx + vr, 1),
              (x - r, vx - vr, 1), (x * r, vx * vr, 1), (r * x, vx * vr, 1)]
    if r:
        checks.append((x / r, vx, vr))
    # each operator in the other operand order, against the checked ones
    flips = [(r + x, x + r), (r - x, -(x - r))]
    if x.sign():
        flips.append((r / x * x, Scalar.make(r)))
    pair = []
    if one_class(x, y):
        pair = [(x + y, vx + vy, 1), (y + x, vx + vy, 1),
                (x - y, vx - vy, 1), (x * y, vx * vy, 1), (y * x, vx * vy, 1)]
        flips.append((y - x, -(x - y)))
        if y.sign():
            pair.append((x / y, vx, vy))
        if x.sign():
            flips.append((y / x * x, y))
    else:  # two square classes: no sum or product is a scalar
        with pytest.raises(DomainError, match="^cannot add scalars over"):
            x + y
        with pytest.raises(DomainError, match="^cannot multiply scalars"):
            x * y
    for z, num, den in checks + pair:
        assert_canonical(z)
        assert sympy.expand(value(z, roots) * den - num) == 0
    for z, flipped in flips:
        assert_canonical(z)
        assert z == flipped
    for z, _, _ in pair:  # over the smaller radicand of one class
        assert z.d in (0, min(x.d or y.d, y.d or x.d))
    # a scalar is returned as it is, rebuilt from its parts, and is no tuple
    # or Fraction
    z = Scalar.make(x.a, x.b, x.d)
    assert Scalar.make(x) is x and z == x and hash(z) == hash(x)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert height(x) == max(abs(x.a.numerator), x.a.denominator,
                            abs(x.b.numerator), x.b.denominator)
    assert x != (x.p, x.q, x.n, x.d) and x != (x.a, x.b, x.d) and x != x.a


def bounds(a, b, d, prec=80):
    """Rationals lo <= a + b*sqrt(d) <= hi, from sqrt(d) rounded down and up
    to 10^-prec; lo = hi where sqrt(d) is rational."""
    s = isqrt(d * 100 ** prec)
    return sorted(Fraction(a) + b * Fraction(t, 10 ** prec)
                  for t in (s, s + (s * s != d * 100 ** prec)))


def order(case):
    """The property of sign, floor and order, on one draw.  The oracle is
    exact rational bounds where they decide, and sympy where they do not:
    at a 0, or within their width of an integer."""
    (a, b, e), (a2, b2, e2), roots = case
    x, y = Scalar.make(a, b, e), Scalar.make(a2, b2, e2)
    vx, vy = (cache(lambda p=p: sympy_value(*p, roots))
              for p in ((a, b, e), (a2, b2, e2)))
    (lx, hx), (ly, hy) = bounds(a, b, e), bounds(a2, b2, e2)
    for z, lo, hi, v in ((x, lx, hx, vx), (y, ly, hy, vy)):
        f = floor(lo) if floor(lo) == floor(hi) else int(sympy.floor(v()))
        assert z.floor() == f
        assert z.sign() == sign(lo, hi, v) == -(-z).sign()
    s = sign(lx - hy, hx - ly, lambda: vx() - vy())
    assert compare_cross(x, y) == s == -compare_cross(y, x)
    if one_class(x, y):  # the order is the sign of the difference
        assert (x - y).sign() == s
    # equality is the zero of the order, and equal scalars hash alike
    assert (x == y) == (y == x) == (s == 0)
    if s == 0:
        assert hash(x) == hash(y)


def sign(lo, hi, value):
    """The sign of a value in [lo, hi]: from the bounds where they leave out
    0 or meet, else from sympy's value()."""
    if lo > 0 or hi < 0 or lo == hi:
        return (lo > 0) - (hi < 0)
    return sympy_sign(value())


def class_order(case, r):
    """Both properties over the square class of P^2*c, and whether x and y
    lie in Z[sqrt c], Z[sqrt(P^2*c)] and the Q-spans, from their parts."""
    arithmetic(case, r)
    order(case)
    (_, _, e), _, roots = case
    P, root = roots[e].as_coeff_Mul()
    c = int(root ** 2)
    for parts in case[:2]:
        z = Scalar.make(*parts)
        a, b = z.a, z.b * int(P) if z.d == e else z.b
        assert contains(quad_q(c), z) and contains(quad_q(e), z)
        assert contains(quad_z(c), z) == (a.denominator == b.denominator == 1)
        assert contains(quad_z(e), z) == \
            (a.denominator == (b / int(P)).denominator == 1)


def pairs(x, y):
    return st.tuples(x, y, st.none())


def run(check, draws, *families):
    """Run check on that many draws of the families."""
    settings(max_examples=draws, deadline=None)(given(*families)(check))()


# each property's families of delicate scalars and their draws, as many as
# the per-operation tests of the old names made; factors are the rationals
# that the arithmetic property combines with x
factors = huge_rats | huge | rats
small = pairs(small_parts, small_parts)
ARITHMETIC = {"small": (small, 300), "one_value|squaring": (
    one_value() | squaring(), 150), "big": (big(), 150),
    "tall,mixed": (pairs(tall(), mixed()), 150), "rational": (rational(), 150),
    "crossing": (crossing(), 150)}
ORDER = {"small": (small, 300), "one_value": (one_value(), 300),
         "one_value|big|small": (one_value() | big() | small, 200),
         "big": (big(), 150), "crossing": (crossing(), 150),
         "rational": (rational(), 150), "squaring": (squaring(), 100),
         "mixed,delicate": (pairs(mixed(), delicate()), 200),
         "delicate,delicate": (pairs(delicate(), delicate()), 200),
         "tall,tall": (pairs(tall(), tall()), 150),
         "tall,mixed": (pairs(tall(), mixed()), 200),
         "mixed,mixed": (pairs(mixed(), mixed()), 200)}


@pytest.mark.parametrize("family", ARITHMETIC)
def test_arithmetic(family):
    run(arithmetic, ARITHMETIC[family][1], ARITHMETIC[family][0], factors)


@pytest.mark.parametrize("family", ORDER)
def test_order(family):
    run(order, ORDER[family][1], ORDER[family][0])


def test_class_order():
    run(class_order, 150, square_class(), factors)


def test_assert_split():
    run(assert_split, 300, split_radicands)


@settings(max_examples=200, deadline=None)
@given(st.lists(small_parts | delicate() | mixed(), min_size=3, max_size=3))
def test_compare_cross_transitive(parts):
    xs = [Scalar.make(*p) for p in parts]
    for x, y, z in permutations(xs):
        if compare_cross(x, y) <= 0 and compare_cross(y, z) <= 0:
            assert compare_cross(x, z) <= 0


@settings(max_examples=200, deadline=None)
@given(st.lists(split_radicands | st.sampled_from([2, 8, 4 * 999983]),
                min_size=1, max_size=8))
def test_memoized_split_matches_the_body(ds):
    # repeated and fresh radicands alike
    for d in ds + ds[::-1]:
        assert_split(d)


def test_quad_sign_pell_pairs():
    # x^2 - d*y^2 = +-1 puts x - y*sqrt(d) within 1/(2x) of zero
    for d, x, y in ((2, 1, 1), (2, 3, 2), (8, 3, 1), (12, 7, 2)):
        X, Y = x, y
        while X < 10 ** 30:  # powers of the unit x + y*sqrt(d)
            X, Y = X * x + d * Y * y, X * y + Y * x
        for a, b in ((X, -Y), (-X, Y), (X + 1, -Y), (X - 1, -Y)):
            assert Scalar.make(a, b, d).sign() == \
                sympy_sign(sympy_value(a, b, d))


def test_square_free_cube_root_boundary():
    p, q = 999983, 1000003
    for d in (p * p, 2 * p * p, p * q, 4 * p * q, p ** 4 * 3):
        assert scalars._square_free(d) == sympy_square_free(d), d
    # p is past the small primes, and p^3 is no square: d0 keeps p^2
    assert scalars._square_free(p ** 3) == (1, p ** 3)
    assert scalars._square_free(1031 ** 2 * 1033) == (1, 1031 ** 2 * 1033)
    assert scalars._square_free(1021 ** 2 * 1033) == (1021, 1033)
    assert scalars._square_free(0) == (1, 0)
    with pytest.raises(DomainError):
        scalars._square_free(-3)


def split_by_trial_division(d):
    """`scalars._split` as trial division made it before the gcd kernel:
    divide by f < 2^10 while f^3 <= the cofactor r, then one isqrt.  The
    oracle for the kernel, which must give the same (k, d0) for every d."""
    if d == 0:
        return 1, 0
    k, d0, r, f = 1, 1, d, 2
    while f < scalars._TRIAL and f * f * f <= r:
        if r % f == 0:
            while r % (f * f) == 0:
                r //= f * f
                k *= f
            if r % f == 0:
                r //= f
                d0 *= f
        f += 1 + (f & 1)  # 2, then odd f only
    s = isqrt(r)
    if s * s == r:
        return k * s, d0
    return k, d0 * r


def test_gcd_split_matches_trial_division():
    split = scalars._split.__wrapped__
    assert [d for d in range(2 * 10 ** 5)
            if split(d) != split_by_trial_division(d)] == []
    # products of prime powers below 10^40: small primes, the primes on
    # either side of 2^10, and larger ones, each to a power up to 7
    rng = sampling.rng_for(21)
    pool = SMALL_PRIMES + [1031, 1033, 1039, 65537, 999983, 10 ** 9 + 7]
    for _ in range(3000):
        d = 1
        while True:
            f = rng.choice(pool) ** rng.randint(1, 7)
            if d * f >= 10 ** 40:
                break
            d *= f
        assert split(d) == split_by_trial_division(d), d
    for d in (1031 ** 2 * 1033, 2 ** 100, 3 ** 80 * 1031, 1021 ** 13,
              (2 * 3 * 5 * 7) ** 20 * (10 ** 9 + 7)):
        assert split(d) == split_by_trial_division(d), d
    assert split(1031 ** 2 * 1033) == (1, 1031 ** 2 * 1033)
    assert split(2 ** 100) == (2 ** 50, 1)


def test_radicands_must_be_ints_even_when_their_value_is_cached():
    # 2.0 == 2 and True == 1 with equal hashes: the memo must not answer them
    for d in (2, 1, 12):
        scalars._square_free(d)
    for d in (2.0, 2.5, True, "2", Fraction(12), [2]):
        for make in (scalars._square_free, lambda d: Scalar.make(1, 1, d),
                     quad_z, quad_q):
            with pytest.raises(DomainError,
                               match="^radicand must be an integer"):
                make(d)


def test_zero_radicands_must_be_ints_too():
    # None, 0.0 and False are falsy like 0, and used to pass as a kind's d
    for d in (None, 0.0, -0.0, False, Fraction(0)):
        for make in (quad_z, quad_q):
            with pytest.raises(DomainError,
                               match="^radicand must be an integer"):
                make(d)
    assert quad_z(0) == KIND_Z and quad_q(0) == KIND_Q


def test_radicands_past_the_int_to_str_limit_are_domain_errors():
    # the message prints d in full, where "%d" raised a plain ValueError
    for d, text in ((4 * 10 ** 5000, "radicand 4000"),
                    (-3 * 10 ** 5000, "negative radicand -3000")):
        with pytest.raises(DomainError, match="^" + text):
            quad_z(d)


def test_radicand_memo_is_bounded():
    memo = scalars._split
    for d in range(2, 302):
        assert scalars._square_free(d) == memo.__wrapped__(d)
    info = memo.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256
    assert info.misses == 300


def test_signs_and_arithmetic_never_factor(monkeypatch):
    x = Scalar.make(Fraction(-7, 3), 5, 12)
    y = Scalar.make(1, Fraction(1, 2), 3)
    z = Scalar.make(2, 10 ** 30, 10 ** 8 + 7)
    # 1 + 2*sqrt(12) - 3*sqrt(50): two radicals, decided by squaring
    u, v = Scalar.make(1, 2, 12), Scalar.make(0, 3, 50)
    kind, lattice = quad_q(3), quad_z(3)

    def refuse(d):
        raise AssertionError("factored %d outside ingestion" % d)

    monkeypatch.setattr(scalars, "_square_free", refuse)
    w = (x + y) * x / y - x * 3
    assert w.sign() != 0
    w.floor()
    z.floor()
    compare_cross(w, z)
    assert compare_cross(u, v) == -1
    assert [contains(kind, g) for g in generators(kind)] == [True, True]
    # the hull keeps the radicand that its kind has split
    assert divisible_hull_kind(lattice) == kind


def test_floor_of_tall_scalar_is_quick():
    # a floor stepping by one from a fixed 1e-20 estimate needs ~1e10 steps
    x = Scalar.make(Fraction(1, 3), 10 ** 30 + 1, 101)
    expected = int(sympy.floor(sympy_value(x.a, x.b, x.d)))
    t0 = time.perf_counter()
    assert x.floor() == expected
    assert (-x).floor() == -expected - 1
    assert time.perf_counter() - t0 < 5


def test_scalars_are_immutable_and_round_trip():
    x = Scalar.make(Fraction(-7, 3), 10 ** 40 + 1, 12)
    for name in ("a", "b", "d", "p", "q", "n", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.d
    assert (x.a, x.b, x.d) == (Fraction(-7, 3), 2 * (10 ** 40 + 1), 3)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x)
        assert (y.p, y.q, y.n, y.d) == (x.p, x.q, x.n, x.d)
    assert copy.deepcopy({x: [x]}) == {x: [x]}


def test_make_checks_b_whatever_d():
    for d in (0, 2):
        for b in ("abc", "1/2", 0.5, None):
            with pytest.raises(DomainError, match="^a coefficient is an int "
                               "or a Fraction, not %s$" % type(b).__name__):
                Scalar.make(1, b, d)
    assert Scalar.make(1, Fraction(1, 2), 0) == Scalar.make(1)
    assert Scalar.make(1, Fraction(1, 2), 8) == Scalar.make(1, 1, 2)


def test_contains_across_a_square_class():
    P, c = 1031, 1033
    assert scalars._square_free(P * P * c) == (1, P * P * c)
    wide = Scalar.make(0, 1, P * P * c)
    assert contains(quad_z(P * P * c), Scalar.make(0, P, c))
    assert not contains(quad_z(P * P * c), Scalar.make(0, 1, c))
    assert contains(quad_q(c), wide)
    assert wide == Scalar.make(0, P, c) and wide != Scalar.make(0, 1, c)
    assert hash(wide) == hash(Scalar.make(0, P, c))
    # another square class stays a distinct radical
    other = Scalar.make(0, 1, 1039)
    assert wide != other and not contains(quad_q(1039), wide)
    with pytest.raises(DomainError, match="cannot add"):
        wide + other
    with pytest.raises(DomainError, match="cannot multiply"):
        wide * other


def test_small_positive_over_z_sqrt_d_has_small_height():
    bound = Scalar.make(Fraction(1, 10 ** 6))
    w = scalars.small_positive(quad_z(9998), bound)
    assert contains(quad_z(9998), w)
    assert height(w) < 10 ** 20
    assert 0 < value(w) < sympy.Rational(1, 10 ** 6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13, 61, 94, 9998, 10 ** 6 + 3]),
       st.integers(1, 30))
def test_small_positive_over_z_sqrt_d_matches_sympy(d, k):
    # convergents of sqrt(d): the witness's q stays below 10^k, p near q*sqrt(d)
    bound = Scalar.make(Fraction(1, 10 ** k))
    w = scalars.small_positive(quad_z(d), bound)
    assert contains(quad_z(d), w)
    assert 0 < value(w) < sympy.Rational(1, 10 ** k)
    assert height(w) <= (isqrt(d) + 1) * 10 ** k


def positive(x):
    return x if x.sign() > 0 else -x


# positive bounds of height up to 10^30, rational or over a radical
positive_bounds = st.builds(
    lambda a, m, b, d: positive(Scalar.make(Fraction(a, m), b, d)),
    st.integers(1, 10 ** 30), st.integers(1, 10 ** 30), st.integers(-3, 3),
    st.sampled_from([0, 0, 2, 3, 7]))


@settings(max_examples=200, deadline=None)
@given(positive_bounds)
def test_small_positive_over_q_is_the_largest_dyadic_below(bound):
    if bound.d == 0:
        h = Fraction(1, 2)  # halve until below the bound, as a loop would
        while h >= bound.a:
            h /= 2
        expected = Scalar.make(h)
    else:  # the largest 1/2^t below bound, t >= 1, by sympy
        t = 1
        while sympy.Rational(1, 2 ** t) >= value(bound):
            t += 1
        expected = Scalar.make(Fraction(1, 2 ** t))
    for kind in (KIND_Q, quad_q(3)):
        assert scalars.small_positive(kind, bound) == expected


@st.composite
def below_cases(draw):
    """(kind, t, gap) over Q, Q[sqrt 3] and Z[sqrt 2] at heights up to
    10^30, for each branch of element_below: t an integer, a rational, over
    the kind's radical (sqrt 2 over Q; over Z[sqrt 2] often with integer
    parts, inside the kind) or over another radical; gap a positive element
    of the kind below, at or above 1, often a tiny one."""
    kind = draw(st.sampled_from([KIND_Q, quad_q(3), quad_z(2)]))
    h = 10 ** draw(st.integers(0, 30))
    num, den = st.integers(-h, h), st.integers(1, h)
    form = draw(st.sampled_from(["integer", "rational", "own", "other"]))
    if form == "integer":
        t = Scalar.make(draw(num))
    elif form == "rational":
        t = Scalar.make(Fraction(draw(num), draw(den)))
    else:
        d = (kind.d or 2) if form == "own" else draw(st.sampled_from([5, 7]))
        if kind.tag == "Z" and form == "own" and draw(st.booleans()):
            den = st.just(1)
        t = Scalar.make(Fraction(draw(num), draw(den)),
                        Fraction(draw(num), draw(den)), d)
    b = draw(st.integers(1, h))
    if kind.d and (kind.tag == "Z" or draw(st.booleans())):
        # |near(b, d) + off - b*sqrt(d)| is irrational, below 3 and near 1/b
        gap = Scalar.make(near(b, kind.d) + draw(st.integers(-2, 2)), -b,
                          kind.d)
    else:
        gap = Scalar.make(Fraction(draw(st.integers(1, 3) |
                                        st.integers(1, h)), b))
    return kind, t, positive(gap)


@settings(max_examples=400, deadline=None)
@given(below_cases())
def test_element_below_lies_inside_the_gap(case):
    kind, t, gap = case
    q = scalars.element_below(kind, t, gap)
    assert contains(kind, q)
    assert_canonical(q)
    vt, vq = value(t), value(q)
    assert sympy_sign(vt - vq) == 1
    assert sympy_sign(vq + value(gap) - vt) == 1
    # the step each branch takes, for u = small_positive(kind, gap)
    if sympy_sign(value(gap) - 1) >= 0 and vt != sympy.floor(vt):
        assert vq == sympy.floor(vt)  # every dense kind holds Z
    elif contains(kind, t):
        assert q == t - scalars.small_positive(kind, gap)
    elif kind.tag == "Q":  # a rational u: one step to a multiple of u
        u = value(scalars.small_positive(kind, gap))
        assert vq == u * sympy.floor(vt / u)


def test_element_below_steps_down_from_a_point_of_the_kind():
    # t in the kind: floor(t) when gap >= 1 and t is not an integer, else
    # t - u
    h = 10 ** 30
    for kind, t in ((KIND_Q, Scalar.make(Fraction(h, 7))),
                    (quad_q(3), Scalar.make(h, h - 1, 3)),
                    (quad_z(2), Scalar.make(h, h - 1, 2)),
                    (quad_z(2), Scalar.make(h))):
        for gap in map(Scalar.make, (Fraction(1, 10 ** 6), 1, 5)):
            step = scalars.element_below(kind, t, gap)
            if gap.p >= gap.n and t != Scalar.make(t.floor()):
                assert step == Scalar.make(t.floor())
            else:
                assert step == t - scalars.small_positive(kind, gap)


def test_witness_builders_refuse_what_has_no_answer():
    with pytest.raises(DomainError):
        scalars.element_below(KIND_Z, Scalar.make(0, 1, 2), Scalar.make(1))
    # no element lies in (0, bound) or (t - gap, t) for bound, gap <= 0
    for kind in (KIND_Z, KIND_Q, quad_q(3), quad_z(2)):
        for bound in (Scalar.make(0), Scalar.make(1, -1, 2)):
            with pytest.raises(DomainError):
                scalars.small_positive(kind, bound)
            if kind != KIND_Z:
                with pytest.raises(DomainError):
                    scalars.element_below(kind, Scalar.make(1, 1, 5), bound)


# ---------------------------------------------------------------------------
# radicands past trial division: one isqrt, never a factoring

def test_square_free_of_large_radicands_is_quick():
    p12, q12 = 999999999989, 1000000000039
    p11 = 100000000003
    p16 = 32749  # p16^2 lies just below the trial bound cubed
    cases = {d: sympy_square_free(d) for d in (
        10 ** 24 + 7, p12 * q12, 3 * p11 ** 2, 331 * p11 ** 2, p16 ** 2,
        399165290221 * 798330580441)}
    # the cube of a prime past the trial bound keeps its square in d0
    cases[99999989 ** 3] = (1, 99999989 ** 3)
    assert p16 ** 2 < scalars._TRIAL ** 3 < 32771 ** 2
    for d, expected in cases.items():
        t0 = time.process_time()
        got = scalars._square_free(d)
        assert time.process_time() - t0 < 1, d
        assert got == expected, d

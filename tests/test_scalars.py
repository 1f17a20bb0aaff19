"""Scalar arithmetic tests against interval-arithmetic and sympy oracles."""

import copy
import pickle
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ordcut import scalars
from ordcut.errors import DomainError
from ordcut.scalars import (KIND_Q, KIND_Z, Scalar, compare_cross, contains,
                            divisible_hull_kind, is_discrete_kind, quad_q,
                            quad_z)

RADS = [0, 2, 3, 5]


def interval(x, prec):
    """Exact rational bounds around the value of x."""
    if x.b == 0:
        return x.a, x.a
    scale = 10 ** prec
    s = isqrt(x.d * scale * scale)
    lo = Fraction(s, scale)
    hi = Fraction(s + 1, scale)
    if x.b > 0:
        return x.a + x.b * lo, x.a + x.b * hi
    return x.a + x.b * hi, x.a + x.b * lo


def oracle_sign(x, prec=25):
    lo, hi = interval(x, prec)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return None  # interval straddles zero: only exact zero is consistent


rats = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def scalar_strategy():
    return st.builds(lambda a, b, d: Scalar.make(a, b, d),
                     rats, rats, st.sampled_from(RADS))


def test_sign_examples():
    assert Scalar.make(1, -1, 2).sign() == -1
    assert Scalar.make(0).sign() == 0
    assert Scalar.make(Fraction(7, 5), -1, 2).sign() == -1


@settings(max_examples=300, deadline=None)
@given(scalar_strategy())
def test_sign_matches_interval_oracle(x):
    expected = oracle_sign(x)
    if expected is None:
        assert x.sign() == 0
    else:
        assert x.sign() == expected
    assert (-x).sign() == -x.sign()


@settings(max_examples=200, deadline=None)
@given(scalar_strategy(), scalar_strategy())
def test_sign_consistent_with_addition(x, y):
    if x._merged(y) is None:
        return
    s = (x + y).sign()
    o = oracle_sign(x + y)
    if o is not None:
        assert s == o


def test_compare_cross_examples():
    assert compare_cross(Scalar.make(1, 1, 2), Scalar.make(1, 1, 3)) == -1
    assert compare_cross(Scalar.make(Fraction(1, 2)),
                         Scalar.make(Fraction(1, 2))) == 0
    assert compare_cross(Scalar.make(2, 1, 2), Scalar.make(1, 1, 5)) == 1


@settings(max_examples=200, deadline=None)
@given(scalar_strategy(), scalar_strategy())
def test_compare_cross_antisymmetric(x, y):
    assert compare_cross(x, y) == -compare_cross(y, x)
    if compare_cross(x, y) == 0:
        # distinct radicals force distinct values unless both rational
        assert x == y


@settings(max_examples=200, deadline=None)
@given(scalar_strategy(), scalar_strategy(), scalar_strategy())
def test_compare_cross_transitive(x, y, z):
    if compare_cross(x, y) <= 0 and compare_cross(y, z) <= 0:
        assert compare_cross(x, z) <= 0


@settings(max_examples=200, deadline=None)
@given(scalar_strategy())
def test_floor(x):
    n = x.floor()
    assert (x - Scalar.make(n)).sign() >= 0
    assert (x - Scalar.make(n + 1)).sign() < 0


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


def test_canonical_form():
    assert Scalar.make(1, 1, 8) == Scalar.make(1, 2, 2)
    assert Scalar.make(1, 2, 1) == Scalar.make(3)
    assert Scalar.make(1, 0, 7) == Scalar.make(1)


# ---------------------------------------------------------------------------
# sympy as an independent oracle: radicand splits, signs and floors at large
# heights

def sympy_square_free(d):
    k = d0 = 1
    for p, e in sympy.factorint(d).items():
        k *= p ** (e // 2)
        d0 *= p ** (e % 2)
    return k, d0


def sympy_value(a, b, d):
    return sympy.Rational(a) + sympy.Rational(b) * sympy.sqrt(d)


def sympy_sign(value):
    s = sympy.sign(value)
    assert s in (-1, 0, 1), "sympy left the sign undecided"
    return int(s)


def near(p, d):
    """An integer within 1 of p*sqrt(d)."""
    t = isqrt(p * p * d)
    return t if p > 0 else -t


SMALL_PRIMES = list(sympy.primerange(2, scalars._TRIAL))


def assert_split_contract(d):
    """k^2 * d0 = d; d0 = 1 exactly when d is a square, else a non-square
    with no p^2 for p < 2^10 dividing it; and sympy's split below 2^30."""
    k, d0 = scalars._square_free(d)
    assert k * k * d0 == d
    assert (isqrt(d0) ** 2 == d0) == (d0 == 1)
    assert all(d0 % (p * p) for p in SMALL_PRIMES)
    if d < 1 << 30:
        assert (k, d0) == sympy_square_free(d)


@st.composite
def square_class_radicands(draw):
    """k^2 * P^2 * c with P, c primes past the trial bound."""
    P, c = (sympy.nextprime(draw(st.integers(scalars._TRIAL, 10 ** 6)))
            for _ in range(2))
    return draw(st.integers(1, 100)) ** 2 * P * P * c


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 12) | st.integers(1, 1 << 30) |
       square_class_radicands())
def test_square_free_keeps_its_contract(d):
    assert_split_contract(d)


def test_square_free_cube_root_boundary():
    p, q = 999983, 1000003
    for d in (p * p, 2 * p * p, p * q, 4 * p * q, p ** 4 * 3):
        assert scalars._square_free(d) == sympy_square_free(d), d
    # trial division stops below p, and p^3 is no square: d0 keeps p^2
    assert scalars._square_free(p ** 3) == (1, p ** 3)
    assert scalars._square_free(1031 ** 2 * 1033) == (1, 1031 ** 2 * 1033)
    assert scalars._square_free(1021 ** 2 * 1033) == (1021, 1033)
    assert scalars._square_free(0) == (1, 0)
    with pytest.raises(DomainError):
        scalars._square_free(-3)


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


def test_radicand_memo_is_bounded():
    memo = scalars._split
    for d in range(2, 302):
        assert scalars._square_free(d) == memo.__wrapped__(d)
    info = memo.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256
    assert info.misses == 300


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10 ** 9) | st.sampled_from([2, 8, 4 * 999983]),
                min_size=1, max_size=8))
def test_memoized_split_matches_the_body(ds):
    # repeated and fresh radicands alike
    for d in ds + ds[::-1]:
        assert scalars._square_free(d) == scalars._split.__wrapped__(d)


TALL_RADS = [2, 3, 7, 8, 12, 18, 99991, 10 ** 8 + 7, 4 * 999983]
heights = st.sampled_from([10 ** 30, 10 ** 60])


@st.composite
def tall_parts(draw):
    """(a, b, d) with |b| >= 10^30 and d possibly not square-free; half the
    draws put a + b*sqrt(d) within 1/q of an integer."""
    h = draw(heights)
    p = draw(st.sampled_from([-1, 1])) * (h + draw(st.integers(0, 10 ** 6)))
    q = draw(st.integers(1, 1000))
    d = draw(st.sampled_from(TALL_RADS))
    if draw(st.booleans()):
        num = -near(p, d) + draw(st.integers(-2, 2))
    else:
        num = draw(st.integers(-h * 10 ** 4, h * 10 ** 4))
    return Fraction(num, q), Fraction(p, q), d


@settings(max_examples=200, deadline=None)
@given(tall_parts())
def test_quad_sign_matches_sympy(parts):
    a, b, d = parts
    assert scalars._quad_sign(a, b, d) == sympy_sign(sympy_value(a, b, d))
    assert Scalar.make(a, b, d).sign() == scalars._quad_sign(a, b, d)


def test_quad_sign_pell_pairs():
    # x^2 - d*y^2 = +-1 puts x - y*sqrt(d) within 1/(2x) of zero
    for d, x, y in ((2, 1, 1), (2, 3, 2), (8, 3, 1), (12, 7, 2)):
        X, Y = x, y
        while X < 10 ** 30:  # powers of the unit x + y*sqrt(d)
            X, Y = X * x + d * Y * y, X * y + Y * x
        for a, b in ((X, -Y), (-X, Y), (X + 1, -Y), (X - 1, -Y)):
            assert scalars._quad_sign(Fraction(a), Fraction(b), d) == \
                sympy_sign(sympy_value(a, b, d))


@settings(max_examples=150, deadline=None)
@given(heights, st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.sampled_from(TALL_RADS), st.sampled_from(TALL_RADS),
       st.integers(-2, 2))
def test_compare_cross_matches_sympy(h, i, j, d, e, off):
    p = h + i if j % 2 else -(h + i)
    c = h + j if i % 2 else -(h + j)
    x = Scalar.make(0, p, d)
    # y - x = off plus two errors of size below 1: a delicate comparison
    y = Scalar.make(near(p, d) - near(c, e) + off, c, e)
    expected = sympy_sign(sympy_value(x.a, x.b, x.d) -
                          sympy_value(y.a, y.b, y.d))
    assert compare_cross(x, y) == expected
    assert compare_cross(y, x) == -expected


@settings(max_examples=150, deadline=None)
@given(tall_parts())
def test_floor_matches_sympy(parts):
    x = Scalar.make(*parts)
    assert x.floor() == int(sympy.floor(sympy_value(x.a, x.b, x.d)))


canon_rads = st.sampled_from([0, 1, 2, 3, 4, 8, 12, 18, 50])


@settings(max_examples=300, deadline=None)
@given(st.builds(Scalar.make, rats, rats, canon_rads),
       st.builds(Scalar.make, rats, rats, canon_rads), rats)
def test_arithmetic_results_are_canonical(x, y, r):
    results = [-x, x * r, x * 3]
    if r != 0:
        results.append(x / r)
    if x._merged(y) is not None:
        results += [x + y, x - y]
    if x.b == 0 or y.b == 0 or x.d == y.d:
        results.append(x * y)
        if y.sign() != 0:
            results.append(x / y)
    for z in results:
        assert z == Scalar.make(z.a, z.b, z.d)


def test_signs_and_arithmetic_never_factor(monkeypatch):
    x = Scalar.make(Fraction(-7, 3), 5, 12)
    y = Scalar.make(1, Fraction(1, 2), 3)
    z = Scalar.make(2, 10 ** 30, 10 ** 8 + 7)
    kind = quad_q(3)

    def refuse(d):
        raise AssertionError("factored %d outside ingestion" % d)

    monkeypatch.setattr(scalars, "_square_free", refuse)
    w = (x + y) * x / y - x * 3
    assert w.sign() != 0
    w.floor()
    z.floor()
    compare_cross(w, z)
    scalars._sign3(Fraction(1), Fraction(2), 12, Fraction(-3), 50)
    assert [contains(kind, g) for g in kind.generators()] == [True, True]


def test_floor_of_tall_scalar_is_quick():
    # a floor stepping by one from a fixed 1e-20 estimate needs ~1e10 steps
    x = Scalar.make(Fraction(1, 3), 10 ** 30 + 1, 101)
    expected = int(sympy.floor(sympy_value(x.a, x.b, x.d)))
    t0 = time.perf_counter()
    assert x.floor() == expected
    assert (-x).floor() == -expected - 1
    assert time.perf_counter() - t0 < 5


# ---------------------------------------------------------------------------
# rational fast paths: signs read from numerators, no factoring when d == 0

wide_rats = st.fractions(min_value=-10 ** 40, max_value=10 ** 40,
                         max_denominator=10 ** 20)


@settings(max_examples=150, deadline=None)
@given(wide_rats, wide_rats | st.integers(-10 ** 30, 10 ** 30))
def test_compare_cross_of_rationals_is_the_fraction_order(p, q):
    diff = p - q
    expected = (diff > 0) - (diff < 0)
    assert compare_cross(Scalar.make(p), Scalar.make(q)) == expected
    assert compare_cross(Scalar.make(p), Scalar.make(p)) == 0


@st.composite
def mixed_sign_parts(draw):
    """(a, b, d) with a and b of opposite signs; half the draws put a
    within 1/q of -b*sqrt(d), where the sign is delicate."""
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


@settings(max_examples=200, deadline=None)
@given(mixed_sign_parts())
def test_quad_sign_of_mixed_signs_matches_sympy(parts):
    a, b, d = parts
    assert scalars._quad_sign(a, b, d) == sympy_sign(sympy_value(a, b, d))


@settings(max_examples=100, deadline=None)
@given(mixed_sign_parts(), mixed_sign_parts(), st.integers(-3, 3))
def test_sign3_of_mixed_signs_matches_sympy(p1, p2, off):
    # u + v*sqrt(d) + w*sqrt(e) with v, w of opposite signs and u set
    # against their sum, so the squaring branches decide
    _, v, d = p1
    _, w, e = p2
    if (v > 0) == (w > 0):
        w = -w
    lead = sympy_value(0, v, d) + sympy_value(0, w, e)
    u = -Fraction(int(sympy.floor(lead * 10 ** 6)) + off, 10 ** 6)
    expected = sympy_sign(sympy.Rational(u) + lead)
    assert scalars._sign3(u, v, d, w, e) == expected


@settings(max_examples=150, deadline=None)
@given(wide_rats, wide_rats | st.integers(-10 ** 30, 10 ** 30))
def test_make_with_zero_radicand_is_rational_and_canonical(a, b):
    x = Scalar.make(a, b, 0)
    assert x == Scalar.make(a)
    assert (x.a, x.b, x.d) == (Fraction(a), 0, 0)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert Scalar.make(int(a)) == Scalar.make(Fraction(int(a)))


# ---------------------------------------------------------------------------
# the integer core: (p + q*sqrt(d))/n against sympy at heights up to 10^40

huge = st.integers(-10 ** 40, 10 ** 40)
huge_rats = st.builds(Fraction, huge, st.integers(1, 10 ** 40))
# square-free bases times squares: d square-free, a square, or neither
base_rads = st.sampled_from([2, 3, 5, 6, 7, 10, 1009, 99991])
radicands = st.one_of(st.just(0), base_rads,
                      st.builds(lambda s, k: s * k * k,
                                st.sampled_from([1, 2, 3, 6, 1009]),
                                st.integers(2, 40)))


def value(x):
    return sympy_value(x.a, x.b, x.d)


def assert_canonical(x):
    assert x.n > 0 and gcd(x.p, x.q, x.n) == 1
    assert (x.d == 0) == (x.q == 0)
    assert x.d == 0 or x.d >= 2 and scalars._square_free(x.d) == (1, x.d)
    assert x.d >= 1 << 30 or sympy_square_free(x.d) == (1, x.d)
    assert all(type(v) is int for v in (x.p, x.q, x.n, x.d))


@st.composite
def big_scalars(draw, d=None, rats=huge_rats):
    """A scalar of height up to 10^40 (or that of rats); half the draws lie
    within 1/q of an integer combination, where signs and floors are
    delicate."""
    d = draw(radicands) if d is None else d
    b = draw(rats)
    if d and draw(st.booleans()):
        q = draw(st.integers(1, 10 ** 6))
        a = Fraction(-near(b.numerator * q, d) // b.denominator
                     + draw(st.integers(-2, 2)), q)
    else:
        a = draw(rats)
    return Scalar.make(a, b, d)


@st.composite
def compatible_pairs(draw):
    """Two scalars whose sum and product are defined: one radical, or one
    of them rational."""
    s = draw(base_rads)
    x = draw(big_scalars(d=s * draw(st.integers(1, 5)) ** 2))
    y = draw(big_scalars(d=draw(st.sampled_from([0, s, 4 * s]))))
    return (x, y) if draw(st.booleans()) else (y, x)


@settings(max_examples=150, deadline=None)
@given(huge_rats | huge, huge_rats | huge, radicands)
def test_make_matches_sympy(a, b, d):
    x = Scalar.make(a, b, d)
    assert_canonical(x)
    assert sympy.expand(value(x) - sympy_value(a, b, d)) == 0


@settings(max_examples=150, deadline=None)
@given(compatible_pairs())
def test_arithmetic_of_scalars_matches_sympy(pair):
    x, y = pair
    for z, expected in ((x + y, value(x) + value(y)),
                        (x - y, value(x) - value(y)),
                        (x * y, value(x) * value(y)), (-x, -value(x))):
        assert_canonical(z)
        assert sympy.expand(value(z) - expected) == 0
    if y.sign() != 0:
        z = x / y
        assert_canonical(z)
        assert sympy.expand(value(z) * value(y) - value(x)) == 0


@settings(max_examples=150, deadline=None)
@given(big_scalars(), huge_rats | huge)
def test_arithmetic_with_rationals_matches_sympy(x, r):
    v, s = value(x), sympy.Rational(r)
    for z, expected in ((x + r, v + s), (x - r, v - s), (x * r, v * s),
                        (r * x, v * s)):
        assert_canonical(z)
        assert sympy.expand(value(z) - expected) == 0
    if r != 0:
        z = x / r
        assert_canonical(z)
        assert sympy.expand(value(z) * s - v) == 0


@settings(max_examples=150, deadline=None)
@given(big_scalars(), big_scalars())
def test_sign_floor_and_compare_match_sympy(x, y):
    assert x.sign() == sympy_sign(value(x))
    assert x.floor() == int(sympy.floor(value(x)))
    assert compare_cross(x, y) == sympy_sign(value(x) - value(y))


@settings(max_examples=150, deadline=None)
@given(big_scalars(), big_scalars())
def test_height_hash_and_parts(x, y):
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert x.height() == max(abs(x.a.numerator), x.a.denominator,
                             abs(x.b.numerator), x.b.denominator)
    z = Scalar.make(x.a, x.b, x.d)
    assert z == x and hash(z) == hash(x)
    if x == y:
        assert hash(x) == hash(y)
    assert x != (x.p, x.q, x.n, x.d) and x != (x.a, x.b, x.d)
    assert x != x.a  # nor its Fraction part


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
        with pytest.raises(ValueError):
            Scalar.make(1, "abc", d)
    assert Scalar.make(1, "1/2", 0) == Scalar.make(1)
    assert Scalar.make(1, "1/2", 2) == Scalar.make(1, Fraction(1, 2), 2)


# ---------------------------------------------------------------------------
# one square class, two radicands: P^2*c and c with P and c primes past the
# trial bound, which the split leaves apart; sympy reads both over sqrt(c)

big_primes = st.integers(scalars._TRIAL, 10 ** 6).map(sympy.nextprime)
tall_rats = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                      st.integers(1, 10 ** 30))


def class_value(x, P, c):
    """x in sympy as a + b*sqrt(c), for x over sqrt(P^2*c), sqrt(c) or 0."""
    return sympy_value(x.a, x.b * P if x.d == P * P * c else x.b, c)


@st.composite
def class_pairs(draw):
    """(P, c, x, y): x over sqrt(P^2*c) at heights up to 10^30; y is x's
    value over sqrt(c), a rational away from it, or any scalar over sqrt(c)
    or rational."""
    P, c = draw(big_primes), draw(big_primes)
    x = draw(big_scalars(d=P * P * c, rats=tall_rats.filter(bool)))
    how = draw(st.sampled_from(["same", "near", "any"]))
    if how == "any":
        return P, c, x, draw(big_scalars(d=draw(st.sampled_from([0, c])),
                                         rats=tall_rats))
    off = Fraction(draw(st.integers(-2, 2)), 10 ** 6) if how == "near" else 0
    return P, c, x, Scalar.make(x.a + off, x.b * P, c)


@settings(max_examples=150, deadline=None)
@given(class_pairs())
def test_one_square_class_matches_sympy(case):
    P, c, x, y = case
    assert x.d == P * P * c and y.d in (0, c)
    vx, vy = class_value(x, P, c), class_value(y, P, c)
    assert (x == y) == (y == x) == (sympy.expand(vx - vy) == 0)
    if x == y:
        assert hash(x) == hash(y)
    results = [(x + y, vx + vy), (y + x, vx + vy), (x - y, vx - vy),
               (x * y, vx * vy), (y * x, vx * vy)]
    for z, expected in results:
        assert_canonical(z)
        assert z.d in (0, y.d or x.d)  # over the smaller radicand
        assert sympy.expand(class_value(z, P, c) - expected) == 0
    if y.sign():
        z = x / y
        assert_canonical(z)
        assert sympy.expand(class_value(z, P, c) * vy - vx) == 0
    for z, v in ((x, vx), (y, vy)):
        assert z.sign() == sympy_sign(v)
        assert z.floor() == int(sympy.floor(v))
        a, b = z.a, z.b * P if z.d == P * P * c else z.b
        assert contains(quad_q(c), z) and contains(quad_q(P * P * c), z)
        assert contains(quad_z(c), z) == (a.denominator == b.denominator == 1)
        assert contains(quad_z(P * P * c), z) == \
            (a.denominator == (b / P).denominator == 1)
    assert compare_cross(x, y) == sympy_sign(vx - vy)
    assert compare_cross(y, x) == sympy_sign(vy - vx)


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
    assert w.height() < 10 ** 20
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
    assert w.height() <= (isqrt(d) + 1) * 10 ** k


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
    10^30: t inside or outside the kind, gap a positive element of it, often
    a tiny one."""
    kind = draw(st.sampled_from([KIND_Q, quad_q(3), quad_z(2)]))
    h = 10 ** draw(st.integers(0, 30))
    num, den = st.integers(-h, h), st.integers(1, h)
    if draw(st.booleans()):  # inside the kind
        if kind.tag == "Z":
            t = Scalar.make(draw(num), draw(num), 2)
        else:
            t = Scalar.make(Fraction(draw(num), draw(den)),
                            Fraction(draw(num), draw(den)), kind.d)
    else:  # over another radical, or a half-integer outside Z[sqrt 2]
        d = draw(st.sampled_from([0, 3, 5] if kind.tag == "Z" else
                                 [2, 5, 7]))
        b = Fraction(draw(st.integers(1, h)), draw(den))
        t = Scalar.make(Fraction(draw(num), draw(den)), b, d) if d else \
            Scalar.make(Fraction(2 * draw(num) + 1, 2))
    b = draw(st.integers(1, h))
    if kind.d and (kind.tag == "Z" or draw(st.booleans())):
        # |near(b, d) + off - b*sqrt(d)| is irrational, below 3 and near 1/b
        gap = Scalar.make(near(b, kind.d) + draw(st.integers(-2, 2)), -b,
                          kind.d)
    else:
        gap = Scalar.make(Fraction(draw(st.integers(1, 3) |
                                        st.integers(1, h)), b))
    return kind, t, positive(gap)


@settings(max_examples=300, deadline=None)
@given(below_cases())
def test_element_below_lies_inside_the_gap(case):
    kind, t, gap = case
    q = scalars.element_below(kind, t, gap)
    assert contains(kind, q)
    assert_canonical(q)
    assert sympy_sign(value(t) - value(q)) == 1
    assert sympy_sign(value(q) + value(gap) - value(t)) == 1


def test_element_below_steps_down_from_a_point_of_the_kind():
    # t in the kind: t - u keeps t's height, whatever the gap
    h = 10 ** 30
    for kind, t in ((KIND_Q, Scalar.make(Fraction(h, 7))),
                    (quad_q(3), Scalar.make(h, h - 1, 3)),
                    (quad_z(2), Scalar.make(h, h - 1, 2))):
        for gap in (Scalar.make(Fraction(1, 10 ** 6)), Scalar.make(5)):
            assert scalars.element_below(kind, t, gap) == \
                t - scalars.small_positive(kind, gap)


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

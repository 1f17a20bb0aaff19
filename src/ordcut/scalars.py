"""Exact arithmetic and sign determination for numbers a + b*sqrt(d).

Scalars are the coordinate domain for every rank-one factor and for gap
anchors.  All order decisions are exact: signs are resolved by case analysis
and squaring, never by floating point.  A radicand is factored once, when it
enters through `Scalar.make` or `RankOneKind`; arithmetic on canonical
scalars keeps their square-free radicand, and signs never factor.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt

from .errors import DomainError


def _square_free(d):
    """Split d >= 0 as k^2 * d0 with d0 square-free; returns (k, d0).

    Trial division stops once f^3 exceeds the cofactor r: r then has no
    prime below f, hence at most two prime factors, so it is 1, p, pq or
    p^2 and one isqrt tells them apart.  O(d^(1/3)) steps.
    """
    if d < 0:
        raise DomainError("negative radicand %d" % d)
    if d == 0:
        return 1, 0
    k, d0, r, f = 1, 1, d, 2
    while f * f * f <= r:
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


_FZERO = Fraction(0)


def _sgn(q):
    n = q.numerator  # a Fraction compared with 0 makes an ABC isinstance check
    return (n > 0) - (n < 0)


def _quad_sign(a, b, d):
    """Exact sign of a + b*sqrt(d) for rational a, b and any integer d >= 0.

    When a and b differ in sign, squaring gives sgn(a) * sgn(a^2 - b^2*d),
    decided on integers; d need not be square-free.
    """
    na, nb = a.numerator, b.numerator
    if nb == 0 or d == 0:
        return _sgn(a)
    if na == 0 or (na > 0) == (nb > 0):
        return _sgn(b)
    t, u = na * b.denominator, nb * a.denominator
    return _sgn(a) * _sgn(t * t - u * u * d)


def _sign3(u, v, d, w, e):
    """Exact sign of u + v*sqrt(d) + w*sqrt(e) for any integers d, e >= 0."""
    if w.numerator == 0 or e == 0:
        return _quad_sign(u, v, d)
    if v.numerator == 0 or d == 0:
        return _quad_sign(u, w, e)
    if d == e:
        return _quad_sign(u, v + w, d)
    s_l = _sgn(v)  # sign of v*sqrt(d) + w*sqrt(e)
    if s_l != _sgn(w):
        s_l *= _sgn(v * v * d - w * w * e)
    s_u = _sgn(u)
    if s_l * s_u >= 0:
        return s_l or s_u
    # opposite signs: the larger of (v*sqrt(d) + w*sqrt(e))^2 and u^2 wins
    return s_l * _quad_sign(v * v * d + w * w * e - u * u, 2 * v * w, d * e)


def _scalar(a, b, d):
    """The scalar a + b*sqrt(d) from Fractions a, b and a square-free d.

    The path of arithmetic on canonical scalars: it never factors.
    """
    return Scalar(a, b, d if b else 0)


@dataclass(frozen=True)
class Scalar:
    """The exact real a + b*sqrt(d), canonical: d square-free, d=0 when b=0."""

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def make(a, b=0, d=0):
        """The canonical form of a + b*sqrt(d); factors d unless d == 0."""
        a = a if type(a) is Fraction else Fraction(a)
        if d == 0:
            return Scalar(a, _FZERO, 0)
        b = b if type(b) is Fraction else Fraction(b)
        k, d0 = _square_free(d)
        if d0 == 1:
            return Scalar(a + b * k, _FZERO, 0)
        return _scalar(a, b if k == 1 else b * k, d0)

    def _merged(self, other):
        # radical of the sum/difference; None when incompatible
        if self.b == 0:
            return other.d
        if other.b == 0 or self.d == other.d:
            return self.d
        return None

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.make(other)
        if not (self.d or other.d):
            return Scalar(self.a + other.a, _FZERO, 0)
        d = self._merged(other)
        if d is None:
            raise DomainError("cannot add scalars over distinct radicals")
        return _scalar(self.a + other.a, self.b + other.b, d)

    def __neg__(self):
        return Scalar(-self.a, -self.b if self.d else _FZERO, self.d)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.make(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not self.d:
                return Scalar(self.a * other, _FZERO, 0)
            return _scalar(self.a * other, self.b * other, self.d)
        d = self.d if self.b != 0 else other.d
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise DomainError("cannot multiply scalars over distinct radicals")
        return _scalar(self.a * other.a + self.b * other.b * d,
                       self.a * other.b + self.b * other.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _scalar(self.a / other, self.b / other, self.d)
        norm = other.a * other.a - other.b * other.b * other.d
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * _scalar(other.a / norm, -other.b / norm, other.d)

    def sign(self):
        return _quad_sign(self.a, self.b, self.d)

    def floor(self):
        """Exact floor, certified by sign checks.

        With b = p/q, b*sqrt(d) lies within 1/q of sgn(p)*isqrt(p^2*d)/q,
        so the floor of a plus that estimate is off by at most one.
        """
        if self.b == 0:
            return floor(self.a)
        p, q = self.b.numerator, self.b.denominator
        t = isqrt(p * p * self.d)
        n = floor(self.a + Fraction(t if p > 0 else -t, q))
        if _quad_sign(self.a - n, self.b, self.d) < 0:
            return n - 1
        if _quad_sign(self.a - (n + 1), self.b, self.d) >= 0:
            return n + 1
        return n

    def height(self):
        return max(abs(self.a.numerator), self.a.denominator,
                   abs(self.b.numerator), self.b.denominator)


ZERO = Scalar.make(0)
ONE = Scalar.make(1)


def compare_cross(x, y):
    """Exact ordering of any two scalars, possibly over distinct radicals."""
    if x.d or y.d:
        return _sign3(x.a - y.a, x.b, x.d, -y.b, y.d)
    p, q = x.a.numerator * y.a.denominator, y.a.numerator * x.a.denominator
    return (p > q) - (p < q)


@dataclass(frozen=True)
class RankOneKind:
    """A concrete rank-one subgroup of the reals.

    tag "Z" with d=0 is the integers; tag "Q" with d=0 the rationals;
    tag "Z" with d>=2 the group Z + Z*sqrt(d); tag "Q" with d>=2 the
    field Q + Q*sqrt(d).
    """

    tag: str
    d: int

    def __post_init__(self):
        if self.tag not in ("Z", "Q"):
            raise DomainError("unknown rank-one kind %r" % (self.tag,))
        if self.d:
            k, d0 = _square_free(self.d)
            if k != 1 or d0 < 2:
                raise DomainError("radicand %d is not square-free >= 2" % self.d)

    def generators(self):
        """1, and sqrt(d) for a quadratic kind: they span the group."""
        if self.d:
            return (ONE, _scalar(Fraction(0), Fraction(1), self.d))
        return (ONE,)


KIND_Z = RankOneKind("Z", 0)
KIND_Q = RankOneKind("Q", 0)


def quad_z(d):
    return RankOneKind("Z", d)


def quad_q(d):
    return RankOneKind("Q", d)


def contains(kind, x):
    """Membership of the scalar x in the rank-one group."""
    if x.d not in (0, kind.d):  # canonical x: d == 0 exactly when b == 0
        return False
    return kind.tag == "Q" or x.a.denominator == 1 == x.b.denominator


def divisible_hull_kind(kind):
    # kind.d is square-free already: skip the factoring in __post_init__
    hull = object.__new__(RankOneKind)
    object.__setattr__(hull, "tag", "Q")
    object.__setattr__(hull, "d", kind.d)
    return hull


def is_discrete_kind(kind):
    return kind.tag == "Z" and kind.d == 0


def is_dense_kind(kind):
    return not is_discrete_kind(kind)


def small_positive(kind, bound):
    """Some element of the kind strictly between 0 and bound (bound > 0)."""
    if is_discrete_kind(kind):
        if compare_cross(ONE, bound) < 0:
            return ONE
        raise DomainError("no integer in (0, bound)")
    if kind.tag == "Q":
        h = Fraction(1, 2)
        while compare_cross(Scalar.make(h), bound) >= 0:
            h /= 2
        return Scalar.make(h)
    # Z + Z*sqrt(d): powers of the fractional part of sqrt(d) shrink to 0
    u = Scalar.make(-isqrt(kind.d), 1, kind.d)
    p = u
    while compare_cross(p, bound) >= 0:
        p = p * u
    return p


def _rationalize_below(delta, gap):
    """A rational r with delta - gap/2 < r < delta, for irrational delta."""
    half = gap / 2
    t = 1
    while compare_cross(Scalar.make(Fraction(1, 2 ** t)), half) >= 0:
        t += 1
    n = (delta * (2 ** t)).floor()
    r = Scalar.make(Fraction(n, 2 ** t))
    if compare_cross(r, delta) == 0:
        r = Scalar.make(Fraction(n, 2 ** t) - Fraction(1, 2 ** (t + 1)))
    return r


def element_below(kind, delta, gap):
    """An element of the kind inside (delta - gap, delta).

    Requires delta outside the (dense) kind and gap > 0.  Used to build
    invariance witnesses next to gap anchors.
    """
    if is_discrete_kind(kind):
        raise DomainError("element_below needs a dense kind")
    target = delta
    step = gap
    if target.d not in (0, kind.d):
        target = _rationalize_below(delta, gap)
        step = gap / 2
    u = small_positive(kind, step)
    m = (target / u).floor()
    q = u * m
    if compare_cross(q, target) == 0:
        q = q - u
    if compare_cross(q, delta) >= 0 or compare_cross(q + gap, delta) <= 0:
        raise AssertionError("element_below left (delta - gap, delta)")
    return q

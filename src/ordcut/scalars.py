"""Exact arithmetic and sign determination for numbers a + b*sqrt(d).

Scalars are the coordinate domain for every rank-one factor and for gap
anchors.  A scalar is four Python ints (p, q, n, d) standing for
(p + q*sqrt(d))/n, canonical: n > 0, gcd(p, q, n) = 1, and d = 0 exactly
when q = 0, else a non-square.  Arithmetic, signs, floors and the witness
builders `small_positive` and `element_below` work on those ints alone;
`Fraction` only converts input (`Scalar.make`, which hands ints to
`from_ratios`) and output (`.a`, `.b`), and `fractions` is imported there,
on first use, which keeps it and the `decimal` it imports out of a cold
start.  All order decisions are exact:
signs are resolved by case analysis and squaring on integers, never by
floating point, for any radicand.  Radicands enter through `from_ratios`
and `RankOneKind`, split by `_square_free` without factoring, so they may
keep the square of a prime past 2^10; two radicands d and e of one square
class meet through isqrt(d*e) (`_over`).
"""

from functools import lru_cache
from math import gcd, isqrt

from .errors import DomainError
from .record import Record

_TRIAL = 1 << 10  # trial division bound


def _square_free(d):
    """Split the int d >= 0 as k^2 * d0; returns (k, d0), d0 = 1 exactly
    when d is a nonzero square.

    The type is checked before the memo sees d: 2.0 and True hash and
    compare equal to the ints 2 and 1, and must not read their splits.
    """
    if d.__class__ is not int:
        raise DomainError("radicand must be an integer, not %s"
                          % d.__class__.__name__)
    if d < 0:
        raise DomainError("negative radicand %s" % _print_ratio(d, 1))
    return _split(d)


@lru_cache(maxsize=256)  # the radicands of a query, and of a few groups
def _split(d):
    """`_square_free` of an int d >= 0, unchecked and memoized.

    Trial division by f < _TRIAL while f^3 <= the cofactor r, then one
    isqrt pulls out a square r whole.  Once f^3 > r, r has no prime below f,
    so it is 1, p, pq or p^2 and d0 is square-free; that always happens
    for d < 2^30.  Above, d0 is a non-square that may keep the square of a
    prime past _TRIAL: at most _TRIAL/2 divisions, whatever d.
    """
    if d == 0:
        return 1, 0
    k, d0, r, f = 1, 1, d, 2
    while f < _TRIAL and f * f * f <= r:
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


def _sgn(x):
    return (x > 0) - (x < 0)


def _quad_sign(a, b, d):
    """Exact sign of a + b*sqrt(d) for integers (or Fractions) a, b and any
    integer d >= 0.

    When a and b differ in sign, squaring gives sgn(a) * sgn(a^2 - b^2*d);
    d need not be square-free.
    """
    if not b or not d:
        return _sgn(a)
    if not a or (a > 0) == (b > 0):
        return _sgn(b)
    return _sgn(a) * _sgn(a * a - b * b * d)


def _sign3(u, v, d, w, e):
    """Exact sign of u + v*sqrt(d) + w*sqrt(e), as for `_quad_sign`."""
    if not w or not e:
        return _quad_sign(u, v, d)
    if not v or not d:
        return _quad_sign(u, w, e)
    if d == e:
        return _quad_sign(u, v + w, d)
    s_l = _sgn(v)  # sign of v*sqrt(d) + w*sqrt(e)
    if (v > 0) != (w > 0):
        s_l *= _sgn(v * v * d - w * w * e)
    s_u = _sgn(u)
    if s_l * s_u >= 0:
        return s_l or s_u
    # opposite signs: the larger of (v*sqrt(d) + w*sqrt(e))^2 and u^2 wins
    return s_l * _quad_sign(v * v * d + w * w * e - u * u, 2 * v * w, d * e)


def _ratio(x):
    """Numerator and denominator of an int or a Fraction, or of any other
    Rational, as Fraction(x) would copy them; else of Fraction(x)."""
    try:
        return x.numerator, x.denominator
    except AttributeError:
        import fractions
        x = fractions.Fraction(x)
        return x.numerator, x.denominator


def _print_ratio(num, den):
    """num/den in lowest terms, den > 0; den omitted when it is 1."""
    try:
        if den == 1:
            return str(num)
        return "%d/%d" % (num, den)
    except ValueError:  # past the int-to-str limit, which Decimal does not have
        from decimal import Decimal
        text = str(Decimal(num))
        if den != 1:
            text += "/%s" % Decimal(den)
        return text


class _Ints:
    __slots__ = ("p", "q", "n", "d")


class _Draft(_Ints):
    """Scalar's layout with plain attribute stores: `_raw` fills one in and
    then makes it a Scalar, cheaper than four descriptor calls."""

    __slots__ = ()


class Scalar(_Ints):
    """The exact real (p + q*sqrt(d))/n, canonical: n > 0, gcd(p, q, n) = 1,
    d a non-square or 0, d = 0 exactly when q = 0.  Immutable.  A value has
    one form per radicand of its square class; `==` and `hash` go by value."""

    __slots__ = ()

    @staticmethod
    def make(a, b=0, d=0):
        """The canonical form of a + b*sqrt(d), a itself when it is a scalar
        and b = d = 0; splits d unless d == 0."""
        if a.__class__ is Scalar and b == 0 and d == 0:
            return a
        an, ad = _ratio(a)
        bn, bd = _ratio(b)  # b is converted, or refused, whatever d is
        if d == 0:
            return _raw(an, 0, ad, 0)  # an/ad is in lowest terms
        return from_ratios(an, ad, bn, bd, d)

    @property
    def a(self):
        import fractions
        return fractions.Fraction(self.p, self.n)

    @property
    def b(self):
        import fractions
        return fractions.Fraction(self.q, self.n)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return _raw, (self.p, self.q, self.n, self.d)

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        if self.d != other.d:
            merged = self._merged(other)
            if merged is None:
                return False
            self, other, _ = merged
        return self.p == other.p and self.q == other.q and self.n == other.n

    def __hash__(self):
        # the rational part, and the sign and square of the irrational part:
        # the same over every radicand of the class
        p, q, n = self.p, self.q, self.n
        if not q:
            return hash((p, n))
        g, t, u = gcd(p, n), q * q * self.d, n * n
        h = gcd(t, u)
        return hash((p // g, n // g, q > 0, t // h, u // h))

    def __str__(self):
        """DSL text: a, then + b*sqrt(d) when b != 0, each in lowest terms
        (a = p/n, b = q/n)."""
        g = gcd(self.p, self.n)
        a = _print_ratio(self.p // g, self.n // g)
        if not self.q:
            return a
        g = gcd(self.q, self.n)
        return "%s + %s*sqrt(%d)" % (a, _print_ratio(self.q // g, self.n // g),
                                     self.d)

    def __repr__(self):
        return "Scalar(%s)" % self

    def _merged(self, other):
        """(x, y, d): self and other over one radical d, the smaller of two
        radicands of one class; None for distinct radicals."""
        d, e = self.d, other.d
        if not d or not e:
            return self, other, d or e
        if d < e:
            y = _over(d, other)
            return None if y is None else (self, y, d)
        x = _over(e, self)
        return None if x is None else (x, other, e)

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.make(other)
        d = self.d
        if d != other.d:
            merged = self._merged(other)
            if merged is None:
                raise DomainError("cannot add scalars over distinct radicals")
            self, other, d = merged
        n, m = self.n, other.n
        if n == m:
            return _scalar(self.p + other.p, self.q + other.q, n, d)
        return _scalar(self.p * m + other.p * n, self.q * m + other.q * n,
                       n * m, d)

    def __neg__(self):
        return _raw(-self.p, -self.q, self.n, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):  # an int or a Fraction
            m = other.numerator
            return _scalar(self.p * m, self.q * m, self.n * other.denominator,
                           self.d)
        d = self.d
        if d != other.d:
            merged = self._merged(other)
            if merged is None:
                raise DomainError(
                    "cannot multiply scalars over distinct radicals")
            self, other, d = merged
        p, q, r, s = self.p, self.q, other.p, other.q
        return _scalar(p * r + q * s * d, p * s + q * r, self.n * other.n, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Scalar):  # an int or a Fraction
            m, k = other.numerator, other.denominator
            if m == 0:
                raise ZeroDivisionError("division by zero")
            if m < 0:
                m, k = -m, -k
            return _scalar(self.p * k, self.q * k, self.n * m, self.d)
        r, s, m = other.p, other.q, other.n
        norm = r * r - s * s * other.d
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        if norm < 0:
            norm, m = -norm, -m
        # 1/other = m*(r - s*sqrt(d))/norm
        return self * _scalar(r * m, -s * m, norm, other.d)

    def sign(self):
        return _quad_sign(self.p, self.q, self.d)

    def floor(self):
        """Exact floor from ints alone: floor(x/n) = floor(floor(x)/n) for
        x = p + q*sqrt(d), and floor(q*sqrt(d)) is isqrt(q^2*d) for q > 0,
        -isqrt(q^2*d - 1) - 1 for q < 0."""
        q = self.q
        if not q:
            return self.p // self.n
        t = q * q * self.d
        t = isqrt(t) if q > 0 else -isqrt(t - 1) - 1
        return (self.p + t) // self.n

    def height(self):
        """The largest numerator or denominator of a and b in lowest terms."""
        p, q, n = self.p, self.q, self.n
        g, h = gcd(p, n), gcd(q, n)
        return max(abs(p) // g, n // g, abs(q) // h, n // h)


_new = object.__new__


def _raw(p, q, n, d):
    """The scalar (p + q*sqrt(d))/n from ints already in canonical form."""
    x = _new(_Draft)
    x.p = p
    x.q = q
    x.n = n
    x.d = d
    x.__class__ = Scalar
    return x


def _scalar(p, q, n, d):
    """The scalar (p + q*sqrt(d))/n from ints with n > 0, d a non-square or 0.

    The path of arithmetic on canonical scalars: one gcd (none when n = 1),
    d zeroed when q = 0, and never a factoring.
    """
    if n != 1:
        g = gcd(p, q, n)
        if g != 1:
            p, q, n = p // g, q // g, n // g
    return _raw(p, q, n, d if q else 0)


def from_ratios(an, ad, bn, bd, d):
    """The scalar an/ad + (bn/bd)*sqrt(d) from ints, ad, bd > 0, in any
    terms; splits d unless d == 0."""
    if d == 0:
        return _scalar(an, 0, ad, 0)
    k, d0 = _square_free(d)
    if d0 == 1:
        return _scalar(an * bd + bn * k * ad, 0, ad * bd, 0)
    return _scalar(an * bd, bn * k * ad, ad * bd, d0)


def _over(d, x):
    """x rewritten over sqrt(d), for x over sqrt(e) with d, e non-squares:
    sqrt(e) = (s/d)*sqrt(d) when s = isqrt(d*e) has s^2 = d*e; None when
    d*e is not a square, so that sqrt(e)/sqrt(d) is irrational."""
    s = isqrt(d * x.d)
    if s * s != d * x.d:
        return None
    return _scalar(x.p * d, x.q * s, x.n * d, d)


ZERO = Scalar.make(0)
ONE = Scalar.make(1)


def compare_cross(x, y):
    """Exact ordering of any two scalars, possibly over distinct radicals."""
    n, m = x.n, y.n
    if x.d or y.d:
        return _sign3(x.p * m - y.p * n, x.q * m, x.d, -y.q * n, y.d)
    s, t = x.p * m, y.p * n
    return (s > t) - (s < t)


def first_difference(pairs):
    """(i, s) for the first pair (a, b) with a != b: its 1-based position i
    and the sign s of a - b; (None, 0) when every pair ties.  Every
    lexicographic decision walks its coordinates through here."""
    for i, (a, b) in enumerate(pairs, 1):
        s = compare_cross(a, b)
        if s:
            return i, s
    return None, 0


class RankOneKind(Record):
    """A concrete rank-one subgroup of the reals.

    tag "Z" with d=0 is the integers; tag "Q" with d=0 the rationals;
    tag "Z" with d>=2 the group Z + Z*sqrt(d); tag "Q" with d>=2 the
    field Q + Q*sqrt(d).
    """

    __slots__ = ("tag", "d")

    def __post_init__(self):
        if self.tag not in ("Z", "Q"):
            raise DomainError("unknown rank-one kind %r" % (self.tag,))
        d = self.d
        if d or d.__class__ is not int:  # 0.0, False and None are refused
            k, d0 = _square_free(d)
            if k != 1 or d0 < 2:
                raise DomainError("radicand %s is not square-free >= 2"
                                  % _print_ratio(d, 1))

    def generators(self):
        """1, and sqrt(d) for a quadratic kind: they span the group."""
        if self.d:
            return (ONE, _raw(0, 1, 1, self.d))
        return (ONE,)


KIND_Z = RankOneKind("Z", 0)
KIND_Q = RankOneKind("Q", 0)


def quad_z(d):
    return RankOneKind("Z", d)


def quad_q(d):
    return RankOneKind("Q", d)


def contains(kind, x):
    """Membership of the scalar x in the rank-one group."""
    # canonical x: q == 0 exactly when d == 0, and a, b are integers
    # exactly when n == 1
    if x.d in (0, kind.d):
        return kind.tag == "Q" or x.n == 1
    x = _over(kind.d, x) if kind.d else None
    return x is not None and (kind.tag == "Q" or x.n == 1)


def divisible_hull_kind(kind):
    return RankOneKind("Q", kind.d)


def is_discrete_kind(kind):
    return kind.tag == "Z" and kind.d == 0


def is_dense_kind(kind):
    return not is_discrete_kind(kind)


def small_positive(kind, bound):
    """Some element of the kind strictly between 0 and bound (bound > 0);
    over a Q kind, 1/2^t for the least t >= 1 with 1/2^t < bound."""
    if bound.sign() <= 0:
        raise DomainError("no element in (0, bound) for bound <= 0")
    if is_discrete_kind(kind):
        if compare_cross(ONE, bound) < 0:
            return ONE
        raise DomainError("no integer in (0, bound)")
    if kind.tag == "Q":
        return _raw(1, 0, 1 << max(1, (ONE / bound).floor().bit_length()), 0)
    # Z + Z*sqrt(d): the convergents p/q of sqrt(d) bring |q*sqrt(d) - p|
    # below any bound, the first of them being sqrt(d) - floor(sqrt(d));
    # q stays below 1/bound and the steps O(log(1/bound))
    d = kind.d
    a0 = isqrt(d)
    m, s, a = 0, 1, a0  # (sqrt(d) + m)/s is the complete quotient; a its floor
    p0, p, q0, q = 1, a0, 0, 1
    while True:
        x = _raw(-p, q, 1, d)  # q*sqrt(d) - p
        if x.sign() < 0:
            x = -x
        if compare_cross(x, bound) < 0:
            return x
        m = a * s - m
        s = (d - m * m) // s
        a = (a0 + m) // s
        p0, p, q0, q = p, a * p + p0, q, a * q + q0


def element_below(kind, t, gap):
    """An element of the dense kind inside (t - gap, t), for any t and
    gap > 0, with u = small_positive(kind, gap): t - u when t lies in the
    kind, else u*floor(t/u), which is not t.  A t over another radical is
    first lowered the same way to a dyadic within gap/2 (never t itself: t
    is irrational), and gap halved."""
    if is_discrete_kind(kind):
        raise DomainError("element_below needs a dense kind")
    r, step = t, gap
    if t.d not in (0, kind.d):
        step = gap / 2
        u = small_positive(KIND_Q, step)
        r = u * (t / u).floor()
    u = small_positive(kind, step)
    q = r - u if contains(kind, r) else u * (r / u).floor()
    if compare_cross(q, t) >= 0 or compare_cross(q + gap, t) <= 0:
        raise AssertionError("element_below left (t - gap, t)")
    return q

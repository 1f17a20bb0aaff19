"""Exact arithmetic and sign determination for numbers a + b*sqrt(d).

Scalars are the coordinate domain for every rank-one factor, for gap
anchors and, rational (q = 0), for the scales of factorwise morphisms.  A
scalar is four Python ints (p, q, n, d) standing for (p + q*sqrt(d))/n,
canonical: n > 0, gcd(p, q, n) = 1, and d = 0 exactly when q = 0, else a
non-square.  Arithmetic, signs, floors and the witness builders
`small_positive` and `element_below` work on those ints alone; a product or
quotient by a rational scalar, an int or a Fraction is one `_scalar` call.
A number that is not a Scalar is an int or a Fraction (`errors.rational`);
`fractions` is imported only for output (`.a`, `.b`), which keeps it and the
`decimal` it imports out of a cold start.  All order decisions are exact,
on integers and never in floating point, by the one sign rule stated at
`compare_cross`.  Radicands enter through `from_ratios` and `RankOneKind`,
split by `_square_free` without factoring: the primes below 2^10 come out
through gcds with their product, so d may keep the square of a larger
prime; two radicands of one square class meet through `class_root`.
"""

from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from .errors import DomainError, integer, rational
from .record import Record

_TRIAL = 1 << 10  # the primes below it are split off by gcds


def _square_free(d):
    """Split the int d >= 0 as k^2 * d0; returns (k, d0), d0 = 1 exactly
    when d is a nonzero square.

    The type is checked before the memo sees d: 2.0 and True hash and
    compare equal to the ints 2 and 1, and must not read their splits.
    """
    integer(d, "radicand")
    if d < 0:
        raise DomainError("negative radicand %s" % _print_ratio(d, 1))
    return _split(d)


def _primorial(bound):
    """The product of the primes below bound, by a sieve."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for f in range(2, isqrt(bound - 1) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, bound, f)))
    return prod(compress(range(bound), sieve))


_SMALL = _primorial(_TRIAL)  # gcd(r, _SMALL): the small primes dividing r


@lru_cache(maxsize=256)  # the radicands of a query, and of a few groups
def _split(d):
    """`_square_free` of an int d >= 0, unchecked and memoized.

    The primes below _TRIAL come out by gcds with their product, not by
    trial division: g holds the small primes still dividing the cofactor r,
    each round takes one of each out of r, and the ones that divide r again
    leave as a pair, into k; the others, of odd exponent, go to d0.  A
    round per pair of the largest small exponent, then one isqrt pulls out
    a square r whole.  d0 is then square-free when d < 2^30 (r is 1, p, pq
    or p^2 for primes p, q past _TRIAL); above, a non-square that may keep
    the square of a prime past _TRIAL.
    """
    if d == 0:
        return 1, 0
    k, d0, r = 1, 1, d
    g = gcd(r, _SMALL)
    while g != 1:
        r //= g
        h = gcd(r, g)  # the primes of g that divide r again
        d0 *= g // h
        r //= h
        k *= h
        g = gcd(r, h)
    s = isqrt(r)
    if s * s == r:
        return k * s, d0
    return k, d0 * r


def _sgn(x):
    return (x > 0) - (x < 0)


def _quad_sign(a, b, d):
    """Exact sign of a + b*sqrt(d) for integers a, b and d >= 0, d > 0
    when b != 0: the rule of `compare_cross` over one radical."""
    if not b:
        return _sgn(a)
    if not a or (a > 0) == (b > 0):
        return _sgn(b)
    return _sgn(a) * _sgn(a * a - b * b * d)


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
        an, ad = rational(a, "a coefficient")
        bn, bd = rational(b, "a coefficient")  # whatever d is
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
        return not compare_cross(self, other)

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
        return "%s + %s*sqrt(%s)" % (a, _print_ratio(self.q // g, self.n // g),
                                     _print_ratio(self.d, 1))

    def __repr__(self):
        return "Scalar(%s)" % self

    def _merged(self, other, verb):
        """(x, y, d): self and other over one radical d, the smaller of two
        radicands of one class; for distinct radicals the DomainError
        "cannot <verb> scalars ..." of `+` and `*`."""
        d, e = self.d, other.d
        if not d or not e:
            return self, other, d or e
        x, y = (self, _over(d, other)) if d < e else (_over(e, self), other)
        if x is None or y is None:
            raise DomainError("cannot %s scalars over distinct radicals"
                              % verb)
        return x, y, min(d, e)

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.make(other)
        d = self.d
        if d != other.d:
            self, other, d = self._merged(other, "add")
        n, m = self.n, other.n
        if n == m:
            return _scalar(self.p + other.p, self.q + other.q, n, d)
        return _scalar(self.p * m + other.p * n, self.q * m + other.q * n,
                       n * m, d)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.p, -self.q, self.n, self.d)

    def __sub__(self, other):
        if not isinstance(other, Scalar):  # read before it is negated
            other = Scalar.make(other)
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            m, k = rational(other, "a coefficient")
            return _scalar(self.p * m, self.q * m, self.n * k, self.d)
        if not other.q:
            return _scalar(self.p * other.p, self.q * other.p,
                           self.n * other.n, self.d)
        d = self.d
        if d != other.d:
            self, other, d = self._merged(other, "multiply")
        p, q, r, s = self.p, self.q, other.p, other.q
        return _scalar(p * r + q * s * d, p * s + q * r, self.n * other.n, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            if other.q:
                r, s, m = other.p, other.q, other.n
                norm = r * r - s * s * other.d  # nonzero: sqrt(d) irrational
                if norm < 0:
                    norm, m = -norm, -m
                # 1/other = m*(r - s*sqrt(d))/norm
                return self * _scalar(r * m, -s * m, norm, other.d)
            m, k = other.p, other.n
        else:
            m, k = rational(other, "a coefficient")
        if m == 0:
            raise ZeroDivisionError("division by zero")
        if m < 0:
            m, k = -m, -k
        return _scalar(self.p * k, self.q * k, self.n * m, self.d)

    def __rtruediv__(self, other):
        return Scalar.make(other) / self

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


def class_root(d, e):
    """The square-class test of d, e >= 0: t = sqrt(d*e) when that is an
    int t > 0, so that sqrt(e) = (t/d)*sqrt(d); else 0."""
    t = isqrt(d * e)
    return t if t * t == d * e else 0


def _over(d, x):
    """x rewritten over sqrt(d); None when d and x.d are of two classes."""
    t = class_root(d, x.d)
    return _scalar(x.p * d, x.q * t, x.n * d, d) if t else None


ZERO = Scalar.make(0)
ONE = Scalar.make(1)


def compare_cross(x, y):
    """Exact ordering of any two scalars, over one radical or two.

    Over the common denominator x - y = a + w*sqrt(e), a = u + v*sqrt(d),
    for ints u, v, w.  Its sign is sgn(a) when w = 0, sgn(w) when a = 0 or
    sgn(a) = sgn(w), else sgn(a)*sgn(a^2 - w^2*e) by squaring.  One radical
    (d = 0, e = 0 or d = e) makes a the int u: `_quad_sign`.  With two,
    sgn(a) is `_quad_sign` too, and a^2 - w^2*e has the one radical sqrt(d).
    """
    n, m = x.n, y.n
    u, d, e = x.p * m - y.p * n, x.d, y.d
    if d == e or not d or not e:
        b = x.q * m - y.q * n
        return _quad_sign(u, b, d or e) if b else (u > 0) - (u < 0)
    v, w = x.q * m, -y.q * n
    s = _quad_sign(u, v, d)
    if not s or (s > 0) == (w > 0):
        return _sgn(w)
    return s * _quad_sign(u * u + v * v * d - w * w * e, 2 * u * v, d)


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


KIND_Z = RankOneKind("Z", 0)
KIND_Q = RankOneKind("Q", 0)


def contains(kind, x):
    """Membership of the scalar x in the rank-one group; every record
    checks its scalars here, and refuses a value that is not a Scalar."""
    if x.__class__ is not Scalar:
        raise DomainError("a coordinate is a Scalar, not %s"
                          % x.__class__.__name__)
    # canonical x: q == 0 exactly when d == 0, and a, b are integers
    # exactly when n == 1
    if x.d not in (0, kind.d):
        x = _over(kind.d, x)
    return x is not None and (kind.tag == "Q" or x.n == 1)


def divisible_hull_kind(kind):
    return RankOneKind.trusted("Q", kind.d)


def is_discrete_kind(kind):
    return kind.tag == "Z" and kind.d == 0


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
    gap > 0, in one exact step: floor(t) when gap >= 1 and t is not an
    integer, since every dense kind holds Z; else, for u =
    small_positive(kind, gap), t - u when t lies in the kind, and else
    u*floor(t/u), which is not t.  Over Z[sqrt d] a t over another radical
    has no quotient by u: it is first lowered the same way to a dyadic
    within gap/2 (never t itself: t is irrational), and gap halved."""
    if is_discrete_kind(kind):
        raise DomainError("element_below needs a dense kind")
    if (t.q or t.n != 1) and compare_cross(gap, ONE) >= 0:
        q = _raw(t.floor(), 0, 1, 0)
    else:
        r, step = t, gap
        if kind.tag == "Z" and t.d not in (0, kind.d):
            step = gap / 2
            u = small_positive(KIND_Q, step)
            r = u * (t / u).floor()
        u = small_positive(kind, step)
        q = r - u if contains(kind, r) else u * (r / u).floor()
    if compare_cross(q, t) >= 0 or compare_cross(q + gap, t) <= 0:
        raise AssertionError("element_below left (t - gap, t)")
    return q

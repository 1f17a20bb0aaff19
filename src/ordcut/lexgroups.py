"""Finite lexicographic products of rank-one groups.

Factors are indexed 1..n from most significant.  C_k is the convex subgroup
zeroing the first k coordinates; C_0 = the whole group, C_n = (0), and these
n+1 subgroups are all convex subgroups of the product.  The quotient by C_k
and the sub-quotient C_{k1}/C_{k2} are the groups of `slice_group`; the
morphisms are the factorwise injections, among them `widening` and
`scaling`, with rational `Scalar` scales.

A lex group is already its own Hahn sum over the index chain 1..n: its
skeleton is its rank and factors, its Hahn embedding is the identity on
coordinates, each factor being a subgroup of the reals, and `widening` is
its injection into the divisible hull.

`widening` keeps a memo, `_widening`, keyed by the group (by its factors,
so two equal groups share an entry) and bounded at 256 entries; a value
that is not a LexGroup is refused before the memo hashes it.  The injection
into the divisible hull is built and checked once per group, and every
later call returns the same immutable record, which callers share.  A group
that is refused is not stored, so it raises its error again on every call.
"""

from functools import lru_cache

from .errors import (DomainError, expect, group_kind, index, rational,
                     same_group, tuple_field)
from . import scalars
from .record import Record
from .scalars import RankOneKind, Scalar, ZERO, ONE


class LexGroup(Record):
    __slots__ = ("factors",)

    def __post_init__(self):
        # a tuple, to key the widening memo; a loop is 3x faster than all()
        if isinstance(self.factors, tuple):
            for k in self.factors:
                if not isinstance(k, RankOneKind):
                    break
            else:
                return
        raise DomainError("group factors must be a tuple of rank-one kinds")

    @property
    def rank(self):
        return len(self.factors)


class GroupElement(Record):
    __slots__ = ("group", "coords")

    def __post_init__(self):
        group_kind(self.group, LexGroup, "an element")
        tuple_field(self.coords, "coordinates")
        if len(self.coords) != self.group.rank:
            raise DomainError("element has wrong number of coordinates")
        for kind, c in zip(self.group.factors, self.coords):
            if not scalars.contains(kind, c):
                raise DomainError("coordinate %s outside factor" % (c,))

    def __add__(self, other):
        same_group(other, self.group, GroupElement)
        return GroupElement.trusted(self.group, tuple(
            a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GroupElement.trusted(self.group,
                                    tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return all(c.sign() == 0 for c in self.coords)


class ConvexSubgroup(Record):
    __slots__ = ("group", "level")

    def __post_init__(self):
        group_kind(self.group, LexGroup, "a convex subgroup")
        index(self.level, "level", 0, self.group.rank)

    def member(self, x):
        same_group(x, self.group, GroupElement)
        return all(c.sign() == 0 for c in x.coords[:self.level])


def _scalars(coords):
    """The coordinates, a list or a tuple, as a tuple of Scalars: a Scalar
    passes as it is, any other value is read by `Scalar.make`."""
    if not isinstance(coords, (list, tuple)):
        raise DomainError("coordinates must be a list or a tuple")
    return tuple([c if c.__class__ is Scalar else Scalar.make(c)
                  for c in coords])


def element(group, coords):
    return GroupElement(group, _scalars(coords))


def zero(group):
    return GroupElement(group,
                        (ZERO,) * expect(group, LexGroup, "group").rank)


def unit(group, i):
    """The element with 1 at coordinate i (1-based), 0 elsewhere."""
    index(i, "coordinate index", 1, expect(group, LexGroup, "group").rank)
    coords = [ZERO] * group.rank
    coords[i - 1] = ONE
    return GroupElement(group, tuple(coords))


def lex_compare(x, y):
    same_group(y, expect(x, GroupElement, "element").group, GroupElement)
    return scalars.first_difference(zip(x.coords, y.coords))[1]


def iota(x):
    """Archimedean class: the 1-based index of the first nonzero coordinate."""
    for i, c in enumerate(expect(x, GroupElement, "element").coords):
        if c.sign() != 0:
            return i + 1
    raise DomainError("iota is undefined at zero")


def initial_part(x):
    i = iota(x)  # before x.coords is read
    return x.coords[i - 1]


def convex_subgroups(g):
    return [ConvexSubgroup(g, k)
            for k in range(expect(g, LexGroup, "group").rank + 1)]


def is_principal(c):
    return c.level <= c.group.rank - 1


# ---------------------------------------------------------------------------
# morphisms

def _scaled_into(kd, s, kc):
    """Whether s*kd lies in kc, for a rational scalar s, with no product
    formed.  For e = kd.d and c = kc.d: s lies in kc when kc is a Q kind or
    s an integer, s*Q only in a Q kind, and s*sqrt(e) under that condition
    when e is c, else when sqrt(e) = (t/c)*sqrt(c) for t =
    `scalars.class_root`(c, e) != 0 and s*t/c lies in kc.
    """
    if kc.tag != "Q" and (kd.tag == "Q" or s.n != 1):
        return False
    e, c = kd.d, kc.d
    if not e or e == c:
        return True
    t = scalars.class_root(c, e)
    return t != 0 and (kc.tag == "Q" or s.p * t % c == 0)


def _scale(s):
    """A scale as a Scalar: an int, a Fraction or a rational Scalar, > 0."""
    if s.__class__ is not Scalar:
        rational(s, "a scale")
        s = Scalar.make(s)
    elif s.q:
        raise DomainError("a scale is rational, not %s" % s)
    if s.p <= 0:
        raise DomainError("scales must be positive")
    return s


class FactorwiseInjection(Record):
    """x -> (s_1*x_1, ..., s_n*x_n) from dom into cod, its scales stored as
    Scalars (`_scale`), so that equal scales give equal morphisms."""

    __slots__ = ("dom", "cod", "scales")

    def __post_init__(self):
        group_kind(self.dom, LexGroup, "a factorwise injection")
        group_kind(self.cod, LexGroup, "a factorwise injection")
        if self.dom.rank != self.cod.rank:
            raise DomainError("factorwise morphism needs equal ranks")
        tuple_field(self.scales, "scales")
        if len(self.scales) != self.dom.rank:
            raise DomainError("one scale per factor required")
        scales = tuple(map(_scale, self.scales))
        for kd, kc, s in zip(self.dom.factors, self.cod.factors, scales):
            if not _scaled_into(kd, s, kc):
                raise DomainError(
                    "scaled factor image leaves the codomain factor")
        object.__setattr__(self, "scales", scales)

    def apply(self, x):
        if x.group != self.dom:
            raise DomainError("element is not in the morphism domain")
        return GroupElement.trusted(self.cod, tuple(
            c * s for c, s in zip(x.coords, self.scales)))


def scaling(g, scales):
    """The factorwise injection of g by these rational scalars into the
    group of each factor itself, or of its divisible hull where the scaled
    factor leaves it."""
    expect(g, LexGroup, "group")
    tuple_field(scales, "scales")
    scales = tuple(map(_scale, scales))
    return FactorwiseInjection(g, LexGroup(tuple(
        k if _scaled_into(k, s, k) else scalars.divisible_hull_kind(k)
        for k, s in zip(g.factors, scales))), scales)


def widening(g):
    """The canonical injection of g into its factorwise divisible hull; g
    is refused before the memo hashes it."""
    return _widening(expect(g, LexGroup, "group"))


@lru_cache(maxsize=256)  # the groups of a session
def _widening(g):
    hull = LexGroup(tuple(scalars.divisible_hull_kind(k) for k in g.factors))
    return FactorwiseInjection(g, hull, (ONE,) * g.rank)


def slice_group(g, k1, k2):
    """The sub-quotient C_{k1}/C_{k2}: factors k1+1..k2."""
    index(k1, "slice bound", 0, expect(g, LexGroup, "group").rank)
    index(k2, "slice bound", k1, g.rank)
    return LexGroup(g.factors[k1:k2])


def discreteness(g):
    """(has least positive element, all factors discrete, that element)."""
    if expect(g, LexGroup, "group").rank == 0:
        return False, True, None
    is_discrete = scalars.is_discrete_kind(g.factors[-1])
    discretely_ordered = all(scalars.is_discrete_kind(k) for k in g.factors)
    min_positive = unit(g, g.rank) if is_discrete else None
    return is_discrete, discretely_ordered, min_positive


def epsilon_upper(m, c):
    """The trace on the domain of a convex subgroup of the codomain."""
    same_group(c, expect(m, FactorwiseInjection, "morphism").cod,
               ConvexSubgroup, "subgroup")
    return ConvexSubgroup(m.dom, c.level)


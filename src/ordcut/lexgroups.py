"""Finite lexicographic products of rank-one groups.

Factors are indexed 1..n from most significant.  C_k is the convex subgroup
zeroing the first k coordinates; C_0 = the whole group, C_n = (0), and these
n+1 subgroups are all convex subgroups of the product.

`widening` keeps a memo keyed by the group (by its factors, so two equal
groups share an entry), bounded at 256 entries: the injection into the
divisible hull is built and checked once per group, and every later call
returns the same immutable record, which callers share.  A group that is
refused is not stored, so it raises its error again on every call.
"""

from functools import lru_cache

from .errors import DomainError
from . import scalars
from .ordsets import FiniteChain
from .record import Record
from .scalars import Scalar, ZERO, ONE


class LexGroup(Record):
    __slots__ = ("factors",)

    def __post_init__(self):
        # a tuple, so that a group hashes and can key the widening memo
        if not isinstance(self.factors, tuple):
            raise DomainError("group factors must be a tuple, not %s"
                              % type(self.factors).__name__)

    @property
    def rank(self):
        return len(self.factors)


class GroupElement(Record):
    __slots__ = ("group", "coords")

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise DomainError("element has wrong number of coordinates")
        for kind, c in zip(self.group.factors, self.coords):
            if not scalars.contains(kind, c):
                raise DomainError("coordinate %s outside factor" % (c,))

    def __add__(self, other):
        if self.group != other.group:
            raise DomainError("elements of different groups")
        return _unchecked_element(self.group, tuple(
            a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return _unchecked_element(self.group, tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return all(c.sign() == 0 for c in self.coords)


def _unchecked_element(group, coords):
    """A GroupElement from coordinates known to lie in the group, without
    the check in __post_init__; tests/test_source.py lists its callers."""
    x = object.__new__(GroupElement)
    object.__setattr__(x, "group", group)
    object.__setattr__(x, "coords", coords)
    return x


class ConvexSubgroup(Record):
    __slots__ = ("group", "level")

    def __post_init__(self):
        if not 0 <= self.level <= self.group.rank:
            raise DomainError("level %d outside 0..%d"
                              % (self.level, self.group.rank))

    def member(self, x):
        return all(c.sign() == 0 for c in x.coords[:self.level])


def element(group, coords):
    return GroupElement(group, tuple(map(Scalar.make, coords)))


def zero(group):
    return GroupElement(group, (ZERO,) * group.rank)


def unit(group, i):
    """The element with 1 at coordinate i (1-based), 0 elsewhere."""
    coords = [ZERO] * group.rank
    coords[i - 1] = ONE
    return GroupElement(group, tuple(coords))


def lex_compare(x, y):
    if x.group != y.group:
        raise DomainError("elements of different groups")
    return scalars.first_difference(zip(x.coords, y.coords))[1]


def iota(x):
    """Archimedean class: the 1-based index of the first nonzero coordinate."""
    for i, c in enumerate(x.coords):
        if c.sign() != 0:
            return i + 1
    raise DomainError("iota is undefined at zero")


def initial_part(x):
    return x.coords[iota(x) - 1]


def principal_pair(x):
    """(smallest convex subgroup containing x, largest avoiding x)."""
    i = iota(x)
    return (ConvexSubgroup(x.group, i - 1), ConvexSubgroup(x.group, i))


def convex_subgroups(g):
    return [ConvexSubgroup(g, k) for k in range(g.rank + 1)]


def is_principal(c):
    return c.level <= c.group.rank - 1


# ---------------------------------------------------------------------------
# morphisms

class QuotientProjection(Record):
    __slots__ = ("group", "level")

    @property
    def cod(self):
        return LexGroup(self.group.factors[:self.level])

    def apply(self, x):
        return GroupElement(self.cod, x.coords[:self.level])


class FactorwiseInjection(Record):
    __slots__ = ("dom", "cod", "scales")

    def __post_init__(self):
        if self.dom.rank != self.cod.rank:
            raise DomainError("factorwise morphism needs equal ranks")
        if len(self.scales) != self.dom.rank:
            raise DomainError("one scale per factor required")
        for kd, kc, s in zip(self.dom.factors, self.cod.factors, self.scales):
            if s <= 0:
                raise DomainError("scales must be positive")
            # a divisible factor spans its generators over Q, not only Z
            if kd.tag == "Q" and kc.tag != "Q" or not all(
                    scalars.contains(kc, g * s) for g in kd.generators()):
                raise DomainError(
                    "scaled factor image leaves the codomain factor")

    def apply(self, x):
        if x.group != self.dom:
            raise DomainError("element is not in the morphism domain")
        return _unchecked_element(self.cod, tuple(
            c * s for c, s in zip(x.coords, self.scales)))


@lru_cache(maxsize=256)  # the groups of a session
def widening(g):
    """The canonical injection of g into its factorwise divisible hull."""
    hull = LexGroup(tuple(scalars.divisible_hull_kind(k) for k in g.factors))
    import fractions
    return FactorwiseInjection(g, hull, (fractions.Fraction(1),) * g.rank)


def quotient(g, c):
    """(the quotient by C_k, the projection morphism)."""
    proj = QuotientProjection(g, c.level)
    return proj.cod, proj


def slice_group(g, k1, k2):
    """The sub-quotient C_{k1}/C_{k2}: factors k1+1..k2."""
    if not 0 <= k1 <= k2 <= g.rank:
        raise DomainError("bad slice window %d..%d" % (k1, k2))
    return LexGroup(g.factors[k1:k2])


def skeleton(g):
    """(index chain of size n, the rank-one factor list)."""
    return FiniteChain(g.rank), list(g.factors)


def hahn_embed(x):
    """Coordinates of x under the embedding into the real lex power.

    For lex products the canonical decomposition is coordinatewise, so the
    image is the coordinate sequence itself (order, iota, and initial parts
    are preserved on the nose): the map is the identity for every group
    ordcut builds, whose factors are already subgroups of the reals.
    """
    return tuple(x.coords)


def divisible_hull(g):
    m = widening(g)
    return m.cod, m


def discreteness(g):
    """(has least positive element, all factors discrete, that element)."""
    if g.rank == 0:
        return False, True, None
    is_discrete = scalars.is_discrete_kind(g.factors[-1])
    discretely_ordered = all(scalars.is_discrete_kind(k) for k in g.factors)
    min_positive = unit(g, g.rank) if is_discrete else None
    return is_discrete, discretely_ordered, min_positive


def epsilon_lower(m, c):
    """The convex subgroup of the codomain generated by the image of C_k."""
    if c.group != m.dom:
        raise DomainError("subgroup belongs to a different group")
    return ConvexSubgroup(m.cod, c.level)


def epsilon_upper(m, c):
    """The trace on the domain of a convex subgroup of the codomain."""
    if c.group != m.cod:
        raise DomainError("subgroup belongs to a different group")
    return ConvexSubgroup(m.dom, c.level)


def is_convex_dense(m):
    """Whether the two epsilon maps are mutually inverse bijections."""
    for k in range(m.dom.rank + 1):
        if epsilon_upper(m, epsilon_lower(m, ConvexSubgroup(m.dom, k))).level != k:
            return False
        if epsilon_lower(m, epsilon_upper(m, ConvexSubgroup(m.cod, k))).level != k:
            return False
    return True

"""Finite lexicographic products of rank-one groups.

Factors are indexed 1..n from most significant.  C_k is the convex subgroup
zeroing the first k coordinates; C_0 = the whole group, C_n = (0), and these
n+1 subgroups are all convex subgroups of the product.  The quotient by C_k
and the sub-quotient C_{k1}/C_{k2} are the groups of `slice_group`; the
morphisms are the factorwise injections, among them `widening`.

`widening` keeps a memo keyed by the group (by its factors, so two equal
groups share an entry), bounded at 256 entries: the injection into the
divisible hull is built and checked once per group, and every later call
returns the same immutable record, which callers share.  A group that is
refused is not stored, so it raises its error again on every call.
"""

from functools import lru_cache

from .errors import DomainError, integer, same_group
from . import scalars
from .ordsets import FiniteChain
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
        if len(self.coords) != self.group.rank:
            raise DomainError("element has wrong number of coordinates")
        for kind, c in zip(self.group.factors, self.coords):
            if not scalars.contains(kind, c):
                raise DomainError("coordinate %s outside factor" % (c,))

    def __add__(self, other):
        same_group(other, self.group)
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
        integer(self.level, "level")
        if not 0 <= self.level <= self.group.rank:
            raise DomainError("level %d outside 0..%d"
                              % (self.level, self.group.rank))

    def member(self, x):
        same_group(x, self.group)
        return all(c.sign() == 0 for c in x.coords[:self.level])


def element(group, coords):
    return GroupElement(group, tuple(map(Scalar.make, coords)))


def zero(group):
    return GroupElement(group, (ZERO,) * group.rank)


def unit(group, i):
    """The element with 1 at coordinate i (1-based), 0 elsewhere."""
    integer(i, "coordinate index")
    if not 1 <= i <= group.rank:
        raise DomainError("coordinate index %d outside 1..%d"
                          % (i, group.rank))
    coords = [ZERO] * group.rank
    coords[i - 1] = ONE
    return GroupElement(group, tuple(coords))


def lex_compare(x, y):
    same_group(y, x.group)
    return scalars.first_difference(zip(x.coords, y.coords))[1]


def iota(x):
    """Archimedean class: the 1-based index of the first nonzero coordinate."""
    for i, c in enumerate(x.coords):
        if c.sign() != 0:
            return i + 1
    raise DomainError("iota is undefined at zero")


def initial_part(x):
    return x.coords[iota(x) - 1]


def convex_subgroups(g):
    return [ConvexSubgroup(g, k) for k in range(g.rank + 1)]


def is_principal(c):
    return c.level <= c.group.rank - 1


# ---------------------------------------------------------------------------
# morphisms

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
        return GroupElement.trusted(self.cod, tuple(
            c * s for c, s in zip(x.coords, self.scales)))


@lru_cache(maxsize=256)  # the groups of a session
def widening(g):
    """The canonical injection of g into its factorwise divisible hull."""
    hull = LexGroup(tuple(scalars.divisible_hull_kind(k) for k in g.factors))
    import fractions
    return FactorwiseInjection(g, hull, (fractions.Fraction(1),) * g.rank)


def slice_group(g, k1, k2):
    """The sub-quotient C_{k1}/C_{k2}: factors k1+1..k2."""
    integer(k1, "slice bound")
    integer(k2, "slice bound")
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


def epsilon_upper(m, c):
    """The trace on the domain of a convex subgroup of the codomain."""
    same_group(c, m.cod, "subgroup")
    return ConvexSubgroup(m.dom, c.level)


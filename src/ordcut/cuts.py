"""Symbolic cut descriptors for finite-rank lex groups.

Every descriptor stores one boundary (ref, closed): a k-tuple ref and a
flag, with lower part {x : x[:k] <= ref} when closed and {x : x[:k] < ref}
when open.  It is one of:
  AllBelow / AllAbove      the two trivial cuts, k = 0 (AllBelow closed,
                           AllAbove open);
  Principal(ref, closed)   a cut at a point of factor k: side "below" when
                           closed, "above" when open;
  GapCut(ref)              the cut at an irrational point ref[-1] of a
                           dense factor k, below the prefix ref[:-1]; never
                           closed.
Membership, comparison, translation, quotient images, traces, pushes and
pulls all read that boundary.  For outside readers a Principal also has
`side`, `level` and `anchor` (the ref padded with zeros to the rank, built
when read), and a GapCut `level`, `prefix` and `delta`.

Canonical forms: `_cut(group, ref, closed)` turns every boundary into its
descriptor and is the one builder of Principal and GapCut: `principal`,
`gap_cut` and every operation that builds a cut end in it.  k = 0 gives
AllBelow or AllAbove.  Over a dense factor k a last entry outside the factor
is a gap, else a principal cut "below" (closed) or "above" (open).  Over a
discrete factor every boundary closes at an integer: {z < r} is
{z <= r - 1} (the relative-jump identification) and a t outside the factor
gives {z <= floor(t)}.  A Principal or GapCut built directly is refused
unless it is what `_cut` builds for its boundary; the public constructors
refuse gaps over discrete factors and level-0 descriptors.  Descriptor
equality then decides cut equality.
"""

from .errors import (DomainError, expect, group_kind, index, same_group,
                     tuple_field)
from . import scalars
from .record import Record
from .scalars import Scalar, ZERO, ONE
from .lexgroups import (ConvexSubgroup, FactorwiseInjection, GroupElement,
                        LexGroup, _inside, _scalars, slice_group)

MINUS = "minus"
PLUS = "plus"

BELOW = "below"
ABOVE = "above"


class AllBelow(Record):
    __slots__ = ("group",)
    ref, closed = (), True

    def __post_init__(self):
        group_kind(self.group, LexGroup, "a cut")


class AllAbove(Record):
    __slots__ = ("group",)
    ref, closed = (), False

    def __post_init__(self):
        group_kind(self.group, LexGroup, "a cut")


class Principal(Record):
    __slots__ = ("group", "ref", "closed")

    def __post_init__(self):
        _check(self)

    @property
    def side(self):
        return BELOW if self.closed else ABOVE

    @property
    def level(self):
        return len(self.ref)

    @property
    def anchor(self):
        """The ref padded with zeros to the rank, built when read."""
        return GroupElement(self.group, self.ref + (ZERO,) * (
            self.group.rank - len(self.ref)))


class GapCut(Record):
    __slots__ = ("group", "ref")
    closed = False  # no coordinate of the factor equals ref[-1]

    def __post_init__(self):
        _check(self)

    level = Principal.level

    @property
    def prefix(self):
        return self.ref[:-1]

    @property
    def delta(self):
        return self.ref[-1]


CUTS = (AllBelow, AllAbove, Principal, GapCut)


def _checked(group, level, coords):
    """The coordinates, a list or a tuple, as Scalars, each checked against
    its factor."""
    group_kind(group, LexGroup, "a cut")
    index(level, "level", 1, group.rank)
    coords = _scalars(coords)
    _inside(group, coords)
    return coords


def _check(c):
    """Refuse a Principal or GapCut that is not what `_cut` builds for its
    boundary: its entries but the last are Scalars in their factors, and
    `_cut` reads the last."""
    group_kind(c.group, LexGroup, "a cut")
    tuple_field(c.ref, "a cut's ref")
    index(len(c.ref), "level", 1, c.group.rank)
    _inside(c.group, c.ref[:-1])
    if c.closed.__class__ is not bool:
        raise DomainError("a cut's closed flag must be a bool")
    if _cut(c.group, c.ref, c.closed) != c:
        raise DomainError("a cut is stored as the canonical form of its "
                          "boundary")


def principal(group, side, coords, level):
    """Canonical principal descriptor; accepts raw coordinate sequences."""
    if side not in (BELOW, ABOVE):
        raise DomainError("side must be below or above")
    coords = _checked(group, level, coords)
    if len(coords) != group.rank:
        raise DomainError("anchor has wrong number of coordinates")
    return _cut(group, coords[:level], side == BELOW)


def gap_cut(group, prefix, level, delta):
    prefix = _checked(group, level, prefix)
    if len(prefix) != level - 1:
        raise DomainError("gap prefix needs exactly level-1 coordinates")
    if scalars.is_discrete_kind(group.factors[level - 1]):
        raise DomainError(
            "discrete factor normalizes gap to principal; use below/above")
    c = _cut(group, prefix + (Scalar.make(delta),), False)
    if isinstance(c, Principal):
        raise DomainError("gap anchor lies inside the factor; use below/above")
    return c


def _cut(group, ref, closed):
    """The canonical descriptor of the boundary (ref, closed) over group, for
    a ref tuple whose entries lie in their factors, but perhaps the last;
    the one builder of Principal and GapCut, it settles the last itself."""
    k = len(ref)
    if not k:
        return AllBelow(group) if closed else AllAbove(group)
    kind, t = group.factors[k - 1], ref[-1]
    if scalars.is_discrete_kind(kind):
        if not scalars.contains(kind, t):
            ref, closed = ref[:-1] + (Scalar.make(t.floor()),), True
        elif not closed:
            ref, closed = ref[:-1] + (t - ONE,), True
    elif not scalars.contains(kind, t):
        return GapCut.trusted(group, ref)
    return Principal.trusted(group, ref, closed)


def _group(c):
    """The group of a cut descriptor; any other c is refused (`expect`)."""
    if isinstance(c, CUTS):
        return c.group
    expect(c, CUTS, "cut")


def member(c, x):
    """Which side of the cut the element lies on."""
    same_group(x, _group(c), GroupElement)
    s = scalars.first_difference(zip(x.coords, c.ref))[1]
    if s:
        return MINUS if s < 0 else PLUS
    return MINUS if c.closed else PLUS


def invariance(c):
    """The largest convex subgroup whose translates fix the lower part."""
    return ConvexSubgroup(_group(c), len(c.ref))


TRIVIAL = "trivial"
RP_BELOW = "relatively_principal_below"
RP_ABOVE = "relatively_principal_above"
RELATIVE_JUMP = "relative_jump"
GAPPED = "gapped"
TIGHTENED = "tightened"


def classify(c):
    k = len(expect(c, CUTS, "cut").ref)
    if not k:
        return TRIVIAL
    if isinstance(c, GapCut):
        # finite rank: C_k is always the immediate predecessor of C_{k-1},
        # so the tightened branch is unreachable here
        return GAPPED
    if scalars.is_discrete_kind(c.group.factors[k - 1]):
        return RELATIVE_JUMP
    return RP_BELOW if c.closed else RP_ABOVE


def translate(c, g):
    """The descriptor of the translated cut (lower part shifted by g)."""
    same_group(g, _group(c), GroupElement)
    return _cut(c.group, tuple(a + b for a, b in zip(c.ref, g.coords)),
                c.closed)


def compare_cuts(c1, c2):
    """Total order on cuts by inclusion of lower parts: -1, 0, or +1."""
    same_group(c2, _group(c1), CUTS, "cut")
    r1, closed1 = c1.ref, c1.closed
    r2, closed2 = c2.ref, c2.closed
    s = scalars.first_difference(zip(r1, r2))[1]
    if s:
        return s
    # one ref extends the other: past the shorter ref, that cut's lower part
    # holds everything when it is closed and nothing when it is open
    if len(r1) < len(r2):
        return 1 if closed1 else -1
    if len(r2) < len(r1):
        return -1 if closed2 else 1
    return closed1 - closed2


def quotient_image(c, theta):
    """The image cut under the quotient by Theta = C_m (needs m >= level)."""
    same_group(theta, _group(c), ConvexSubgroup, "subgroup")
    m = theta.level
    qg = LexGroup(c.group.factors[:m])
    ref = c.ref
    if m < len(ref):
        raise DomainError("quotient image is not a cut: the coset of the "
                          "anchor lies in both image sides",
                          payload=GroupElement(qg, ref[:m]))
    return _cut(qg, ref, c.closed)


def trace(c, theta):
    """The trace cut on Theta = C_m (needs m < level, else trivial)."""
    same_group(theta, _group(c), ConvexSubgroup, "subgroup")
    m = theta.level
    if m >= len(c.ref):
        raise DomainError("trace is trivial: the window lies inside the "
                          "invariance subgroup")
    return _cut(slice_group(c.group, m, c.group.rank), c.ref[m:], c.closed)


def transport(c, theta1, theta2):
    """Trace on Theta2 then quotient by Theta1: the sub-quotient cut."""
    same_group(theta1, _group(c), ConvexSubgroup, "subgroup")
    same_group(theta2, c.group, ConvexSubgroup, "subgroup")
    m1 = theta1.level
    m2 = theta2.level
    k = len(c.ref)
    if not m2 < k <= m1:
        raise DomainError("transport window does not bracket the invariance "
                          "level (need m2 < %d <= m1)" % k)
    t = trace(c, theta2)
    return quotient_image(t, ConvexSubgroup(t.group, m1 - m2))


def interval_bounds(c, sigma):
    """(psi_minus, phi_minus, psi_plus, phi_plus) convex-subgroup levels for
    the greatest symmetric interval around sigma.

    sigma may lie on either side; the final-segment variant is used when it
    lies on the plus side.
    """
    same_group(sigma, _group(c), GroupElement)
    g = c.group
    n = g.rank

    def levels(pm, fm, pp, fp):
        return (ConvexSubgroup(g, pm), ConvexSubgroup(g, fm),
                ConvexSubgroup(g, pp), ConvexSubgroup(g, fp))

    ref = c.ref
    k = len(ref)
    if not k:
        return levels(min(1, n), 0, 0, 0)
    # a gap's delta always differs, so a gap's ref never runs out
    i0 = scalars.first_difference(zip(sigma.coords, ref))[0]
    if i0 == k and scalars.is_discrete_kind(g.factors[k - 1]) and \
            (sigma.coords[k - 1] - ref[k - 1]) == ONE:
        # a cut at a discrete factor is a relative jump (a canonical "below")
        # and sigma sits on its successor coset: the dual Above presentation
        # is anchored at sigma, so this is the matched case seen from the
        # plus side
        i0 = None
    if i0 is None:
        # matched principal: sigma sits on a closed side and S = C_k
        return levels(min(k + 1, n), k, k, k - 1)
    return levels(i0, i0, i0 - 1, i0 - 1)


# ---------------------------------------------------------------------------
# images along injective factorwise morphisms

def _over(m, c, side):
    """c's boundary, for a factorwise injection m and a cut c over its
    domain or codomain (side)."""
    expect(m, FactorwiseInjection, "morphism")
    if _group(c) != (m.dom if side == "domain" else m.cod):
        raise DomainError("cut is not over the morphism " + side)
    return c.ref, c.closed


def push_lower(m, c):
    """The smallest initial segment of the codomain containing the image."""
    ref, closed = _over(m, c, "domain")
    return _cut(m.cod, tuple(x * s for x, s in zip(ref, m.scales)), closed)


def push_upper(m, c):
    """The largest initial segment of the codomain pulling back into c."""
    ref, closed = _over(m, c, "domain")
    if isinstance(c, GapCut):
        # the image of delta has no preimage: the segment closes at it
        closed = True
    elif ref and scalars.is_discrete_kind(m.dom.factors[len(ref) - 1]):
        # {z <= r} is {z < r + 1}: the segment stops below the image of the
        # successor coset
        ref, closed = ref[:-1] + (ref[-1] + ONE,), False
    return _cut(m.cod, tuple(x * s for x, s in zip(ref, m.scales)), closed)


def pull(m, c):
    """The preimage cut on the morphism domain."""
    ref, closed = _over(m, c, "codomain")
    pulled = ()
    for target, s, kind in zip(ref, m.scales, m.dom.factors):
        pulled += (target / s,)
        if not scalars.contains(kind, pulled[-1]):
            break  # outside this factor, as any gap's delta is: decided here
    return _cut(m.dom, pulled, closed)


# ---------------------------------------------------------------------------
# constructive invariance witnesses

def _witness_positive(c, g, j):
    """(lo, hi) with lo in the lower part, hi = lo + g in the upper part,
    for positive g whose first nonzero coordinate j is at most the level k:
    lo is the ref padded with zeros, an open ref's last entry first lowered
    into its factor, by less than g moves it (1 when j < k, else g's k-th
    coordinate), through `scalars.element_below`."""
    ref = c.ref
    k = len(ref)
    if not c.closed:
        bound = ONE if j < k else g.coords[k - 1]
        ref = ref[:-1] + (scalars.element_below(c.group.factors[k - 1],
                                                ref[-1], bound),)
    lo = GroupElement(c.group, ref + (ZERO,) * (c.group.rank - k))
    return lo, lo + g


def invariance_witness(c, g):
    """A pair (y, y+g) straddling the cut, proving g does not stabilize it.

    For negative g the mirrored pair (y in the upper part, y+g in the lower
    part) is returned.  Raises for g inside the invariance subgroup.
    """
    same_group(g, _group(c), GroupElement)
    # g's first nonzero coordinate j and its sign decide the rest: g lies in
    # the invariance subgroup C_k exactly when j > k
    for j, x in enumerate(g.coords, 1):
        s = x.sign()
        if s:
            break
    else:
        raise DomainError("zero stabilizes every cut")
    if j > len(c.ref):
        raise DomainError("element lies in the invariance subgroup")
    lo, hi = _witness_positive(c, g if s > 0 else -g, j)
    if member(c, lo) != MINUS or member(c, hi) != PLUS:
        raise AssertionError("invariance witness does not straddle the cut")
    if s > 0:
        return lo, hi
    return hi, lo

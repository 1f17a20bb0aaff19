"""Symbolic cut descriptors for finite-rank lex groups.

A descriptor is one of:
  AllBelow / AllAbove        the two trivial cuts;
  Principal(side, anchor, k) the cut whose lower part compares the first k
                             coordinates against the anchor (closed for side
                             "below", open for side "above");
  GapCut(prefix, k, delta)   the cut at an irrational point of a dense
                             factor k, below the k-1 prefix coordinates.

Every descriptor reads as one boundary (ref, closed): a k-tuple ref and a
flag, with lower part {x : x[:k] <= ref} when closed and {x : x[:k] < ref}
when open.  The trivial cuts have k = 0 (AllBelow closed, AllAbove open); a
principal cut's ref is the first k coordinates of its anchor; a gap's ref is
its prefix followed by delta, and a gap is never closed.  Membership,
comparison, translation, quotient images, traces, pushes and pulls all work
on that boundary.

Canonical forms: `_cut(group, ref, closed)` turns every boundary into its
descriptor and is the one builder of Principal and GapCut: `principal`,
`gap_cut` and every operation that builds a cut end in it.  k = 0 gives
AllBelow or AllAbove.  Over a dense factor k a last entry outside the factor
is a gap, else a principal cut "below" (closed) or "above" (open).  Over a
discrete factor every boundary closes at an integer: {z < r} is
{z <= r - 1} (the relative-jump identification) and a t outside the factor
gives {z <= floor(t)}.  Principal anchors zero every coordinate beyond the
level; the public constructors refuse gaps over discrete factors and
level-0 descriptors.  Descriptor equality then decides cut equality.
"""

from .errors import DomainError, integer, same_group
from . import scalars
from .record import Record
from .scalars import Scalar, ZERO, ONE
from .lexgroups import (ConvexSubgroup, GroupElement, LexGroup, iota,
                        lex_compare, slice_group, zero)

MINUS = "minus"
PLUS = "plus"

BELOW = "below"
ABOVE = "above"


class AllBelow(Record):
    __slots__ = ("group",)


class AllAbove(Record):
    __slots__ = ("group",)


class Principal(Record):
    __slots__ = ("group", "side", "anchor", "level")


class GapCut(Record):
    __slots__ = ("group", "prefix", "level", "delta")


def _checked(group, level, coords):
    """The coordinates as Scalars, each checked against its factor."""
    integer(level, "level")
    if not 1 <= level <= group.rank:
        raise DomainError("level %d outside 1..%d (level 0 cuts are the "
                          "trivial AllBelow/AllAbove)" % (level, group.rank))
    coords = tuple(map(Scalar.make, coords))
    for kind, c in zip(group.factors, coords):
        if not scalars.contains(kind, c):
            raise DomainError("coordinate %s outside factor" % (c,))
    return coords


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


def is_trivial(c):
    return isinstance(c, (AllBelow, AllAbove))


def level_of(c):
    if is_trivial(c):
        return 0
    return c.level


def _ref(c):
    """The boundary (ref, closed): the lower part is {x : x[:k] <= ref} when
    closed, {x : x[:k] < ref} when open, for k = len(ref)."""
    if isinstance(c, Principal):
        return c.anchor.coords[:c.level], c.side == BELOW
    if isinstance(c, GapCut):
        # no coordinate of the factor equals delta: a gap is never closed
        return c.prefix + (c.delta,), False
    return (), isinstance(c, AllBelow)


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
            t, closed = Scalar.make(t.floor()), True
        elif not closed:
            t, closed = t - ONE, True
    elif not scalars.contains(kind, t):
        return GapCut(group, ref[:-1], k, t)
    anchor = GroupElement.trusted(
        group, ref[:-1] + (t,) + (ZERO,) * (group.rank - k))
    return Principal(group, BELOW if closed else ABOVE, anchor, k)


def member(c, x):
    """Which side of the cut the element lies on."""
    same_group(x, c.group)
    ref, closed = _ref(c)
    s = scalars.first_difference(zip(x.coords, ref))[1]
    if s:
        return MINUS if s < 0 else PLUS
    return MINUS if closed else PLUS


def invariance(c):
    """The largest convex subgroup whose translates fix the lower part."""
    return ConvexSubgroup(c.group, level_of(c))


TRIVIAL = "trivial"
RP_BELOW = "relatively_principal_below"
RP_ABOVE = "relatively_principal_above"
RELATIVE_JUMP = "relative_jump"
GAPPED = "gapped"
TIGHTENED = "tightened"


def classify(c):
    if is_trivial(c):
        return TRIVIAL
    if isinstance(c, GapCut):
        # finite rank: C_k is always the immediate predecessor of C_{k-1},
        # so the tightened branch is unreachable here
        return GAPPED
    if scalars.is_discrete_kind(c.group.factors[c.level - 1]):
        return RELATIVE_JUMP
    return RP_BELOW if c.side == BELOW else RP_ABOVE


def translate(c, g):
    """The descriptor of the translated cut (lower part shifted by g)."""
    same_group(g, c.group)
    ref, closed = _ref(c)
    return _cut(c.group, tuple(a + b for a, b in zip(ref, g.coords)), closed)


def compare_cuts(c1, c2):
    """Total order on cuts by inclusion of lower parts: -1, 0, or +1."""
    same_group(c2, c1.group, "cut")
    r1, closed1 = _ref(c1)
    r2, closed2 = _ref(c2)
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
    same_group(theta, c.group, "subgroup")
    m = theta.level
    qg = LexGroup(c.group.factors[:m])
    ref, closed = _ref(c)
    if m < len(ref):
        raise DomainError("quotient image is not a cut: the coset of the "
                          "anchor lies in both image sides",
                          payload=GroupElement(qg, ref[:m]))
    return _cut(qg, ref, closed)


def trace(c, theta):
    """The trace cut on Theta = C_m (needs m < level, else trivial)."""
    same_group(theta, c.group, "subgroup")
    if is_trivial(c):
        raise DomainError("trace of a trivial cut is trivial")
    m = theta.level
    if m >= c.level:
        raise DomainError("trace is trivial: the window lies inside the "
                          "invariance subgroup")
    ref, closed = _ref(c)
    return _cut(slice_group(c.group, m, c.group.rank), ref[m:], closed)


def transport(c, theta1, theta2):
    """Trace on Theta2 then quotient by Theta1: the sub-quotient cut."""
    same_group(theta1, c.group, "subgroup")
    m1 = theta1.level
    m2 = theta2.level
    k = level_of(c)
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
    same_group(sigma, c.group)
    g = c.group
    n = g.rank

    def levels(pm, fm, pp, fp):
        return (ConvexSubgroup(g, pm), ConvexSubgroup(g, fm),
                ConvexSubgroup(g, pp), ConvexSubgroup(g, fp))

    if is_trivial(c):
        return levels(min(1, n), 0, 0, 0)
    ref = _ref(c)[0]
    k = len(ref)
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

def push_lower(m, c):
    """The smallest initial segment of the codomain containing the image."""
    if c.group != m.dom:
        raise DomainError("cut is not over the morphism domain")
    ref, closed = _ref(c)
    return _cut(m.cod, tuple(x * s for x, s in zip(ref, m.scales)), closed)


def push_upper(m, c):
    """The largest initial segment of the codomain pulling back into c."""
    if c.group != m.dom:
        raise DomainError("cut is not over the morphism domain")
    ref, closed = _ref(c)
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
    if c.group != m.cod:
        raise DomainError("cut is not over the morphism codomain")
    ref, closed = _ref(c)
    pulled = ()
    for target, s, kind in zip(ref, m.scales, m.dom.factors):
        pulled += (target / s,)
        if not scalars.contains(kind, pulled[-1]):
            break  # outside this factor, as any gap's delta is: decided here
    return _cut(m.dom, pulled, closed)


# ---------------------------------------------------------------------------
# constructive invariance witnesses

def _witness_positive(c, g):
    """(lo, hi) with lo in the lower part, hi = lo + g in the upper part,
    for positive g outside the invariance subgroup: lo is the ref padded
    with zeros, an open ref's last entry first lowered into its factor, by
    less than g moves it, through `scalars.element_below`."""
    k = c.level
    j = iota(g)
    ref, closed = _ref(c)
    if not closed:
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
    same_group(g, c.group)
    if is_trivial(c):
        raise DomainError("trivial cuts are stabilized by every element")
    if g.is_zero():
        raise DomainError("zero stabilizes every cut")
    if invariance(c).member(g):
        raise DomainError("element lies in the invariance subgroup")
    positive = lex_compare(g, zero(g.group)) > 0
    lo, hi = _witness_positive(c, g if positive else -g)
    if member(c, lo) != MINUS or member(c, hi) != PLUS:
        raise AssertionError("invariance witness does not straddle the cut")
    if positive:
        return lo, hi
    return hi, lo

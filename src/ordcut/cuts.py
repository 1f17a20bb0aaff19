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

Canonical forms: principal anchors zero every coordinate beyond the level;
"above" over a discrete factor k rewrites to "below" at the predecessor
coset (the relative-jump identification); gaps over discrete factors and
level-0 descriptors are rejected.  Descriptor equality then decides cut
equality.
"""

from dataclasses import dataclass

from .errors import DomainError
from . import scalars
from .scalars import Scalar, ZERO, ONE
from .lexgroups import (ConvexSubgroup, GroupElement, LexGroup, iota,
                        lex_compare, slice_group, zero)

MINUS = "minus"
PLUS = "plus"

BELOW = "below"
ABOVE = "above"


@dataclass(frozen=True)
class AllBelow:
    group: LexGroup


@dataclass(frozen=True)
class AllAbove:
    group: LexGroup


@dataclass(frozen=True)
class Principal:
    group: LexGroup
    side: str
    anchor: GroupElement
    level: int


@dataclass(frozen=True)
class GapCut:
    group: LexGroup
    prefix: tuple
    level: int
    delta: Scalar


def principal(group, side, coords, level):
    """Canonical principal descriptor; accepts raw coordinate sequences."""
    if side not in (BELOW, ABOVE):
        raise DomainError("side must be below or above")
    if not 1 <= level <= group.rank:
        raise DomainError("level %d outside 1..%d (level 0 cuts are the "
                          "trivial AllBelow/AllAbove)" % (level, group.rank))
    coords = [Scalar.make(c) for c in coords]
    if len(coords) != group.rank:
        raise DomainError("anchor has wrong number of coordinates")
    coords = coords[:level] + [ZERO] * (group.rank - level)
    if side == ABOVE and scalars.is_discrete_kind(group.factors[level - 1]):
        # relative-jump identification: {prefix < z} = {prefix <= z - e_k}
        coords[level - 1] = coords[level - 1] - ONE
        side = BELOW
    anchor = GroupElement(group, tuple(coords))
    return Principal(group, side, anchor, level)


def gap_cut(group, prefix, level, delta):
    if not 1 <= level <= group.rank:
        raise DomainError("level %d outside 1..%d" % (level, group.rank))
    kind = group.factors[level - 1]
    if scalars.is_discrete_kind(kind):
        raise DomainError(
            "discrete factor normalizes gap to principal; use below/above")
    delta = Scalar.make(delta)
    if scalars.contains(kind, delta):
        raise DomainError("gap anchor lies inside the factor; use below/above")
    prefix = tuple(map(Scalar.make, prefix))
    if len(prefix) != level - 1:
        raise DomainError("gap prefix needs exactly level-1 coordinates")
    for kindi, c in zip(group.factors, prefix):
        if not scalars.contains(kindi, c):
            raise DomainError("gap prefix coordinate %s outside factor" % (c,))
    return GapCut(group, prefix, level, delta)


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


def _rebuild(c, group, ref):
    """The descriptor of c's shape over group at a new ref (level len(ref))."""
    k = len(ref)
    if isinstance(c, Principal):
        return principal(group, c.side,
                         tuple(ref) + (ZERO,) * (group.rank - k), k)
    return gap_cut(group, ref[:-1], k, ref[-1])


def member(c, x):
    """Which side of the cut the element lies on."""
    if x.group != c.group:
        raise DomainError("element belongs to a different group")
    ref, closed = _ref(c)
    for a, b in zip(x.coords, ref):
        s = scalars.compare_cross(a, b)
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
    if is_trivial(c):
        return c
    if g.group != c.group:
        raise DomainError("element belongs to a different group")
    return _rebuild(c, c.group,
                    tuple(a + b for a, b in zip(_ref(c)[0], g.coords)))


def compare_cuts(c1, c2):
    """Total order on cuts by inclusion of lower parts: -1, 0, or +1."""
    if c1.group != c2.group:
        raise DomainError("cuts over different groups")
    r1, closed1 = _ref(c1)
    r2, closed2 = _ref(c2)
    for a, b in zip(r1, r2):
        s = scalars.compare_cross(a, b)
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
    if theta.group != c.group:
        raise DomainError("subgroup belongs to a different group")
    m = theta.level
    qg = LexGroup(c.group.factors[:m])
    if is_trivial(c):
        return type(c)(qg)
    ref = _ref(c)[0]
    if m < len(ref):
        raise DomainError("quotient image is not a cut: the coset of the "
                          "anchor lies in both image sides",
                          payload=GroupElement(qg, ref[:m]))
    return _rebuild(c, qg, ref)


def trace(c, theta):
    """The trace cut on Theta = C_m (needs m < level, else trivial)."""
    if theta.group != c.group:
        raise DomainError("subgroup belongs to a different group")
    if is_trivial(c):
        raise DomainError("trace of a trivial cut is trivial")
    m = theta.level
    if m >= c.level:
        raise DomainError("trace is trivial: the window lies inside the "
                          "invariance subgroup")
    return _rebuild(c, slice_group(c.group, m, c.group.rank), _ref(c)[0][m:])


def transport(c, theta1, theta2):
    """Trace on Theta2 then quotient by Theta1: the sub-quotient cut."""
    m1 = theta1.level
    m2 = theta2.level
    k = level_of(c)
    if not m2 < k <= m1:
        raise DomainError("transport window does not bracket the invariance "
                          "level (need m2 < %d <= m1)" % k)
    t = trace(c, theta2)
    return quotient_image(t, ConvexSubgroup(t.group, m1 - m2))


def _first_diff(ref, x):
    """First position (1-based) where x departs from the ref, else None; a
    gap's delta always differs, so a gap's ref never runs out."""
    for i, (a, b) in enumerate(zip(x.coords, ref)):
        if scalars.compare_cross(a, b) != 0:
            return i + 1
    return None


def interval_bounds(c, sigma):
    """(psi_minus, phi_minus, psi_plus, phi_plus) convex-subgroup levels for
    the greatest symmetric interval around sigma.

    sigma may lie on either side; the final-segment variant is used when it
    lies on the plus side.
    """
    if sigma.group != c.group:
        raise DomainError("element belongs to a different group")
    g = c.group
    n = g.rank

    def levels(pm, fm, pp, fp):
        return (ConvexSubgroup(g, pm), ConvexSubgroup(g, fm),
                ConvexSubgroup(g, pp), ConvexSubgroup(g, fp))

    if is_trivial(c):
        return levels(min(1, n), 0, 0, 0)
    ref = _ref(c)[0]
    k = len(ref)
    i0 = _first_diff(ref, sigma)
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


def symmetric_interval_member(c, sigma, xi):
    """Whether xi lies in the greatest symmetric interval S around sigma."""
    if lex_compare(xi, zero(xi.group)) < 0:
        xi = -xi
    if member(c, sigma) == MINUS:
        return member(c, sigma + xi) == MINUS
    return member(c, sigma - xi) == PLUS


# ---------------------------------------------------------------------------
# images along injective factorwise morphisms

def _push(m, c, gap_side):
    """The image of a nontrivial cut: its ref scaled, with a gap collapsed
    to gap_side of its scaled delta when that lies in the codomain factor."""
    ref = tuple(x * s for x, s in zip(_ref(c)[0], m.scales))
    k = len(ref)
    if isinstance(c, GapCut) and \
            scalars.contains(m.cod.factors[k - 1], ref[-1]):
        return principal(m.cod, gap_side,
                         ref + (ZERO,) * (m.cod.rank - k), k)
    return _rebuild(c, m.cod, ref)


def push_lower(m, c):
    """The smallest initial segment of the codomain containing the image."""
    if c.group != m.dom:
        raise DomainError("cut is not over the morphism domain")
    if is_trivial(c):
        return type(c)(m.cod)
    return _push(m, c, ABOVE)


def push_upper(m, c):
    """The largest initial segment of the codomain pulling back into c."""
    if c.group != m.dom:
        raise DomainError("cut is not over the morphism domain")
    if is_trivial(c):
        return type(c)(m.cod)
    k = c.level
    if scalars.is_discrete_kind(m.dom.factors[k - 1]):
        # a cut at a discrete factor is a canonical "below"; adjoint computed
        # exactly: everything below the image of the successor coset
        img = list(m.apply(c.anchor).coords)
        img[k - 1] = img[k - 1] + Scalar.make(m.scales[k - 1])
        return principal(m.cod, ABOVE, img, k)
    return _push(m, c, BELOW)


def pull(m, c):
    """The preimage cut on the morphism domain."""
    if c.group != m.cod:
        raise DomainError("cut is not over the morphism codomain")
    dom = m.dom
    if is_trivial(c):
        return type(c)(dom)
    pulled = []
    for target, s, kind in zip(_ref(c)[0], m.scales, dom.factors):
        beta = target / s
        if scalars.contains(kind, beta):
            pulled.append(beta)
            continue
        # the ref coordinate falls outside this factor: the preimage cut is
        # decided at this position
        i = len(pulled) + 1
        if scalars.is_discrete_kind(kind):
            coords = pulled + [Scalar.make(beta.floor())] + \
                [ZERO] * (dom.rank - i)
            return principal(dom, BELOW, coords, i)
        return gap_cut(dom, tuple(pulled), i, beta)
    if isinstance(c, GapCut):
        # delta mapped back into the factor would contradict delta being
        # outside the codomain factor
        raise AssertionError("unreachable: gap anchor pulled into the factor")
    return _rebuild(c, dom, pulled)


# ---------------------------------------------------------------------------
# constructive invariance witnesses

def _witness_positive(c, g):
    """(lo, hi) with lo in the lower part, hi = lo + g in the upper part,
    for positive g outside the invariance subgroup: lo is the ref padded
    with zeros, an open ref's last entry first lowered into its factor, by
    less than g moves it, through `scalars.element_below`."""
    k = c.level
    j = iota(g)
    if j > k:
        raise AssertionError("witness needs g outside C_level")
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

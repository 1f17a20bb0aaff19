"""Symbolic cut descriptors for finite-rank lex groups.

A descriptor is one of:
  AllBelow / AllAbove        the two trivial cuts;
  Principal(side, anchor, k) the cut whose lower part compares the first k
                             coordinates against the anchor (closed for side
                             "below", open for side "above");
  GapCut(prefix, k, delta)   the cut at an irrational point of a dense
                             factor k, below the k-1 prefix coordinates.

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
    coords = [c if isinstance(c, Scalar) else Scalar.make(c) for c in coords]
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
    if not isinstance(delta, Scalar):
        delta = Scalar.make(delta)
    if scalars.contains(kind, delta):
        raise DomainError("gap anchor lies inside the factor; use below/above")
    prefix = tuple(c if isinstance(c, Scalar) else Scalar.make(c)
                   for c in prefix)
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


def _prefix_cmp(xs, ys):
    for a, b in zip(xs, ys):
        s = scalars.compare_cross(a, b)
        if s != 0:
            return s
    return 0


def member(c, x):
    """Which side of the cut the element lies on."""
    if x.group != c.group:
        raise DomainError("element belongs to a different group")
    if isinstance(c, AllBelow):
        return MINUS
    if isinstance(c, AllAbove):
        return PLUS
    if isinstance(c, Principal):
        k = c.level
        s = _prefix_cmp(x.coords[:k], c.anchor.coords[:k])
        if c.side == BELOW:
            return MINUS if s <= 0 else PLUS
        return MINUS if s < 0 else PLUS
    k = c.level
    s = _prefix_cmp(x.coords[:k - 1], c.prefix)
    if s != 0:
        return MINUS if s < 0 else PLUS
    return MINUS if scalars.compare_cross(x.coords[k - 1], c.delta) < 0 \
        else PLUS


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
    if isinstance(c, Principal):
        return principal(c.group, c.side, (c.anchor + g).coords, c.level)
    k = c.level
    prefix = tuple(a + b for a, b in zip(c.prefix, g.coords[:k - 1]))
    return gap_cut(c.group, prefix, k, c.delta + g.coords[k - 1])


_NINF = ("-inf",)
_PINF = ("+inf",)


def _boundary(c):
    """Canonical boundary key: the lower part is {x : x < boundary}, with a
    final tie tag (1 when equality at every coordinate still lands below)."""
    n = c.group.rank
    if isinstance(c, AllBelow):
        return [_PINF] * n, 0
    if isinstance(c, AllAbove):
        return [_NINF] * n, 0
    if isinstance(c, Principal):
        k = c.level
        fill = _PINF if c.side == BELOW else _NINF
        ents = [("v", s) for s in c.anchor.coords[:k]] + [fill] * (n - k)
        return ents, (1 if (c.side == BELOW and k == n) else 0)
    k = c.level
    ents = [("v", s) for s in c.prefix] + [("v", c.delta)] + \
        [_NINF] * (n - k)
    return ents, 0


_ENT_RANK = {"-inf": -1, "v": 0, "+inf": 1}


def _ent_cmp(a, b):
    if a == b:
        return 0
    ra, rb = _ENT_RANK[a[0]], _ENT_RANK[b[0]]
    if ra != rb:
        return -1 if ra < rb else 1
    return scalars.compare_cross(a[1], b[1])


def compare_cuts(c1, c2):
    """Total order on cuts by inclusion of lower parts: -1, 0, or +1."""
    if c1.group != c2.group:
        raise DomainError("cuts over different groups")
    e1, t1 = _boundary(c1)
    e2, t2 = _boundary(c2)
    for a, b in zip(e1, e2):
        s = _ent_cmp(a, b)
        if s != 0:
            return s
    if t1 != t2:
        return -1 if t1 < t2 else 1
    return 0


def quotient_image(c, theta):
    """The image cut under the quotient by Theta = C_m (needs m >= level)."""
    if theta.group != c.group:
        raise DomainError("subgroup belongs to a different group")
    m = theta.level
    qg = LexGroup(c.group.factors[:m])
    if isinstance(c, AllBelow):
        return AllBelow(qg)
    if isinstance(c, AllAbove):
        return AllAbove(qg)
    k = c.level
    if m < k:
        if isinstance(c, Principal):
            coords = c.anchor.coords[:m]
        else:
            coords = c.prefix[:m]
        witness = GroupElement(qg, coords)
        raise DomainError("quotient image is not a cut: the coset of the "
                          "anchor lies in both image sides", payload=witness)
    if isinstance(c, Principal):
        coords = c.anchor.coords[:k] + (ZERO,) * (m - k)
        return principal(qg, c.side, coords, k)
    return gap_cut(qg, c.prefix, k, c.delta)


def trace(c, theta):
    """The trace cut on Theta = C_m (needs m < level, else trivial)."""
    if theta.group != c.group:
        raise DomainError("subgroup belongs to a different group")
    if is_trivial(c):
        raise DomainError("trace of a trivial cut is trivial")
    m = theta.level
    k = c.level
    if m >= k:
        raise DomainError("trace is trivial: the window lies inside the "
                          "invariance subgroup")
    sg = slice_group(c.group, m, c.group.rank)
    if isinstance(c, Principal):
        return principal(sg, c.side, c.anchor.coords[m:], k - m)
    return gap_cut(sg, c.prefix[m:], k - m, c.delta)


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


def _first_diff(c, x):
    """First prefix position (1-based) where x departs from the anchor."""
    if isinstance(c, Principal):
        ref = c.anchor.coords[:c.level]
    else:
        ref = c.prefix
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
    k = c.level
    i0 = _first_diff(c, sigma)
    if isinstance(c, Principal) and i0 == k and c.side == BELOW and \
            scalars.is_discrete_kind(g.factors[k - 1]) and \
            (sigma.coords[k - 1] - c.anchor.coords[k - 1]) == ONE:
        # sigma sits on the successor coset of a relative jump: the dual
        # Above presentation is anchored at sigma, so this is the matched
        # case seen from the plus side
        i0 = None
    if i0 is None:
        if isinstance(c, GapCut):
            return levels(k, k, k - 1, k - 1)
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

def _push_gap(m, c, side):
    """The image of a gap cut, collapsed to the given side of the scaled
    anchor when that anchor lies in the codomain factor."""
    k = c.level
    p = tuple(x * s for x, s in zip(c.prefix, m.scales))
    d = c.delta * m.scales[k - 1]
    if scalars.contains(m.cod.factors[k - 1], d):
        coords = p + (d,) + (ZERO,) * (m.cod.rank - k)
        return principal(m.cod, side, coords, k)
    return gap_cut(m.cod, p, k, d)


def push_lower(m, c):
    """The smallest initial segment of the codomain containing the image."""
    if c.group != m.dom:
        raise DomainError("cut is not over the morphism domain")
    if isinstance(c, AllBelow):
        return AllBelow(m.cod)
    if isinstance(c, AllAbove):
        return AllAbove(m.cod)
    if isinstance(c, Principal):
        return principal(m.cod, c.side, m.apply(c.anchor).coords, c.level)
    return _push_gap(m, c, ABOVE)


def push_upper(m, c):
    """The largest initial segment of the codomain pulling back into c."""
    if c.group != m.dom:
        raise DomainError("cut is not over the morphism domain")
    if isinstance(c, AllBelow):
        return AllBelow(m.cod)
    if isinstance(c, AllAbove):
        return AllAbove(m.cod)
    if isinstance(c, Principal):
        k = c.level
        img = list(m.apply(c.anchor).coords)
        if c.side == BELOW and \
                scalars.is_discrete_kind(m.dom.factors[k - 1]):
            # adjoint computed exactly: everything below the image of the
            # successor coset
            img[k - 1] = img[k - 1] + Scalar.make(m.scales[k - 1])
            return principal(m.cod, ABOVE, img, k)
        return principal(m.cod, c.side, img, k)
    return _push_gap(m, c, BELOW)


def pull(m, c):
    """The preimage cut on the morphism domain."""
    if c.group != m.cod:
        raise DomainError("cut is not over the morphism codomain")
    dom = m.dom
    if isinstance(c, AllBelow):
        return AllBelow(dom)
    if isinstance(c, AllAbove):
        return AllAbove(dom)
    k = c.level
    if isinstance(c, Principal):
        targets = c.anchor.coords[:k]
    else:
        targets = c.prefix + (c.delta,)
    pulled = []
    for i in range(1, k + 1):
        beta = targets[i - 1] / m.scales[i - 1]
        kind = dom.factors[i - 1]
        if scalars.contains(kind, beta):
            pulled.append(beta)
            continue
        # the anchor coordinate falls outside factor i: the preimage cut is
        # decided at position i
        if scalars.is_discrete_kind(kind):
            coords = pulled + [Scalar.make(beta.floor())] + \
                [ZERO] * (dom.rank - i)
            return principal(dom, BELOW, coords, i)
        return gap_cut(dom, tuple(pulled), i, beta)
    if isinstance(c, GapCut):
        # delta mapped back into the factor would contradict delta being
        # outside the codomain factor
        raise AssertionError("unreachable: gap anchor pulled into the factor")
    coords = pulled + [ZERO] * (dom.rank - k)
    return principal(dom, c.side, coords, k)


# ---------------------------------------------------------------------------
# constructive invariance witnesses

def _witness_positive(c, g):
    """(lo, hi) with lo in the lower part, hi = lo + g in the upper part,
    for positive g outside the invariance subgroup."""
    k = c.level
    j = iota(g)
    if j > k:
        raise AssertionError("witness needs g outside C_level")
    grp = c.group
    if isinstance(c, Principal):
        if c.side == BELOW:
            lo = c.anchor
            return lo, lo + g
        kind = grp.factors[k - 1]
        bound = ONE if j < k else g.coords[k - 1]
        t = scalars.small_positive(kind, bound)
        coords = list(c.anchor.coords)
        coords[k - 1] = coords[k - 1] - t
        lo = GroupElement(grp, tuple(coords))
        return lo, lo + g
    kind = grp.factors[k - 1]
    gap = ONE if j < k else g.coords[k - 1]
    q = scalars.element_below(kind, c.delta, gap)
    coords = list(c.prefix) + [q] + [ZERO] * (grp.rank - k)
    lo = GroupElement(grp, tuple(coords))
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

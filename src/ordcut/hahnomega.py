"""Omega-indexed lex sums: finitely supported sequences over one rank-one
factor, with eventually periodic cut anchors.

The group is the direct sum inside the full product over omega; anchors
denote full-product points used purely as cut loci.  This is where the
infinite descending chain Tail(0) > Tail(1) > ... with trivial intersection
lives, and with it the tightened cut type that finite rank cannot produce.
"""

from .errors import DomainError
from . import scalars
from .record import Record
from .scalars import ONE, Scalar, ZERO
from .cuts import GAPPED, MINUS, PLUS, RP_BELOW, TIGHTENED


class OmegaGroup(Record):
    __slots__ = ("factor",)


class OmegaElement(Record):
    # support: sorted ((index, value), ...), values nonzero
    __slots__ = ("group", "support")

    def __post_init__(self):
        prev = -1
        for i, v in self.support:
            if i <= prev:
                raise DomainError("support indices must strictly increase")
            prev = i
            if v.sign() == 0:
                raise DomainError("support values must be nonzero")
            if not scalars.contains(self.group.factor, v):
                raise DomainError("value %s outside the factor" % (v,))

    def coord(self, i):
        for j, v in self.support:
            if j == i:
                return v
        return ZERO

    def max_index(self):
        return self.support[-1][0] if self.support else -1

    def is_zero(self):
        return not self.support

    def __add__(self, other):
        if self.group != other.group:
            raise DomainError("elements of different groups")
        vals = dict(self.support)
        for i, v in other.support:
            w = vals.get(i, ZERO) + v
            if w.sign() == 0:
                vals.pop(i, None)
            else:
                vals[i] = w
        return OmegaElement(self.group, tuple(sorted(vals.items())))

    def __neg__(self):
        return OmegaElement(self.group,
                            tuple((i, -v) for i, v in self.support))

    def __sub__(self, other):
        return self + (-other)


def omega_element(group, pairs):
    """The element with value v at index i for each (i, v) in pairs; an
    index may not repeat, and zero values are dropped."""
    vals = {}
    for i, v in pairs:
        if i in vals:
            raise DomainError("index %s repeats" % (i,))
        vals[i] = Scalar.make(v)
    return OmegaElement(group, tuple(sorted(
        (i, v) for i, v in vals.items() if v.sign() != 0)))


def omega_zero(group):
    return OmegaElement(group, ())


def _pairs(x, y):
    """(x_i, y_i) over the union of two sparse supports, in index order."""
    xs, ys = dict(x), dict(y)
    return ((xs.get(i, ZERO), ys.get(i, ZERO))
            for i in sorted(xs.keys() | ys.keys()))


def omega_compare(x, y):
    if x.group != y.group:
        raise DomainError("elements of different groups")
    return scalars.first_difference(_pairs(x.support, y.support))[1]


# ---------------------------------------------------------------------------
# anchors

class OmegaPoint(Record):
    __slots__ = ("group", "point")


class OmegaGapAt(Record):
    __slots__ = ("group", "prefix", "index", "delta")

    def __post_init__(self):
        if scalars.is_discrete_kind(self.group.factor):
            raise DomainError(
                "discrete factor normalizes gap to principal; use a point")
        if scalars.contains(self.group.factor, self.delta):
            raise DomainError("gap anchor lies inside the factor")
        if self.prefix.max_index() >= self.index:
            raise DomainError("gap prefix support must stay below the index")


class OmegaPeriodic(Record):
    __slots__ = ("group", "preperiod", "period")

    def __post_init__(self):
        if not self.period:
            raise DomainError("period must be nonempty")
        for v in self.preperiod + self.period:
            if not scalars.contains(self.group.factor, v):
                raise DomainError("anchor entry %s outside the factor" % (v,))
        if all(v.sign() == 0 for v in self.period):
            raise DomainError("all-zero period denotes a group element; "
                              "use a point anchor")

    def coord(self, i):
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]


def omega_point(group, pairs):
    return OmegaPoint(group, omega_element(group, pairs))


def omega_gap_at(group, prefix_pairs, index, delta):
    return OmegaGapAt(group, omega_element(group, prefix_pairs), index,
                      Scalar.make(delta))


def omega_periodic(group, preperiod, period):
    return OmegaPeriodic(group, tuple(map(Scalar.make, preperiod)),
                         tuple(map(Scalar.make, period)))


def omega_member(anchor, x):
    """Side of x relative to the full-product anchor point, read as a sparse
    ref with a closed flag: a point is closed (equality lands on the minus
    side), a gap is its prefix then delta at its index, open; a periodic
    anchor runs to a horizon past x's support and one period."""
    if x.group != anchor.group:
        raise DomainError("element belongs to a different group")
    if isinstance(anchor, OmegaPoint):
        pairs, closed = _pairs(x.support, anchor.point.support), True
    elif isinstance(anchor, OmegaGapAt):
        pairs, closed = _pairs(x.support, anchor.prefix.support + (
            (anchor.index, anchor.delta),)), False
    else:
        xs, p = dict(x.support), len(anchor.period)
        horizon = max(x.max_index() + 1, len(anchor.preperiod) + p) + p
        pairs = ((xs.get(i, ZERO), anchor.coord(i)) for i in range(horizon))
        closed = None
    s = scalars.first_difference(pairs)[1]
    if s:
        return MINUS if s < 0 else PLUS
    if closed is None:
        # the anchor has infinite support, a finitely supported x cannot
        # agree beyond the horizon
        raise AssertionError("unreachable: no difference found")
    return MINUS if closed else PLUS


class OmegaConvexSubgroup(Record):
    """Tail(i) = elements supported on [i, oo); index None denotes (0)."""

    __slots__ = ("group", "index")

    def member(self, x):
        if self.index is None:
            return x.is_zero()
        return all(i >= self.index for i, _ in x.support)


def omega_tail(group, i):
    return OmegaConvexSubgroup(group, i)


def omega_zero_subgroup(group):
    return OmegaConvexSubgroup(group, None)


def omega_invariance(anchor):
    if isinstance(anchor, OmegaGapAt):
        return omega_tail(anchor.group, anchor.index + 1)
    return omega_zero_subgroup(anchor.group)  # point and periodic anchors


def omega_classify(anchor):
    if isinstance(anchor, OmegaPoint):
        # the group has no least positive element (e_i -> 0+), so the
        # principal cut never upgrades to a relative jump
        return RP_BELOW
    if isinstance(anchor, OmegaGapAt):
        # Tail(i+1) is the immediate predecessor of Tail(i)
        return GAPPED
    # invariance (0) is not an immediate predecessor on the Tail chain
    return TIGHTENED


def index_cut(anchor):
    """The cut of the index chain omega matching the invariance subgroup:
    "top", or "L^{>i}" for Tail(i+1)."""
    inv = omega_invariance(anchor)
    if inv.index is None:
        return "top"
    return "L^{>%d}" % (inv.index - 1)


def omega_translate(anchor, g):
    """The anchor of the translated cut."""
    if g.group != anchor.group:
        raise DomainError("element belongs to a different group")
    if isinstance(anchor, OmegaPoint):
        return OmegaPoint(anchor.group, anchor.point + g)
    if isinstance(anchor, OmegaGapAt):
        # coordinates beyond the gap index never influence membership
        head = omega_element(
            anchor.group,
            [(i, v) for i, v in (anchor.prefix + g).support
             if i < anchor.index])
        return OmegaGapAt(anchor.group, head, anchor.index,
                          anchor.delta + g.coord(anchor.index))
    pre_len = len(anchor.preperiod)
    p = len(anchor.period)
    need = max(pre_len, g.max_index() + 1)
    if need > pre_len:
        # keep the period phase aligned
        need = pre_len + ((need - pre_len + p - 1) // p) * p
    gs = dict(g.support)
    pre = tuple(anchor.coord(i) + gs.get(i, ZERO) for i in range(need))
    return OmegaPeriodic(anchor.group, pre, anchor.period)


# ---------------------------------------------------------------------------
# constructive invariance witnesses

def _witness_positive(anchor, g):
    """lo in the lower part of the cut, for positive g outside the
    invariance subgroup; lo + g lies in the upper part."""
    group = anchor.group
    j, head = g.support[0]
    if isinstance(anchor, OmegaPoint):
        return anchor.point  # the cut is closed: the point is below it
    if isinstance(anchor, OmegaGapAt):
        # lower delta into the factor, by less than g moves it
        bound = ONE if j < anchor.index else head
        last = scalars.element_below(group.factor, anchor.delta, bound)
        return anchor.prefix + omega_element(group, [(anchor.index, last)])
    # the anchor's stream up to its first nonzero entry past j; a period is
    # never all zero, so that entry comes within one period of the preperiod
    t = j + 1
    while anchor.coord(t).sign() == 0:
        t += 1
    lo = omega_element(group, [(i, anchor.coord(i)) for i in range(t)])
    # lo agrees with the anchor below t and is zero at t: it lies above the
    # cut when the anchor's entry there is negative, and lo - g below it
    return lo if anchor.coord(t).sign() > 0 else lo - g


def omega_invariance_witness(anchor, g):
    """A pair (y, y+g) straddling the cut, proving g does not stabilize it.

    For negative g the mirrored pair (y in the upper part, y+g in the lower
    part) is returned.  Raises for g inside the invariance subgroup.
    """
    if g.group != anchor.group:
        raise DomainError("element belongs to a different group")
    if g.is_zero():
        raise DomainError("zero stabilizes every cut")
    if omega_invariance(anchor).member(g):
        raise DomainError("element lies in the invariance subgroup")
    up = g if g.support[0][1].sign() > 0 else -g
    lo = _witness_positive(anchor, up)
    hi = lo + up
    if omega_member(anchor, lo) != MINUS or omega_member(anchor, hi) != PLUS:
        raise AssertionError("invariance witness does not straddle the cut")
    if up is g:
        return lo, hi
    return hi, lo

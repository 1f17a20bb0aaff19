"""Omega-indexed lex sums: finitely supported sequences over one rank-one
factor, with eventually periodic cut anchors.

The group is the direct sum inside the full product over omega; anchors
denote full-product points used purely as cut loci.  This is where the
infinite descending chain Tail(0) > Tail(1) > ... with trivial intersection
lives, and with it the tightened cut type that finite rank cannot produce.
"""

from .errors import (DomainError, expect, group_kind, index, same_group,
                     sequence, tuple_field)
from . import scalars
from .record import Record
from .scalars import ONE, RankOneKind, Scalar, ZERO
from .lexgroups import _scalars
from .cuts import GAPPED, MINUS, PLUS, RP_BELOW, TIGHTENED


class OmegaGroup(Record):
    __slots__ = ("factor",)

    def __post_init__(self):
        if not isinstance(self.factor, RankOneKind):
            raise DomainError("omega factor must be a rank-one kind")


def _entry(pair, kinds):
    """A support entry, an (index, value) pair of one of kinds."""
    if not isinstance(pair, kinds) or len(pair) != 2:
        raise DomainError("a support entry is an (index, value) pair")
    return pair


class OmegaElement(Record):
    # support: sorted ((index, value), ...), values nonzero
    __slots__ = ("group", "support")

    def __post_init__(self):
        group_kind(self.group, OmegaGroup, "an omega element")
        tuple_field(self.support, "support")
        prev = -1
        for pair in self.support:
            i, v = _entry(pair, tuple)
            index(i, "support index")
            if i <= prev:
                raise DomainError("support indices must strictly increase")
            prev = i
            if not scalars.contains(self.group.factor, v):
                raise DomainError("value %s outside the factor" % (v,))
            if v.sign() == 0:
                raise DomainError("support values must be nonzero")

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
        same_group(other, self.group, OmegaElement)
        vals = dict(self.support)
        for i, v in other.support:
            w = vals.get(i, ZERO) + v
            if w.sign() == 0:
                vals.pop(i, None)
            else:
                vals[i] = w
        return OmegaElement.trusted(self.group, tuple(sorted(vals.items())))

    def __neg__(self):
        return OmegaElement.trusted(self.group,
                                    tuple((i, -v) for i, v in self.support))

    def __sub__(self, other):
        return self + (-other)


def omega_element(group, pairs):
    """The element with value v at index i for each (i, v) in pairs, a list
    or a tuple of pairs; an index may not repeat, and zero values are
    dropped."""
    sequence(pairs, "support pairs")
    vals = {}
    for pair in pairs:
        i, v = _entry(pair, (list, tuple))
        index(i, "support index")  # before sorted() compares them
        if i in vals:
            raise DomainError("index %s repeats" % scalars._print_ratio(i, 1))
        vals[i] = Scalar.make(v)
    return OmegaElement(group, tuple(sorted(
        (i, v) for i, v in vals.items() if v.sign() != 0)))


def _pairs(x, y):
    """(x_i, y_i) over the union of two sparse supports, in index order."""
    xs, ys = dict(x), dict(y)
    return ((xs.get(i, ZERO), ys.get(i, ZERO))
            for i in sorted(xs.keys() | ys.keys()))


def omega_compare(x, y):
    same_group(y, expect(x, OmegaElement, "element").group, OmegaElement)
    return scalars.first_difference(_pairs(x.support, y.support))[1]


# ---------------------------------------------------------------------------
# anchors

class OmegaPoint(Record):
    __slots__ = ("group", "point")

    def __post_init__(self):
        same_group(self.point, self.group, OmegaElement, "anchor point")


class OmegaGapAt(Record):
    __slots__ = ("group", "prefix", "index", "delta")

    def __post_init__(self):
        group_kind(self.group, OmegaGroup, "a gap anchor")
        index(self.index, "gap index")
        if scalars.is_discrete_kind(self.group.factor):
            raise DomainError(
                "discrete factor normalizes gap to principal; use a point")
        if scalars.contains(self.group.factor, self.delta):
            raise DomainError("gap anchor lies inside the factor")
        same_group(self.prefix, self.group, OmegaElement, "gap prefix")
        if self.prefix.max_index() >= self.index:
            raise DomainError("gap prefix support must stay below the index")


class OmegaPeriodic(Record):
    __slots__ = ("group", "preperiod", "period")

    def __post_init__(self):
        group_kind(self.group, OmegaGroup, "a periodic anchor")
        tuple_field(self.preperiod, "preperiod")
        tuple_field(self.period, "period")
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


ANCHORS = (OmegaPoint, OmegaGapAt, OmegaPeriodic)


def _group(anchor):
    """The group of an anchor; any other value is refused (`expect`)."""
    return expect(anchor, ANCHORS, "cut anchor").group


def omega_gap_at(group, prefix_pairs, index, delta):
    return OmegaGapAt(group, omega_element(group, prefix_pairs), index,
                      Scalar.make(delta))


def omega_periodic(group, preperiod, period):
    return OmegaPeriodic(group, _scalars(preperiod, "preperiod"),
                         _scalars(period, "period"))


def omega_member(anchor, x):
    """Side of x relative to the full-product anchor point, read as a sparse
    ref with a closed flag: a point is closed (equality lands on the minus
    side), a gap is its prefix then delta at its index, open; a periodic
    anchor runs to a horizon past x's support and one period."""
    same_group(x, _group(anchor), OmegaElement)
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

    def __post_init__(self):
        group_kind(self.group, OmegaGroup, "a tail subgroup")
        if self.index is not None:
            index(self.index, "tail index")

    def member(self, x):
        same_group(x, self.group, OmegaElement)
        if self.index is None:
            return x.is_zero()
        return all(i >= self.index for i, _ in x.support)


def omega_invariance(anchor):
    group = _group(anchor)
    if isinstance(anchor, OmegaGapAt):
        return OmegaConvexSubgroup(group, anchor.index + 1)
    return OmegaConvexSubgroup(group, None)  # point and periodic


def omega_classify(anchor):
    expect(anchor, ANCHORS, "cut anchor")
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
    return "L^{>%s}" % scalars._print_ratio(inv.index - 1, 1)


def omega_translate(anchor, g):
    """The anchor of the translated cut."""
    same_group(g, _group(anchor), OmegaElement)
    if isinstance(anchor, OmegaPoint):
        return OmegaPoint(anchor.group, anchor.point + g)
    if isinstance(anchor, OmegaGapAt):
        # coordinates beyond the gap index never influence membership
        head = OmegaElement.trusted(anchor.group, tuple(
            (i, v) for i, v in (anchor.prefix + g).support
            if i < anchor.index))
        return OmegaGapAt.trusted(anchor.group, head, anchor.index,
                                  anchor.delta + g.coord(anchor.index))
    pre_len = len(anchor.preperiod)
    p = len(anchor.period)
    # whole periods past the preperiod keep the phase aligned
    need = max(pre_len, g.max_index() + 1)
    need = pre_len + ((need - pre_len + p - 1) // p) * p
    gs = dict(g.support)
    pre = tuple(anchor.coord(i) + gs.get(i, ZERO) for i in range(need))
    return OmegaPeriodic.trusted(anchor.group, pre, anchor.period)


# ---------------------------------------------------------------------------
# constructive invariance witnesses

def _witness_positive(anchor, g, j, head):
    """lo in the lower part of the cut, for positive g outside the invariance
    subgroup, head at j its first entry; lo + g lies in the upper part."""
    group = anchor.group
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
    same_group(g, _group(anchor), OmegaElement)
    if not g.support:
        raise DomainError("zero stabilizes every cut")
    # g's first entry, head at j, decides the rest: a gap at i has invariance
    # Tail(i + 1), which holds g when j > i; point and periodic anchors, (0)
    j, head = g.support[0]
    if isinstance(anchor, OmegaGapAt) and j > anchor.index:
        raise DomainError("element lies in the invariance subgroup")
    if head.sign() < 0:  # the mirror of -g's pair
        lo, hi = omega_invariance_witness(anchor, -g)
        return hi, lo
    lo = _witness_positive(anchor, g, j, head)
    hi = lo + g
    if omega_member(anchor, lo) != MINUS or omega_member(anchor, hi) != PLUS:
        raise AssertionError("invariance witness does not straddle the cut")
    return lo, hi

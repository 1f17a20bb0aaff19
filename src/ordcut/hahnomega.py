"""Omega-indexed lex sums: finitely supported sequences over one rank-one
factor, with eventually periodic cut anchors.

The group is the direct sum inside the full product over omega; anchors
denote full-product points used purely as cut loci.  This is where the
infinite descending chain Tail(0) > Tail(1) > ... with trivial intersection
lives, and with it the tightened cut type that finite rank cannot produce.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from . import scalars
from .scalars import Scalar, ZERO
from .cuts import GAPPED, MINUS, PLUS, RP_BELOW, TIGHTENED


@dataclass(frozen=True)
class OmegaGroup:
    factor: scalars.RankOneKind

    def __post_init__(self):
        if self.factor.d != 0:
            raise DomainError("omega groups take factor Z or Q")


@dataclass(frozen=True)
class OmegaElement:
    group: OmegaGroup
    support: tuple  # sorted ((index, value), ...), values nonzero

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
    vals = {}
    for i, v in pairs:
        if not isinstance(v, Scalar):
            v = Scalar.make(v)
        if v.sign() != 0:
            vals[i] = v
    return OmegaElement(group, tuple(sorted(vals.items())))


def omega_zero(group):
    return OmegaElement(group, ())


def omega_compare(x, y):
    if x.group != y.group:
        raise DomainError("elements of different groups")
    idxs = sorted({i for i, _ in x.support} | {i for i, _ in y.support})
    for i in idxs:
        s = scalars.compare_cross(x.coord(i), y.coord(i))
        if s != 0:
            return s
    return 0


# ---------------------------------------------------------------------------
# anchors

@dataclass(frozen=True)
class OmegaPoint:
    group: OmegaGroup
    point: OmegaElement


@dataclass(frozen=True)
class OmegaGapAt:
    group: OmegaGroup
    prefix: OmegaElement
    index: int
    delta: Scalar

    def __post_init__(self):
        if scalars.is_discrete_kind(self.group.factor):
            raise DomainError(
                "discrete factor normalizes gap to principal; use a point")
        if scalars.contains(self.group.factor, self.delta):
            raise DomainError("gap anchor lies inside the factor")
        if self.prefix.max_index() >= self.index:
            raise DomainError("gap prefix support must stay below the index")


@dataclass(frozen=True)
class OmegaPeriodic:
    group: OmegaGroup
    preperiod: tuple
    period: tuple

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
    if not isinstance(delta, Scalar):
        delta = Scalar.make(delta)
    return OmegaGapAt(group, omega_element(group, prefix_pairs), index, delta)


def omega_periodic(group, preperiod, period):
    pre = tuple(v if isinstance(v, Scalar) else Scalar.make(v)
                for v in preperiod)
    per = tuple(v if isinstance(v, Scalar) else Scalar.make(v)
                for v in period)
    return OmegaPeriodic(group, pre, per)


def omega_member(anchor, x):
    """Side of x relative to the full-product anchor point.

    Point anchors carry the closed cut (equality lands on the minus side).
    """
    if x.group != anchor.group:
        raise DomainError("element belongs to a different group")
    if isinstance(anchor, OmegaPoint):
        return MINUS if omega_compare(x, anchor.point) <= 0 else PLUS
    if isinstance(anchor, OmegaGapAt):
        for i in range(anchor.index):
            s = scalars.compare_cross(x.coord(i), anchor.prefix.coord(i))
            if s != 0:
                return MINUS if s < 0 else PLUS
        s = scalars.compare_cross(x.coord(anchor.index), anchor.delta)
        return MINUS if s < 0 else PLUS
    horizon = max(x.max_index() + 1,
                  len(anchor.preperiod) + len(anchor.period))
    for i in range(horizon + len(anchor.period)):
        s = scalars.compare_cross(x.coord(i), anchor.coord(i))
        if s != 0:
            return MINUS if s < 0 else PLUS
    # the anchor has infinite support, a finitely supported x cannot agree
    # beyond the horizon
    raise AssertionError("unreachable: no difference found")


@dataclass(frozen=True)
class OmegaConvexSubgroup:
    """Tail(i) = elements supported on [i, oo); index None denotes (0)."""

    group: OmegaGroup
    index: object  # int or None

    def member(self, x):
        if self.index is None:
            return x.is_zero()
        return all(i >= self.index for i, _ in x.support)


def omega_tail(group, i):
    return OmegaConvexSubgroup(group, i)


def omega_zero_subgroup(group):
    return OmegaConvexSubgroup(group, None)


def omega_invariance(anchor):
    if isinstance(anchor, OmegaPoint):
        return omega_zero_subgroup(anchor.group)
    if isinstance(anchor, OmegaGapAt):
        return omega_tail(anchor.group, anchor.index + 1)
    return omega_zero_subgroup(anchor.group)


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


@dataclass(frozen=True)
class IndexCut:
    """A cut of the index chain omega: the top cut or L^{>i}."""

    kind: str  # "top" or "at"
    index: int

    def __str__(self):
        if self.kind == "top":
            return "top"
        return "L^{>%d}" % self.index


def index_cut(anchor):
    """The cut of omega matching the invariance subgroup."""
    inv = omega_invariance(anchor)
    if inv.index is None:
        return IndexCut("top", -1)
    return IndexCut("at", inv.index - 1)


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
    pre = tuple(anchor.coord(i) + g.coord(i) for i in range(need))
    return OmegaPeriodic(anchor.group, pre, anchor.period)


def _truncations(anchor, bound):
    """Finite-support elements tracking the anchor stream: the witness pool."""
    group = anchor.group
    out = []
    if isinstance(anchor, OmegaPoint):
        out.append(anchor.point)
        return out
    if isinstance(anchor, OmegaGapAt):
        prefix = [(i, v) for i, v in anchor.prefix.support]
        for den in range(1, bound * bound + 1):
            num = (anchor.delta * den).floor()
            for off in (0, 1, -1):
                q = Scalar.make(Fraction(num + off, den))
                out.append(omega_element(
                    group, prefix + [(anchor.index, q)]))
        return out
    for m in range(bound + 2):
        out.append(omega_element(
            group, [(i, anchor.coord(i)) for i in range(m)]))
    return out


def _within_box(x, bound):
    return all(i <= bound and v.height() <= bound for i, v in x.support)


def omega_witness_search(anchor, g, bound):
    """Brute-force falsifier: a pair (y, y+g) straddling the cut, with y
    supported on indices <= bound and coefficient height <= bound; None when
    g stabilizes the cut within the box."""
    if g.is_zero():
        raise DomainError("zero stabilizes every cut")
    candidates = []
    for base in _truncations(anchor, bound):
        candidates.append(base)
        candidates.append(base - g)
        candidates.append(base + g)
    for y in candidates:
        if not _within_box(y, bound):
            continue
        z = y + g
        if omega_member(anchor, y) == MINUS and \
                omega_member(anchor, z) == PLUS:
            return y, z
        if omega_member(anchor, y) == PLUS and \
                omega_member(anchor, z) == MINUS:
            return y, z
    return None

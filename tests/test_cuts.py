"""Cut descriptors: membership, invariance, classification, transport.

Examples, closed forms and the checks around them; test_small_worlds.py
checks the laws of cuts on every small case.  The randomized checks are
seeded and use the default box of 6, matching the library convention;
brute-force box enumeration backs the derived formulas.
"""

import pickle
from fractions import Fraction
from itertools import product

import pytest

from ordcut import cuts, dsl, lexgroups, scalars
from ordcut.cuts import (ABOVE, BELOW, MINUS, PLUS, AllAbove, AllBelow,
                         classify, compare_cuts, gap_cut, interval_bounds,
                         invariance, invariance_witness, member, principal,
                         pull, push_lower, push_upper, quotient_image, trace,
                         translate, transport)
from ordcut.errors import DomainError
from ordcut.lexgroups import (ConvexSubgroup, FactorwiseInjection,
                              GroupElement, LexGroup, element, lex_compare,
                              widening, zero)
from ordcut.scalars import KIND_Q, KIND_Z, Scalar

import sampling
from sampling import quad_q, quad_z

ZZ = LexGroup((KIND_Z, KIND_Z))
ZZZ = LexGroup((KIND_Z, KIND_Z, KIND_Z))
ZQ = LexGroup((KIND_Z, KIND_Q))
ZZQ = LexGroup((KIND_Z, KIND_Z, KIND_Q))

SQRT2 = Scalar.make(0, 1, 2)


def test_member_examples():
    c = principal(ZZ, BELOW, (1, 0), 1)
    assert member(c, element(ZZ, (1, 100))) == MINUS
    assert member(c, element(ZZ, (2, -100))) == PLUS
    g = gap_cut(ZQ, (Scalar.make(1),), 2, SQRT2)
    assert member(g, element(ZQ, (1, Fraction(3, 2)))) == PLUS
    assert member(g, element(ZQ, (1, Fraction(7, 5)))) == MINUS


def test_canonical_forms():
    # coordinates beyond the level are zeroed
    c = principal(ZZ, BELOW, (1, 7), 1)
    assert c.anchor == element(ZZ, (1, 0))
    # above over a discrete factor rewrites to below at the predecessor
    c2 = principal(ZZ, ABOVE, (3, 0), 2)
    assert c2.side == BELOW and c2.anchor == element(ZZ, (3, -1))
    # gap over a discrete factor is rejected
    with pytest.raises(DomainError):
        gap_cut(LexGroup((KIND_Z,)), (), 1, Fraction(1, 2))
    # gap anchor inside the factor is rejected
    with pytest.raises(DomainError):
        gap_cut(ZQ, (Scalar.make(0),), 2, Fraction(1, 2))
    # level 0 is rejected (trivial cuts are AllBelow/AllAbove)
    with pytest.raises(DomainError):
        principal(ZZ, BELOW, (0, 0), 0)
    # every anchor coordinate lies in its factor, zeroed or not
    for group, coords in [(ZZ, (1, Fraction(1, 2))), (ZQ, (1, SQRT2)),
                          (ZZQ, (Fraction(1, 3), 0, 0))]:
        with pytest.raises(DomainError, match="^coordinate .* outside "
                           "factor$"):
            principal(group, BELOW, coords, 1)


def test_invariance_examples():
    assert invariance(principal(ZZ, BELOW, (2, 0), 1)).level == 1
    z1 = LexGroup((KIND_Z,))
    assert invariance(principal(z1, BELOW, (3,), 1)).level == 1
    assert invariance(gap_cut(ZQ, (Scalar.make(0),), 2, SQRT2)).level == 2


def test_invariance_witness_rejections():
    c = principal(ZZ, BELOW, (1, 0), 1)
    with pytest.raises(DomainError):
        invariance_witness(c, zero(ZZ))
    with pytest.raises(DomainError):
        invariance_witness(c, element(ZZ, (0, 5)))
    # a trivial cut's invariance subgroup is C_0, the whole group
    with pytest.raises(DomainError,
                       match="^element lies in the invariance subgroup$"):
        invariance_witness(AllBelow(ZZ), element(ZZ, (1, 0)))
    with pytest.raises(DomainError, match="^zero stabilizes every cut$"):
        invariance_witness(AllAbove(ZZ), zero(ZZ))


def test_open_cut_witnesses_over_dense_factors():
    # an open cut's level entry is lowered into its factor by less than g
    # moves it: g departs from zero at the level by a tiny or a large step,
    # or above the level, at heights up to 10^30
    for kind, far in ((KIND_Q, SQRT2), (quad_q(3), SQRT2),
                      (quad_z(2), Scalar.make(0, 1, 3))):
        low, top = LexGroup((KIND_Z, kind)), LexGroup((kind, KIND_Z))
        for h in (1, 10 ** 6, 10 ** 30):
            r = Scalar.make(h, h - 1, kind.d) if kind.d else \
                Scalar.make(Fraction(h, 7))
            steps = (scalars.small_positive(kind, Scalar.make(Fraction(1, h))),
                     r + 1)
            at_low = [element(low, (0, m)) for m in steps] + \
                [element(low, (1, -h))]
            cases = [(principal(low, ABOVE, (h, r), 2), at_low),
                     (gap_cut(low, (-h,), 2, far * h), at_low),
                     (principal(top, ABOVE, (r, h), 1),
                      [element(top, (m, 0)) for m in steps])]
            for c, gs in cases:
                for g in gs + [-g for g in gs]:
                    y, z = invariance_witness(c, g)
                    assert z == y + g
                    up = lex_compare(g, zero(c.group)) > 0
                    assert (member(c, y), member(c, z)) == \
                        ((MINUS, PLUS) if up else (PLUS, MINUS))


def test_open_principal_witness_keeps_the_anchor_height():
    # the lowered entry is r - u: 31 digits for a 31-digit r, however small
    # g is (u*floor(r/u) had 44 here)
    g1 = LexGroup((quad_z(2),))
    h = 10 ** 30
    c = principal(g1, ABOVE, (Scalar.make(h, h - 1, 2),), 1)
    step = scalars.small_positive(quad_z(2), Scalar.make(Fraction(1, 10 ** 6)))
    y, z = invariance_witness(c, element(g1, (step,)))
    assert len(str(sampling.height(y.coords[0]))) <= 31
    assert (member(c, y), member(c, z)) == (MINUS, PLUS)


def test_group_checks_of_witness_and_translate():
    # g from a rank-3 group lies in C_1's shape but not in the cut's group
    g3 = element(ZZZ, (0, 0, 1))
    for c in (principal(ZZ, BELOW, (1, 0), 1), AllBelow(ZZ), AllAbove(ZZ)):
        with pytest.raises(DomainError, match="different group"):
            invariance_witness(c, g3)
        with pytest.raises(DomainError, match="different group"):
            translate(c, g3)


def test_classify_examples():
    z1 = LexGroup((KIND_Z,))
    q1 = LexGroup((KIND_Q,))
    assert classify(principal(z1, BELOW, (3,), 1)) == cuts.RELATIVE_JUMP
    assert classify(principal(q1, BELOW, (0,), 1)) == cuts.RP_BELOW
    assert classify(principal(q1, ABOVE, (0,), 1)) == cuts.RP_ABOVE
    assert classify(gap_cut(ZQ, (Scalar.make(0),), 2, SQRT2)) == cuts.GAPPED
    assert classify(AllBelow(ZZ)) == cuts.TRIVIAL
    assert classify(AllAbove(ZZ)) == cuts.TRIVIAL


def test_translate():
    c = principal(ZZ, BELOW, (1, 0), 1)
    assert translate(c, zero(ZZ)) == c
    assert translate(c, element(ZZ, (2, 5))) == principal(ZZ, BELOW, (3, 0), 1)


def test_compare_cuts_examples():
    for g in (ZQ, LexGroup((KIND_Q,))):
        anchor = [0] * g.rank
        below = principal(g, BELOW, anchor, 1)
        above = principal(g, ABOVE, anchor, 1)
        assert compare_cuts(above, below) == -1
        assert compare_cuts(below, below) == 0
    assert compare_cuts(AllAbove(ZZ), AllBelow(ZZ)) == -1


def test_compare_trivial_cuts_of_the_rank_zero_group():
    # lex() is {0}: all_below holds it and all_above does not
    g = LexGroup(())
    assert member(AllBelow(g), zero(g)) == MINUS
    assert member(AllAbove(g), zero(g)) == PLUS
    assert compare_cuts(AllBelow(g), AllAbove(g)) == 1


def test_quotient_image_examples():
    c = principal(ZZZ, BELOW, (1, 2, 0), 2)
    q = quotient_image(c, ConvexSubgroup(ZZZ, 2))
    assert q == principal(ZZ, BELOW, (1, 2), 2)
    # legal with the larger window too
    q3 = quotient_image(c, ConvexSubgroup(ZZZ, 3))
    assert q3 == c
    with pytest.raises(DomainError) as e:
        quotient_image(c, ConvexSubgroup(ZZZ, 1))
    assert e.value.payload.coords == (Scalar.make(1),)
    gq = LexGroup((KIND_Z, KIND_Q, KIND_Z))
    gc = gap_cut(gq, (Scalar.make(1),), 2, SQRT2)
    img = quotient_image(gc, ConvexSubgroup(gq, 2))
    assert img == gap_cut(ZQ, (Scalar.make(1),), 2, SQRT2)


def test_trace_examples():
    gc = gap_cut(ZZQ, (Scalar.make(1), Scalar.make(2)), 3, SQRT2)
    t = trace(gc, ConvexSubgroup(ZZQ, 1))
    assert t == gap_cut(ZQ, (Scalar.make(2),), 2, SQRT2)
    c = principal(ZZZ, BELOW, (1, 2, 0), 2)
    t2 = trace(c, ConvexSubgroup(ZZZ, 1))
    assert t2 == principal(ZZ, BELOW, (2, 0), 1)
    with pytest.raises(DomainError):
        trace(c, ConvexSubgroup(ZZZ, 2))


def test_transport_example():
    z4 = LexGroup((KIND_Z,) * 4)
    c = principal(z4, BELOW, (1, 2, 3, 0), 3)
    out = transport(c, ConvexSubgroup(z4, 3), ConvexSubgroup(z4, 1))
    assert out == principal(ZZ, BELOW, (2, 3), 2)
    with pytest.raises(DomainError):
        transport(c, ConvexSubgroup(z4, 2), ConvexSubgroup(z4, 3))


def test_transport_refuses_subgroups_of_another_group():
    c = principal(ZZ, BELOW, (1, 0), 1)
    qqq = LexGroup((KIND_Q,) * 3)
    for theta1, theta2 in ((ConvexSubgroup(qqq, 2), ConvexSubgroup(ZZ, 0)),
                           (ConvexSubgroup(ZZ, 2), ConvexSubgroup(qqq, 0))):
        with pytest.raises(DomainError,
                           match="^subgroup belongs to a different group$"):
            transport(c, theta1, theta2)
    assert transport(c, ConvexSubgroup(ZZ, 2), ConvexSubgroup(ZZ, 0)) == c

# ---------------------------------------------------------------------------
# symmetric intervals


def box_elements(group, radius=2):
    """Exhaustive small box for discrete groups, sampled box otherwise."""
    axes = []
    for kind in group.factors:
        if kind == KIND_Z:
            axes.append([Scalar.make(v) for v in range(-radius, radius + 1)])
        else:
            vals = {Fraction(n, d) for n in range(-radius, radius + 1)
                    for d in (1, 2, 3)}
            axes.append([Scalar.make(v) for v in sorted(vals)])
    return [element(group, coords) for coords in product(*axes)]


def symmetric_interval_member(c, sigma, xi):
    """Whether xi lies in the greatest symmetric interval S around sigma."""
    if lex_compare(xi, zero(xi.group)) < 0:
        xi = -xi
    if member(c, sigma) == MINUS:
        return member(c, sigma + xi) == MINUS
    return member(c, sigma - xi) == PLUS


def brute_force_bounds(c, sigma, cells):
    """Box estimates of the four convex-subgroup levels."""
    g = c.group
    n = g.rank
    side = member(c, sigma)

    def stays_inside(level):
        for xi in cells:
            if not ConvexSubgroup(g, level).member(xi):
                continue
            if side == MINUS and member(c, sigma + xi) != MINUS:
                return False
            if side == PLUS and member(c, sigma + xi) != PLUS:
                return False
        return True

    phi = next(j for j in range(n + 1) if stays_inside(j))
    s_members = [xi for xi in cells if symmetric_interval_member(c, sigma, xi)]

    def depth(xi):
        return next(j for j in range(n, -1, -1)
                    if ConvexSubgroup(g, j).member(xi))

    # psi_plus: smallest C_j containing every boxed member of S
    psi_plus = min((depth(xi) for xi in s_members), default=n)
    # psi_minus: the largest C_j with a boxed S-member outside it, i.e. the
    # shallowest level some S-member escapes (C_n if none does)
    psi_minus = min((depth(xi) + 1 for xi in s_members if depth(xi) < n),
                    default=n)
    return psi_minus, phi, psi_plus


def test_interval_bounds_examples():
    c = principal(ZZ, BELOW, (1, 0), 1)
    pm, fm, pp, fp = [s.level for s in
                      interval_bounds(c, element(ZZ, (1, 0)))]
    assert (pm, fm, pp, fp) == (2, 1, 1, 0)
    pm, fm, pp, fp = [s.level for s in
                      interval_bounds(c, element(ZZ, (0, 5)))]
    assert (pm, fm, pp, fp) == (1, 1, 0, 0)
    gc = gap_cut(ZQ, (Scalar.make(0),), 2, SQRT2)
    pm, fm, pp, fp = [s.level for s in
                      interval_bounds(gc, element(ZQ, (0, 1)))]
    assert (pm, fm, pp, fp) == (2, 2, 1, 1)


def test_interval_bounds_box_oracle():
    """Closed-form levels against exhaustive small-box enumeration.

    Cases are chosen so that every level-deciding witness fits in the box
    (anchors and sigma within distance 1 of each other, crossings reachable
    with coordinates of magnitude <= 2 and denominators <= 3)."""
    half = Fraction(1, 2)
    cases = [
        (principal(ZZ, BELOW, (1, 0), 1), element(ZZ, (1, 0))),
        (principal(ZZ, BELOW, (1, 0), 1), element(ZZ, (0, 2))),
        (principal(ZZ, BELOW, (1, 0), 1), element(ZZ, (2, 1))),
        (principal(ZZ, BELOW, (0, 1), 2), element(ZZ, (0, 1))),
        (principal(ZZ, BELOW, (0, 1), 2), element(ZZ, (0, 0))),
        (principal(ZZ, BELOW, (0, 1), 2), element(ZZ, (1, 0))),
        (principal(ZZ, BELOW, (0, 1), 2), element(ZZ, (0, 2))),
        (gap_cut(ZQ, (Scalar.make(0),), 2, SQRT2), element(ZQ, (0, 1))),
        (gap_cut(ZQ, (Scalar.make(0),), 2, SQRT2), element(ZQ, (0, 2))),
        (gap_cut(ZQ, (Scalar.make(0),), 2, SQRT2), element(ZQ, (1, 0))),
        (principal(ZQ, BELOW, (0, half), 2), element(ZQ, (0, half))),
        (principal(ZQ, BELOW, (0, half), 2), element(ZQ, (0, 0))),
        (principal(ZQ, ABOVE, (0, half), 2), element(ZQ, (0, 0))),
        (principal(ZQ, ABOVE, (0, half), 2), element(ZQ, (0, 1))),
        (principal(ZQ, BELOW, (1, 0), 1), element(ZQ, (1, half))),
    ]
    for c, sigma in cases:
        n = c.group.rank
        cells = box_elements(c.group, 2)
        pm, fm, pp, fp = [s.level for s in interval_bounds(c, sigma)]
        assert n >= pm >= fm >= fp >= 0 and pm >= pp >= fp
        bpm, bfm, bpp = brute_force_bounds(c, sigma, cells)
        assert (pm, fm, pp) == (bpm, bfm, bpp)


def test_interval_bounds_trivial():
    pm, fm, pp, fp = [s.level for s in
                      interval_bounds(AllBelow(ZZ), element(ZZ, (0, 0)))]
    assert (pm, fm, pp, fp) == (1, 0, 0, 0)


# ---------------------------------------------------------------------------
# images along injective morphisms


def test_push_gap_without_collapse():
    m = widening(ZQ)
    c = gap_cut(ZQ, (Scalar.make(1),), 2, SQRT2)
    assert push_lower(m, c) == gap_cut(m.cod, (Scalar.make(1),), 2, SQRT2)
    assert push_upper(m, c) == push_lower(m, c)


# ---------------------------------------------------------------------------
# each coordinate is checked once, where it enters; values built from
# checked ones skip the check and still pass it

def test_a_cut_checks_each_coordinate_once(monkeypatch):
    calls = []
    contains = scalars.contains

    def counted(kind, x):
        calls.append(x)
        return contains(kind, x)

    g = LexGroup((KIND_Z, quad_q(2), KIND_Q, quad_z(3)))
    x = element(g, (1, SQRT2, Fraction(1, 2), Scalar.make(1, 1, 3)))
    monkeypatch.setattr(scalars, "contains", counted)
    # four coordinates on entry, and the last ref entry once in _cut
    c = principal(g, BELOW, (2, SQRT2, Fraction(3, 4), 5), 3)
    assert len(calls) <= 5
    del calls[:]
    # the sums are in their factors: only the last ref entry is looked at
    moved = translate(c, x)
    assert len(calls) <= 1
    assert moved == principal(g, BELOW, (3, SQRT2 * 2, Fraction(5, 4), 0), 3)


def test_a_witness_walks_g_once(monkeypatch):
    # g's first nonzero coordinate j and its sign decide the refusals, the
    # orientation and the bound: no ConvexSubgroup is built, and the signs
    # of g's first j coordinates are read once each, none past them; at
    # j = k small_positive may check its bound, g's k-th coordinate, again
    built, signed = [], []
    init, trusted, sign = ConvexSubgroup.__init__, ConvexSubgroup.trusted, \
        Scalar.sign

    g4 = LexGroup((KIND_Z, quad_q(2), KIND_Q, quad_z(3)))
    cut_list = [principal(g4, side, (2, SQRT2, Fraction(3, 4), 5), k)
                for side in (BELOW, ABOVE) for k in range(1, 5)] + [
        gap_cut(g4, (1,), 2, Scalar.make(0, 1, 3)),
        gap_cut(g4, (1, SQRT2), 3, SQRT2),
        gap_cut(g4, (1, SQRT2, 0), 4, Scalar.make(Fraction(1, 2)))]
    monkeypatch.setattr(ConvexSubgroup, "__init__", lambda self, *fields:
                        built.append(fields) or init(self, *fields))
    monkeypatch.setattr(ConvexSubgroup, "trusted", staticmethod(
        lambda *fields: built.append(fields) or trusted(*fields)))
    monkeypatch.setattr(Scalar, "sign",
                        lambda self: signed.append(self) or sign(self))
    for c in cut_list:
        for j in range(1, 5):
            dense = g4.factors[j - 1].tag == "Q"
            for head in ((Fraction(1, 3), -Fraction(7, 3)) if dense else
                         (1, -2)):
                # fresh coordinate objects, none shared with the cut
                g = element(g4, (0,) * (j - 1) + (head,) + (1,) * (4 - j))
                del signed[:]
                if j > c.level:
                    with pytest.raises(DomainError, match="invariance"):
                        invariance_witness(c, g)
                else:
                    y, z = invariance_witness(c, g)
                    assert {member(c, y), member(c, z)} == {MINUS, PLUS}
                read = [id(x) for x in signed]
                assert [x for x in g.coords[j:] if id(x) in read] == []
                assert sum(read.count(id(x)) for x in g.coords) <= \
                    j + (j == c.level)
    assert built == []


RECHECK_GROUPS = [LexGroup((KIND_Z,)), LexGroup((KIND_Z, quad_q(2))),
                  LexGroup((quad_z(2), KIND_Q, KIND_Z)),
                  LexGroup((KIND_Q, quad_q(3), quad_z(2), KIND_Z))]


def _some_cut(g, rng):
    """The cut of a sampled boundary whose last entry is over 0, 2, 3 or 5."""
    last = sampling.sample_scalar(quad_q(rng.choice((0, 2, 3, 5))), rng, 6)
    ref = sampling.sample_element(g, rng, 6).coords[:rng.randint(0, g.rank)]
    return cuts._cut(g, ref and ref[:-1] + (last,), rng.random() < 0.5)


def _results(g, rng):
    """What the operations on elements, cuts and morphisms of g return on
    one draw of arguments."""
    x = sampling.sample_element(g, rng, 6)
    y = sampling.sample_nonzero(g, rng, 6)
    c = _some_cut(g, rng)
    m = rng.choice([widening(g), lexgroups.scaling(g, tuple(
        Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in g.factors))])
    k, subs = len(c.ref), lexgroups.convex_subgroups(g)
    out = [x + y, x - y, -x, m, m.apply(x), zero(g),
           lexgroups.unit(g, rng.randint(1, g.rank)), c, invariance(c),
           sampling.refused_or(translate, c, x), push_lower(m, c),
           push_upper(m, c), pull(m, push_lower(m, c)),
           pull(m, _some_cut(m.cod, rng)),
           lexgroups.epsilon_upper(m, rng.choice(
               lexgroups.convex_subgroups(m.cod))),
           lexgroups.slice_group(g, 0, rng.randint(0, g.rank))]
    out += interval_bounds(c, x)
    out += [quotient_image(c, h) for h in subs[k:]]
    out += [trace(c, h) for h in subs[:k]]
    if k:
        out.append(transport(c, rng.choice(subs[k:]), rng.choice(subs[:k])))
        if lexgroups.iota(y) <= k:
            out += invariance_witness(c, y)
    return out


def _rebuilt(d):
    """The descriptor built again through its class's checked constructor."""
    return type(d)(*[getattr(d, name) for name in type(d).__slots__])


def test_trusted_values_pass_the_checks_they_skip():
    # an operation may build its result with `trusted`, past the checks of
    # its class; a pickled record is rebuilt through them, and comes back
    # equal
    rng = sampling.rng_for(16)
    for g in RECHECK_GROUPS:
        for _ in range(25):
            for r in _results(g, rng):
                if r is not None:
                    assert pickle.loads(pickle.dumps(r)) == r, r


# ---------------------------------------------------------------------------
# the canonicalizer: every boundary (ref, closed) to its descriptor

CANON_KINDS = (KIND_Z, KIND_Q, quad_z(2), quad_q(3))


def _inside(kind):
    """Anchor values of the factor, with a radical part over a quadratic
    one."""
    vals = [Scalar.make(v) for v in (-1, 0, 2)]
    if kind.tag == "Q":
        vals.append(Scalar.make(Fraction(-3, 2)))
    if kind.d:
        vals.append(Scalar.make(Fraction(1, 2) if kind.tag == "Q" else 1,
                                -1, kind.d))
    return vals


def _outside(kind):
    """Gap anchors: sqrt 5 and 1/3 + sqrt 5, and 1/2 outside Z[sqrt 2]."""
    vals = [Scalar.make(0, 1, 5), Scalar.make(Fraction(1, 3), 1, 5)]
    if kind.tag == "Z":
        vals.append(Scalar.make(Fraction(1, 2)))
    return vals


def _public_descriptors():
    """Every descriptor `principal` and `gap_cut` build over groups of rank
    0 to 2 from `_inside` and `_outside` values, and the trivial cuts."""
    for rank in (0, 1, 2):
        for kinds in product(CANON_KINDS, repeat=rank):
            g = LexGroup(kinds)
            yield AllBelow(g)
            yield AllAbove(g)
            for k, kind in enumerate(kinds, 1):
                pad = (0,) * (rank - k)
                for head in product(*map(_inside, kinds[:k - 1])):
                    for v in _inside(kind):
                        for side in (BELOW, ABOVE):
                            yield principal(g, side, head + (v,) + pad, k)
                    if sampling.is_dense_kind(kind):
                        for t in _outside(kind):
                            yield gap_cut(g, head, k, t)


def test_cut_rebuilds_every_public_descriptor():
    for c in _public_descriptors():
        assert cuts._cut(c.group, c.ref, c.closed) == c, c
        # and what _cut builds passes the checks that `trusted` skips
        assert _rebuilt(c) == c, c


def test_every_public_descriptor_prints_and_parses_back():
    for c in _public_descriptors():
        assert dsl.parse_cut(dsl.print_cut(c), c.group) == c, c


def test_cut_operations_build_no_group_element(monkeypatch):
    # a descriptor stores its boundary (ref, closed): building, comparing,
    # moving and printing cuts makes no padded anchor element
    built = []
    check, trusted = GroupElement.__post_init__, GroupElement.trusted
    g = LexGroup((KIND_Q, quad_z(2), KIND_Q))
    x, y = element(g, (1, SQRT2, 2)), element(g, (-2, 0, Fraction(1, 3)))
    m, scale = widening(g), FactorwiseInjection(g, g, (3, 1, 2))
    hx = m.apply(x)
    monkeypatch.setattr(GroupElement, "__post_init__",
                        lambda self: built.append(self) or check(self))
    monkeypatch.setattr(GroupElement, "trusted", staticmethod(
        lambda *fields: built.append(fields) or trusted(*fields)))
    cs = [principal(g, side, (1, SQRT2, 5), k)
          for side in (BELOW, ABOVE) for k in (1, 2, 3)] + [
        gap_cut(g, (), 1, SQRT2),
        gap_cut(g, (1, SQRT2), 3, Scalar.make(Fraction(1, 3), 1, 2)),
        AllBelow(g), AllAbove(g)]
    for c in cs:
        for d in [c, translate(c, x), translate(c, y)] + [
                push(f, c) for f in (m, scale)
                for push in (push_lower, push_upper)] + [
                pull(m, push_lower(m, c)), pull(scale, c)]:
            member(d, x if d.group == g else hx)
            compare_cuts(d, translate(d, x if d.group == g else hx))
            dsl.print_cut(d)
    assert built == []

"""Cut descriptors: membership, invariance, classification, transport.

The randomized checks are seeded and use the default box of 6, matching the
library convention; brute-force box enumeration backs the derived formulas.
"""

from fractions import Fraction
from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ordcut import cuts, dsl, scalars
from ordcut.cuts import (ABOVE, BELOW, MINUS, PLUS, AllAbove, AllBelow,
                         GapCut, Principal, classify, compare_cuts, gap_cut,
                         interval_bounds, invariance, invariance_witness,
                         member, principal, pull, push_lower, push_upper,
                         quotient_image, symmetric_interval_member, trace,
                         translate, transport)
from ordcut.errors import DomainError
from ordcut.lexgroups import (ConvexSubgroup, FactorwiseInjection, LexGroup,
                              element, lex_compare, widening, zero)
from ordcut.scalars import KIND_Q, KIND_Z, Scalar, quad_q, quad_z

import sampling

ZZ = LexGroup((KIND_Z, KIND_Z))
ZZZ = LexGroup((KIND_Z, KIND_Z, KIND_Z))
ZQ = LexGroup((KIND_Z, KIND_Q))
ZZQ = LexGroup((KIND_Z, KIND_Z, KIND_Q))
FAMILIES = [ZZ, ZZZ, ZQ, ZZQ]

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


def test_partition_and_monotonicity():
    rng = sampling.rng_for(0)
    for g in FAMILIES:
        for _ in range(20):
            c = sampling.sample_descriptor(g, rng, 6)
            xs = [sampling.sample_element(g, rng, 6) for _ in range(25)]
            for x in xs:
                assert member(c, x) in (MINUS, PLUS)
            for x, y in zip(xs, xs[1:]):
                lo, hi = (x, y) if lex_compare(x, y) <= 0 else (y, x)
                # the minus side is downward closed
                if member(c, hi) == MINUS:
                    assert member(c, lo) == MINUS


def test_invariance_examples():
    assert invariance(principal(ZZ, BELOW, (2, 0), 1)).level == 1
    z1 = LexGroup((KIND_Z,))
    assert invariance(principal(z1, BELOW, (3,), 1)).level == 1
    assert invariance(gap_cut(ZQ, (Scalar.make(0),), 2, SQRT2)).level == 2


def test_invariance_oracle_agreement():
    """Symbolic level vs the sampling falsifier, across the four families."""
    rng = sampling.rng_for(0)
    for g in FAMILIES:
        for _ in range(40):
            c = sampling.sample_descriptor(g, rng, 6)
            inv = invariance(c)
            # soundness: translating by members of C_k fixes membership
            for _ in range(4):
                t = sampling.sample_in_subgroup(inv, rng, 6)
                x = sampling.sample_element(g, rng, 6)
                assert member(c, x + t) == member(c, x)
            # completeness: every sample outside C_k has an explicit witness
            for _ in range(4):
                t = sampling.sample_outside_subgroup(inv, rng, 6)
                y, z = invariance_witness(c, t)
                assert z == y + t
                assert {member(c, y), member(c, z)} == {MINUS, PLUS}
                if lex_compare(t, zero(g)) > 0:
                    assert member(c, y) == MINUS


def test_invariance_witness_rejections():
    c = principal(ZZ, BELOW, (1, 0), 1)
    with pytest.raises(DomainError):
        invariance_witness(c, zero(ZZ))
    with pytest.raises(DomainError):
        invariance_witness(c, element(ZZ, (0, 5)))
    with pytest.raises(DomainError):
        invariance_witness(AllBelow(ZZ), element(ZZ, (1, 0)))


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
    assert len(str(y.coords[0].height())) <= 31
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
    rng = sampling.rng_for(0)
    count = 0
    while count < 500:
        g = FAMILIES[count % len(FAMILIES)]
        c = sampling.sample_descriptor(g, rng, 6)
        t = sampling.sample_element(g, rng, 6)
        x = sampling.sample_element(g, rng, 6)
        assert member(translate(c, t), x + t) == member(c, x)
        assert classify(translate(c, t)) == classify(c)
        assert invariance(translate(c, t)).level == invariance(c).level
        count += 1


def test_compare_cuts_examples():
    for g in (ZQ, LexGroup((KIND_Q,))):
        anchor = [0] * g.rank
        below = principal(g, BELOW, anchor, 1)
        above = principal(g, ABOVE, anchor, 1)
        assert compare_cuts(above, below) == -1
        assert compare_cuts(below, below) == 0
    assert compare_cuts(AllAbove(ZZ), AllBelow(ZZ)) == -1


def test_compare_cuts_agrees_with_membership():
    rng = sampling.rng_for(0)
    for g in FAMILIES:
        for _ in range(30):
            c1 = sampling.sample_descriptor(g, rng, 6)
            c2 = sampling.sample_descriptor(g, rng, 6)
            order = compare_cuts(c1, c2)
            assert order == -compare_cuts(c2, c1)
            separated = False
            for _ in range(40):
                x = sampling.sample_element(g, rng, 6)
                s1, s2 = member(c1, x), member(c2, x)
                if s1 == MINUS and s2 == PLUS:
                    assert order == 1
                    separated = True
                if s1 == PLUS and s2 == MINUS:
                    assert order == -1
                    separated = True
            if order == 0:
                assert not separated


# ---------------------------------------------------------------------------
# the order of cuts, enumerated: every shape at every level

Q_HALF = Fraction(1, 2)
ORDER_GROUPS = [LexGroup((KIND_Z,)), LexGroup((KIND_Q,)), ZQ,
                LexGroup((KIND_Q, quad_z(2), KIND_Z)), LexGroup(())]


def _anchor_values(kind):
    if kind == KIND_Q:
        return [-1, 0, Q_HALF, 1]
    return [-1, 0, 1]


def _gap_delta(kind):
    """A point outside the dense factor: sqrt 2 over Q, 1/2 over Z[sqrt 2]."""
    return SQRT2 if kind == KIND_Q else Scalar.make(Q_HALF)


def _probe_values(kind):
    """Each anchor value, it plus and minus 1, midpoints between anchor
    values, and factor elements on both sides of the gap point."""
    if kind == KIND_Q:
        return [Fraction(v, 4) for v in range(-8, 9)] + \
            [Fraction(7, 5), Fraction(3, 2)]
    vals = [Scalar.make(v) for v in range(-2, 3)]
    if kind.d:  # t + 0.41 and t + 0.59 in Z[sqrt 2]
        vals += [Scalar.make(t - 1, 1, 2) for t in range(-2, 2)] + \
            [Scalar.make(t + 2, -1, 2) for t in range(-2, 2)]
    return vals


def _enumerated_cuts(g):
    out = [AllBelow(g), AllAbove(g)]
    for k in range(1, g.rank + 1):
        pad = (0,) * (g.rank - k)
        heads = list(product(*map(_anchor_values, g.factors[:k - 1])))
        for head in heads:
            for v in _anchor_values(g.factors[k - 1]):
                for side in (BELOW, ABOVE):
                    out.append(principal(g, side, head + (v,) + pad, k))
            kind = g.factors[k - 1]
            if scalars.is_dense_kind(kind):
                out.append(gap_cut(g, head, k, _gap_delta(kind)))
    return list(dict.fromkeys(out))  # "above" over Z may repeat a "below"


def test_compare_cuts_order_is_total_and_matches_membership():
    for g in ORDER_GROUPS:
        cs = _enumerated_cuts(g)
        probes = [element(g, xs)
                  for xs in product(*map(_probe_values, g.factors))]
        sides = {c: [member(c, x) == MINUS for x in probes] for c in cs}
        for c1 in cs:
            assert compare_cuts(c1, c1) == 0
            for c2 in cs:
                order = compare_cuts(c1, c2)
                assert order == -compare_cuts(c2, c1)
                # descriptor equality decides cut equality
                assert (order == 0) == (c1 == c2)
                below1 = [a and not b for a, b in zip(sides[c1], sides[c2])]
                below2 = [b and not a for a, b in zip(sides[c1], sides[c2])]
                # cuts are nested, and the probes separate distinct ones
                assert not (any(below1) and any(below2)), (c1, c2)
                expected = 1 if any(below1) else -1 if any(below2) else 0
                assert order == expected, (dsl.print_cut(c1), dsl.print_cut(c2))


def test_compare_cuts_order_is_transitive():
    for g in ORDER_GROUPS:
        ranked = sorted(_enumerated_cuts(g), key=cmp_to_key(compare_cuts))
        # every pair in sorted order, adjacent ones included, is increasing
        for i, c1 in enumerate(ranked):
            for c2 in ranked[i + 1:]:
                assert compare_cuts(c1, c2) == -1, (c1, c2)


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


def test_quotient_image_membership_agreement():
    rng = sampling.rng_for(0)
    for g in FAMILIES:
        for _ in range(25):
            c = sampling.sample_descriptor(g, rng, 6)
            k = cuts.level_of(c)
            for m in range(k, g.rank + 1):
                theta = ConvexSubgroup(g, m)
                q = quotient_image(c, theta)
                x = sampling.sample_element(g, rng, 6)
                proj = element(q.group, x.coords[:m])
                assert member(q, proj) == member(c, x)


def test_trace_examples():
    gc = gap_cut(ZZQ, (Scalar.make(1), Scalar.make(2)), 3, SQRT2)
    t = trace(gc, ConvexSubgroup(ZZQ, 1))
    assert t == gap_cut(ZQ, (Scalar.make(2),), 2, SQRT2)
    c = principal(ZZZ, BELOW, (1, 2, 0), 2)
    t2 = trace(c, ConvexSubgroup(ZZZ, 1))
    assert t2 == principal(ZZ, BELOW, (2, 0), 1)
    with pytest.raises(DomainError):
        trace(c, ConvexSubgroup(ZZZ, 2))


def test_trace_membership_agreement():
    """y is below the trace iff delta + y is below the original cut."""
    rng = sampling.rng_for(0)
    for g in FAMILIES:
        for _ in range(25):
            c = sampling.sample_descriptor(g, rng, 6)
            k = cuts.level_of(c)
            for m in range(k):
                theta = ConvexSubgroup(g, m)
                t = trace(c, theta)
                if isinstance(c, Principal):
                    head = c.anchor.coords[:m]
                else:
                    head = c.prefix[:m]
                y = sampling.sample_element(t.group, rng, 6)
                lifted = element(g, tuple(head) + y.coords)
                assert member(t, y) == member(c, lifted)


def test_transport_example_and_type_preservation():
    z4 = LexGroup((KIND_Z,) * 4)
    c = principal(z4, BELOW, (1, 2, 3, 0), 3)
    out = transport(c, ConvexSubgroup(z4, 3), ConvexSubgroup(z4, 1))
    assert out == principal(ZZ, BELOW, (2, 3), 2)
    with pytest.raises(DomainError):
        transport(c, ConvexSubgroup(z4, 2), ConvexSubgroup(z4, 3))
    rng = sampling.rng_for(0)
    done = 0
    while done < 200:
        g = FAMILIES[done % len(FAMILIES)]
        c = sampling.sample_descriptor(g, rng, 6)
        k = cuts.level_of(c)
        m2 = rng.randint(0, k - 1)
        m1 = rng.randint(k, g.rank)
        out = transport(c, ConvexSubgroup(g, m1), ConvexSubgroup(g, m2))
        assert classify(out) == classify(c)
        assert invariance(out).level == k - m2
        done += 1



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


def test_push_principal_closed_forms():
    rng = sampling.rng_for(0)
    morphisms = [widening(ZQ), widening(ZZ),
                 FactorwiseInjection(ZZ, ZQ, (Fraction(2), Fraction(1, 3))),
                 widening(LexGroup((quad_z(2), KIND_Z)))]
    for m in morphisms:
        for _ in range(30):
            k = rng.randint(1, m.dom.rank)
            anchor = sampling.sample_element(m.dom, rng, 6)
            for side in (BELOW, ABOVE):
                c = principal(m.dom, side, anchor.coords, k)
                img = m.apply(c.anchor).coords
                lo = push_lower(m, c)
                hi = push_upper(m, c)
                # lower image: same side, mapped anchor, same level
                assert lo == principal(m.cod, c.side, img, k)
                # upper image: ditto, except Below over a discrete factor
                # shifts to everything under the successor coset
                if c.side == BELOW and \
                        scalars.is_discrete_kind(m.dom.factors[k - 1]):
                    shifted = list(img)
                    shifted[k - 1] = shifted[k - 1] + \
                        Scalar.make(m.scales[k - 1])
                    assert hi == principal(m.cod, ABOVE, shifted, k)
                else:
                    assert hi == principal(m.cod, c.side, img, k)
                # the adjoints bracket the image: phi_! below phi_* as cuts
                assert compare_cuts(lo, hi) <= 0


def test_push_gap_collapse():
    g = LexGroup((quad_z(2),))
    m = widening(g)
    c = gap_cut(g, (), 1, Fraction(1, 2))
    lo = push_lower(m, c)
    hi = push_upper(m, c)
    half = (Scalar.make(Fraction(1, 2)),)
    assert lo == principal(m.cod, ABOVE, half, 1)
    assert hi == principal(m.cod, BELOW, half, 1)
    # the two images differ by exactly the anchor point
    rng = sampling.rng_for(0)
    diff = []
    for _ in range(500):
        y = sampling.sample_element(m.cod, rng, 6)
        if member(lo, y) != member(hi, y):
            diff.append(y)
        # membership against the defining sets
        below_half = scalars.compare_cross(
            y.coords[0], Scalar.make(Fraction(1, 2)))
        assert (member(lo, y) == MINUS) == (below_half < 0)
        assert (member(hi, y) == MINUS) == (below_half <= 0)
    assert all(y.coords[0] == Scalar.make(Fraction(1, 2)) for y in diff)
    anchor_pt = element(m.cod, (Fraction(1, 2),))
    assert member(lo, anchor_pt) == PLUS and member(hi, anchor_pt) == MINUS


def test_push_gap_without_collapse():
    m = widening(ZQ)
    c = gap_cut(ZQ, (Scalar.make(1),), 2, SQRT2)
    assert push_lower(m, c) == gap_cut(m.cod, (Scalar.make(1),), 2, SQRT2)
    assert push_upper(m, c) == push_lower(m, c)


def test_push_membership_consistency():
    rng = sampling.rng_for(0)
    m = widening(ZQ)
    for _ in range(40):
        c = sampling.sample_descriptor(ZQ, rng, 6)
        lo = push_lower(m, c)
        hi = push_upper(m, c)
        for _ in range(10):
            x = sampling.sample_element(ZQ, rng, 6)
            # phi_! contains the image of the lower part, phi_* pulls back in
            assert member(c, x) == member(lo, m.apply(x))
            assert member(c, x) == member(hi, m.apply(x))
        assert invariance(lo).level == invariance(c).level
        # convex dense morphism: invariance equality for the upper image
        assert invariance(hi).level == invariance(c).level


def test_pull_membership_contract():
    rng = sampling.rng_for(0)
    morphisms = [widening(ZQ),
                 FactorwiseInjection(ZZ, ZQ, (Fraction(2), Fraction(1, 3)))]
    for m in morphisms:
        for _ in range(40):
            c = sampling.sample_descriptor(m.cod, rng, 6)
            back = pull(m, c)
            for _ in range(10):
                x = sampling.sample_element(m.dom, rng, 6)
                assert member(back, x) == member(c, m.apply(x))


def test_pull_strict_inclusion_counterexample():
    qq = LexGroup((KIND_Q, KIND_Q))
    m = widening(ZQ)
    assert m.cod == qq
    sigma = principal(qq, BELOW, (Fraction(1, 2), 0), 2)
    assert invariance(sigma).level == 2  # Delta(Sigma') = (0) in rank 2
    back = pull(m, sigma)
    assert back == principal(ZQ, BELOW, (0, 0), 1)
    assert invariance(back).level == 1  # C_1 strictly above epsilon image


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


def test_cut_rebuilds_every_public_descriptor():
    for rank in (0, 1, 2):
        for kinds in product(CANON_KINDS, repeat=rank):
            g = LexGroup(kinds)
            cs = [AllBelow(g), AllAbove(g)]
            for k, kind in enumerate(kinds, 1):
                pad = (0,) * (rank - k)
                for head in product(*map(_inside, kinds[:k - 1])):
                    cs += [principal(g, side, head + (v,) + pad, k)
                           for v in _inside(kind) for side in (BELOW, ABOVE)]
                    if scalars.is_dense_kind(kind):
                        cs += [gap_cut(g, head, k, t) for t in _outside(kind)]
            for c in cs:
                assert cuts._cut(c.group, *cuts._ref(c)) == c, c


def _in_factor(draw, kind):
    a = draw(st.integers(-5, 5))
    b = draw(st.integers(-3, 3)) if kind.d else 0
    if kind.tag == "Q":
        a = Fraction(a, draw(st.integers(1, 4)))
        b = Fraction(b, draw(st.integers(1, 4)))
    return Scalar.make(a, b, kind.d)


@st.composite
def raw_boundaries(draw):
    """(group, ref, closed): ref entries in their factors but the last,
    which may lie over any of the radicals 2, 3, 5 or be any rational."""
    kinds = tuple(draw(st.lists(st.sampled_from(CANON_KINDS), min_size=1,
                                max_size=3)))
    k = draw(st.integers(1, len(kinds)))
    head = tuple(_in_factor(draw, kind) for kind in kinds[:k - 1])
    last = Scalar.make(Fraction(draw(st.integers(-9, 9)),
                                draw(st.integers(1, 4))),
                       Fraction(draw(st.integers(-3, 3)),
                                draw(st.integers(1, 3))),
                       draw(st.sampled_from((2, 3, 5))))
    return LexGroup(kinds), head + (last,), draw(st.booleans())


def _near(kind, t):
    """Elements of the factor on t and next to it, on both sides."""
    if scalars.is_discrete_kind(kind):
        f = t.floor()
        return [Scalar.make(v) for v in (f - 1, f, f + 1)]
    gap = Scalar.make(Fraction(1, 100))
    vals = [scalars.element_below(kind, t, gap),
            -scalars.element_below(kind, -t, gap)]
    return vals + [t] if scalars.contains(kind, t) else vals


def _raw_lower(ref, closed, x):
    """The boundary rule itself: x[:k] < ref, or x[:k] = ref when closed."""
    for a, b in zip(x.coords, ref):
        s = scalars.compare_cross(a, b)
        if s:
            return s < 0
    return closed


@settings(max_examples=200, deadline=None)
@given(raw_boundaries())
def test_cut_keeps_the_lower_part_of_a_raw_boundary(boundary):
    g, ref, closed = boundary
    c = cuts._cut(g, ref, closed)
    k = len(ref)
    # the result is one the public constructors build, at the same level
    assert cuts.level_of(c) == k
    if isinstance(c, GapCut):
        assert c == gap_cut(g, c.prefix, k, c.delta)
    else:
        assert c == principal(g, c.side, c.anchor.coords, k)
    one = Scalar.make(1)
    heads = product(*[(a - one, a, a + one) for a in ref[:-1]])
    for head, v in product(heads, _near(g.factors[k - 1], ref[-1])):
        for tail in (0, 1, -1):
            x = element(g, head + (v,) + (tail,) * (g.rank - k))
            assert (member(c, x) == MINUS) == _raw_lower(ref, closed, x), \
                (dsl.print_cut(c), dsl.print_element(x))

"""Lex-product groups: order, convex subgroups, morphisms, embeddings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordcut import cuts, dsl, lexgroups, scalars
from ordcut.errors import DomainError
from ordcut.lexgroups import (ConvexSubgroup, GroupElement,
                              FactorwiseInjection, LexGroup, convex_subgroups,
                              discreteness, divisible_hull, element,
                              epsilon_lower, epsilon_upper, hahn_embed,
                              initial_part, iota, is_convex_dense,
                              is_principal, lex_compare, principal_pair,
                              quotient, skeleton, slice_group, unit, widening,
                              zero)
from ordcut.scalars import KIND_Q, KIND_Z, Scalar, quad_q, quad_z

import sampling

ZZ = LexGroup((KIND_Z, KIND_Z))
ZZZ = LexGroup((KIND_Z, KIND_Z, KIND_Z))
ZQ = LexGroup((KIND_Z, KIND_Q))
TEST_GROUPS = [ZZ, ZZZ, ZQ, LexGroup((KIND_Z, KIND_Z, KIND_Q)),
               LexGroup((quad_z(2), KIND_Q)), LexGroup((KIND_Q,))]


def test_lex_compare_examples():
    assert lex_compare(element(ZZ, (1, -5)), element(ZZ, (1, 3))) == -1
    x = element(ZZ, (2, 7))
    assert lex_compare(x, x) == 0
    g = LexGroup((KIND_Z, quad_q(2)))
    a = element(g, (Scalar.make(0), Scalar.make(1, 1, 2)))
    b = element(g, (Scalar.make(0), Scalar.make(Fraction(5, 2))))
    assert lex_compare(a, b) == -1


def test_order_compatible_with_addition():
    rng = sampling.rng_for(0)
    for g in TEST_GROUPS:
        for _ in range(150):
            x = sampling.sample_element(g, rng, 6)
            y = sampling.sample_element(g, rng, 6)
            z = sampling.sample_element(g, rng, 6)
            if lex_compare(x, y) < 0:
                assert lex_compare(x + z, y + z) < 0


def test_principal_pair_examples():
    up, lo = principal_pair(element(ZZZ, (0, 2, 7)))
    assert (up.level, lo.level) == (1, 2)
    up, lo = principal_pair(element(ZZZ, (5, 0, 0)))
    assert (up.level, lo.level) == (0, 1)
    up, lo = principal_pair(element(ZZ, (0, -3)))
    assert (up.level, lo.level) == (1, 2)
    with pytest.raises(DomainError):
        principal_pair(zero(ZZ))


def test_principal_pair_bounding_oracle():
    """Delta+ is the smallest convex subgroup containing x (box search)."""
    x = element(ZZ, (0, -3))
    up, lo = principal_pair(x)
    assert up.member(x) and not lo.member(x)
    # every convex subgroup strictly inside Delta+ misses x
    for c in convex_subgroups(ZZ):
        if c.level > up.level:
            assert not c.member(x)


def test_convex_subgroup_census():
    for g in TEST_GROUPS + [LexGroup(())]:
        subs = convex_subgroups(g)
        n = g.rank
        assert len(subs) == n + 1
        assert [c.level for c in subs] == list(range(n + 1))
        assert sum(1 for c in subs if is_principal(c)) == n
        # strict descending chain: unit k+1 separates C_k from C_{k+1}
        for k in range(n):
            sep = unit(g, k + 1)
            assert subs[k].member(sep) and not subs[k + 1].member(sep)


def test_quotient_and_slice():
    qg, proj = quotient(ZZZ, ConvexSubgroup(ZZZ, 2))
    assert qg == ZZ
    assert proj.apply(element(ZZZ, (1, 2, 3))) == element(ZZ, (1, 2))
    qg0, _ = quotient(ZZZ, ConvexSubgroup(ZZZ, 0))
    assert qg0.rank == 0
    g = LexGroup((KIND_Z, KIND_Q, KIND_Z))
    assert slice_group(g, 1, 3) == LexGroup((KIND_Q, KIND_Z))
    with pytest.raises(DomainError):
        slice_group(g, 2, 1)


def test_skeleton_and_iota():
    chain, factors = skeleton(ZQ)
    assert chain.size == 2 and factors == [KIND_Z, KIND_Q]
    x = element(ZZZ, (0, 0, 5))
    assert iota(x) == 3
    assert initial_part(x) == Scalar.make(5)
    assert skeleton(LexGroup(()))[0].size == 0


def test_hahn_embed_is_identity_on_coordinates():
    x = element(ZZZ, (0, 2, -1))
    assert hahn_embed(x) == x.coords


def test_divisible_hull():
    g = LexGroup((KIND_Z, quad_z(2)))
    hull, m = divisible_hull(g)
    assert hull == LexGroup((KIND_Q, quad_q(2)))
    assert hull.rank == g.rank
    hq, _ = divisible_hull(LexGroup((KIND_Q,)))
    assert hq == LexGroup((KIND_Q,))
    for grp in TEST_GROUPS:
        h, _ = divisible_hull(grp)
        assert h.rank == grp.rank


def test_discreteness_examples():
    qz = LexGroup((KIND_Q, KIND_Z))
    disc, disc_ord, least = discreteness(qz)
    assert (disc, disc_ord) == (True, False)
    assert least == unit(qz, 2)
    # box oracle: no positive element below (0,1) with small coordinates
    rng = sampling.rng_for(2)
    for _ in range(300):
        x = sampling.sample_element(qz, rng, 6)
        if lex_compare(x, zero(qz)) > 0:
            assert lex_compare(least, x) <= 0
    assert discreteness(ZZ) == (True, True, unit(ZZ, 2))
    disc, disc_ord, least = discreteness(ZQ)
    assert (disc, disc_ord, least) == (False, False, None)


def test_epsilon_maps_and_convex_density():
    m = widening(ZQ)
    assert epsilon_lower(m, ConvexSubgroup(ZQ, 1)).level == 1
    for k in range(ZQ.rank + 1):
        assert epsilon_upper(m, epsilon_lower(
            m, ConvexSubgroup(ZQ, k))).level == k
    assert is_convex_dense(m)
    for g in TEST_GROUPS:
        assert is_convex_dense(widening(g))


def test_archimedean_equivalence_witnesses():
    """iota(x) = iota(y) iff each is bounded by a multiple of the other."""
    rng = sampling.rng_for(3)

    def scale(x, n):
        out = x
        for _ in range(n - 1):
            out = out + x
        return out

    def abs_elem(x):
        return x if lex_compare(x, zero(x.group)) >= 0 else -x

    for g in (ZZ, ZZZ):
        for _ in range(60):
            x = abs_elem(sampling.sample_nonzero(g, rng, 4))
            y = abs_elem(sampling.sample_nonzero(g, rng, 4))
            bounded = any(lex_compare(x, scale(y, n)) < 0
                          for n in range(1, 10)) and \
                any(lex_compare(y, scale(x, n)) < 0 for n in range(1, 10))
            assert bounded == (iota(x) == iota(y))


def test_factorwise_injection_validation():
    with pytest.raises(DomainError):
        lexgroups.FactorwiseInjection(ZZ, ZQ, (Fraction(1, 2), Fraction(1)))
    with pytest.raises(DomainError):
        lexgroups.FactorwiseInjection(ZZ, ZZ, (Fraction(-1), Fraction(1)))
    m = lexgroups.FactorwiseInjection(ZZ, ZQ, (Fraction(3), Fraction(1, 2)))
    assert m.apply(element(ZZ, (2, 4))) == element(
        ZQ, (Scalar.make(6), Scalar.make(2)))


# ---------------------------------------------------------------------------
# group operations build results without checking them again: each result
# must be what the checked constructor GroupElement(...) accepts and builds

FAST_GROUPS = TEST_GROUPS + [LexGroup((quad_q(3), quad_z(5), KIND_Z))]


@st.composite
def element_pair_and_morphism(draw):
    g = draw(st.sampled_from(FAST_GROUPS))
    rng = sampling.rng_for(draw(st.integers(0, 10 ** 9)))
    x, y = (sampling.sample_element(g, rng, 9) for _ in range(2))
    if draw(st.booleans()):
        return x, y, widening(g)
    scales = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
              for _ in g.factors]
    text = "scale(%s)" % ",".join(dsl.print_rat(s) for s in scales)
    return x, y, dsl.parse_morphism(text, g)


@settings(max_examples=200, deadline=None)
@given(element_pair_and_morphism())
def test_unchecked_results_equal_checked_construction(case):
    x, y, m = case
    g = x.group
    results = [
        (x + y, GroupElement(g, tuple(a + b for a, b in
                                      zip(x.coords, y.coords)))),
        (x - y, GroupElement(g, tuple(a - b for a, b in
                                      zip(x.coords, y.coords)))),
        (-x, GroupElement(g, tuple(-c for c in x.coords))),
        (m.apply(x), GroupElement(m.cod, tuple(
            c * s for c, s in zip(x.coords, m.scales)))),
    ]
    for fast, checked in results:
        assert type(fast) is GroupElement
        assert fast == checked and hash(fast) == hash(checked)


def test_operations_refuse_elements_of_another_group():
    x = element(ZZ, (1, 2))
    y = element(ZQ, (1, 2))
    with pytest.raises(DomainError):
        x + y
    with pytest.raises(DomainError):
        y - x
    with pytest.raises(DomainError):
        widening(ZQ).apply(x)
    m = FactorwiseInjection(ZZ, ZQ, (Fraction(3), Fraction(1, 2)))
    with pytest.raises(DomainError):
        m.apply(y)


def test_factorwise_injection_keeps_divisible_factors_divisible():
    # 1 maps into Z, but 1/2 in Q would not: the image must stay a group
    q, z = LexGroup((KIND_Q,)), LexGroup((KIND_Z,))
    with pytest.raises(DomainError):
        FactorwiseInjection(q, z, (Fraction(1),))
    with pytest.raises(DomainError):
        FactorwiseInjection(LexGroup((quad_q(2),)), LexGroup((quad_z(2),)),
                            (Fraction(2),))
    m = FactorwiseInjection(q, LexGroup((quad_q(2),)), (Fraction(2),))
    assert m.apply(element(q, (Fraction(1, 2),))).coords == (Scalar.make(1),)


# ---------------------------------------------------------------------------
# a group's tuple of factors keys the widening memo

def test_group_factors_must_be_a_tuple():
    # a list would make the group unhashable: refused as a domain error,
    # not left to end in a TypeError from hash() or the widening memo
    with pytest.raises(DomainError, match="^group factors must be a tuple"):
        LexGroup([KIND_Z, quad_z(2)])
    assert LexGroup((KIND_Z, quad_z(2))).factors == (KIND_Z, quad_z(2))


def test_equal_groups_share_one_widening():
    # two builds of one group are equal records but not one object
    g1, g2 = LexGroup((KIND_Z, quad_z(2))), LexGroup((KIND_Z, quad_z(2)))
    assert g1 is not g2
    m = widening(g1)
    assert widening(g2) is m
    assert m == FactorwiseInjection(g2, LexGroup((KIND_Q, quad_q(2))),
                                    (Fraction(1), Fraction(1)))


def test_a_shared_widening_answers_over_an_equal_group():
    # the memo's injection has the first build as its domain; cuts and
    # elements over a second build go through it unchanged
    g1, g2 = LexGroup((KIND_Z, quad_z(2))), LexGroup((KIND_Z, quad_z(2)))
    m = widening(g1)
    root2, root3 = Scalar.make(0, 1, 2), Scalar.make(0, 1, 3)
    y = m.apply(element(g2, (3, Scalar.make(1, 1, 2))))
    assert y.group == m.cod and dsl.print_element(y) == "[3,1 + 1*sqrt(2)]"
    pushed = [
        (cuts.principal(g2, cuts.BELOW, (1, root2), 2),
         "below([1,0 + 1*sqrt(2)]; C 2)", "below([1,0 + 1*sqrt(2)]; C 2)"),
        (cuts.principal(g2, cuts.ABOVE, (-2, 0), 1),
         "below([-3,0]; C 1)", "above([-2,0]; C 1)"),
        (cuts.gap_cut(g2, (1,), 2, root3),
         "gap([1]; 2; 0 + 1*sqrt(3))", "gap([1]; 2; 0 + 1*sqrt(3))"),
        (cuts.AllAbove(g2), "all_above", "all_above")]
    for c, lower, upper in pushed:
        assert dsl.print_cut(cuts.push_lower(m, c)) == lower
        assert dsl.print_cut(cuts.push_upper(m, c)) == upper
    pulled = [("below([1/2,0]; C 1)", "below([0,0]; C 1)"),
              ("above([2,0+1/3*sqrt(2)]; C 2)", "gap([2]; 2; 0 + 1/3*sqrt(2))"),
              ("below([1,1/2+1*sqrt(2)]; C 2)", "gap([1]; 2; 1/2 + 1*sqrt(2))"),
              ("gap([]; 1; 0+1*sqrt(2))", "below([1,0]; C 1)"),
              ("gap([1]; 2; 0+1*sqrt(3))", "gap([1]; 2; 0 + 1*sqrt(3))")]
    for text, expected in pulled:
        c = cuts.pull(m, dsl.parse_cut(text, m.cod))
        assert c.group == g2 and dsl.print_cut(c) == expected

"""Lex-product groups: order, convex subgroups, morphisms, embeddings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordcut import cuts, dsl, lexgroups, scalars
from ordcut.errors import DomainError
from ordcut.hahnomega import OmegaGroup
from ordcut.lexgroups import (ConvexSubgroup, GroupElement,
                              FactorwiseInjection, LexGroup, convex_subgroups,
                              discreteness, element, epsilon_upper,
                              initial_part, iota, is_principal, lex_compare,
                              slice_group, unit, widening, zero)
from ordcut.scalars import KIND_Q, KIND_Z, RankOneKind, Scalar

import sampling
from sampling import quad_q, quad_z

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


def test_unit_refuses_indices_outside_the_rank():
    assert [unit(ZQ, i) for i in (1, 2)] == \
        [element(ZQ, (1, 0)), element(ZQ, (0, 1))]
    # 0 and -1 read coordinates 2 and 1 through negative indexing once
    for i in (0, -1, 3):
        with pytest.raises(DomainError, match="^coordinate index %d outside "
                           "1..2$" % i):
            unit(ZQ, i)


def test_quotient_and_slice():
    # the quotient by C_k is the slice C_0/C_k
    assert slice_group(ZZZ, 0, 2) == ZZ
    assert slice_group(ZZZ, 0, 0).rank == 0
    g = LexGroup((KIND_Z, KIND_Q, KIND_Z))
    assert slice_group(g, 1, 3) == LexGroup((KIND_Q, KIND_Z))
    with pytest.raises(DomainError):
        slice_group(g, 2, 1)


def test_skeleton_and_iota():
    # the skeleton is the group's own rank and factors
    assert (ZQ.rank, ZQ.factors) == (2, (KIND_Z, KIND_Q))
    x = element(ZZZ, (0, 0, 5))
    assert iota(x) == 3
    assert initial_part(x) == Scalar.make(5)
    assert LexGroup(()).rank == 0


def test_hahn_embed_is_identity_on_coordinates():
    # into the divisible hull, which is the Hahn sum's own group
    x = element(ZZZ, (0, 2, -1))
    assert widening(ZZZ).apply(x).coords == x.coords


def test_divisible_hull():
    g = LexGroup((KIND_Z, quad_z(2)))
    assert widening(g).cod == LexGroup((KIND_Q, quad_q(2)))
    assert widening(LexGroup((KIND_Q,))).cod == LexGroup((KIND_Q,))
    for grp in TEST_GROUPS:
        assert widening(grp).cod.rank == grp.rank


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


def epsilon_lower(m, c):
    """The convex subgroup of the codomain generated by the image of C_k."""
    if c.group != m.dom:
        raise DomainError("subgroup belongs to a different group")
    return ConvexSubgroup(m.cod, c.level)


def is_convex_dense(m):
    """Whether the two epsilon maps are mutually inverse bijections."""
    for k in range(m.dom.rank + 1):
        if epsilon_upper(m, epsilon_lower(m, ConvexSubgroup(m.dom, k))).level != k:
            return False
        if epsilon_lower(m, epsilon_upper(m, ConvexSubgroup(m.cod, k))).level != k:
            return False
    return True


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


def test_factorwise_scales_are_a_tuple_of_positive_ints_or_fractions():
    assert lexgroups.FactorwiseInjection(ZZ, ZQ, (3, Fraction(1, 2))) == \
        lexgroups.FactorwiseInjection(ZZ, ZQ, (Fraction(3), Fraction(1, 2)))
    for scales in ([1, 1], (1, 1, 1), ()):
        with pytest.raises(DomainError):
            lexgroups.FactorwiseInjection(ZZ, ZZ, scales)
    with pytest.raises(DomainError, match="^scales must be a tuple$"):
        lexgroups.FactorwiseInjection(ZZ, ZZ, [1, 1])
    # bool is refused as radicands and indices refuse it; a rational Scalar
    # is a scale, an irrational one is not
    assert lexgroups.FactorwiseInjection(ZZ, ZQ, (1, Scalar.make(1))) == \
        lexgroups.FactorwiseInjection(ZZ, ZQ, (1, 1))
    with pytest.raises(DomainError,
                       match=r"^a scale is rational, not 0 \+ 1\*sqrt\(2\)$"):
        lexgroups.FactorwiseInjection(ZZ, ZQ, (1, Scalar.make(0, 1, 2)))
    for bad in (True, "a", 0.5, 1.0, None):
        with pytest.raises(
                DomainError, match="^a scale is an int or a Fraction, not %s$"
                % type(bad).__name__):
            lexgroups.FactorwiseInjection(ZZ, ZQ, (1, bad))
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(DomainError, match="^scales must be positive$"):
            lexgroups.FactorwiseInjection(ZZ, ZQ, (1, bad))


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
    text = "scale(%s)" % ",".join(dsl.print_scalar(Scalar.make(s))
                                  for s in scales)
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


# The factor rule against the products it replaced: Z and Q kinds, plain
# and over radicands of three square classes, two of them one class (1033
# and 1031^2 * 1033, which keeps the square of a prime past 2^10), scaled by
# integers and non-integers, 1031 among them.
RULE_KINDS = [RankOneKind(tag, d) for tag in ("Z", "Q")
              for d in (0, 2, 3, 1033, 1031 ** 2 * 1033)]
RULE_SCALES = (1, 2, Fraction(1, 2), Fraction(3, 2), 1031, Fraction(1, 1031))


def test_factor_rule_agrees_with_generator_products():
    for kd in RULE_KINDS:
        dom = LexGroup((kd,))
        for s in RULE_SCALES:
            scalar = Scalar.make(s)
            for kc in RULE_KINDS:
                cod = LexGroup((kc,))
                expected = sampling.scaled_into_by_products(kd, scalar, kc)
                try:
                    m = FactorwiseInjection(dom, cod, (s,))
                except DomainError as e:
                    assert not expected, (kd, s, kc)
                    assert str(e) == \
                        "scaled factor image leaves the codomain factor"
                    continue
                assert expected, (kd, s, kc)
                # int, Fraction and Scalar scales build one morphism
                same = [FactorwiseInjection(dom, cod, (t,))
                        for t in (Fraction(s), scalar)]
                assert m.scales == (scalar,)
                assert all(m == n and hash(m) == hash(n) for n in same)
            # the parser's codomain: the factor, or its hull where it must
            hull = scalars.divisible_hull_kind(kd)
            text = "scale(%s)" % dsl.print_scalar(scalar)
            assert dsl.parse_morphism(text, dom).cod == LexGroup(
                (kd if sampling.scaled_into_by_products(kd, scalar, kd)
                 else hull,))
    # sqrt(1033) * 1031 is sqrt(1031^2 * 1033), and back by 1
    big = 1031 ** 2 * 1033
    assert FactorwiseInjection(LexGroup((quad_z(1033),)),
                               LexGroup((quad_z(big),)), (1031,))
    assert FactorwiseInjection(LexGroup((quad_z(big),)),
                               LexGroup((quad_z(1033),)), (1,))


def test_factor_rule_refusals_keep_their_messages():
    for bad, message in ((0, "scales must be positive"),
                         (-1, "scales must be positive"),
                         (True, "a scale is an int or a Fraction, not bool"),
                         (1.5, "a scale is an int or a Fraction, not float"),
                         ("1", "a scale is an int or a Fraction, not str")):
        for kd, kc in ((KIND_Z, KIND_Z), (KIND_Q, KIND_Q),
                       (quad_z(2), quad_q(2))):
            with pytest.raises(DomainError) as e:
                FactorwiseInjection(LexGroup((kd,)), LexGroup((kc,)), (bad,))
            assert str(e.value) == message


# ---------------------------------------------------------------------------
# a group's tuple of factors keys the widening memo

def test_group_factors_must_be_a_tuple():
    # a list would make the group unhashable: refused as a domain error,
    # not left to end in a TypeError from hash() or the widening memo
    with pytest.raises(DomainError, match="^group factors must be a tuple"):
        LexGroup([KIND_Z, quad_z(2)])
    assert LexGroup((KIND_Z, quad_z(2))).factors == (KIND_Z, quad_z(2))


def test_groups_refuse_factors_that_are_not_kinds():
    # a factor that is not a RankOneKind is a domain error at once, not a
    # raw AttributeError later, in the widening or a membership check
    with pytest.raises(DomainError, match="^group factors must be a tuple "
                       "of rank-one kinds$"):
        LexGroup(("Z",))
    with pytest.raises(DomainError):
        widening(LexGroup(("Z",)))
    with pytest.raises(DomainError, match="^omega factor must be a rank-one "
                       "kind$"):
        OmegaGroup("Q")


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

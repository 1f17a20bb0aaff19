"""Omega-indexed lex sums: order, anchors, invariance, constructive
invariance witnesses."""

import time
from fractions import Fraction

import pytest

from ordcut import cuts, hahnomega
from ordcut.errors import DomainError
from ordcut.hahnomega import (MINUS, PLUS, OmegaGroup, index_cut,
                              omega_classify, omega_compare, omega_element,
                              omega_gap_at, omega_invariance,
                              omega_invariance_witness, omega_member,
                              omega_periodic, omega_point, omega_tail,
                              omega_translate, omega_zero,
                              omega_zero_subgroup)
from ordcut.lexgroups import LexGroup, element
from ordcut.scalars import KIND_Q, KIND_Z, Scalar, quad_q, quad_z

import sampling

GZ = OmegaGroup(KIND_Z)
GQ = OmegaGroup(KIND_Q)
GZ2 = OmegaGroup(quad_z(2))
GQ3 = OmegaGroup(quad_q(3))
SQRT2 = Scalar.make(0, 1, 2)


def test_group_validation():
    # every rank-one factor makes an omega group; its elements stay inside it
    assert omega_element(GZ2, [(0, SQRT2)]).coord(0) == SQRT2
    with pytest.raises(DomainError):
        omega_element(GZ2, [(0, Fraction(1, 2))])
    with pytest.raises(DomainError):
        omega_element(GQ3, [(0, SQRT2)])


def test_repeated_index_is_refused():
    # a zero value must not hide the repeat, and neither may the order
    for pairs in ([(1, 2), (1, 3)], [(1, 2), (1, 0)], [(1, 0), (1, 2)],
                  [(0, 1), (2, 0), (2, 0)]):
        with pytest.raises(DomainError, match="index . repeats"):
            omega_element(GZ, pairs)
    assert omega_element(GZ, [(3, 0), (1, 2)]).support == \
        ((1, Scalar.make(2)),)


def test_compare_examples():
    e0 = omega_element(GZ, [(0, 1)])
    e1 = omega_element(GZ, [(1, 1)])
    assert omega_compare(e1, e0) == -1
    assert omega_compare(omega_zero(GZ), omega_zero(GZ)) == 0
    x = omega_element(GZ, [(0, 1), (5, -2)])
    y = omega_element(GZ, [(0, 1), (3, 1)])
    assert omega_compare(x, y) == -1


def test_sum_of_elements_of_different_groups_is_refused():
    x = omega_element(GZ, [(0, 1)])
    for y in (omega_element(GQ, [(1, 2)]), omega_element(GQ, [(0, 1)])):
        with pytest.raises(DomainError):
            x + y
        with pytest.raises(DomainError):
            y - x
    assert x + x == omega_element(GZ, [(0, 2)])


def test_compare_compatible_with_addition():
    rng = sampling.rng_for(0)
    for _ in range(300):
        x = sampling.sample_omega_element(GZ, rng, 4)
        y = sampling.sample_omega_element(GZ, rng, 4)
        z = sampling.sample_omega_element(GZ, rng, 4)
        if omega_compare(x, y) < 0:
            assert omega_compare(x + z, y + z) < 0


def test_member_examples():
    ones = omega_periodic(GZ, (), (1,))
    assert omega_member(ones, omega_element(GZ, [(0, 1)])) == MINUS
    assert omega_member(ones, omega_element(GZ, [(0, 2)])) == PLUS
    gap = omega_gap_at(GQ, [], 1, SQRT2)
    assert omega_member(gap, omega_element(GQ, [(1, Fraction(3, 2))])) == PLUS
    assert omega_member(gap, omega_element(GQ, [(1, Fraction(7, 5))])) == MINUS
    pt = omega_point(GZ, [(0, 3)])
    assert omega_member(pt, omega_element(GZ, [(0, 3)])) == MINUS


def test_anchor_validation():
    with pytest.raises(DomainError):
        omega_gap_at(GZ, [], 1, Fraction(1, 2))  # discrete factor
    with pytest.raises(DomainError):
        omega_gap_at(GQ, [], 1, Fraction(1, 2))  # anchor inside the factor
    with pytest.raises(DomainError):
        omega_gap_at(GQ, [(3, 1)], 1, SQRT2)  # prefix support past the index
    with pytest.raises(DomainError):
        omega_periodic(GZ, (), ())
    with pytest.raises(DomainError):
        omega_periodic(GZ, (), (0, 0))
    # a period may lead with a negative entry: only an all-zero one is refused
    signed = omega_periodic(GZ, (), (-1, 2))
    assert signed.period == (Scalar.make(-1), Scalar.make(2))


def test_invariance_and_classification():
    ones = omega_periodic(GZ, (), (1,))
    assert omega_invariance(ones).index is None
    assert omega_classify(ones) == hahnomega.TIGHTENED
    assert str(index_cut(ones)) == "top"
    gap = omega_gap_at(GQ, [], 1, SQRT2)
    assert omega_invariance(gap) == omega_tail(GQ, 2)
    assert omega_classify(gap) == hahnomega.GAPPED
    assert str(index_cut(gap)) == "L^{>1}"
    pt = omega_point(GZ, [(0, 3)])
    assert omega_invariance(pt) == omega_zero_subgroup(GZ)
    assert omega_classify(pt) == hahnomega.RP_BELOW
    assert str(index_cut(pt)) == "top"


def test_tail_chain():
    """Tail(i+1) is the immediate predecessor of Tail(i) for i <= 8."""
    for i in range(9):
        big = omega_tail(GZ, i)
        small = omega_tail(GZ, i + 1)
        sep = omega_element(GZ, [(i, 1)])
        assert big.member(sep) and not small.member(sep)
    assert not omega_zero_subgroup(GZ).member(omega_element(GZ, [(7, 1)]))


def _assert_straddles(anchor, g):
    y, z = omega_invariance_witness(anchor, g)
    assert z == y + g
    # positive g moves up across the cut, negative g down
    up = omega_compare(g, omega_zero(anchor.group)) > 0
    assert (omega_member(anchor, y), omega_member(anchor, z)) == \
        ((MINUS, PLUS) if up else (PLUS, MINUS))


def test_witness_examples():
    ones = omega_periodic(GZ, (), (1,))
    _assert_straddles(ones, omega_element(GZ, [(3, 1)]))
    gap = omega_gap_at(GQ, [], 1, SQRT2)
    inside = omega_element(GQ, [(5, 1)])  # lies in Tail(2) = invariance
    with pytest.raises(DomainError):
        omega_invariance_witness(gap, inside)
    pt = omega_point(GZ, [(0, 3)])
    _assert_straddles(pt, omega_element(GZ, [(0, 1)]))
    with pytest.raises(DomainError):
        omega_invariance_witness(pt, omega_zero(GZ))
    with pytest.raises(DomainError):
        omega_invariance_witness(pt, omega_element(GQ, [(0, 1)]))


def test_witness_a_box_search_missed():
    # y = {0:2}, y + g = {0:2/3} straddle 3/2, 3/2, ...; no truncation of
    # the anchor plus or minus g does
    anchor = omega_periodic(GQ, (), (Fraction(3, 2),))
    g = omega_element(GQ, [(0, Fraction(-4, 3))])
    _assert_straddles(anchor, g)


def _quadratic_anchors(group, rng):
    """Each anchor shape over a quadratic factor, with signed periods; gap
    anchors are rational over Z[sqrt d], over a second radical over Q[sqrt d]."""
    k = group.factor
    one = Scalar.make(1)
    gen = k.generators()[1]
    return [
        omega_point(group, [(0, one + gen), (2, -gen)]),
        omega_point(group, []),
        omega_gap_at(group, [(0, gen)], 2,
                     sampling.sample_irrational(k, rng, 4)),
        omega_gap_at(group, [], 0, sampling.sample_irrational(k, rng, 4)),
        omega_periodic(group, (), (one - gen,)),
        omega_periodic(group, (gen,), (0, one - gen, 2)),
    ]


def test_quadratic_witnesses():
    """Z[sqrt 2] and Q[sqrt 3]: every shape, both signs of g, and for gap
    anchors g starting below and at the gap index."""
    rng = sampling.rng_for(6)
    for group in (GZ2, GQ3):
        gen = group.factor.generators()[1]
        for anchor in _quadratic_anchors(group, rng):
            starts = range(4)
            if isinstance(anchor, hahnomega.OmegaGapAt):
                starts = range(anchor.index + 1)
            small = gen - 1
            for _ in range(4):
                small = small * (gen - 1)  # (sqrt(d) - 1)^5, a small unit
            for j in starts:
                for head in (gen, -gen, -(gen - 1), small, -small):
                    tail = sampling.sample_omega_element(group, rng, 3, 6)
                    g = omega_element(group, [(j, head)] + [
                        (i, v) for i, v in tail.support if i > j])
                    _assert_straddles(anchor, g)
            for _ in range(20):
                g = sampling.sample_omega_nonzero(group, rng, 4, 5)
                if omega_invariance(anchor).member(g):
                    with pytest.raises(DomainError):
                        omega_invariance_witness(anchor, g)
                else:
                    _assert_straddles(anchor, g)


def test_invariance_oracle_agreement():
    """Outsiders always yield a witness; stabilizers are refused, and no
    sampled y is moved across the cut by them."""
    rng = sampling.rng_for(0)
    anchors = [omega_periodic(GZ, (), (1,)),
               omega_periodic(GZ, (2,), (1, 3)),
               omega_point(GZ, [(0, 2), (2, -1)]),
               omega_gap_at(GQ, [(0, Fraction(1, 2))], 2, SQRT2),
               omega_gap_at(GZ2, [], 1, Scalar.make(Fraction(1, 2))),
               omega_gap_at(GQ3, [(0, 1)], 2, SQRT2)]
    for anchor in anchors:
        inv = omega_invariance(anchor)
        for _ in range(25):
            g = sampling.sample_omega_nonzero(anchor.group, rng, 4, 5)
            if not inv.member(g):
                _assert_straddles(anchor, g)
                continue
            with pytest.raises(DomainError):
                omega_invariance_witness(anchor, g)
            for _ in range(20):
                y = sampling.sample_omega_element(anchor.group, rng, 4, 5)
                assert omega_member(anchor, y) == omega_member(anchor, y + g)


def test_member_of_a_far_gap_is_quick():
    # only the supports below the gap index are compared
    far = 10 ** 11
    gap = omega_gap_at(GQ, [(0, 1), (far - 1, -2)], far, SQRT2)
    cases = [({}, MINUS), ({0: 2}, PLUS), ({0: 1}, PLUS),
             ({0: 1, far - 1: -2, far: 1}, MINUS),
             ({0: 1, far - 1: -2, far: Fraction(3, 2)}, PLUS),
             ({0: 1, far - 1: -2, far + 1: 9}, MINUS),
             ({0: 1, 5: -1}, MINUS), ({0: 1, far - 1: -1}, PLUS)]
    t0 = time.perf_counter()
    for pairs, side in cases:
        assert omega_member(gap, omega_element(GQ, pairs.items())) == side
    assert time.perf_counter() - t0 < 1


def test_member_of_a_periodic_anchor_stops_at_the_first_difference(
        monkeypatch):
    # the anchor is written out lazily, so an index of 10^11 in x costs
    # nothing: the walk reads the anchor only up to the first difference
    coord = hahnomega.OmegaPeriodic.coord
    reads = []

    def counted(anchor, i):
        reads.append(i)
        if len(reads) > 100:
            raise AssertionError("the walk ran past the first difference")
        return coord(anchor, i)

    monkeypatch.setattr(hahnomega.OmegaPeriodic, "coord", counted)
    far = 10 ** 11
    anchor = omega_periodic(GZ, [], [1])
    cases = [({far: 1}, MINUS), ({0: 1, far: 1}, MINUS),
             ({0: 1, 1: 2, far: -1}, PLUS)]
    for pairs, side in cases:
        assert omega_member(anchor, omega_element(GZ, pairs.items())) == side


def test_translate():
    ones = omega_periodic(GZ, (), (1,))
    g = omega_element(GZ, [(0, 2)])
    t = omega_translate(ones, g)
    # phase preserved: coordinate stream shifts only where g is supported
    assert t.coord(0) == Scalar.make(3)
    assert all(t.coord(i) == Scalar.make(1) for i in range(1, 6))
    rng = sampling.rng_for(1)
    anchors = [omega_periodic(GZ, (), (1, 2)),
               omega_point(GZ, [(1, 4)]),
               omega_gap_at(GQ, [], 1, SQRT2)]
    for anchor in anchors:
        for _ in range(30):
            g = sampling.sample_omega_element(anchor.group, rng, 4, 4)
            shifted = omega_translate(anchor, g)
            assert omega_classify(shifted) == omega_classify(anchor)
            x = sampling.sample_omega_element(anchor.group, rng, 4, 4)
            assert omega_member(shifted, x + g) == omega_member(anchor, x)


# periods whose first nonzero entry is negative, or that change sign
SIGNED = [omega_periodic(GZ, (), (-1, 2)),
          omega_periodic(GQ, (Fraction(1, 2),), (Fraction(-3, 2),)),
          omega_periodic(GZ, (3,), (0, -1)),
          omega_periodic(GQ, (), (0, -1, Fraction(2, 3)))]


def _truncation(anchor, n):
    """The anchor's entries at indices below n, as a group element."""
    return omega_element(anchor.group,
                         [(i, anchor.coord(i)) for i in range(n)])


def _side_by_truncation(anchor, x):
    """Oracle: x against a truncation of the anchor long enough to hold a
    nonzero entry past x's support, so the two differ below its length,
    where truncation and anchor agree."""
    n = x.max_index() + 1 + len(anchor.preperiod) + 2 * len(anchor.period)
    s = omega_compare(x, _truncation(anchor, n))
    assert s != 0
    return MINUS if s < 0 else PLUS


def _probes(anchor, rng):
    """Random elements, and the anchor's truncations nudged at each index."""
    xs = [sampling.sample_omega_element(anchor.group, rng, 4, 6)
          for _ in range(40)]
    for m in range(8):
        t = _truncation(anchor, m)
        xs.append(t)
        for j in range(m + 2):
            e = omega_element(anchor.group, [(j, 1)])
            xs += [t + e, t - e]
    return xs


def test_signed_periods_member_by_truncation():
    rng = sampling.rng_for(3)
    for anchor in SIGNED:
        for x in _probes(anchor, rng):
            assert omega_member(anchor, x) == _side_by_truncation(anchor, x)


def test_signed_periods_translate():
    rng = sampling.rng_for(4)
    for anchor in SIGNED:
        for _ in range(20):
            g = sampling.sample_omega_element(anchor.group, rng, 4, 6)
            shifted = omega_translate(anchor, g)
            # the translate's stream is the anchor's plus g, entry by entry
            n = g.max_index() + 1 + len(shifted.preperiod)
            assert omega_compare(_truncation(shifted, n),
                                 _truncation(anchor, n) + g) == 0
            for x in _probes(anchor, rng)[:30]:
                side = _side_by_truncation(anchor, x)
                assert _side_by_truncation(shifted, x + g) == side
                assert omega_member(shifted, x + g) == side


def test_signed_periods_classify_and_invariance():
    rng = sampling.rng_for(5)
    for anchor in SIGNED:
        assert omega_classify(anchor) == hahnomega.TIGHTENED
        assert omega_invariance(anchor) == omega_zero_subgroup(anchor.group)
        assert str(index_cut(anchor)) == "top"
        # invariance (0): every nonzero g moves the cut; a truncation past
        # g's support, or it minus g, straddles it
        for _ in range(10):
            g = sampling.sample_omega_nonzero(anchor.group, rng, 4, 5)
            n = g.max_index() + 1 + len(anchor.preperiod) + len(anchor.period)
            t = _truncation(anchor, n)
            assert any(_side_by_truncation(anchor, y) !=
                       _side_by_truncation(anchor, y + g) for y in (t, t - g))


def test_finite_rank_consistency():
    """A point anchor supported below n behaves like the rank-n lex cut."""
    rng = sampling.rng_for(2)
    n = 4
    lex = LexGroup((KIND_Z,) * n)
    pt = omega_point(GZ, [(0, 1), (2, -2)])
    c = cuts.principal(lex, cuts.BELOW, (1, 0, -2, 0), n)
    for _ in range(200):
        x = sampling.sample_omega_element(GZ, rng, 4, n - 1)
        lifted = element(lex, tuple(x.coord(i) for i in range(n)))
        assert omega_member(pt, x) == cuts.member(c, lifted)
    gap_o = omega_gap_at(GQ, [(0, Fraction(1, 2))], 1, SQRT2)
    lex_q = LexGroup((KIND_Q,) * 2)
    gap_c = cuts.gap_cut(lex_q, (Scalar.make(Fraction(1, 2)),), 2, SQRT2)
    for _ in range(200):
        x = sampling.sample_omega_element(GQ, rng, 4, 1)
        lifted = element(lex_q, (x.coord(0), x.coord(1)))
        assert omega_member(gap_o, x) == cuts.member(gap_c, lifted)

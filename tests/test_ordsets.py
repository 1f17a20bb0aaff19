"""Exhaustive checks of the segment calculus on finite chains."""

import pytest

from ordcut.errors import DomainError
from ordcut.ordsets import (FiniteChain, MonotoneMap, Segment, all_monotone_maps,
                            all_segments, cut_bounds, cut_witness,
                            lower_image, pullback, reconstruct, upper_image)


def chains(limit):
    return [FiniteChain(n) for n in range(limit + 1)]


def enumerate_maps(limit):
    for dom in chains(limit):
        for cod in chains(limit):
            for u in all_monotone_maps(dom, cod):
                yield u


def test_all_segments_examples():
    assert [s.cutoff for s in all_segments(FiniteChain(3))] == [0, 1, 2, 3]
    assert [s.cutoff for s in all_segments(FiniteChain(0))] == [0]
    segs = all_segments(FiniteChain(5))
    assert len(segs) == 6


def test_monotone_map_validation():
    with pytest.raises(DomainError):
        MonotoneMap(FiniteChain(2), FiniteChain(2), (1, 0))
    with pytest.raises(DomainError):
        MonotoneMap(FiniteChain(2), FiniteChain(2), (0, 2))
    with pytest.raises(DomainError):
        Segment(FiniteChain(2), 3)
    # the fields must hash, and both ends must be chains
    with pytest.raises(DomainError, match="^images must be a tuple$"):
        MonotoneMap(FiniteChain(2), FiniteChain(4), [0, 1])
    for dom, cod in ((3, 4), (FiniteChain(1), 4), (3, FiniteChain(4))):
        with pytest.raises(DomainError,
                           match="^a monotone map goes between finite chains$"):
            MonotoneMap(dom, cod, (0,))


def test_pullback_examples():
    u = MonotoneMap(FiniteChain(2), FiniteChain(3), (0, 2))
    assert pullback(u, Segment(u.cod, 2)).cutoff == 1
    ident = MonotoneMap(FiniteChain(3), FiniteChain(3), (0, 1, 2))
    for s in all_segments(ident.cod):
        assert pullback(ident, s) == s
    const = MonotoneMap(FiniteChain(4), FiniteChain(3), (0, 0, 0, 0))
    assert pullback(const, Segment(const.cod, 1)).cutoff == 4


def test_image_examples():
    u = MonotoneMap(FiniteChain(2), FiniteChain(3), (0, 2))
    assert lower_image(u, Segment(u.dom, 1)).cutoff == 1
    assert lower_image(u, Segment(u.dom, 0)).cutoff == 0
    v = MonotoneMap(FiniteChain(2), FiniteChain(3), (1, 1))
    assert lower_image(v, Segment(v.dom, 2)).cutoff == 2
    assert upper_image(u, Segment(u.dom, 1)).cutoff == 2
    assert upper_image(u, Segment(u.dom, 2)).cutoff == 3
    ident = MonotoneMap(FiniteChain(3), FiniteChain(3), (0, 1, 2))
    for s in all_segments(ident.dom):
        assert upper_image(ident, s) == s


def test_cut_images_surjective_witness():
    u = MonotoneMap(FiniteChain(4), FiniteChain(2), (0, 0, 1, 1))
    s = Segment(u.dom, 1)
    assert lower_image(u, s).cutoff == 1 and upper_image(u, s).cutoff == 0
    assert cut_witness(u, s) == 0



def test_segments_of_another_chain_are_refused():
    u = MonotoneMap(FiniteChain(3), FiniteChain(2), (0, 1, 1))
    for s in (Segment(FiniteChain(5), 4), Segment(FiniteChain(2), 1)):
        for f in (cut_witness, lower_image, upper_image):
            with pytest.raises(DomainError, match="different chain"):
                f(u, s)

def test_cut_bounds_examples():
    c4 = FiniteChain(4)
    assert cut_bounds(Segment(c4, 2)) == (1, 2)
    assert cut_bounds(Segment(c4, 0)) == (None, 0)
    assert cut_bounds(Segment(c4, 4)) == (3, None)
    # every nontrivial cut of a finite chain is a jump
    for n in range(1, 6):
        for s in all_segments(FiniteChain(n)):
            lo, hi = cut_bounds(s)
            if lo is not None and hi is not None:
                assert hi == lo + 1


def subset(s1, s2):
    return s1.cutoff <= s2.cutoff


def test_adjunctions_exhaustive():
    """Both adjunction laws for every monotone map between chains of size <= 5."""
    for u in enumerate_maps(5):
        for s in all_segments(u.dom):
            lo = lower_image(u, s)
            hi = upper_image(u, s)
            for sp in all_segments(u.cod):
                assert subset(lo, sp) == subset(s, pullback(u, sp))
                assert subset(sp, hi) == subset(pullback(u, sp), s)


def test_unit_counit_inclusions():
    for u in enumerate_maps(5):
        inj = u.is_injective()
        for s in all_segments(u.dom):
            back_hi = pullback(u, upper_image(u, s))
            back_lo = pullback(u, lower_image(u, s))
            assert subset(back_hi, s) and subset(s, back_lo)
            if inj:
                assert back_hi == s == back_lo


def test_cut_image_comparison():
    """For surjective u: upper <= lower and the overlap u(lower part) with
    u(upper part) has at most one element."""
    for u in enumerate_maps(5):
        for s in all_segments(u.dom):
            lower, upper = lower_image(u, s), upper_image(u, s)
            if u.is_surjective():
                assert subset(upper, lower)
                overlap = {u.images[j] for j in range(s.cutoff)} & \
                    {u.images[j] for j in range(s.cutoff, u.dom.size)}
                assert len(overlap) <= 1
                witness = cut_witness(u, s)
                assert (witness is None) == (not overlap)


def test_reconstruct():
    for n in range(1, 9):
        images = reconstruct(FiniteChain(n))
        assert len(images) == n
        # order isomorphism onto the initial segments of the successor chain
        assert [s.cutoff for s in images] == list(range(n))
        assert all(s.chain.size == n - 1 for s in images)
        for i in range(n):
            for j in range(n):
                assert (i <= j) == subset(images[i], images[j])
    assert reconstruct(FiniteChain(0)) == []

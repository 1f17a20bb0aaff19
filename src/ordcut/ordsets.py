"""Exact calculus of segments and cuts on finite totally ordered sets.

A finite chain of size n has elements 0..n-1.  An initial segment is stored
as its cutoff c: the set {0, .., c-1}.  A segment simultaneously encodes the
cut (initial part, complementary final part).  Monotone maps carry the
adjoint triple lower_image -| pullback -| upper_image.
"""

from bisect import bisect_left
from itertools import combinations_with_replacement

from .errors import DomainError, expect, index, tuple_field
from .record import Record


class FiniteChain(Record):
    __slots__ = ("size",)

    def __post_init__(self):
        index(self.size, "chain size")


class Segment(Record):
    __slots__ = ("chain", "cutoff")

    def __post_init__(self):
        index(self.cutoff, "cutoff", 0,
              expect(self.chain, FiniteChain, "chain").size)


class MonotoneMap(Record):
    __slots__ = ("dom", "cod", "images")

    def __post_init__(self):
        if not (isinstance(self.dom, FiniteChain) and
                isinstance(self.cod, FiniteChain)):
            raise DomainError("a monotone map goes between finite chains")
        tuple_field(self.images, "images")
        prev = 0
        for v in self.images:
            index(v, "image", 0, self.cod.size - 1)
            if v < prev:
                raise DomainError("images are not monotone")
            prev = v
        if len(self.images) != self.dom.size:
            raise DomainError("image sequence has wrong length")

    def is_surjective(self):
        return set(self.images) == set(range(self.cod.size))

    def is_injective(self):
        return len(set(self.images)) == len(self.images)


def all_segments(chain):
    return [Segment(chain, c)
            for c in range(expect(chain, FiniteChain, "chain").size + 1)]


def all_monotone_maps(dom, cod):
    """Every monotone map between the two chains (exhaustive oracle input)."""
    expect(dom, FiniteChain, "domain")
    return [MonotoneMap(dom, cod, images)
            for images in combinations_with_replacement(
                range(expect(cod, FiniteChain, "codomain").size), dom.size)]


def _check_chain(u, s, on_cod):
    """Refuse a u that is not a monotone map, or an s that is not a segment
    of its codomain (on_cod) or domain."""
    expect(u, MonotoneMap, "map")
    if expect(s, Segment, "segment").chain != (u.cod if on_cod else u.dom):
        raise DomainError("segment belongs to a different chain")


def pullback(u, s):
    """u^*: the preimage {j : u(j) in s}, an initial segment of dom."""
    _check_chain(u, s, True)
    return Segment(u.dom, bisect_left(u.images, s.cutoff))  # images ascend


def lower_image(u, s):
    """u_!: smallest initial segment of cod containing u(s)."""
    _check_chain(u, s, False)
    return Segment(u.cod, max(u.images[:s.cutoff], default=-1) + 1)


def upper_image(u, s):
    """u_*: intersection of the I_{<u(j)} over j outside s (right adjoint)."""
    _check_chain(u, s, False)
    return Segment(u.cod, min(u.images[s.cutoff:], default=u.cod.size))


def cut_witness(u, s):
    """The element of u(lower part) intersect u(upper part), if any."""
    _check_chain(u, s, False)
    lower = {u.images[j] for j in range(s.cutoff)}
    upper = {u.images[j] for j in range(s.cutoff, u.dom.size)}
    return min(lower & upper, default=None)


def cut_bounds(s):
    """(sup of the lower part, inf of the upper part), None on empty sides."""
    expect(s, Segment, "segment")
    lam_minus = s.cutoff - 1 if s.cutoff > 0 else None
    lam_plus = s.cutoff if s.cutoff < s.chain.size else None
    return lam_minus, lam_plus


def reconstruct(chain):
    """The isomorphism i -> I_{<=i} restricted to Suc(I) = {1,..,n-1}.

    Returned as the list of image segments over the (n-1)-chain; element i
    maps to the segment of cutoff i.  For the empty chain the witness is the
    empty list.
    """
    n = expect(chain, FiniteChain, "chain").size
    if n == 0:
        return []
    suc = FiniteChain(n - 1)
    return [Segment(suc, i) for i in range(n)]

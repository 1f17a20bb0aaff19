"""Exact calculus of segments and cuts on finite totally ordered sets.

A finite chain of size n has elements 0..n-1.  An initial segment is stored
as its cutoff c: the set {0, .., c-1}.  A segment simultaneously encodes the
cut (initial part, complementary final part).  Monotone maps carry the
adjoint triple lower_image -| pullback -| upper_image.
"""

from itertools import combinations_with_replacement

from .errors import DomainError
from .record import Record


class FiniteChain(Record):
    __slots__ = ("size",)

    def __post_init__(self):
        if self.size < 0:
            raise DomainError("chain size must be nonnegative")


class Segment(Record):
    __slots__ = ("chain", "cutoff")

    def __post_init__(self):
        if not 0 <= self.cutoff <= self.chain.size:
            raise DomainError("cutoff %d outside 0..%d"
                              % (self.cutoff, self.chain.size))

    def lower_set(self):
        return frozenset(range(self.cutoff))

    def upper_set(self):
        return frozenset(range(self.cutoff, self.chain.size))


class MonotoneMap(Record):
    __slots__ = ("dom", "cod", "images")

    def __post_init__(self):
        prev = 0
        for v in self.images:
            if not 0 <= v < self.cod.size:
                raise DomainError("image %d outside codomain" % v)
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
    return [Segment(chain, c) for c in range(chain.size + 1)]


def all_monotone_maps(dom, cod):
    """Every monotone map between the two chains (exhaustive oracle input)."""
    if dom.size == 0:
        return [MonotoneMap(dom, cod, ())]
    if cod.size == 0:
        return []
    return [MonotoneMap(dom, cod, images)
            for images in combinations_with_replacement(range(cod.size),
                                                        dom.size)]


def _check_chain(expected, segment):
    if segment.chain != expected:
        raise DomainError("segment belongs to a different chain")


def pullback(u, s):
    """u^*: the preimage {j : u(j) in s}, an initial segment of dom."""
    _check_chain(u.cod, s)
    c = 0
    while c < u.dom.size and u.images[c] < s.cutoff:
        c += 1
    return Segment(u.dom, c)


def lower_image(u, s):
    """u_!: smallest initial segment of cod containing u(s)."""
    _check_chain(u.dom, s)
    if s.cutoff == 0:
        return Segment(u.cod, 0)
    return Segment(u.cod, u.images[s.cutoff - 1] + 1)


def upper_image(u, s):
    """u_*: intersection of the I_{<u(j)} over j outside s (right adjoint)."""
    _check_chain(u.dom, s)
    c = u.cod.size
    for j in range(s.cutoff, u.dom.size):
        c = min(c, u.images[j])
    return Segment(u.cod, c)


def cut_images(u, s):
    """Both cut images (lower via u_!, upper via u_*); upper <= lower."""
    return lower_image(u, s), upper_image(u, s)


def cut_witness(u, s):
    """The element of u(lower part) intersect u(upper part), if any."""
    _check_chain(u.dom, s)
    lower = {u.images[j] for j in range(s.cutoff)}
    upper = {u.images[j] for j in range(s.cutoff, u.dom.size)}
    both = lower & upper
    if not both:
        return None
    return min(both)


def cut_bounds(s):
    """(sup of the lower part, inf of the upper part), None on empty sides."""
    lam_minus = s.cutoff - 1 if s.cutoff > 0 else None
    lam_plus = s.cutoff if s.cutoff < s.chain.size else None
    return lam_minus, lam_plus


def reconstruct(chain):
    """The isomorphism i -> I_{<=i} restricted to Suc(I) = {1,..,n-1}.

    Returned as the list of image segments over the (n-1)-chain; element i
    maps to the segment of cutoff i.  For the empty chain the witness is the
    empty list.
    """
    n = chain.size
    if n == 0:
        return []
    suc = FiniteChain(n - 1)
    return [Segment(suc, i) for i in range(n)]

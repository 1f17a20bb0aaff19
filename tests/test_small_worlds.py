"""Small worlds: the laws of cuts checked on every small case.

A world is a lex group of rank at most 3 over Z, Q, Z[sqrt 2] and
Q[sqrt 2], or Q[sqrt 3], with what one grid of scalars gives it:
  cuts      every boundary (ref, closed) whose entries but the last are grid
            points in their factors, through `cuts._cut`;
  elements  every element whose coordinates are grid points;
  probes    the points of each factor on and next to every grid point, so
            that every two distinct cuts differ on one.
Each cut's sides on the probes are read once; each law then runs on every
case of every world instead of on samples (the small-scope hypothesis:
D. Jackson, "Software Abstractions", 2006; SmallCheck, C. Runciman,
M. Naylor and F. Lindblad, Haskell Symposium 2008).  A cut is read only
through its boundary, `ref` and `closed`.
"""

import pickle
from fractions import Fraction
from functools import cache, cached_property, cmp_to_key
from itertools import product

import pytest

from ordcut import cuts, dsl, scalars
from ordcut.cuts import (MINUS, PLUS, classify, compare_cuts, invariance,
                         invariance_witness, member, pull, push_lower,
                         push_upper, quotient_image, trace, translate,
                         transport)
from ordcut.errors import DomainError
from ordcut.lexgroups import (ConvexSubgroup, GroupElement, LexGroup,
                              lex_compare, scaling, widening, zero)
from ordcut.scalars import KIND_Q, KIND_Z, ONE, ZERO, Scalar

from sampling import generators, quad_q, quad_z, refused_or

Z2, Q2 = quad_z(2), quad_q(2)
# the halves in [-2, 2], a/2 + sqrt 2 for a in {-1, 0, 1}, and sqrt 3; and,
# to keep rank 3 small, a coarser grid with a point of each of those kinds
GRID = tuple([Scalar.make(Fraction(a, 2)) for a in range(-4, 5)] +
             [Scalar.make(Fraction(a, 2), 1, 2) for a in (-1, 0, 1)] +
             [Scalar.make(0, 1, 3)])
COARSE = tuple(Scalar.make(*v) for v in ((-1,), (0,), (Fraction(1, 2),),
                                         (0, 1, 2), (0, 1, 3)))
# last entries of raw boundaries besides the grid: rationals with
# denominators 3 and 4, values over sqrt 5, and thirds of sqrt 2 and sqrt 3
RAW = tuple(Scalar.make(*v) for v in (
    (Fraction(1, 3),), (Fraction(-3, 4),), (Fraction(9, 4),), (0, 1, 5),
    (Fraction(1, 3), -1, 5), (0, Fraction(-1, 3), 3),
    (Fraction(1, 4), Fraction(1, 3), 2)))
GROUPS = [(LexGroup(kinds), GRID) for kinds in (
    (), (KIND_Z,), (KIND_Q,), (Z2,), (Q2,), (quad_q(3),), (KIND_Z, KIND_Q),
    (Q2, KIND_Z))]
GROUPS.append((LexGroup((KIND_Q, Z2, KIND_Z)), COARSE))
# the widenings into divisible hulls, and scalings that move the grid: Z by
# 2, lex(Z,Q) by (2, 1/2) and Z[sqrt 2] by 1/2
MORPHISMS = [(widening(g), grid) for g, grid in GROUPS
             if widening(g).cod != g] + [
    (scaling(LexGroup(kinds), scales), GRID) for kinds, scales in (
        ((KIND_Z,), (2,)), ((KIND_Z, KIND_Q), (2, Fraction(1, 2))),
        ((Z2,), (Fraction(1, 2),)))]


def _near(kind, t):
    """The points of the factor on t and next to it on both sides: within
    1/100, nearer than any two grid points are, over a dense factor."""
    if scalars.is_discrete_kind(kind):
        return [Scalar.make(t.floor() + i) for i in (-1, 0, 1)]
    gap = Scalar.make(Fraction(1, 100))
    vals = [scalars.element_below(kind, t, gap),
            -scalars.element_below(kind, -t, gap)]
    return vals + [t] if scalars.contains(kind, t) else vals


@cache
class World:
    """The cuts, elements and probes of a group over a grid, built once (the
    class is cached); probes and sides are read when a law needs them."""

    def __init__(self, group, grid):
        self.group, self.grid = group, grid
        self.inside = [[t for t in grid if scalars.contains(kind, t)]
                       for kind in group.factors]
        self.cuts = list(dict.fromkeys(cuts._cut(group, ref, closed)
                                       for ref in self.refs(grid)
                                       for closed in (True, False)))
        self.elements = [GroupElement(group, xs)
                         for xs in product(*self.inside)]

    def refs(self, lasts):
        """Every ref whose entries but the last are grid points in their
        factors, and whose last is one of lasts."""
        return [()] + [head + (t,) for k in range(1, self.group.rank + 1)
                       for head in product(*self.inside[:k - 1])
                       for t in lasts]

    @cached_property
    def probes(self):  # in increasing order, as each axis is
        return [GroupElement(self.group, xs) for xs in product(*[
            sorted({v for t in self.grid for v in _near(kind, t)},
                   key=cmp_to_key(scalars.compare_cross))
            for kind in self.group.factors])]

    @cached_property
    def sides(self):  # each cut's sides on the probes, True below
        return {c: _below(c, self.probes) for c in self.cuts}

    @cached_property
    def index(self):
        return {x: i for i, x in enumerate(self.probes)}

    @cached_property
    def at(self):
        return [self.index[x] for x in self.elements]

    def below(self, c, xs=None):
        """For a world cut c, whether each of xs, the elements by default,
        lies below it."""
        sides = self.sides[c]
        return [sides[i] for i in (self.at if xs is None else
                                   [self.index[x] for x in xs])]

    @cache
    def moved(self, g):
        return [y + g for y in self.elements]

    @cache
    def heads(self, m):  # the elements' images in the quotient by C_m
        group = LexGroup(self.group.factors[:m])
        return [GroupElement(group, x.coords[:m]) for x in self.elements]


WORLDS = [World(g, grid) for g, grid in GROUPS]
IN_EACH_WORLD = pytest.mark.parametrize(  # one case per world
    "w", WORLDS, ids=lambda w: dsl.print_group(w.group))


def _below(c, xs):
    return [member(c, x) == MINUS for x in xs]


def _built(c):
    """c, an operation's result, built past the checks of its class: a
    pickle round trip rebuilds it through them, and must give c back."""
    assert pickle.loads(pickle.dumps(c)) == c, c
    return c


def _ranks(cs):
    """Each cut's place in the order of compare_cuts, equal cuts sharing it."""
    ranked = sorted(set(cs), key=cmp_to_key(compare_cuts))
    assert all(compare_cuts(a, b) < 0 for a, b in zip(ranked, ranked[1:]))
    return {c: i for i, c in enumerate(ranked)}


def _raw_lower(ref, closed, x):
    """The boundary rule itself: x[:k] < ref, or x[:k] = ref when closed."""
    for a, b in zip(x.coords, ref):
        s = scalars.compare_cross(a, b)
        if s:
            return s < 0
    return closed


@IN_EACH_WORLD
def test_cut_keeps_the_lower_part_of_every_raw_boundary(w):
    # a cut is the partition of Gamma into a lower and an upper part: the
    # canonical form `_cut` of every boundary (ref, closed), its last entry
    # anywhere, is a cut of the same level that its class's checks rebuild,
    # whose lower part holds the points the boundary puts below
    g = w.group
    for ref in w.refs(w.grid + RAW)[1:]:
        k = len(ref)
        xs = [GroupElement(g, head + (v,) + (tail,) * (g.rank - k))
              for head in product(*[(a - ONE, a, a + ONE) for a in ref[:-1]])
              for v in _near(g.factors[k - 1], ref[-1])
              for tail in (ZERO, ONE, -ONE)]
        for closed in (True, False):
            c = _built(cuts._cut(g, ref, closed))
            assert len(c.ref) == k
            assert _below(c, xs) == [_raw_lower(ref, closed, x)
                                     for x in xs], c


@IN_EACH_WORLD
def test_compare_cuts_orders_lower_parts_by_inclusion(w):
    # the cuts of Gamma are its initial segments, totally ordered by
    # inclusion: each lower part is downward closed; compare_cuts is the
    # inclusion of lower parts, and so transitive, and it returns 0 exactly
    # on equal descriptors, since the probes tell distinct cuts apart
    sizes = []
    for c in w.cuts:
        assert w.sides[c] == sorted(w.sides[c], reverse=True), c
        sizes.append(sum(w.sides[c]))
    assert len(set(sizes)) == len(w.cuts)
    for c, s in zip(w.cuts, sizes):
        assert [compare_cuts(c, d) for d in w.cuts] == [
            (s > t) - (s < t) for t in sizes], c
    assert sorted(w.cuts, key=cmp_to_key(compare_cuts)) == sorted(
        w.cuts, key=dict(zip(w.cuts, sizes)).get)


@pytest.mark.parametrize("m, grid", MORPHISMS, ids=[
    f"{dsl.print_morphism(m)} {dsl.print_group(m.dom)}" for m, _ in MORPHISMS])
def test_push_and_pull_form_an_adjoint_triple(m, grid):
    # the images of cuts along an injective morphism m (criterion 6):
    # push_lower(m, c) <= d iff c <= pull(m, d), and pull(m, d) <= c iff
    # d <= push_upper(m, c); the pushes bracket the image and keep c's
    # invariance level, and membership agrees through m.apply
    dom, cod = World(m.dom, grid), World(m.cod, grid)
    lo = {c: _built(push_lower(m, c)) for c in dom.cuts}
    hi = {c: _built(push_upper(m, c)) for c in dom.cuts}
    back = [_built(pull(m, d)) for d in cod.cuts]
    at = _ranks(cod.cuts + list(lo.values()) + list(hi.values()))
    on = _ranks(dom.cuts + back)
    ds, bs = [at[d] for d in cod.cuts], [on[b] for b in back]
    images = [m.apply(x) for x in dom.elements]
    for c in dom.cuts:
        r, rl, rh = on[c], at[lo[c]], at[hi[c]]
        assert [rl <= d for d in ds] == [r <= b for b in bs], c
        assert [b <= r for b in bs] == [d <= rh for d in ds], c
        assert rl <= rh
        for pushed in (lo[c], hi[c]):
            assert invariance(pushed).level == invariance(c).level
            assert _below(pushed, images) == dom.below(c), (c, pushed)
    for d, b in zip(cod.cuts, back):
        assert _below(b, dom.elements) == _below(d, images), (d, b)


def test_translation_moves_the_lower_part_and_keeps_the_type():
    # Gamma acts on its cuts by translation: member(translate(c, g), y + g)
    # = member(c, y), and the translate keeps classify and invariance
    refused = 0
    for w in WORLDS:
        g0 = zero(w.group).coords
        for i, kind in enumerate(w.group.factors):
            for v in generators(kind):
                g = GroupElement(w.group, g0[:i] + (v,) + g0[i + 1:])
                for c in w.cuts:
                    t = refused_or(translate, c, g)
                    if t is None:
                        refused += 1
                        continue
                    assert classify(_built(t)) == classify(c)
                    assert invariance(t).level == invariance(c).level
                    assert _below(t, w.moved(g)) == w.below(c)
    # the translates that cannot be written, a gap over one radical moved by
    # another: sqrt 3 over Z[sqrt 2] or Q[sqrt 2] moved by sqrt 2, and the
    # three a/2 + sqrt 2 over Q[sqrt 3] moved by sqrt 3
    assert refused == 9


@IN_EACH_WORLD
def test_the_invariance_subgroup_fixes_the_cut_and_nothing_else_does(w):
    # criterion 4 on every case: translating by any g in the invariance
    # subgroup C_k fixes membership; invariance_witness(c, g) straddles c,
    # below then above for g > 0, for every g outside C_k, and is refused
    # for every g inside it
    up = {g: lex_compare(g, zero(w.group)) > 0 for g in w.elements}
    for c in w.cuts:
        sub, below = invariance(c), w.below(c)
        for g in w.elements:
            if sub.member(g):
                assert g.is_zero() or _below(c, w.moved(g)) == below
                with pytest.raises(DomainError):
                    invariance_witness(c, g)
                continue
            y, z = invariance_witness(c, g)
            assert z == y + g
            assert (member(c, y), member(c, z)) == (
                (MINUS, PLUS) if up[g] else (PLUS, MINUS)), (c, g)


@IN_EACH_WORLD
def test_quotient_trace_and_transport_agree_with_member(w):
    # the sub-quotients of a cut c at level k: its image in Gamma/C_m, for
    # m >= k, holds x[:m] exactly when c holds x, and is refused for m < k;
    # its trace on C_m, for m < k, holds y exactly when c holds ref[:m] + y,
    # and is refused for m >= k; transport is the trace on C_m2 read in
    # C_m2/C_m1, of c's type (criterion 5), with invariance level k - m2
    n = w.group.rank
    subs = [ConvexSubgroup(w.group, m) for m in range(n + 1)]
    for c in w.cuts:
        k = len(c.ref)
        for m in range(k, n + 1):
            q = quotient_image(c, subs[m])
            assert _below(q, w.heads(m)) == w.below(c), (c, m)
            with pytest.raises(DomainError):
                trace(c, subs[m])
        for m in range(k):
            with pytest.raises(DomainError) as e:
                quotient_image(c, subs[m])
            assert e.value.payload.coords == c.ref[:m]
            tail = World(LexGroup(w.group.factors[m:]), w.grid)
            lifted = w.below(c, [GroupElement(w.group, c.ref[:m] + y.coords)
                                 for y in tail.elements])
            t = trace(c, subs[m])
            assert _below(t, tail.elements) == lifted, (c, m)
            for m1 in range(k, n + 1):
                out = transport(c, subs[m1], subs[m])
                assert classify(out) == classify(c)
                assert invariance(out).level == k - m
                assert _below(out, tail.heads(m1 - m)) == lifted


@IN_EACH_WORLD
def test_each_cut_is_the_preimage_of_a_cut_with_invariance_zero(w):
    # the dictionary: a cut c of Gamma with invariance C_k is the preimage of
    # its image in Gamma/C_k, a cut of the same type whose invariance is
    # (0); and the cut with the boundary of a cut q of Gamma/C_k with
    # invariance (0) has invariance C_k and image q, so that it is q's
    # preimage (the quotient law above).  Both sides are counted on the grid.
    g = w.group
    for k in range(g.rank + 1):
        sub = ConvexSubgroup(g, k)
        ours = [c for c in w.cuts if invariance(c) == sub]
        theirs = [q for q in World(LexGroup(g.factors[:k]), w.grid).cuts
                  if invariance(q).level == k]
        images = [quotient_image(c, sub) for c in ours]
        preimages = [cuts._cut(g, q.ref, q.closed) for q in theirs]
        # as many on each side, each map onto the other side, and one
        # way round the identity: the maps are inverse bijections
        assert len(ours) == len(theirs)
        assert set(images) == set(theirs) and set(preimages) == set(ours)
        for c, q in zip(ours, images):
            assert invariance(q).level == k and classify(q) == classify(c)
        for p, q in zip(preimages, theirs):
            assert quotient_image(p, sub) == q

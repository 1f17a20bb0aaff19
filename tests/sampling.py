"""Seeded random generators and brute-force falsifiers for the test oracles,
and the small builders and readers that only tests use.

Boxes follow the library convention: integer coordinates in [-box, box],
rational ones with numerator and denominator bounded by box.
"""

import random
from fractions import Fraction
from math import gcd

from ordcut import cuts, dsl, hahnomega, scalars
from ordcut.errors import DomainError
from ordcut.hahnomega import OmegaElement, OmegaPoint, omega_element
from ordcut.lexgroups import GroupElement
from ordcut.scalars import Scalar


def is_dense_kind(kind):
    return not scalars.is_discrete_kind(kind)


def height(x):
    """The largest numerator or denominator of the scalar's a and b in
    lowest terms."""
    p, q, n = x.p, x.q, x.n
    g, h = gcd(p, n), gcd(q, n)
    return max(abs(p) // g, n // g, abs(q) // h, n // h)


def generators(kind):
    """1, and sqrt(d) for a quadratic kind: they span the group.  Built
    without splitting d, which a kind has split already."""
    if kind.d:
        return (scalars.ONE, scalars._raw(0, 1, 1, kind.d))
    return (scalars.ONE,)


def scaled_into_by_products(kd, s, kc):
    """Whether s*kd lies in kc, by multiplying out kd's generators: the
    check the library made before it read the answer off tags and
    radicands.  A Q kind spans its generators over Q, so it needs a Q kind."""
    return not (kd.tag == "Q" and kc.tag != "Q") and all(
        scalars.contains(kc, g * s) for g in generators(kd))


def parse_scalar(text):
    """The scalar of the DSL text, as the library parses an element's
    coordinates."""
    return dsl._parse_with("parse_scalar", text)


def quad_q(d):
    """The rank-one group Q[sqrt d], or Q for d = 0."""
    return scalars.RankOneKind("Q", d)


def omega_zero(group):
    return OmegaElement(group, ())


def omega_point(group, pairs):
    return OmegaPoint(group, omega_element(group, pairs))


def rng_for(seed):
    return random.Random(seed)


def sample_fraction(rng, box):
    return Fraction(rng.randint(-box, box), rng.randint(1, box))


def sample_scalar(kind, rng, box):
    if kind.tag == "Z":
        a = Fraction(rng.randint(-box, box))
        b = Fraction(rng.randint(-box, box)) if kind.d else Fraction(0)
    else:
        a = sample_fraction(rng, box)
        b = sample_fraction(rng, box) if kind.d else Fraction(0)
    return Scalar.make(a, b, kind.d)


def sample_element(group, rng, box):
    return GroupElement(group, tuple(
        sample_scalar(k, rng, box) for k in group.factors))


def sample_nonzero(group, rng, box):
    while True:
        x = sample_element(group, rng, box)
        if not x.is_zero():
            return x


def sample_in_subgroup(sub, rng, box):
    """A random element of C_k (first k coordinates zeroed)."""
    x = sample_element(sub.group, rng, box)
    coords = (scalars.ZERO,) * sub.level + x.coords[sub.level:]
    return GroupElement(sub.group, coords)


def sample_outside_subgroup(sub, rng, box):
    """A random nonzero element with support meeting the first k levels."""
    while True:
        x = sample_element(sub.group, rng, box)
        if any(c.sign() != 0 for c in x.coords[:sub.level]):
            return x


def sample_irrational(kind, rng, box):
    """A scalar outside the (dense) kind, usable as a gap anchor."""
    while True:
        if kind.tag == "Z" and kind.d:
            # rational non-member of Z + Z*sqrt(d)
            x = Scalar.make(Fraction(rng.randint(-box, box) * 2 + 1, 2))
        else:
            e = rng.choice([d for d in (2, 3, 5) if d != kind.d])
            b = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, box))
            x = Scalar.make(sample_fraction(rng, box), b, e)
        if not scalars.contains(kind, x):
            return x


def sample_descriptor(group, rng, box):
    """A random nontrivial cut descriptor over the group."""
    dense_levels = [i + 1 for i, k in enumerate(group.factors)
                    if is_dense_kind(k)]
    if dense_levels and rng.random() < 0.4:
        k = rng.choice(dense_levels)
        prefix = [sample_scalar(group.factors[i], rng, box)
                  for i in range(k - 1)]
        delta = sample_irrational(group.factors[k - 1], rng, box)
        return cuts.gap_cut(group, prefix, k, delta)
    k = rng.randint(1, group.rank)
    side = rng.choice([cuts.BELOW, cuts.ABOVE])
    anchor = sample_element(group, rng, box)
    return cuts.principal(group, side, anchor.coords, k)


def random_straddle_search(c, g, rng, box, tries=80):
    """Random falsifier: a pair (y, y+g) on opposite sides, or None."""
    for _ in range(tries):
        y = sample_element(c.group, rng, box)
        z = y + g
        sy, sz = cuts.member(c, y), cuts.member(c, z)
        if sy != sz:
            return y, z
    return None


def refused_or(op, *args):
    """op(*args), or None when it is the known refusal to add scalars over
    two radicals (a gap anchor over a second radical, moved by a radical
    coordinate), which builds no value."""
    try:
        return op(*args)
    except DomainError as e:
        assert str(e) == "cannot add scalars over distinct radicals"
        return None


def sample_omega_element(group, rng, box, max_index=6):
    pairs = []
    for i in range(max_index + 1):
        if rng.random() < 0.3:
            v = sample_scalar(group.factor, rng, box)
            if v.sign() != 0:
                pairs.append((i, v))
    return hahnomega.omega_element(group, pairs)


def sample_omega_nonzero(group, rng, box, max_index=6):
    while True:
        x = sample_omega_element(group, rng, box, max_index)
        if not x.is_zero():
            return x

"""Seeded random generators and brute-force falsifiers for the test oracles.

Boxes follow the library convention: integer coordinates in [-box, box],
rational ones with numerator and denominator bounded by box.
"""

import random
from fractions import Fraction

from ordcut import cuts, hahnomega, scalars
from ordcut.lexgroups import GroupElement
from ordcut.scalars import Scalar


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
                    if scalars.is_dense_kind(k)]
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

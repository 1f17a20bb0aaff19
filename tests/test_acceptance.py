"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All randomized checks run with seed 0 and the default box of 6 so that every
run is reproducible; each criterion prints `criterion N: PASS` on success and
`criterion N: FAIL` before the assertion fires otherwise.
"""

import io
import json
from fractions import Fraction
from functools import wraps

from ordcut import cli, cuts, dsl, hahnomega, lexgroups, ordsets, scalars
from ordcut.cuts import (ABOVE, BELOW, MINUS, PLUS, classify, gap_cut,
                         invariance, invariance_witness, member, principal,
                         pull, push_lower, push_upper, translate, transport)
from ordcut.lexgroups import (ConvexSubgroup, LexGroup, convex_subgroups,
                              divisible_hull, element, hahn_embed,
                              initial_part, iota, is_principal, lex_compare,
                              unit, widening, zero)
from ordcut.ordsets import (FiniteChain, Segment, all_monotone_maps,
                            all_segments, cut_images, cut_witness,
                            lower_image, pullback, reconstruct, upper_image)
from ordcut.scalars import KIND_Q, KIND_Z, Scalar, quad_q, quad_z

import sampling

ZZ = LexGroup((KIND_Z, KIND_Z))
ZZZ = LexGroup((KIND_Z, KIND_Z, KIND_Z))
ZQ = LexGroup((KIND_Z, KIND_Q))
ZZQ = LexGroup((KIND_Z, KIND_Z, KIND_Q))
FAMILIES = [ZZ, ZZZ, ZQ, ZZQ]
SQRT2 = Scalar.make(0, 1, 2)


def criterion(n):
    def deco(fn):
        @wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("criterion %d: FAIL" % n)
                raise
            print("criterion %d: PASS" % n)
        return run
    return deco


@criterion(1)
def test_criterion_01_segment_calculus_exhaustive():
    chains = [FiniteChain(n) for n in range(5)]
    for dom in chains:
        for cod in chains:
            for u in all_monotone_maps(dom, cod):
                surjective = u.is_surjective()
                injective = u.is_injective()
                for s in all_segments(dom):
                    lo = lower_image(u, s)
                    hi = upper_image(u, s)
                    for sp in all_segments(cod):
                        assert (lo.cutoff <= sp.cutoff) == \
                            (s.cutoff <= pullback(u, sp).cutoff)
                        assert (sp.cutoff <= hi.cutoff) == \
                            (pullback(u, sp).cutoff <= s.cutoff)
                    back_hi = pullback(u, hi)
                    back_lo = pullback(u, lo)
                    assert back_hi.cutoff <= s.cutoff <= back_lo.cutoff
                    if injective:
                        assert back_hi == s == back_lo
                    if surjective:
                        lower, upper = cut_images(u, s)
                        assert upper.cutoff <= lower.cutoff
                        overlap = {u.images[j] for j in range(s.cutoff)} & \
                            {u.images[j] for j in range(s.cutoff, dom.size)}
                        assert len(overlap) <= 1
                        assert (cut_witness(u, s) is None) == (not overlap)


@criterion(2)
def test_criterion_02_reconstruction():
    for n in range(1, 9):
        images = reconstruct(FiniteChain(n))
        assert len(images) == n
        assert all(s.chain == FiniteChain(n - 1) for s in images)
        # bijective onto the initial segments of the successor chain
        assert sorted(s.cutoff for s in images) == list(range(n))
        # order isomorphism in both directions
        for i in range(n):
            for j in range(n):
                assert (i <= j) == (images[i].cutoff <= images[j].cutoff)


@criterion(3)
def test_criterion_03_convex_subgroup_census():
    groups = [LexGroup(()), LexGroup((KIND_Z,)), ZZ, ZQ, ZZZ, ZZQ,
              LexGroup((quad_z(2), KIND_Q, KIND_Z, KIND_Z)),
              LexGroup((KIND_Q,) * 4)]
    for g in groups:
        n = g.rank
        subs = convex_subgroups(g)
        assert len(subs) == n + 1
        assert [c.level for c in subs] == list(range(n + 1))
        principal_subs = [c for c in subs if is_principal(c)]
        assert len(principal_subs) == n
        # principal = exactly the members with an immediate predecessor:
        # unit k+1 witnesses C_k strictly above C_{k+1}, and nothing sits
        # strictly between consecutive levels
        for c in principal_subs:
            sep = unit(g, c.level + 1)
            assert subs[c.level].member(sep)
            assert not subs[c.level + 1].member(sep)
        assert not is_principal(subs[n])


@criterion(4)
def test_criterion_04_invariance_oracle_agreement():
    rng = sampling.rng_for(0)
    box = 6
    for g in FAMILIES:
        for _ in range(200):
            c = sampling.sample_descriptor(g, rng, box)
            inv = invariance(c)
            # samples inside the reported subgroup: no witness survives
            t_in = sampling.sample_in_subgroup(inv, rng, box)
            if not t_in.is_zero():
                assert sampling.random_straddle_search(
                    c, t_in, rng, box) is None
            # samples outside: an explicit straddling witness always exists
            t_out = sampling.sample_outside_subgroup(inv, rng, box)
            y, z = invariance_witness(c, t_out)
            assert z == y + t_out
            assert {member(c, y), member(c, z)} == {MINUS, PLUS}


@criterion(5)
def test_criterion_05_trichotomy_and_transport():
    rng = sampling.rng_for(0)
    z1 = LexGroup((KIND_Z,))
    q1 = LexGroup((KIND_Q,))
    # over Z every nontrivial cut is a relative jump
    for a in range(-6, 7):
        for side in (BELOW, ABOVE):
            assert classify(principal(z1, side, (a,), 1)) == \
                cuts.RELATIVE_JUMP
    # over Q exactly the three continuous cases arise
    seen = set()
    for _ in range(60):
        c = sampling.sample_descriptor(q1, rng, 6)
        seen.add(classify(c))
    assert seen == {cuts.RP_BELOW, cuts.RP_ABOVE, cuts.GAPPED}
    # classify commutes with transport on 200 admissible windows
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


@criterion(6)
def test_criterion_06_morphism_closed_forms():
    rng = sampling.rng_for(0)
    morphisms = [widening(ZQ), widening(ZZ), widening(ZZQ),
                 lexgroups.FactorwiseInjection(
                     ZZ, ZQ, (Fraction(2), Fraction(1, 3))),
                 widening(LexGroup((quad_z(2), KIND_Z)))]
    for m in morphisms:
        for _ in range(40):
            k = rng.randint(1, m.dom.rank)
            anchor = sampling.sample_element(m.dom, rng, 6)
            for side in (BELOW, ABOVE):
                c = principal(m.dom, side, anchor.coords, k)
                img = m.apply(c.anchor).coords
                assert push_lower(m, c) == principal(m.cod, c.side, img, k)
                if c.side == BELOW and \
                        scalars.is_discrete_kind(m.dom.factors[k - 1]):
                    shifted = list(img)
                    shifted[k - 1] = shifted[k - 1] + \
                        Scalar.make(m.scales[k - 1])
                    expected = principal(m.cod, ABOVE, shifted, k)
                else:
                    expected = principal(m.cod, c.side, img, k)
                assert push_upper(m, c) == expected
    # gap collapse: Z + Z*sqrt(2) into Q(sqrt 2), anchor 1/2
    g = LexGroup((quad_z(2),))
    w = widening(g)
    c = gap_cut(g, (), 1, Fraction(1, 2))
    half = (Scalar.make(Fraction(1, 2)),)
    lo = push_lower(w, c)
    hi = push_upper(w, c)
    assert lo == principal(w.cod, ABOVE, half, 1)
    assert hi == principal(w.cod, BELOW, half, 1)
    anchor_pt = element(w.cod, (Fraction(1, 2),))
    for _ in range(500):
        y = sampling.sample_element(w.cod, rng, 6)
        if member(lo, y) != member(hi, y):
            assert y == anchor_pt
        s = scalars.compare_cross(y.coords[0], half[0])
        assert (member(lo, y) == MINUS) == (s < 0)
        assert (member(hi, y) == MINUS) == (s <= 0)


@criterion(7)
def test_criterion_07_strict_inclusion_counterexample():
    qq = LexGroup((KIND_Q, KIND_Q))
    m = widening(ZQ)
    assert m.cod == qq
    sigma = principal(qq, BELOW, (Fraction(1, 2), 0), 2)
    # Delta(Sigma') = (0): invariance at full level 2
    assert invariance(sigma).level == 2
    assert lexgroups.epsilon_upper(m, invariance(sigma)).level == 2
    back = pull(m, sigma)
    assert back == principal(ZQ, BELOW, (0, 0), 1)
    # Delta(pullback) = C_1, strictly larger than the traced (0)
    assert invariance(back).level == 1


@criterion(8)
def test_criterion_08_tightened_realization():
    gz = hahnomega.OmegaGroup(KIND_Z)
    ones = hahnomega.omega_periodic(gz, (), (1,))
    assert hahnomega.omega_classify(ones) == hahnomega.TIGHTENED
    assert hahnomega.omega_invariance(ones).index is None
    # a straddling pair for every nonzero g with support indices <= 3 and
    # coefficient heights <= 3
    checked = 0
    for c0 in range(-3, 4):
        for c1 in range(-3, 4):
            for c2 in range(-3, 4):
                for c3 in range(-3, 4):
                    g = hahnomega.omega_element(
                        gz, [(0, c0), (1, c1), (2, c2), (3, c3)])
                    if g.is_zero():
                        continue
                    y, z = hahnomega.omega_invariance_witness(ones, g)
                    assert z == y + g
                    assert hahnomega.omega_member(ones, y) != \
                        hahnomega.omega_member(ones, z)
                    checked += 1
    assert checked == 7 ** 4 - 1
    gq = hahnomega.OmegaGroup(KIND_Q)
    gap = hahnomega.omega_gap_at(gq, [], 1, SQRT2)
    assert hahnomega.omega_classify(gap) == hahnomega.GAPPED
    assert hahnomega.omega_invariance(gap) == hahnomega.omega_tail(gq, 2)


@criterion(9)
def test_criterion_09_embedding_immediacy():
    rng = sampling.rng_for(0)
    groups = [ZZ, ZZZ, ZQ, ZZQ, LexGroup((quad_z(2), KIND_Q))]
    for g in groups:
        hull, m = divisible_hull(g)
        assert hull.rank == g.rank
        for _ in range(500):
            x = sampling.sample_element(g, rng, 6)
            y = sampling.sample_element(g, rng, 6)
            ex = hahn_embed(m.apply(x))
            ey = hahn_embed(m.apply(y))
            # order preserved coordinatewise-lexicographically
            order = lex_compare(x, y)
            eorder = lex_compare(element(hull, ex), element(hull, ey))
            assert order == eorder
            if not x.is_zero():
                assert iota(m.apply(x)) == iota(x)
                assert initial_part(m.apply(x)) == initial_part(x)


def _random_command(rng):
    group_texts = ["lex(Z)", "lex(Z,Z)", "lex(Z,Q)", "lex(Z,Z,Q)",
                   "lex(Z[sqrt 2],Q)"]
    gt = rng.choice(group_texts)
    g = dsl.parse_group(gt)
    c = sampling.sample_descriptor(g, rng, 6)
    x = sampling.sample_element(g, rng, 6)
    verb = rng.choice(["classify", "invariance", "member", "translate",
                       "bounds", "push", "skeleton", "convex-subgroups",
                       "discreteness", "hull", "embed", "compare"])
    if verb in ("classify", "invariance"):
        return [verb, gt, dsl.print_cut(c)]
    if verb in ("member", "translate", "bounds"):
        return [verb, gt, dsl.print_cut(c), dsl.print_element(x)]
    if verb == "push":
        return [verb, gt, "widen", dsl.print_cut(c)]
    if verb == "embed":
        return [verb, gt, dsl.print_element(x)]
    if verb == "compare":
        y = sampling.sample_element(g, rng, 6)
        return [verb, gt, dsl.print_element(x), dsl.print_element(y)]
    return [verb, gt]


@criterion(10)
def test_criterion_10_cli_round_trip_determinism():
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(list(argv), out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    rng = sampling.rng_for(0)
    for _ in range(100):
        argv = _random_command(rng)
        g = dsl.parse_group(argv[1])
        # every printed argument reparses to an equal value
        for arg in argv[2:]:
            if arg.startswith("["):
                assert dsl.print_element(dsl.parse_element(arg, g)) == arg
            elif arg != "widen":
                assert dsl.print_cut(dsl.parse_cut(arg, g)) == arg
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[0] == 0, (argv, first)
        js = run(argv + ["--json"])
        assert js[0] == 0
        data = json.loads(js[1])
        lines = dict(line.split(": ", 1)
                     for line in first[1].rstrip("\n").split("\n"))
        assert {k: str(v) for k, v in data.items()} == lines

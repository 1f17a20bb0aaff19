"""Refusals that no other test reaches: each raise site, called once, says
its exact message, and a command line that reaches one exits with its
code.  And the scalar contract: every entry point that reads a number takes
an int, a Fraction or a Scalar, and refuses anything else; every record that
holds scalars takes a tuple of Scalars, and refuses anything else; the DSL's
parse functions read a str over a lex or an omega group, and refuse any
other text or group; and the operations on groups, elements, cuts, anchors
and segments refuse an argument of the wrong kind, a record of another class
included."""

import io
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordcut import cli, cuts, dsl, hahnomega, lexgroups, ordsets, scalars
from ordcut.errors import DomainError, ParseError
from ordcut.scalars import KIND_Q, KIND_Z, ONE, ZERO, Scalar

ZZ = lexgroups.LexGroup((KIND_Z, KIND_Z))
ZQ = lexgroups.LexGroup((KIND_Z, KIND_Q))
GZ = hahnomega.OmegaGroup(KIND_Z)
SQRT2 = Scalar.make(0, 1, 2)
SQRT3 = Scalar.make(0, 1, 3)

# (library call, exception, message) or (argv, exit code, stderr line)
CASES = [
    (lambda: cuts.principal(ZZ, "beside", (1, 0), 1), DomainError,
     "side must be below or above"),
    (lambda: cuts.principal(ZZ, cuts.BELOW, (1,), 1), DomainError,
     "anchor has wrong number of coordinates"),
    (lambda: cuts.gap_cut(ZQ, (1, 2), 2, SQRT2), DomainError,
     "gap prefix needs exactly level-1 coordinates"),
    (["trace", "lex(Z,Z)", "all_below", "0"], 2,
     "domain error: trace is trivial: the window lies inside the invariance "
     "subgroup"),
    (lambda: cuts.push_lower(lexgroups.widening(ZZ), cuts.AllBelow(ZQ)),
     DomainError, "cut is not over the morphism domain"),
    (lambda: cuts.push_upper(lexgroups.widening(ZZ), cuts.AllBelow(ZQ)),
     DomainError, "cut is not over the morphism domain"),
    (lambda: cuts.pull(lexgroups.widening(ZZ), cuts.AllBelow(ZZ)),
     DomainError, "cut is not over the morphism codomain"),
    (["member", "lex(Z,Z)", "below([1]; C 1)", "[1,2]"], 1,
     "syntax error: anchor needs 2 coordinates (at position 15)"),
    (["push", "lex(Z,Q)", "scale(1)", "below([1,0]; C 1)"], 1,
     "syntax error: scale needs 2 entries (at position 8)"),
    (lambda: hahnomega.OmegaElement(GZ, ((1, ONE), (0, ONE))), DomainError,
     "support indices must strictly increase"),
    (lambda: hahnomega.OmegaElement(GZ, ((0, ZERO),)), DomainError,
     "support values must be nonzero"),
    (lambda: lexgroups.GroupElement(ZZ, (ONE,)), DomainError,
     "element has wrong number of coordinates"),
    (lambda: lexgroups.iota(lexgroups.zero(ZZ)), DomainError,
     "iota is undefined at zero"),
    (lambda: lexgroups.FactorwiseInjection(ZZ, lexgroups.LexGroup((KIND_Q,)),
                                           (1, 1)),
     DomainError, "factorwise morphism needs equal ranks"),
    (lambda: ordsets.MonotoneMap(ordsets.FiniteChain(3),
                                 ordsets.FiniteChain(2), (0, 1)),
     DomainError, "image sequence has wrong length"),
    (lambda: Scalar.make(1) / 0, ZeroDivisionError, "division by zero"),
    (lambda: scalars.RankOneKind("R", 0), DomainError,
     "unknown rank-one kind 'R'"),
    (lambda: scalars.small_positive(KIND_Z, ONE), DomainError,
     "no integer in (0, bound)"),
]


@pytest.mark.parametrize("call, raises, message", CASES,
                         ids=[message for _, _, message in CASES])
def test_each_refusal_says_its_message(call, raises, message):
    if isinstance(call, list):  # a command line
        out, err = io.StringIO(), io.StringIO()
        assert (cli.main(call, out=out, err=err), out.getvalue(),
                err.getvalue()) == (raises, "", message + "\n")
        return
    with pytest.raises(raises) as e:
        call()
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# the scalar contract, over arbitrary Python values

BIG = 10 ** 4300  # past the int-to-str limit

_rationals = st.one_of(st.integers(), st.fractions(),
                       st.integers().map(lambda k: k + BIG),
                       st.integers().map(lambda k: k - BIG))
GROUPS = [lexgroups.LexGroup((k,)) for k in (KIND_Z, KIND_Q,
                                             scalars.RankOneKind("Q", 2))]
OMEGA_GROUPS = [GZ, hahnomega.OmegaGroup(KIND_Q)]
# texts that some parse function reads, and the groups it reads them over
_DSL = ["lex(Z)", "hahn_omega(Q)", "[1]", "{0:1}", "all_below",
        "below([1]; C 1)", "point({})", "widen", "scale(2)"]
_leaves = st.one_of(
    _rationals,
    st.builds(Scalar.make, _rationals, _rationals, st.sampled_from((2, 3, 8))),
    st.booleans(), st.floats(), st.decimals(), st.text(max_size=6), st.none(),
    st.complex_numbers(), st.sampled_from(_DSL + GROUPS + OMEGA_GROUPS),
    st.binary(max_size=4), st.deferred(lambda: st.sampled_from(POOL)))
VALUES = st.recursive(_leaves, lambda inner: st.one_of(
    st.tuples(inner), st.tuples(inner, inner), st.lists(inner, max_size=3)),
    max_leaves=4)

ENTRY_POINTS = {
    "make(v)": lambda g, G, v: Scalar.make(v),
    "make(0, v, 2)": lambda g, G, v: Scalar.make(0, v, 2),
    "make(v, 1, 2)": lambda g, G, v: Scalar.make(v, 1, 2),
    "ONE + v": lambda g, G, v: ONE + v,
    "ONE - v": lambda g, G, v: ONE - v,
    "ONE * v": lambda g, G, v: ONE * v,
    "v * ONE": lambda g, G, v: v * ONE,
    "ONE / v": lambda g, G, v: ONE / v,
    "scale": lambda g, G, v: lexgroups.FactorwiseInjection(g, g, (v,)),
    "element": lambda g, G, v: lexgroups.element(g, [v]),
    "principal": lambda g, G, v: cuts.principal(g, cuts.BELOW, [v], 1),
    "gap_cut": lambda g, G, v: cuts.gap_cut(g, [], 1, v),
    "omega_element": lambda g, G, v: hahnomega.omega_element(G, [(0, v)]),
}


# records that hold scalars or tuples of them, and scaling, given v as a
# whole field and as one entry of it
_G0 = hahnomega.OmegaElement(hahnomega.OmegaGroup(KIND_Q), ())
RECORDS = {
    "GroupElement(v)": lambda g, G, v: lexgroups.GroupElement(g, v),
    "GroupElement((v,))": lambda g, G, v: lexgroups.GroupElement(g, (v,)),
    "OmegaElement(v)": lambda g, G, v: hahnomega.OmegaElement(G, v),
    "OmegaElement(((0, v),))":
        lambda g, G, v: hahnomega.OmegaElement(G, ((0, v),)),
    "OmegaGapAt(v)": lambda g, G, v: hahnomega.OmegaGapAt(
        _G0.group, _G0, 0, v),
    "OmegaPeriodic(v, (ONE,))":
        lambda g, G, v: hahnomega.OmegaPeriodic(G, v, (ONE,)),
    "OmegaPeriodic((), v)": lambda g, G, v: hahnomega.OmegaPeriodic(G, (), v),
    "OmegaPeriodic((), (v,))":
        lambda g, G, v: hahnomega.OmegaPeriodic(G, (), (v,)),
    "scaling(v)": lambda g, G, v: lexgroups.scaling(g, v),
    "scaling((v,))": lambda g, G, v: lexgroups.scaling(g, (v,)),
    "AllBelow(v)": lambda g, G, v: cuts.AllBelow(v),
    "AllAbove(v)": lambda g, G, v: cuts.AllAbove(v),
    "Principal(v, (ONE,), True)":
        lambda g, G, v: cuts.Principal(v, (ONE,), True),
    "Principal(v)": lambda g, G, v: cuts.Principal(g, v, True),
    "Principal((v,))": lambda g, G, v: cuts.Principal(g, (v,), True),
    "Principal((ONE, v))":
        lambda g, G, v: cuts.Principal(ZQ, (ONE, v), True),
    "Principal((v, ONE))":
        lambda g, G, v: cuts.Principal(ZQ, (v, ONE), True),
    "Principal((ONE,), v)": lambda g, G, v: cuts.Principal(g, (ONE,), v),
    "GapCut(v, (SQRT3,))": lambda g, G, v: cuts.GapCut(v, (SQRT3,)),
    "GapCut(v)": lambda g, G, v: cuts.GapCut(g, v),
    "GapCut((v,))": lambda g, G, v: cuts.GapCut(g, (v,)),
    "GapCut((v, SQRT3))": lambda g, G, v: cuts.GapCut(ZQ, (v, SQRT3)),
}


# the DSL's parse functions, given v as the text and as the group
PARSERS = {
    "parse_group(v)": lambda g, G, v: dsl.parse_group(v),
    "parse_element(v, g)": lambda g, G, v: dsl.parse_element(v, g),
    "parse_element(v, G)": lambda g, G, v: dsl.parse_element(v, G),
    "parse_element('[1]', v)": lambda g, G, v: dsl.parse_element("[1]", v),
    "parse_cut(v, g)": lambda g, G, v: dsl.parse_cut(v, g),
    "parse_cut(v, G)": lambda g, G, v: dsl.parse_cut(v, G),
    "parse_cut('all_below', v)":
        lambda g, G, v: dsl.parse_cut("all_below", v),
    "parse_morphism(v, g)": lambda g, G, v: dsl.parse_morphism(v, g),
    "parse_morphism('widen', v)":
        lambda g, G, v: dsl.parse_morphism("widen", v),
}


def _is_zero(v):
    if v.__class__ is Scalar:
        return v.sign() == 0
    return v.__class__ in (int, Fraction) and v == 0


@settings(max_examples=200, deadline=None)
@given(VALUES, st.sampled_from(GROUPS), st.sampled_from(OMEGA_GROUPS))
def test_each_number_is_read_or_refused_as_a_domain_error(v, g, G):
    # what a call returns is a value: it hashes
    for name, call in {**ENTRY_POINTS, **RECORDS}.items():
        try:
            hash(call(g, G, v))
        except DomainError:
            pass
        except ZeroDivisionError:
            assert name == "ONE / v" and _is_zero(v), name
    # and a text or a group of any other type is refused as a DomainError
    for call in PARSERS.values():
        try:
            hash(call(g, G, v))
        except (DomainError, ParseError):
            pass


@pytest.mark.parametrize("v", [True, 0.5, Decimal("0.5"), "1/3", None, 1j,
                               [1]])
def test_what_is_not_rational_is_refused_by_its_type(v):
    # every entry point names the type it refuses, a scale as a scale
    for name, call in ENTRY_POINTS.items():
        what = "a scale" if name == "scale" else "a coefficient"
        with pytest.raises(DomainError) as e:
            call(GROUPS[1], OMEGA_GROUPS[1], v)
        assert str(e.value) == "%s is an int or a Fraction, not %s" % (
            what, type(v).__name__), name


# ---------------------------------------------------------------------------
# the operations on groups, elements, cuts, anchors and segments, over
# arbitrary Python values

X = lexgroups.element(ZQ, (1, 2))
CUT = cuts.principal(ZQ, cuts.BELOW, (1, 0), 1)
GAP = cuts.gap_cut(ZQ, (1,), 2, SQRT2)
WIDEN = lexgroups.widening(ZQ)
SUB0, SUB2 = lexgroups.ConvexSubgroup(ZQ, 0), lexgroups.ConvexSubgroup(ZQ, 2)
CHAIN2, CHAIN3 = ordsets.FiniteChain(2), ordsets.FiniteChain(3)
MAP = ordsets.MonotoneMap(CHAIN2, CHAIN3, (0, 2))
OX = hahnomega.omega_element(GZ, [(0, 1)])
OPOINT = hahnomega.OmegaPoint(GZ, OX)
# records of every class the operations take, over the groups and chains
# above and others, for v to be a record of the wrong class or object
POOL = [X, CUT, GAP, WIDEN, SUB0, SUB2, CHAIN2, CHAIN3, MAP,
        cuts.AllBelow(ZQ), cuts.AllAbove(ZZ),
        cuts.principal(ZZ, cuts.ABOVE, (1, 1), 2),
        lexgroups.element(ZZ, (0, 0)), lexgroups.ConvexSubgroup(ZZ, 1),
        lexgroups.scaling(ZZ, (2, 1)), ordsets.Segment(CHAIN2, 1),
        ordsets.Segment(CHAIN3, 3), ordsets.FiniteChain(0),
        hahnomega.omega_element(GZ, [(0, 1)]),
        hahnomega.OmegaPoint(GZ, hahnomega.omega_element(GZ, []))]

# each operation with valid arguments; v replaces one at a time
OPERATIONS = {
    "element": (lexgroups.element, (ZQ, (1, 2))),
    "zero": (lexgroups.zero, (ZQ,)),
    "unit": (lexgroups.unit, (ZQ, 2)),
    "lex_compare": (lexgroups.lex_compare, (X, X)),
    "iota": (lexgroups.iota, (X,)),
    "initial_part": (lexgroups.initial_part, (X,)),
    "convex_subgroups": (lexgroups.convex_subgroups, (ZQ,)),
    "scaling": (lexgroups.scaling, (ZQ, (2, 1))),
    "widening": (lexgroups.widening, (ZQ,)),
    "slice_group": (lexgroups.slice_group, (ZQ, 0, 1)),
    "discreteness": (lexgroups.discreteness, (ZQ,)),
    "epsilon_upper": (lexgroups.epsilon_upper,
                      (WIDEN, lexgroups.ConvexSubgroup(WIDEN.cod, 1))),
    "FactorwiseInjection": (lexgroups.FactorwiseInjection, (ZQ, ZQ, (1, 1))),
    "omega_compare": (hahnomega.omega_compare, (OX, OX)),
    "omega_member": (hahnomega.omega_member, (OPOINT, OX)),
    "omega_invariance": (hahnomega.omega_invariance, (OPOINT,)),
    "omega_classify": (hahnomega.omega_classify, (OPOINT,)),
    "index_cut": (hahnomega.index_cut, (OPOINT,)),
    "omega_translate": (hahnomega.omega_translate, (OPOINT, OX)),
    "omega_invariance_witness":
        (hahnomega.omega_invariance_witness, (OPOINT, OX)),
    "principal": (cuts.principal, (ZQ, cuts.BELOW, (1, 0), 1)),
    "gap_cut": (cuts.gap_cut, (ZQ, (1,), 2, SQRT2)),
    "member": (cuts.member, (CUT, X)),
    "invariance": (cuts.invariance, (CUT,)),
    "classify": (cuts.classify, (GAP,)),
    "translate": (cuts.translate, (GAP, X)),
    "compare_cuts": (cuts.compare_cuts, (CUT, GAP)),
    "quotient_image": (cuts.quotient_image, (CUT, SUB2)),
    "trace": (cuts.trace, (GAP, SUB0)),
    "transport": (cuts.transport, (GAP, SUB2, SUB0)),
    "interval_bounds": (cuts.interval_bounds, (CUT, X)),
    "push_lower": (cuts.push_lower, (WIDEN, GAP)),
    "push_upper": (cuts.push_upper, (WIDEN, CUT)),
    "pull": (cuts.pull, (WIDEN, cuts.push_lower(WIDEN, GAP))),
    "invariance_witness": (cuts.invariance_witness, (CUT, X)),
    "FiniteChain": (ordsets.FiniteChain, (3,)),
    "Segment": (ordsets.Segment, (CHAIN3, 1)),
    "MonotoneMap": (ordsets.MonotoneMap, (CHAIN2, CHAIN3, (0, 2))),
    "all_segments": (ordsets.all_segments, (CHAIN3,)),
    "all_monotone_maps": (ordsets.all_monotone_maps, (CHAIN2, CHAIN3)),
    "pullback": (ordsets.pullback, (MAP, ordsets.Segment(CHAIN3, 2))),
    "lower_image": (ordsets.lower_image, (MAP, ordsets.Segment(CHAIN2, 1))),
    "upper_image": (ordsets.upper_image, (MAP, ordsets.Segment(CHAIN2, 1))),
    "cut_witness": (ordsets.cut_witness, (MAP, ordsets.Segment(CHAIN2, 1))),
    "cut_bounds": (ordsets.cut_bounds, (ordsets.Segment(CHAIN2, 1),)),
    "reconstruct": (ordsets.reconstruct, (CHAIN3,)),
}


def test_operations_answer_their_valid_arguments():
    for op, args in OPERATIONS.values():
        op(*args)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_each_operation_returns_or_refuses_a_foreign_argument(v):
    for op, args in OPERATIONS.values():
        for i in range(len(args)):
            try:
                op(*args[:i], v, *args[i + 1:])
            except DomainError:
                pass


# (call, message): an argument of the wrong kind, and cut records built
# directly that `_cut` would not build
FOREIGN = [
    (lambda: cuts.member(CUT, 5), "element must be a lex group element"),
    (lambda: cuts.member(5, X), "cut must be a lex cut"),
    (lambda: cuts.member(CUT, CUT), "element must be a lex group element"),
    (lambda: cuts.trace(CUT, 1), "subgroup must be a convex subgroup"),
    (lambda: cuts.compare_cuts(CUT, X), "cut must be a lex cut"),
    (lambda: cuts.push_lower(SUB0, CUT),
     "morphism must be a factorwise injection"),
    (lambda: ordsets.pullback(MAP, 3), "segment must be an initial segment"),
    (lambda: ordsets.pullback(3, ordsets.Segment(CHAIN3, 2)),
     "map must be a monotone map"),
    (lambda: ordsets.Segment(1, 0), "chain must be a finite chain"),
    (lambda: cuts.Principal("x", 1, 2), "a cut needs a lex group"),
    (lambda: cuts.Principal(ZQ, [ONE], True), "a cut's ref must be a tuple"),
    (lambda: cuts.Principal(ZQ, (), True), "level 0 outside 1..2"),
    (lambda: cuts.Principal(ZQ, (5, ONE), True),
     "a coordinate is a Scalar, not int"),
    (lambda: cuts.GapCut(ZQ, (ONE / 2, SQRT2)),
     "coordinate 1/2 outside factor"),
    (lambda: cuts.GapCut(ZQ, (ONE, ONE / 2)),
     "a cut is stored as the canonical form of its boundary"),
    (lambda: cuts.Principal(ZQ, (ONE,), 1),
     "a cut's closed flag must be a bool"),
    (lambda: cuts.Principal(ZQ, (ONE,), False),
     "a cut is stored as the canonical form of its boundary"),
    (lambda: lexgroups.element(ZQ, 5),
     "coordinates must be a list or a tuple"),
    (lambda: lexgroups.lex_compare(5, X),
     "element must be a lex group element"),
    (lambda: hahnomega.omega_member(5, OX),
     "cut anchor must be an omega anchor"),
    (lambda: lexgroups.iota(5), "element must be a lex group element"),
    (lambda: lexgroups.slice_group(5, 0, 0), "group must be a lex group"),
    # refused before the memo hashes it: a list does not hash
    (lambda: lexgroups.widening([ZQ]), "group must be a lex group"),
    (lambda: lexgroups.discreteness(5), "group must be a lex group"),
]


@pytest.mark.parametrize("call, message", FOREIGN,
                         ids=[message for _, message in FOREIGN])
def test_a_foreign_argument_is_refused_by_its_kind(call, message):
    with pytest.raises(DomainError) as e:
        call()
    assert str(e.value) == message

"""Refusals that no other test reaches: each raise site, called once, says
its exact message, and a command line that reaches one exits with its
code.  And the scalar contract: every entry point that reads a number takes
an int, a Fraction or a Scalar, and refuses anything else; every record that
holds scalars takes a tuple of Scalars, and refuses anything else."""

import io
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordcut import cli, cuts, hahnomega, lexgroups, ordsets, scalars
from ordcut.errors import DomainError
from ordcut.scalars import KIND_Q, KIND_Z, ONE, ZERO, Scalar

ZZ = lexgroups.LexGroup((KIND_Z, KIND_Z))
ZQ = lexgroups.LexGroup((KIND_Z, KIND_Q))
GZ = hahnomega.OmegaGroup(KIND_Z)
SQRT2 = Scalar.make(0, 1, 2)

# (library call, exception, message) or (argv, exit code, stderr line)
CASES = [
    (lambda: cuts.principal(ZZ, "beside", (1, 0), 1), DomainError,
     "side must be below or above"),
    (lambda: cuts.principal(ZZ, cuts.BELOW, (1,), 1), DomainError,
     "anchor has wrong number of coordinates"),
    (lambda: cuts.gap_cut(ZQ, (1, 2), 2, SQRT2), DomainError,
     "gap prefix needs exactly level-1 coordinates"),
    (["trace", "lex(Z,Z)", "all_below", "0"], 2,
     "domain error: trace of a trivial cut is trivial"),
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
_leaves = st.one_of(
    _rationals,
    st.builds(Scalar.make, _rationals, _rationals, st.sampled_from((2, 3, 8))),
    st.booleans(), st.floats(), st.decimals(), st.text(max_size=6), st.none(),
    st.complex_numbers())
VALUES = st.recursive(_leaves, lambda inner: st.one_of(
    st.tuples(inner), st.tuples(inner, inner), st.lists(inner, max_size=3)),
    max_leaves=4)

GROUPS = [lexgroups.LexGroup((k,)) for k in (KIND_Z, KIND_Q,
                                             scalars.RankOneKind("Q", 2))]
OMEGA_GROUPS = [GZ, hahnomega.OmegaGroup(KIND_Q)]
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

"""Refusals that no other test reaches: each raise site, called once, says
its exact message, and a command line that reaches one exits with its
code."""

import io

import pytest

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

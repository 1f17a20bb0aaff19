"""Command-line front end: one process, one command, deterministic output.

Usage: ordcut VERB ARGS... [--json]

Every verb but `orders` is one row of `_VERBS`: the kinds of its arguments
after GROUP, its result over a lex group and, if it has one, its result
over a hahn_omega group.  `_run` does the rest once for all of them.

Exit codes: 0 success, 1 syntax error, 2 domain error.
"""

import json
import re
import sys
from collections import namedtuple

from .errors import DomainError, ParseError
from . import cuts
from . import dsl
from . import hahnomega
from . import lexgroups
from . import ordsets
from .hahnomega import OmegaGroup
from .lexgroups import ConvexSubgroup
from .scalars import _print_ratio

_ORDER_NAMES = {-1: "less", 0: "equal", 1: "greater"}


class _Usage(Exception):
    pass


def _parse_flags(argv):
    args, as_json = [], False
    for a in argv:
        if a == "--json":
            as_json = True
        elif a.startswith("--"):
            raise _Usage("unknown flag %s" % a)
        else:
            args.append(a)
    return args, as_json


_INT = re.compile("-?[0-9]+")  # ASCII digits, as the grammar's INT


def _int(text):
    if _INT.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise _Usage("expected a level integer, got %r" % text)


# An argument after GROUP: its word in the usage line and its parsers, each
# (text, group) -> value, over a lex and (if it has one) a hahn_omega group.
_Arg = namedtuple("_Arg", "word lex omega", defaults=(None,))


def _level(text, g):
    return ConvexSubgroup(g, _int(text))


def _keep(text, g):  # read by the verb: `_compare`, pull's cut
    return text


CUT = _Arg("CUT", dsl.parse_cut, dsl.parse_oanchor)
ELEMENT = _Arg("ELEMENT", dsl.parse_element, dsl.parse_oelement)
LEVEL = _Arg("LEVEL", _level)
MORPHISM = _Arg("MORPHISM", dsl.parse_morphism)

# A verb: its arguments after GROUP and its results, each
# (group, *argument values) -> result dict, over a lex and (if it has one)
# a hahn_omega group.
_Verb = namedtuple("_Verb", "args lex omega", defaults=(None,))


def _order(sign):
    return {"order": _ORDER_NAMES[sign]}


def _compare(g, a, b):
    """Two elements when A's first token is '[', else two cuts."""
    if a.lstrip().startswith("["):  # lstrip drops str.isspace, as dsl does
        x, y = dsl.parse_element(a, g), dsl.parse_element(b, g)
        return _order(lexgroups.lex_compare(x, y))
    return _order(cuts.compare_cuts(dsl.parse_cut(a, g), dsl.parse_cut(b, g)))


def _cut_in(c):
    return {"result_group": dsl.print_group(c.group),
            "result_cut": dsl.print_cut(c)}


def _omega_invariance(g, a):
    sub = hahnomega.omega_invariance(a)
    return {"invariance": "zero" if sub.index is None
            else "tail(%s)" % _print_ratio(sub.index, 1),
            "index_cut": hahnomega.index_cut(a)}


def _bounds(g, c, x):
    pm, fm, pp, fp = cuts.interval_bounds(c, x)
    return {"psi_minus": pm.level, "phi_minus": fm.level,
            "psi_plus": pp.level, "phi_plus": fp.level}


def _with_invariance(c):
    return dict(_cut_in(c), invariance_level=cuts.invariance(c).level)


def _skeleton(g):
    chain, factors = lexgroups.skeleton(g)
    return {"size": chain.size,
            "factors": ",".join(dsl.print_factor(k) for k in factors)}


def _embed(g, x):
    image = lexgroups.hahn_embed(lexgroups.divisible_hull(g)[1].apply(x))
    return {"image": "[%s]" % ",".join(dsl.print_scalar(c) for c in image)}


def _convex_subgroups(g):
    subs = lexgroups.convex_subgroups(g)
    return {"levels": ",".join(str(s.level) for s in subs),
            "principal": ",".join(str(s.level) for s in subs
                                  if lexgroups.is_principal(s))}


def _discreteness(g):
    disc, disc_ord, least = lexgroups.discreteness(g)
    return {"discrete": "true" if disc else "false",
            "discretely_ordered": "true" if disc_ord else "false",
            "min_positive": dsl.print_element(least) if least else "none"}


_VERBS = {
    "classify": _Verb(
        (CUT,), lambda g, c: {"type": cuts.classify(c)},
        lambda g, a: {"type": hahnomega.omega_classify(a)}),
    "invariance": _Verb(
        (CUT,), lambda g, c: {"invariance_level": cuts.invariance(c).level},
        _omega_invariance),
    "member": _Verb(
        (CUT, ELEMENT), lambda g, c, x: {"side": cuts.member(c, x)},
        lambda g, a, x: {"side": hahnomega.omega_member(a, x)}),
    "compare": _Verb(
        (_Arg("A", _keep, dsl.parse_oelement),
         _Arg("B", _keep, dsl.parse_oelement)), _compare,
        lambda g, x, y: _order(hahnomega.omega_compare(x, y))),
    "translate": _Verb(
        (CUT, ELEMENT),
        lambda g, c, x: {"result_cut": dsl.print_cut(cuts.translate(c, x))},
        lambda g, a, x: {"result_anchor": dsl.print_oanchor(
            hahnomega.omega_translate(a, x))}),
    "project": _Verb(
        (CUT, LEVEL), lambda g, c, t: _cut_in(cuts.quotient_image(c, t))),
    "trace": _Verb((CUT, LEVEL), lambda g, c, t: _cut_in(cuts.trace(c, t))),
    "transport": _Verb(
        (CUT, LEVEL._replace(word="LEVEL1"), LEVEL._replace(word="LEVEL2")),
        lambda g, c, t1, t2: _with_invariance(cuts.transport(c, t1, t2))),
    "bounds": _Verb((CUT, ELEMENT), _bounds),
    "push": _Verb(
        (MORPHISM, CUT),
        lambda g, m, c: {"result_group": dsl.print_group(m.cod),
                         "lower": dsl.print_cut(cuts.push_lower(m, c)),
                         "upper": dsl.print_cut(cuts.push_upper(m, c))}),
    "pull": _Verb(  # the cut is read over the codomain of the morphism
        (MORPHISM, _Arg("CUT", _keep)), lambda g, m, c: _with_invariance(
            cuts.pull(m, dsl.parse_cut(c, m.cod)))),
    "skeleton": _Verb(
        (), _skeleton,
        lambda g: {"size": "omega", "factors": dsl.print_factor(g.factor)}),
    "embed": _Verb((ELEMENT,), _embed),
    "convex-subgroups": _Verb((), _convex_subgroups),
    "discreteness": _Verb((), _discreteness),
    "hull": _Verb((), lambda g: {"result_group": dsl.print_group(
        lexgroups.divisible_hull(g)[0])}),
}


def _run(verb, args):
    """Check the argument count, parse GROUP, pick the lex or hahn_omega
    side, parse each argument by its kind and compute the result."""
    row = _VERBS[verb]
    if len(args) != 1 + len(row.args):
        raise _Usage("expected: %s" % " ".join(
            [verb, "GROUP"] + [a.word for a in row.args]))
    g = dsl.parse_group(args[0])
    side = "omega" if isinstance(g, OmegaGroup) else "lex"
    result = getattr(row, side)
    if result is None:
        raise DomainError("%s takes a lex group" % verb)
    return result(g, *[getattr(arg, side)(text, g)
                       for arg, text in zip(row.args, args[1:])])


def _orders(args):
    if len(args) != 1:
        raise _Usage("expected: orders SIZE")
    segs = ordsets.all_segments(ordsets.FiniteChain(_int(args[0])))
    bounds = []
    for s in segs:
        lo, hi = ordsets.cut_bounds(s)
        bounds.append("(%s,%s)" % ("-" if lo is None else lo,
                                   "-" if hi is None else hi))
    return {"count": len(segs),
            "cutoffs": ",".join(str(s.cutoff) for s in segs),
            "bounds": ",".join(bounds)}


def main(argv=None, out=None, err=None):
    if argv is None:
        argv = sys.argv[1:]
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args, as_json = _parse_flags(argv)
        if not args:
            raise _Usage("expected: VERB GROUP ARGS... [--json]")
        verb, rest = args[0], args[1:]
        if verb == "orders":
            result = _orders(rest)
        elif verb in _VERBS:
            result = _run(verb, rest)
        else:
            raise _Usage("unknown verb %r" % verb)
    except (_Usage, ParseError) as e:
        print("syntax error: %s" % e, file=err)
        return 1
    except DomainError as e:
        msg = str(e)
        if e.payload is not None:
            msg += " (witness: %s)" % dsl.print_element(e.payload)
        print("domain error: %s" % msg, file=err)
        return 2
    if as_json:
        print(json.dumps(result), file=out)
    else:
        for key, value in result.items():
            print("%s: %s" % (key, value), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Calls into ordcut's public API for plain-data queries.

`call(query)` builds the ordcut values from plain data and runs the verb;
the build is part of the query's cost, as it is for a library user.  Modules
are reached through their attributes at call time, so wrappers installed by
tracer.py see every call.  `plain(query, result)` turns a result back into
plain data for the oracle, after timing.
"""

import io
import shlex

from ordcut import cli, cuts, dsl, lexgroups, scalars
from ordcut.errors import DomainError

from .workloads import ELEMENT_VERBS

__all__ = ["DomainError", "call", "plain", "render_cli", "replay"]


def _scalar(s):
    return scalars.Scalar.make(s[0], s[1], s[2])


def _group(factors):
    return lexgroups.LexGroup(tuple(scalars.RankOneKind(t, d)
                                    for t, d in factors))


def _element(g, xs):
    return lexgroups.element(g, [_scalar(s) for s in xs])


def _cut(g, c):
    if c[0] == "all_below":
        return cuts.AllBelow(g)
    if c[0] == "all_above":
        return cuts.AllAbove(g)
    if c[0] == "gap":
        return cuts.gap_cut(g, [_scalar(s) for s in c[1]], c[2],
                            _scalar(c[3]))
    return cuts.principal(g, c[0], [_scalar(s) for s in c[1]], c[2])


def _morphism(g, morph, cod):
    if morph[0] == "widen":
        return lexgroups.widening(g)
    return lexgroups.FactorwiseInjection(g, _group(cod), tuple(morph[1]))


def _member(group, c, x):
    g = _group(group)
    return cuts.member(_cut(g, c), _element(g, x))


def _compare_cuts(group, c1, c2):
    g = _group(group)
    return cuts.compare_cuts(_cut(g, c1), _cut(g, c2))


def _translate(group, c, x):
    g = _group(group)
    return cuts.translate(_cut(g, c), _element(g, x))


def _classify(group, c):
    cut = _cut(_group(group), c)
    return cuts.classify(cut), cuts.invariance(cut).level


def _interval_bounds(group, c, x):
    g = _group(group)
    return tuple(s.level for s in cuts.interval_bounds(_cut(g, c),
                                                       _element(g, x)))


def _push(group, morph, cod, c):
    g = _group(group)
    m = _morphism(g, morph, cod)
    cut = _cut(g, c)
    return cuts.push_lower(m, cut), cuts.push_upper(m, cut)


def _pull(group, morph, cod, c):
    g = _group(group)
    m = _morphism(g, morph, cod)
    return cuts.pull(m, _cut(m.cod, c))


def _witness(group, c, x):
    g = _group(group)
    return cuts.invariance_witness(_cut(g, c), _element(g, x))


def _lex_compare(group, x, y):
    g = _group(group)
    return lexgroups.lex_compare(_element(g, x), _element(g, y))


def _cli(argv, _command):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


VERBS = {
    "member": _member, "compare_cuts": _compare_cuts,
    "translate": _translate, "classify": _classify,
    "interval_bounds": _interval_bounds, "push": _push, "pull": _pull,
    "witness": _witness, "lex_compare": _lex_compare,
    "cli": _cli,
}


def call(query):
    return VERBS[query[0]](*query[1:])


# ---------------------------------------------------------------------------
# results back to plain data

def plain_scalar(s):
    return (s.a, s.b, s.d)


def plain_group(g):
    return tuple((k.tag, k.d) for k in g.factors)


def plain_cut(c):
    if isinstance(c, cuts.AllBelow):
        return ("all_below",)
    if isinstance(c, cuts.AllAbove):
        return ("all_above",)
    if isinstance(c, cuts.GapCut):
        return ("gap", tuple(map(plain_scalar, c.prefix)), c.level,
                plain_scalar(c.delta))
    return (c.side, tuple(map(plain_scalar, c.anchor.coords)), c.level)


def plain(query, r):
    """Plain-data form of a verb's result: (group, cut) pairs for cuts,
    coordinate tuples for elements, and the value itself otherwise."""
    verb = query[0]
    if verb in ("translate", "pull"):
        return (plain_group(r.group), plain_cut(r))
    if verb == "push":
        return tuple((plain_group(c.group), plain_cut(c)) for c in r)
    if verb == "witness":
        return tuple(tuple(map(plain_scalar, e.coords)) for e in r)
    return r


# ---------------------------------------------------------------------------
# command lines rendered with the dsl printers

def _text_group(factors):
    return dsl.print_group(_group(factors))


def _text_cut(factors, c):
    return dsl.print_cut(_cut(_group(factors), c))


def _text_element(factors, x):
    g = _group(factors)
    return dsl.print_element(lexgroups.GroupElement(
        g, tuple(_scalar(s) for s in x)))


def _text_scalars(xs):
    return "[%s]" % ",".join(dsl.print_scalar(_scalar(s)) for s in xs)


def _text_oelement(pairs):
    return "{%s}" % ",".join("%d:%s" % (i, dsl.print_scalar(_scalar(v)))
                             for i, v in pairs)


def _text_anchor(a):
    # built from the printers of its parts: the library refuses some valid
    # periodic anchors, which must still reach the command line
    if a[0] == "point":
        return "point(%s)" % _text_oelement(a[1])
    if a[0] == "gap_at":
        return "gap_at(%s; %d; %s)" % (_text_oelement(a[1]), a[2],
                                       dsl.print_scalar(_scalar(a[3])))
    return "periodic(%s; %s)" % (_text_scalars(a[1]), _text_scalars(a[2]))


def _text_morphism(factors, morph, cod):
    g = _group(factors)
    return dsl.print_morphism(_morphism(g, morph, cod))


def render_cli(command):
    """argv for one structured command from workloads.cli_text."""
    verb, form, spec, as_json, defect = command
    if form == "omega":
        G = "hahn_omega(%s)" % dsl.print_factor(
            scalars.RankOneKind(*spec["factor"]))
        if verb == "compare":
            args = [_text_oelement(spec["x"]), _text_oelement(spec["y"])]
        elif verb == "skeleton":
            args = []
        else:
            args = [_text_anchor(spec["anchor"])]
            if "x" in spec:
                args.append(_text_oelement(spec["x"]))
        argv = [verb, G] + args
    else:
        argv = _lex_argv(verb, spec, defect)
    if as_json:
        argv.append("--json")
    return _malform(argv, defect)


def _lex_argv(verb, spec, defect):
    factors, c = spec["group"], spec["cut"]
    if verb == "orders":
        n = -1 - spec["n"] if defect == "negative_orders" else spec["n"]
        return ["orders", str(n)]
    G = _text_group(factors)
    if defect == "non_square_free":
        G = G[:-1] + ",Q[sqrt %d])" % (4 * (2 + len(factors)))
    if verb in ("skeleton", "convex-subgroups", "discreteness", "hull"):
        return [verb, G]
    if verb == "embed":
        return [verb, G, _element_arg(factors, spec["x"], defect)]
    if verb == "compare" and c is None:
        return [verb, G, _element_arg(factors, spec["x"], defect),
                _text_element(factors, spec["y"])]
    if verb in ("push", "pull"):
        cut_group = spec["cod"] if verb == "pull" else factors
        return [verb, G, _text_morphism(factors, spec["morph"], spec["cod"]),
                _cut_arg(cut_group, c, defect)]
    cut_defect = defect
    if defect == "coordinate_outside" and verb in ELEMENT_VERBS:
        cut_defect = None
    argv = [verb, G, _cut_arg(factors, c, cut_defect)]
    if verb in ("member", "translate", "bounds"):
        argv.append(_element_arg(factors, spec["x"], defect if cut_defect
                                 is None else None))
    elif verb == "compare":
        argv.append(_text_cut(factors, spec["c2"]))
    elif verb in ("project", "trace"):
        argv.append(str(spec["m"]))
    elif verb == "transport":
        argv += [str(spec["m1"]), str(spec["m2"])]
    return argv


BAD_COORD = "1/3 + 1/3*sqrt(1009)"


def _element_arg(factors, x, defect):
    if defect == "coordinate_outside":
        coords = [BAD_COORD] + [dsl.print_scalar(_scalar(s)) for s in x[1:]]
        return "[%s]" % ",".join(coords)
    return _text_element(factors, x)


def _cut_arg(factors, c, defect):
    k = len(factors)
    if defect == "anchor_inside":
        pad = ",".join("0" for _ in range(k - 1))
        return "gap([%s]; %d; %s)" % (pad, k, "1" if factors[-1][0] == "Z"
                                      else "1/2")
    if defect == "coordinate_outside":
        return "below([%s]; C 1)" % ",".join([BAD_COORD] + ["0"] * (k - 1))
    return _text_cut(factors, c)


def _malform(argv, defect):
    if defect == "unknown_verb":
        return ["x" + argv[0]] + argv[1:]
    if defect == "missing_arg":
        return [a for a in argv if a != "--json"][:-1]
    if defect == "unclosed_group":
        return [argv[0], argv[1][:-1]] + argv[2:] if len(argv) > 1 and \
            argv[1].endswith(")") else [argv[0], "lex(Z"]
    if defect == "unknown_flag":
        return argv + ["--verbose"]
    if defect == "extra_arg":
        return argv + ["one"]
    return argv


def _replay_argv(query):
    verb = query[0]
    group = query[1]
    G = _text_group(group)
    if verb in ("push", "pull"):
        cut_group = query[3] if verb == "pull" else group
        return [verb, G, _text_morphism(group, query[2], query[3]),
                _text_cut(cut_group, query[4])]
    if verb == "lex_compare":
        return ["compare", G, _text_element(group, query[2]),
                _text_element(group, query[3])]
    if verb == "compare_cuts":
        return ["compare", G, _text_cut(group, query[2]),
                _text_cut(group, query[3])]
    name = {"member": "member", "translate": "translate",
            "classify": "classify", "interval_bounds": "bounds"}
    if verb not in name:
        return None
    argv = [name[verb], G, _text_cut(group, query[2])]
    if len(query) > 3:
        argv.append(_text_element(group, query[3]))
    return argv


def replay(query):
    """The query as an ordcut command line, or as plain data when no verb
    of the command line covers it."""
    if query[0] == "cli":
        return "ordcut " + shlex.join(query[1])
    try:
        argv = _replay_argv(query)
    except (DomainError, ValueError):
        argv = None
    return "ordcut " + shlex.join(argv) if argv else repr(query)

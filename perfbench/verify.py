"""Verdicts: each recorded answer against the oracle.

`check(query, status, value)` returns one of
  "ok"       a correct answer, or a correct refusal of an ill-posed query;
  "wrong"    an answer that disagrees with the oracle, or an answer to an
             ill-posed query;
  "refused"  a DomainError (exit 2) on a well-posed query;
  "timeout" / "error"  the deadline passed, or another exception escaped.
Only "ok" counts as answered.  value holds plain data (library
verbs, converted by adapter.plain) or (code, stdout, stderr) for commands.
"""

import json

from . import oracle as O
from .workloads import ILL_POSED, MALFORMED

ORDER = {-1: "less", 0: "equal", 1: "greater"}


def _verdict(status, well_posed, good):
    if status in ("timeout", "error"):
        return status
    if status == "domain":
        return "ok" if not well_posed else "refused"
    if not well_posed:
        return "wrong"
    return "ok" if good() else "wrong"


def _same_cut(group, got, want_key):
    g_group, g_cut = got
    return tuple(g_group) == tuple(group) and \
        O.key_cmp(group, O.cut_key(group, g_cut), want_key) == 0


def _image(group, morph, xs):
    return tuple(O.scale(x, s)
                 for x, s in zip(xs, O.morphism_scales(group, morph)))


def _lex(query, value):
    verb, group = query[0], query[1]
    if verb == "member":
        return True, lambda: value == O.key_member(
            O.cut_key(group, query[2]), O.elem(query[3]))
    if verb == "compare_cuts":
        return True, lambda: value == O.key_cmp(
            group, O.cut_key(group, query[2]), O.cut_key(group, query[3]))
    if verb == "lex_compare":
        return True, lambda: value == O.lex_cmp(O.elem(query[2]),
                                                O.elem(query[3]))
    if verb == "classify":
        key = O.cut_key(group, query[2])
        return True, lambda: value == (O.classify(group, query[2]),
                                       O.key_level(key))
    if verb == "interval_bounds":
        return True, lambda: value == O.interval_bounds(group, query[2],
                                                        query[3])
    if verb == "translate":
        return True, lambda: _check_translate(group, query[2], query[3],
                                              value)
    if verb == "push":
        return True, lambda: _check_push(group, query[2], query[3],
                                         query[4], value)
    if verb == "pull":
        return True, lambda: _check_pull(group, query[2], query[3],
                                         query[4], value)
    if verb == "witness":
        return O.witness_expected(group, query[2], query[3]), \
            lambda: _check_witness(group, query[2], query[3], value)
    raise KeyError(verb)


def _check_translate(group, cut, g, value):
    want = O.translate_key(group, cut, g)
    if not _same_cut(group, value, want):
        return False
    got = O.cut_key(group, value[1])
    orig = O.cut_key(group, cut)
    gs = O.elem(g)
    minus_g = tuple(O.neg(x) for x in gs)
    return all(O.key_member(got, p) ==
               O.key_member(orig, O.add_elems(p, minus_g))
               for p in O.probe_elements(group, got))


def _check_push(group, morph, cod, cut, value):
    lower, upper = O.push_keys(group, morph, cut)
    if not (_same_cut(cod, value[0], lower) and
            _same_cut(cod, value[1], upper)):
        return False
    orig = O.cut_key(group, cut)
    for _, c in value:
        got = O.cut_key(cod, c)
        for p in O.probe_elements(group, orig):
            if O.key_member(orig, p) != O.key_member(got,
                                                     _image(group, morph, p)):
                return False
    return True


def _check_pull(group, morph, cod, cut, value):
    if not _same_cut(group, value, O.pull_key(group, morph, cut)):
        return False
    got = O.cut_key(group, value[1])
    orig = O.cut_key(cod, cut)
    return all(O.key_member(got, p) ==
               O.key_member(orig, _image(group, morph, p))
               for p in O.probe_elements(group, got))


def _check_witness(group, cut, g, value):
    y, z = (O.elem(e) for e in value)
    gs = O.elem(g)
    if O.add_elems(y, gs) != z:
        return False
    if not all(O.in_factor(f, v) for f, v in zip(group, y)):
        return False
    key = O.cut_key(group, cut)
    positive = O.lex_cmp(gs, tuple(O.ZERO for _ in gs)) > 0
    want = (O.MINUS, O.PLUS) if positive else (O.PLUS, O.MINUS)
    return (O.key_member(key, y), O.key_member(key, z)) == want


# ---------------------------------------------------------------------------
# commands

def _read_output(out, as_json):
    if as_json:
        return {k: str(v) for k, v in json.loads(out).items()}
    fields = {}
    for line in out.splitlines():
        key, _, val = line.partition(": ")
        fields[key] = val
    return fields


def _factor_text(f):
    return f[0] if not f[1] else "%s[sqrt %d]" % f


def _group_text(factors):
    return "lex(%s)" % ",".join(map(_factor_text, factors))


def _cut_field(group, want_key):
    return lambda text: O.key_cmp(group, O.read_cut_key(group, text),
                                  want_key) == 0


def _cli_expect(verb, spec):
    """(well_posed, {field: expected text or predicate}) for a lex command."""
    group, c = spec.get("group"), spec.get("cut")
    n = len(group)
    if verb == "orders":
        m = spec["n"]
        bounds = ",".join("(%s,%s)" % (i - 1 if i else "-",
                                       i if i < m else "-")
                          for i in range(m + 1))
        return True, {"count": str(m + 1),
                      "cutoffs": ",".join(map(str, range(m + 1))),
                      "bounds": bounds}
    if verb == "skeleton":
        return True, {"size": str(n),
                      "factors": ",".join(map(_factor_text, group))}
    if verb == "convex-subgroups":
        return True, {"levels": ",".join(map(str, range(n + 1))),
                      "principal": ",".join(map(str, range(n)))}
    if verb == "discreteness":
        disc = n > 0 and group[-1] == ("Z", 0)
        least = "[%s]" % ",".join(["0"] * (n - 1) + ["1"]) if disc else "none"
        return True, {"discrete": str(disc).lower(),
                      "discretely_ordered": str(all(
                          f == ("Z", 0) for f in group)).lower(),
                      "min_positive": least}
    if verb == "hull":
        return True, {"result_group": _group_text(
            tuple(("Q", d) for _, d in group))}
    if verb == "embed":
        return True, {"image": lambda t: O.read_element(t) ==
                      O.elem(spec["x"])}
    if verb == "compare" and c is None:
        return True, {"order": ORDER[O.lex_cmp(O.elem(spec["x"]),
                                               O.elem(spec["y"]))]}
    key = O.cut_key(group, c)
    k = O.key_level(key)
    if verb == "classify":
        return True, {"type": O.classify(group, c)}
    if verb == "invariance":
        return True, {"invariance_level": str(k)}
    if verb == "member":
        return True, {"side": O.key_member(key, O.elem(spec["x"]))}
    if verb == "compare":
        return True, {"order": ORDER[O.key_cmp(
            group, key, O.cut_key(group, spec["c2"]))]}
    if verb == "bounds":
        levels = O.interval_bounds(group, c, spec["x"])
        return True, dict(zip(("psi_minus", "phi_minus", "psi_plus",
                               "phi_plus"), map(str, levels)))
    if verb == "translate":
        return True, {"result_cut": _cut_field(
            group, O.translate_key(group, c, spec["x"]))}
    ents, tie = key
    if verb == "project":
        m = spec["m"]
        qg = group[:m]
        return m >= k, {"result_group": _group_text(qg),
                        "result_cut": _cut_field(qg, (ents[:k], tie))}
    if verb == "trace":
        m = spec["m"]
        sg = group[m:]
        return m < k, {"result_group": _group_text(sg),
                       "result_cut": _cut_field(sg, (ents[m:k], tie))}
    if verb == "transport":
        m1, m2 = spec["m1"], spec["m2"]
        tg = group[m2:m1]
        return m2 < k <= m1, {"result_group": _group_text(tg),
                              "result_cut": _cut_field(tg, (ents[m2:k], tie)),
                              "invariance_level": str(k - m2)}
    morph, cod = spec["morph"], spec["cod"]
    if verb == "push":
        lower, upper = O.push_keys(group, morph, c)
        return True, {"result_group": _group_text(cod),
                      "lower": _cut_field(cod, lower),
                      "upper": _cut_field(cod, upper)}
    pulled = O.pull_key(group, morph, c)
    return True, {"result_group": _group_text(group),
                  "result_cut": _cut_field(group, pulled),
                  "invariance_level": str(O.key_level(pulled))}


def _cli_expect_omega(verb, spec):
    factor = spec["factor"]
    if verb == "skeleton":
        return {"size": "omega", "factors": _factor_text(factor)}
    if verb == "compare":
        return {"order": ORDER[_omega_order(spec["x"], spec["y"])]}
    raw = spec["anchor"]
    anchor = O.omega_anchor(raw)
    if verb == "classify":
        return {"type": {"point": "relatively_principal_below",
                         "gap_at": "gapped",
                         "periodic": "tightened"}[raw[0]]}
    if verb == "invariance":
        if raw[0] == "gap_at":
            return {"invariance": "tail(%d)" % (raw[2] + 1),
                    "index_cut": "L^{>%d}" % raw[2]}
        return {"invariance": "zero", "index_cut": "top"}
    if verb == "member":
        return {"side": O.omega_member(anchor, O.omega_elem(spec["x"]))}
    want = O.omega_translate(anchor, O.omega_elem(spec["x"]))
    return {"result_anchor": lambda t: O.anchors_equal(O.read_anchor(t),
                                                       want)}


def _omega_order(x, y):
    x, y = O.omega_elem(x), O.omega_elem(y)
    for i in sorted({i for i, _ in x} | {i for i, _ in y}):
        s = O.cmp(O.omega_coord(x, i), O.omega_coord(y, i))
        if s:
            return s
    return 0


def _check_cli(command, status, value):
    verb, form, spec, as_json, defect = command
    if status != "ok":
        return status
    code, out, _ = value
    if defect in MALFORMED:
        return "ok" if code == 1 else "wrong"
    if defect in ILL_POSED:
        return "ok" if code == 2 else "wrong"
    if form == "omega":
        well_posed, fields = True, _cli_expect_omega(verb, spec)
    else:
        well_posed, fields = _cli_expect(verb, spec)
    if code == 2:
        return "ok" if not well_posed else "refused"
    if code != 0 or not well_posed:
        return "wrong"
    try:
        got = _read_output(out, as_json)
        for key, want in fields.items():
            text = got[key]
            if not (want(text) if callable(want) else text == want):
                return "wrong"
    except (KeyError, ValueError):
        return "wrong"
    return "ok"


def check(query, status, value):
    verb = query[0]
    if verb == "cli":
        return _check_cli(query[2], status, value)
    well_posed, good = _lex(query, value)
    return _verdict(status, well_posed, good)

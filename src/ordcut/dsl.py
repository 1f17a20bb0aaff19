"""Mini-DSL for groups, elements, cuts, anchors, and morphisms.

Recursive-descent parser over the grammar pinned in the CLI contract, plus
canonical printers.  The parser reads tokens, not characters: one pass of
`_TOKEN` splits the text into the grammar's literals, runs of ASCII digits
and single other characters, dropping the whitespace (`str.isspace`) between
them.  An error position is worked out only when an error is raised, by a
second pass.  The printers print any value in full; printing a value and
reparsing it yields an equal value when every integer in it is below the
parser's literal limit (the interpreter's int-to-str limit, 4300 digits by
default).

`parse_group` keeps a memo keyed by the group text, bounded at 256 entries:
one text parses and checks once, and every later call returns the same
immutable group record, which callers share.  A text that is refused is not
stored, so it raises its error again on every call.
"""

import re
from functools import lru_cache
from itertools import islice

from .errors import DomainError, ParseError
from . import scalars
from .scalars import Scalar, RankOneKind, _print_ratio
from . import lexgroups
from .lexgroups import LexGroup, FactorwiseInjection
from . import cuts
from . import hahnomega
from .hahnomega import OmegaGroup

# The grammar's literals of more than one character, then INT (ASCII digits,
# not str.isdigit, which also accepts '²'), then any other character.  \S,
# not '.', so that whitespace is never a token; \s and \S split the code
# points as str.isspace does.  No literal is a prefix of another but "Z" of
# "Z[sqrt" and "Q" of "Q[sqrt", and `parse_factor` tries the longer first.
_TOKEN = re.compile(r"\s*(hahn_omega\(|all_below|all_above|below\(|above\("
                    r"|gap_at\(|gap\(|periodic\(|point\(|lex\(|widen|scale\("
                    r"|\*sqrt\(|[ZQ]\[sqrt|[0-9]+|\S)")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")  # the end of the text
        self.i = 0

    def pos(self, after=False):
        """The start of the current token (len(text) at the end), or with
        `after` the end of the token before it."""
        i = self.i - after
        m = next(islice(_TOKEN.finditer(self.text), i, None), None)
        if m is None:
            return len(self.text)
        return m.end() if after else m.start(1)

    def error(self, message, after=False):
        raise ParseError(message, self.pos(after))

    def eat(self, lit):
        """Consume the current token if it is lit."""
        if self.toks[self.i] == lit:
            self.i += 1
            return True
        return False

    def expect(self, lit):
        if not self.eat(lit):
            self.error("expected %r" % lit)

    def expect_end(self):
        if self.toks[self.i]:
            self.error("unexpected trailing input")

    def parse_list(self, item, close, empty=True):
        """Comma-separated item() results, then close; an empty list when
        empty allows it and close comes first."""
        out = []
        if not (empty and self.eat(close)):
            out.append(item())
            while self.eat(","):
                out.append(item())
            self.expect(close)
        return out

    def parse_uint(self):
        tok = self.toks[self.i]
        if not "0" <= tok < ":":  # a digit first: an INT token
            self.error("expected an integer")
        try:
            v = int(tok)
        except ValueError:  # more digits than int() converts
            raise ParseError("integer literal too long", self.pos()) from None
        self.i += 1
        return v

    def parse_int(self):
        neg = self.eat("-")
        v = self.parse_uint()
        return -v if neg else v

    def parse_ratio(self):
        """A rat as (numerator, denominator) ints, not reduced."""
        num = self.parse_int()
        if self.eat("/"):
            den = self.parse_uint()
            if den == 0:
                self.error("zero denominator", after=True)
            return num, den
        return num, 1

    def parse_rat(self):
        import fractions
        return fractions.Fraction(*self.parse_ratio())

    def parse_scalar(self):
        an, ad = self.parse_ratio()
        sign = 1 if self.eat("+") else -1 if self.eat("-") else 0
        if not sign:
            return scalars.from_ratios(an, ad, 0, 1, 0)
        bn, bd = self.parse_ratio()
        self.expect("*sqrt(")
        d = self.parse_uint()
        self.expect(")")
        return scalars.from_ratios(an, ad, sign * bn, bd, d)

    def parse_factor(self):
        for tag in ("Z", "Q"):
            if self.eat(tag + "[sqrt"):
                d = self.parse_uint()
                self.expect("]")
                return RankOneKind(tag, d)
            if self.eat(tag):
                return RankOneKind(tag, 0)
        self.error("expected a factor Z, Q, Z[sqrt D], or Q[sqrt D]")

    def parse_group(self):
        if self.eat("lex("):
            return LexGroup(tuple(self.parse_list(self.parse_factor, ")")))
        if self.eat("hahn_omega("):
            factor = self.parse_factor()
            self.expect(")")
            return OmegaGroup(factor)
        self.error("expected lex(...) or hahn_omega(...)")

    def parse_scalar_list(self, open_tok, close_tok):
        self.expect(open_tok)
        return self.parse_list(self.parse_scalar, close_tok)

    def parse_element(self, group):
        coords = self.parse_scalar_list("[", "]")
        if len(coords) != group.rank:
            self.error("element needs %d coordinates" % group.rank,
                       after=True)
        return lexgroups.element(group, coords)

    def parse_pair(self):
        i = self.parse_uint()
        self.expect(":")
        return i, self.parse_scalar()

    def parse_oelement(self, group):
        self.expect("{")
        return hahnomega.omega_element(group,
                                       self.parse_list(self.parse_pair, "}"))

    def parse_cut(self, group):
        if self.eat("all_below"):
            return cuts.AllBelow(group)
        if self.eat("all_above"):
            return cuts.AllAbove(group)
        for side in (cuts.BELOW, cuts.ABOVE):
            if self.eat(side + "("):
                coords = self.parse_scalar_list("[", "]")
                self.expect(";")
                self.expect("C")
                k = self.parse_uint()
                self.expect(")")
                if len(coords) != group.rank:
                    self.error("anchor needs %d coordinates" % group.rank,
                               after=True)
                return cuts.principal(group, side, coords, k)
        if self.eat("gap("):
            prefix = self.parse_scalar_list("[", "]")
            self.expect(";")
            k = self.parse_uint()
            self.expect(";")
            delta = self.parse_scalar()
            self.expect(")")
            return cuts.gap_cut(group, prefix, k, delta)
        self.error("expected a cut expression")

    def parse_oanchor(self, group):
        if self.eat("point("):
            e = self.parse_oelement(group)
            self.expect(")")
            return hahnomega.OmegaPoint(group, e)
        if self.eat("gap_at("):
            prefix = self.parse_oelement(group)
            self.expect(";")
            i = self.parse_uint()
            self.expect(";")
            delta = self.parse_scalar()
            self.expect(")")
            return hahnomega.OmegaGapAt(group, prefix, i, delta)
        if self.eat("periodic("):
            pre = self.parse_scalar_list("[", "]")
            self.expect(";")
            per = self.parse_scalar_list("[", "]")
            self.expect(")")
            return hahnomega.OmegaPeriodic(group, tuple(pre), tuple(per))
        self.error("expected an anchor expression")

    def parse_morphism(self, group):
        if self.eat("widen"):
            return lexgroups.widening(group)
        if self.eat("scale("):
            rats = self.parse_list(self.parse_rat, ")", empty=False)
            if len(rats) != group.rank:
                self.error("scale needs %d entries" % group.rank, after=True)
            cod = []
            for kind, s in zip(group.factors, rats):
                if all(scalars.contains(kind, g * s)
                       for g in kind.generators()):
                    cod.append(kind)
                else:
                    cod.append(scalars.divisible_hull_kind(kind))
            return FactorwiseInjection(group, LexGroup(tuple(cod)),
                                       tuple(rats))
        self.error("expected a morphism (widen or scale(...))")


def _parse_with(fn_name, text, *args):
    p = _Parser(text)
    value = getattr(p, fn_name)(*args)
    p.expect_end()
    return value


@lru_cache(maxsize=256)  # the group texts of a session
def parse_group(text):
    return _parse_with("parse_group", text)


def parse_scalar(text):
    return _parse_with("parse_scalar", text)


def _parse_over(family, fn_name, text, group):
    """`_parse_with` over a group of the family (LexGroup or OmegaGroup) that
    fn_name reads; a group of the other family is a DomainError."""
    if not isinstance(group, family):
        raise DomainError("%s takes a %s group" % (
            fn_name, "lex" if family is LexGroup else "hahn_omega"))
    return _parse_with(fn_name, text, group)


def parse_element(text, group):
    return _parse_over(LexGroup, "parse_element", text, group)


def parse_oelement(text, group):
    return _parse_over(OmegaGroup, "parse_oelement", text, group)


def parse_cut(text, group):
    return _parse_over(LexGroup, "parse_cut", text, group)


def parse_oanchor(text, group):
    return _parse_over(OmegaGroup, "parse_oanchor", text, group)


def parse_morphism(text, group):
    return _parse_over(LexGroup, "parse_morphism", text, group)


# ---------------------------------------------------------------------------
# printers (canonical: lowest terms, radical omitted when b = 0)

def print_rat(q):
    return _print_ratio(q.numerator, q.denominator)


print_scalar = Scalar.__str__


def print_factor(kind):
    if kind.d == 0:
        return kind.tag
    return "%s[sqrt %d]" % (kind.tag, kind.d)


def print_group(g):
    if isinstance(g, OmegaGroup):
        return "hahn_omega(%s)" % print_factor(g.factor)
    return "lex(%s)" % ",".join(print_factor(k) for k in g.factors)


def print_element(x):
    return "[%s]" % ",".join(print_scalar(c) for c in x.coords)


def print_oelement(x):
    return "{%s}" % ",".join("%d:%s" % (i, print_scalar(v))
                             for i, v in x.support)


def print_cut(c):
    if isinstance(c, cuts.AllBelow):
        return "all_below"
    if isinstance(c, cuts.AllAbove):
        return "all_above"
    if isinstance(c, cuts.Principal):
        return "%s(%s; C %d)" % (c.side, print_element(c.anchor), c.level)
    pad = ",".join(print_scalar(s) for s in c.prefix)
    return "gap([%s]; %d; %s)" % (pad, c.level, print_scalar(c.delta))


def print_oanchor(a):
    if isinstance(a, hahnomega.OmegaPoint):
        return "point(%s)" % print_oelement(a.point)
    if isinstance(a, hahnomega.OmegaGapAt):
        return "gap_at(%s; %d; %s)" % (print_oelement(a.prefix), a.index,
                                       print_scalar(a.delta))
    return "periodic([%s]; [%s])" % (
        ",".join(print_scalar(v) for v in a.preperiod),
        ",".join(print_scalar(v) for v in a.period))


def print_morphism(m):
    if m == lexgroups.widening(m.dom):
        return "widen"
    return "scale(%s)" % ",".join(print_rat(s) for s in m.scales)

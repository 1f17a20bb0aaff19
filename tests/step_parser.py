"""A reference parser for the DSL, for differential tests of `ordcut.dsl`.

This is the step parser the library used before its token scanner: it walks
the text one character at a time, skipping whitespace by `str.isspace` and
probing each literal with `str.startswith`.  It is a test helper and is not
shipped.  Its `parse_*` functions take the arguments of their `dsl`
namesakes.
"""

import re
from fractions import Fraction

from ordcut import cuts, hahnomega, lexgroups, scalars
from ordcut.errors import ParseError
from ordcut.hahnomega import OmegaGroup
from ordcut.lexgroups import FactorwiseInjection, LexGroup
from ordcut.scalars import RankOneKind, Scalar

import sampling

_UINT = re.compile("[0-9]+")  # not str.isdigit, which also accepts '²'


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def eat(self, lit):
        """Skip whitespace, then consume lit if it comes next."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if text.startswith(lit, pos):
            self.pos = pos + len(lit)
            return True
        self.pos = pos
        return False

    def expect(self, lit):
        if not self.eat(lit):
            self.error("expected %r" % lit)

    def expect_end(self):
        self.eat("")
        if self.pos != len(self.text):
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
        self.eat("")
        m = _UINT.match(self.text, self.pos)
        if m is None:
            self.error("expected an integer")
        self.pos = m.end()
        try:
            return int(m.group())
        except ValueError:  # more digits than int() converts
            raise ParseError("integer literal too long", m.start()) from None

    def parse_int(self):
        neg = self.eat("-")
        v = self.parse_uint()
        return -v if neg else v

    def parse_rat(self):
        num = self.parse_int()
        if self.eat("/"):
            den = self.parse_uint()
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_scalar(self):
        a = self.parse_rat()
        sign = 1 if self.eat("+") else -1 if self.eat("-") else 0
        if not sign:
            return Scalar.make(a)
        b = self.parse_rat()
        self.expect("*sqrt(")
        d = self.parse_uint()
        self.expect(")")
        return Scalar.make(a, sign * b, d)

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
            self.error("element needs %d coordinates" % group.rank)
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
                    self.error("anchor needs %d coordinates" % group.rank)
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
                self.error("scale needs %d entries" % group.rank)
            cod = []
            for kind, s in zip(group.factors, rats):
                if sampling.scaled_into_by_products(kind, s, kind):
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


def parse_group(text):
    return _parse_with("parse_group", text)


def parse_scalar(text):
    return _parse_with("parse_scalar", text)


def parse_element(text, group):
    return _parse_with("parse_element", text, group)


def parse_oelement(text, group):
    return _parse_with("parse_oelement", text, group)


def parse_cut(text, group):
    return _parse_with("parse_cut", text, group)


def parse_oanchor(text, group):
    return _parse_with("parse_oanchor", text, group)


def parse_morphism(text, group):
    return _parse_with("parse_morphism", text, group)

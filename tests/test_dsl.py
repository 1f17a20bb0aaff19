"""Grammar round-trips and parse errors for the textual mini-language."""

import sys
import time
from fractions import Fraction
from itertools import filterfalse

import pytest
from hypothesis import given, settings, strategies as st

from ordcut import cuts, dsl, hahnomega, lexgroups, scalars
from ordcut.errors import DomainError, ParseError
from ordcut.lexgroups import LexGroup, divisible_hull, widening
from ordcut.hahnomega import OmegaGroup, omega_gap_at, omega_periodic
from ordcut.scalars import KIND_Q, KIND_Z, Scalar, quad_z

import sampling
import step_parser
from sampling import omega_point, omega_zero, parse_scalar, quad_q

GROUP_TEXTS = ["lex(Z)", "lex(Z,Z)", "lex(Z,Q)", "lex(Z,Z,Q)",
               "lex(Z[sqrt 2],Q)", "lex(Q[sqrt 5])", "lex()",
               "hahn_omega(Z)", "hahn_omega(Q)"]


def test_group_round_trip():
    for text in GROUP_TEXTS:
        g = dsl.parse_group(text)
        printed = dsl.print_group(g)
        assert dsl.parse_group(printed) == g


def test_scalar_round_trip():
    samples = [Scalar.make(3), Scalar.make(Fraction(-7, 5)),
               Scalar.make(1, 2, 2), Scalar.make(Fraction(1, 3), -1, 5),
               Scalar.make(0, 1, 8)]
    for x in samples:
        assert parse_scalar(dsl.print_scalar(x)) == x



def test_scalar_str_is_the_dsl_printer():
    assert dsl.print_scalar is Scalar.__str__
    x = Scalar.make(Fraction(1, 3), Fraction(1, 3), 1009)
    assert str(x) == "1/3 + 1/3*sqrt(1009)"
    assert repr(x) == "Scalar(1/3 + 1/3*sqrt(1009))"
    assert repr(Scalar.make(Fraction(-7, 5))) == "Scalar(-7/5)"


def test_domain_error_messages_print_dsl_text():
    """A DomainError from lexgroups, cuts or hahnomega that names a scalar
    names it in DSL text, and none shows a Python repr."""
    x = Scalar.make(Fraction(1, 3), Fraction(1, 3), 1009)
    zq = LexGroup((KIND_Z, KIND_Q))
    q2 = LexGroup((quad_q(2),))
    gz, gq = OmegaGroup(KIND_Z), OmegaGroup(KIND_Q)
    sqrt2, sqrt3 = Scalar.make(0, 1, 2), Scalar.make(0, 1, 3)
    naming = [
        lambda: lexgroups.element(LexGroup((quad_z(2), KIND_Q)),
                                  (x, Fraction(-3, 2))),
        lambda: cuts.principal(zq, cuts.BELOW, (x, 0), 1),
        lambda: cuts.gap_cut(zq, (x,), 2, sqrt2),
        lambda: hahnomega.omega_element(gz, [(0, x)]),
        lambda: hahnomega.omega_periodic(gz, (x,), (1,)),
        lambda: hahnomega.omega_periodic(gz, (), (x,)),
    ]
    other = [
        lambda: cuts.gap_cut(zq, (1,), 2, Fraction(1, 2)),
        lambda: cuts.translate(cuts.gap_cut(q2, (), 1, sqrt3),
                               lexgroups.element(q2, (sqrt2,))),
        lambda: omega_gap_at(gq, [], 1, Fraction(1, 2)),
        lambda: omega_periodic(gz, (), (0,)),
    ]
    for call in naming + other:
        with pytest.raises(DomainError) as e:
            call()
        message = str(e.value)
        assert "Fraction(" not in message and "Scalar(" not in message
        assert ("1/3 + 1/3*sqrt(1009)" in message) == (call in naming)


def test_element_and_cut_round_trip():
    rng = sampling.rng_for(0)
    for text in ("lex(Z,Z)", "lex(Z,Q)", "lex(Z[sqrt 2],Q)"):
        g = dsl.parse_group(text)
        for _ in range(30):
            x = sampling.sample_element(g, rng, 6)
            assert dsl.parse_element(dsl.print_element(x), g) == x
            c = sampling.sample_descriptor(g, rng, 6)
            assert dsl.parse_cut(dsl.print_cut(c), g) == c


def test_omega_round_trip():
    gz = OmegaGroup(KIND_Z)
    gq = OmegaGroup(KIND_Q)
    rng = sampling.rng_for(0)
    for _ in range(30):
        x = sampling.sample_omega_element(gz, rng, 6)
        assert dsl.parse_oelement(dsl.print_oelement(x), gz) == x
    anchors = [omega_point(gz, [(0, 2), (3, -1)]),
               omega_periodic(gz, (2, 0), (1, 3)),
               omega_gap_at(gq, [(0, Fraction(1, 2))], 2, Scalar.make(0, 1, 2))]
    for a in anchors:
        assert dsl.parse_oanchor(dsl.print_oanchor(a), a.group) == a


def test_morphism_round_trip():
    g = dsl.parse_group("lex(Z,Q)")
    m = dsl.parse_morphism("widen", g)
    assert m == widening(g)
    assert dsl.print_morphism(m) == "widen"
    m2 = dsl.parse_morphism("scale(2,1/3)", g)
    assert m2.scales == (Scalar.make(2), Scalar.make(Fraction(1, 3)))
    assert m2.cod == LexGroup((KIND_Z, KIND_Q))
    assert dsl.parse_morphism(dsl.print_morphism(m2), g) == m2
    # non-integral scaling of Z forces the divisible hull on that factor
    m3 = dsl.parse_morphism("scale(1/2,1)", g)
    assert m3.cod == LexGroup((KIND_Q, KIND_Q))


def test_hull_widen_and_print_never_factor_again():
    # a parsed kind's radicand is split already: building its hull, the widen
    # morphism, or printing a morphism reads that split from the memo and
    # must not factor it a second time
    g = dsl.parse_group("lex(Z[sqrt 100000007],Q[sqrt 3],Z)")
    expected = LexGroup((quad_q(100000007), quad_q(3), KIND_Q))
    splits = scalars._split.cache_info().misses
    hull, m = divisible_hull(g)
    assert hull == expected
    assert widening(g) == m and m.cod == hull
    assert dsl.print_morphism(m) == "widen"
    m2 = dsl.parse_morphism("scale(1/2,1,1)", g)
    assert dsl.print_morphism(m2) == "scale(1/2,1,1)"
    assert dsl.print_group(hull) == \
        "lex(Q[sqrt 100000007],Q[sqrt 3],Q)"
    assert scalars._split.cache_info().misses == splits


def test_one_group_text_parses_to_one_record():
    text = "lex(Z,Q[sqrt 2])"
    g = dsl.parse_group(text)
    assert dsl.parse_group(text) is g
    assert dsl.parse_group("hahn_omega(Q)") is dsl.parse_group("hahn_omega(Q)")
    # an equal group from another text is another record
    other = dsl.parse_group("lex( Z, Q[sqrt 2] )")
    assert other == g and other is not g


def _error(text):
    try:
        dsl.parse_group(text)
    except (ParseError, DomainError) as e:
        return type(e), str(e), getattr(e, "pos", None)
    raise AssertionError("%r parsed" % text)


def test_refused_group_texts_raise_on_every_call():
    # errors are never stored: each call raises the same error again
    for text, kind, message in [
            ("lex(Z", ParseError, "expected ')' (at position 5)"),
            ("lex(Z[sqrt 8])", DomainError, "not square-free")]:
        first = _error(text)
        assert first[0] is kind and message in first[1]
        assert _error(text) == _error(text) == first


def test_omega_indices_print_past_the_int_to_str_limit():
    # "%d" raised a plain ValueError past 4300 digits; the printers and
    # index_cut print every index in full
    far = 10 ** 5000
    gap = omega_gap_at(OmegaGroup(KIND_Q), [], far, Scalar.make(0, 1, 2))
    assert hahnomega.index_cut(gap) == "L^{>1%s}" % ("0" * 5000)
    assert dsl.print_oanchor(gap) == \
        "gap_at({}; 1%s; 0 + 1*sqrt(2))" % ("0" * 5000)
    x = hahnomega.omega_element(OmegaGroup(KIND_Q), [(far, 1)])
    assert dsl.print_oelement(x) == "{1%s:1}" % ("0" * 5000)
    assert dsl.print_oanchor(omega_point(OmegaGroup(KIND_Q), [(far, 1)])) \
        == "point({1%s:1})" % ("0" * 5000)


def test_print_morphism_prints_widen_for_the_widening_only():
    qq = dsl.parse_group("lex(Q,Q[sqrt 2])")
    m = dsl.parse_morphism("scale(1,1)", qq)
    assert m == widening(qq) and dsl.print_morphism(m) == "widen"
    z = dsl.parse_group("lex(Z)")
    m = dsl.parse_morphism("scale(1)", z)
    assert m.cod == z and dsl.print_morphism(m) == "scale(1)"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        dsl.parse_group("lex(Z,X)")
    assert "position" in str(e.value)
    with pytest.raises(ParseError):
        dsl.parse_group("lex(Z,Z) trailing")
    g = dsl.parse_group("lex(Z,Z)")
    with pytest.raises(ParseError):
        dsl.parse_element("[1]", g)  # wrong arity
    with pytest.raises(ParseError):
        dsl.parse_cut("betwixt([1,2]; C 1)", g)
    with pytest.raises(ParseError):
        parse_scalar("1/0")


def test_list_errors_keep_their_messages_and_positions():
    zq = dsl.parse_group("lex(Z,Q)")
    oq = dsl.parse_group("hahn_omega(Q)")
    factor = "expected a factor Z, Q, Z[sqrt D], or Q[sqrt D]"
    cases = [(dsl.parse_group, ("lex(Z,)",), factor, 6),
             (dsl.parse_group, ("lex( ",), factor, 5),
             (dsl.parse_morphism, ("scale()", zq), "expected an integer", 6),
             (dsl.parse_morphism, ("scale(1,)", zq), "expected an integer", 8),
             (dsl.parse_morphism, ("scale( 1 , 2 ", zq), "expected ')'", 13),
             (dsl.parse_element, ("[1,]", zq), "expected an integer", 3),
             (dsl.parse_element, ("[ ]", zq), "element needs 2 coordinates",
              3),
             (dsl.parse_oelement, ("{1:2,}", oq), "expected an integer", 5),
             (dsl.parse_oelement, ("{1 2}", oq), "expected ':'", 3),
             (dsl.parse_oelement, ("{1:2", oq), "expected '}'", 4),
             (parse_scalar, ("1 + 2*sqrt(3)  y",),
              "unexpected trailing input", 15)]
    for parse, args, message, pos in cases:
        with pytest.raises(ParseError) as e:
            parse(*args)
        assert (str(e.value), e.value.pos) == \
            ("%s (at position %d)" % (message, pos), pos), args
    assert dsl.parse_oelement("{ 1 : 2 , 3: -1/2 } ", oq) == \
        hahnomega.omega_element(oq, [(1, 2), (3, Fraction(-1, 2))])
    assert dsl.parse_oelement("{}", oq) == omega_zero(oq)


def test_domain_errors_from_parsed_cuts():
    g = dsl.parse_group("lex(Z)")
    with pytest.raises(DomainError):
        dsl.parse_cut("gap([]; 1; 1/2)", g)
    gq = dsl.parse_group("lex(Q)")
    with pytest.raises(DomainError):
        dsl.parse_cut("gap([]; 1; 1/2)", gq)


# Each entry point that reads over a group takes one family of groups and
# refuses the other before it reads the text, even text that would parse.
LEX, OMEGA = dsl.parse_group("lex(Z,Q)"), dsl.parse_group("hahn_omega(Q)")


def _refuses(parse, family, texts, group):
    for text in texts:
        with pytest.raises(DomainError, match="^%s takes a %s group$"
                           % (parse.__name__, family)):
            parse(text, group)


def test_parse_cut_takes_a_lex_group():
    _refuses(dsl.parse_cut, "lex",
             ["all_below", "below([1,0]; C 1)", "gap([]; 1; 1)", "?"], OMEGA)


def test_parse_element_takes_a_lex_group():
    _refuses(dsl.parse_element, "lex", ["[1,2]", "[]", "?"], OMEGA)


def test_parse_morphism_takes_a_lex_group():
    _refuses(dsl.parse_morphism, "lex", ["widen", "scale(1,2)", "?"], OMEGA)


def test_parse_oelement_takes_a_hahn_omega_group():
    _refuses(dsl.parse_oelement, "hahn_omega", ["{0:1}", "{}", "?"], LEX)


def test_parse_oanchor_takes_a_hahn_omega_group():
    _refuses(dsl.parse_oanchor, "hahn_omega",
             ["point({0:1})", "periodic([]; [1])", "?"], LEX)


# ---------------------------------------------------------------------------
# the token scanner against the step parser it replaced (tests/step_parser.py)

CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))
WHITESPACE = "".join(filter(str.isspace, CODE_POINTS))


def test_token_whitespace_is_isspace():
    # each code point once: the scanner drops exactly the str.isspace ones
    kept = "".join(filterfalse(str.isspace, CODE_POINTS))
    assert "".join(dsl._TOKEN.findall(CODE_POINTS)) == kept
    assert len(WHITESPACE) > 6


LEX = [dsl.parse_group(t) for t in ("lex(Z)", "lex(Z,Q)", "lex(Z[sqrt 2],Q)",
                                    "lex(Q[sqrt 3],Z)")]
OMEGA = [OmegaGroup(KIND_Z), OmegaGroup(KIND_Q), OmegaGroup(quad_q(2))]


def _omega_text(g, rng):
    return dsl.print_oelement(sampling.sample_omega_element(g, rng, 6))


def _oanchor_text(g, rng):
    x = _omega_text(g, rng)
    delta = dsl.print_scalar(sampling.sample_irrational(g.factor, rng, 6))
    coords = ",".join(dsl.print_scalar(sampling.sample_scalar(g.factor,
                                                              rng, 6))
                      for _ in range(rng.randint(0, 3)))
    return rng.choice(["point(%s)" % x,
                       "gap_at(%s; %d; %s)" % (x, rng.randint(0, 8), delta),
                       "periodic([%s]; [%s])" % (coords, coords or "1")])


def _morphism_text(g, rng):
    if rng.random() < 0.3:
        return "widen"
    return "scale(%s)" % ",".join(
        dsl.print_scalar(Scalar.make(
            sampling.sample_fraction(rng, 6) or Fraction(1)))
        for _ in g.factors)


# entry point: (groups it reads over, or None, text sampler, printer)
ENTRIES = {
    "parse_group": (None, lambda g, rng: dsl.print_group(
        rng.choice(LEX + OMEGA + [LexGroup(())])), dsl.print_group),
    "parse_scalar": (None, lambda g, rng: dsl.print_scalar(
        sampling.sample_scalar(quad_q(rng.choice((2, 5))), rng, 6)),
        dsl.print_scalar),
    "parse_element": (LEX, lambda g, rng: dsl.print_element(
        sampling.sample_element(g, rng, 6)), dsl.print_element),
    "parse_oelement": (OMEGA, _omega_text, dsl.print_oelement),
    "parse_cut": (LEX, lambda g, rng: dsl.print_cut(
        sampling.sample_descriptor(g, rng, 6)), dsl.print_cut),
    "parse_oanchor": (OMEGA, _oanchor_text, dsl.print_oanchor),
    "parse_morphism": (LEX, _morphism_text, dsl.print_morphism),
}

PIECES = list(WHITESPACE) + [
    "*sqrt(", "Z[sqrt", "Q[sqrt", "gap(", "below (", "below(", "gap_at(",
    "lex(", "hahn_omega(", "all_below", "widen", "scale(", "²", "1/0",
    "9" * 5000, "-", "+", "/", ",", ";", ":", "[", "]", "{", "}", "(", ")",
    "C", "Z", "Q", "0", "x"]


def _outcome(parser, name, text, args, printer):
    try:
        value = getattr(parser, name)(text, *args)
        return value, printer(value)
    except ParseError as e:
        return ParseError, str(e), e.pos
    except DomainError as e:
        return DomainError, str(e)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ENTRIES)), st.integers(0, 2 ** 32),
       st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")),
                          st.floats(0, 1), st.sampled_from(PIECES)),
                max_size=3))
def test_scanner_agrees_with_the_step_parser(name, seed, edits):
    groups, sample, printer = ENTRIES[name]
    rng = sampling.rng_for(seed)
    g = rng.choice(groups) if groups else None
    text = sample(g, rng)
    for op, at, piece in edits:
        i = int(at * len(text))
        j = i + (op != "insert")
        text = text[:i] + ("" if op == "delete" else piece) + text[j:]
    args = () if g is None else (g,)
    # dsl has no public scalar parser: sampling wraps the one dsl uses
    library = sampling if name == "parse_scalar" else dsl
    assert _outcome(library, name, text, args, printer) == \
        _outcome(step_parser, name, text, args, printer), text


def test_parsed_scalars_are_canonical():
    # the parser hands unreduced ints to scalars.from_ratios
    for text in ("2/4", "-6/4 + 3/6*sqrt(8)", "4/2 + 2/4*sqrt(4)", "0/5",
                 "3/3 + 0/7*sqrt(2)", "6/9 + -12/18*sqrt(0)",
                 "-0 + 5/10*sqrt(2)"):
        x, y = parse_scalar(text), step_parser.parse_scalar(text)
        assert (x.p, x.q, x.n, x.d) == (y.p, y.q, y.n, y.d), text


def test_parse_time_is_linear():
    # the error position is found by a second scan, once: not per token
    n = 50000
    g = LexGroup((KIND_Z,) * n)
    text = "[%s]" % ",".join(str(i % 7 - 3) for i in range(n))
    t0 = time.perf_counter()
    assert len(dsl.parse_element(text, g).coords) == n
    assert time.perf_counter() - t0 < 1
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as e:
        dsl.parse_element(text[:-1] + ";", g)
    assert time.perf_counter() - t0 < 1
    assert (e.value.pos, str(e.value)) == \
        (len(text) - 1, "expected ']' (at position %d)" % (len(text) - 1))

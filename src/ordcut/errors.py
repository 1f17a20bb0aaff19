"""Error types shared across the library, and the refusals every module
makes: an index not an int in its range, a number not an int or a
Fraction, a sequence not a list or a tuple, a record field not a tuple, a
record over a group of the wrong kind, an argument of the wrong kind, and
an argument over another group.  Each is written once here, so it reads
the same everywhere."""

import sys


class DomainError(ValueError):
    """A structurally well-formed input that violates a domain invariant.

    Carries an optional payload (e.g. the witness element showing why a
    quotient image is not a cut).
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class ParseError(ValueError):
    """A syntax error in the mini-DSL, annotated with the input position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def integer(value, what):
    """Refuse a value that is not exactly an int: a bool, or any other
    subclass of int, is refused as a float is."""
    if value.__class__ is not int:
        raise DomainError("%s must be an integer, not %s"
                          % (what, value.__class__.__name__))


_fraction = None  # fractions.Fraction, once rational has read one


def rational(value, what):
    """(numerator, denominator) in lowest terms of an int, not a bool, or a
    Fraction; refuse the rest, each subclass of int or Fraction included.

    A Fraction exists only once something has imported fractions, so this
    module imports nothing: a value whose class is not the Fraction seen
    last is looked up as `sys.modules["fractions"].Fraction`, which also
    finds the class of a reloaded fractions module.  Its fields are read
    from Fraction's slots, `_numerator` and `_denominator`, which hold them
    in lowest terms, with no call."""
    global _fraction
    if value.__class__ is int:
        return value, 1
    if value.__class__ is not _fraction:
        fractions = sys.modules.get("fractions")
        if fractions is None or value.__class__ is not fractions.Fraction:
            raise DomainError("%s is an int or a Fraction, not %s"
                              % (what, value.__class__.__name__))
        _fraction = fractions.Fraction
    return value._numerator, value._denominator


def index(value, what, lo=0, hi=None):
    """Refuse a value that is not an int in lo..hi, or, with no hi, that is
    negative.  The value and hi may have more digits than `%d` prints."""
    integer(value, what)
    if hi is None:
        if value < 0:
            raise DomainError("%s must be nonnegative" % what)
    elif not lo <= value <= hi:
        from .scalars import _print_ratio  # scalars imports this module
        raise DomainError("%s %s outside %d..%s" % (
            what, _print_ratio(value, 1), lo, _print_ratio(hi, 1)))


def sequence(value, what):
    """Refuse a value that is not a list or a tuple, before it is
    iterated."""
    if not isinstance(value, (list, tuple)):
        raise DomainError("%s must be a list or a tuple" % what)


def tuple_field(value, what):
    """Refuse a record field that is not a tuple, which could not hash."""
    if not isinstance(value, tuple):
        raise DomainError("%s must be a tuple" % what)


# what group_kind and expect call each record class, by its name
_KINDS = {"LexGroup": "a lex group", "OmegaGroup": "an omega group",
          "GroupElement": "a lex group element",
          "ConvexSubgroup": "a convex subgroup", "AllBelow": "a lex cut",
          "FactorwiseInjection": "a factorwise injection",
          "OmegaElement": "an omega element", "OmegaPoint": "an omega anchor",
          "FiniteChain": "a finite chain", "Segment": "an initial segment",
          "MonotoneMap": "a monotone map"}


def group_kind(group, cls, what):
    """Refuse a record over a group that is not a cls, before the record
    reads the group's fields."""
    if not isinstance(group, cls):
        raise DomainError("%s needs %s" % (what, _KINDS[cls.__name__]))


def expect(x, kinds, what):
    """x, for an x that is an instance of kinds, a class or a tuple of them
    named by the first; refuse any other x before its fields are read."""
    if not isinstance(x, kinds):
        first = kinds[0] if isinstance(kinds, tuple) else kinds
        raise DomainError("%s must be %s" % (what, _KINDS[first.__name__]))
    return x


def same_group(x, group, kinds, what="element"):
    """Refuse an x that is not one of kinds (`expect`), or whose group is
    not this group.  The identity test comes first: one group object is
    usually shared, and `!=` on two records always runs the Python-level
    `Record.__eq__`."""
    if isinstance(x, kinds) and x.group is group:
        return
    if expect(x, kinds, what).group != group:
        raise DomainError("%s belongs to a different group" % what)

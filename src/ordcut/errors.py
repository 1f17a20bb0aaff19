"""Error types shared across the library, and the refusals every module
makes: an index not an int in its range, a number not an int or a
Fraction, a record field not a tuple, a record over a group of the wrong
kind, and an argument over another group.  Each is written once here, so
it reads the same everywhere."""

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


def rational(value, what):
    """(numerator, denominator) in lowest terms of an int, not a bool, or a
    Fraction, which exists only once fractions is loaded; refuse the rest."""
    if value.__class__ is int:
        return value, 1
    fractions = sys.modules.get("fractions")
    if fractions is not None and value.__class__ is fractions.Fraction:
        return value.as_integer_ratio()
    raise DomainError("%s is an int or a Fraction, not %s"
                      % (what, value.__class__.__name__))


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


def tuple_field(value, what):
    """Refuse a record field that is not a tuple, which could not hash."""
    if not isinstance(value, tuple):
        raise DomainError("%s must be a tuple" % what)


_GROUP_KINDS = {"LexGroup": "a lex group", "OmegaGroup": "an omega group"}


def group_kind(group, cls, what):
    """Refuse a record over a group that is not a cls, before the record
    reads the group's fields."""
    if not isinstance(group, cls):
        raise DomainError("%s needs %s" % (what, _GROUP_KINDS[cls.__name__]))


def same_group(x, group, what="element"):
    """Refuse an x whose group is not this group.  The identity test comes
    first: one group object is usually shared, and `!=` on two records
    always runs the Python-level `Record.__eq__`."""
    if x.group is not group and x.group != group:
        raise DomainError("%s belongs to a different group" % what)

"""Error types shared across the library, and the two refusals that every
module makes: an index that is not an int, and an argument over another
group.  Each is written once here, so each reads the same everywhere."""


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


def same_group(x, group, what="element"):
    """Refuse an x whose group is not this group.  The identity test comes
    first: one group object is usually shared, and `!=` on two records
    always runs the Python-level `Record.__eq__`."""
    if x.group is not group and x.group != group:
        raise DomainError("%s belongs to a different group" % what)

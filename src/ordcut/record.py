"""Immutable slotted records, the base of ordcut's value classes.

A record class names its fields in `__slots__` and writes its own
`__init__(self, field, ...)`: it stores each field with object.__setattr__
and, where the class has checks, ends with `self.__post_init__()`.  `==`
and `hash` go by class and fields, `repr` reads Name(field=value, ...), and
a record pickles and copies through its class's `__init__`, so a rebuilt
record is checked again.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name)
                                     for name in self.__slots__)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % self.__class__.__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % self.__class__.__name__)

"""Immutable slotted records, the base of ordcut's value classes.

A record class names its fields in `__slots__` and, where it has checks,
defines `__post_init__`.  Its constructor comes from Record: it takes the
fields positionally, in `__slots__` order, stores each with
object.__setattr__ and ends with `self.__post_init__()` when the class
defines one.  `==` and `hash` go by class and fields, `repr` reads
Name(field=value, ...), and a record pickles and copies through its
class's `__init__`, so a rebuilt record is checked again.

Each constructor is a closure over its class's field names, with one body
per field count, and runs as fast as a hand-written `__init__`.  A body
that loops over the fields made a record take 1.3 to 2 times as long to
build, and an `__init__` compiled from source text per class would be
compiled again at every cold start, since no bytecode cache holds it.
"""

from operator import attrgetter

_set = object.__setattr__


def _init(names, check):
    """The positional `__init__` of a record with these 1 to 4 fields; it
    calls `__post_init__` last when `check` is true."""
    if not 1 <= len(names) <= 4:
        raise TypeError("a record has 1 to 4 fields, not %d" % len(names))
    a, b, c, d = names + ("",) * (4 - len(names))

    def init1(self, w, /):
        _set(self, a, w)
        if check:
            self.__post_init__()

    def init2(self, w, x, /):
        _set(self, a, w)
        _set(self, b, x)
        if check:
            self.__post_init__()

    def init3(self, w, x, y, /):
        _set(self, a, w)
        _set(self, b, x)
        _set(self, c, y)
        if check:
            self.__post_init__()

    def init4(self, w, x, y, z, /):
        _set(self, a, w)
        _set(self, b, x)
        _set(self, c, y)
        _set(self, d, z)
        if check:
            self.__post_init__()

    return (init1, init2, init3, init4)[len(names) - 1]


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls.__init__ = _init(cls.__slots__, hasattr(cls, "__post_init__"))
        cls.__init__.__qualname__ = cls.__qualname__ + ".__init__"
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

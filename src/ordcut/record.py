"""Immutable slotted records, the base of ordcut's value classes.

A record class names its fields in `__slots__` and, where it has checks,
defines `__post_init__`.  Its constructor comes from Record: it takes the
fields positionally, in `__slots__` order (a keyword or a wrong count is a
TypeError), stores each through its slot descriptor and ends with
`self.__post_init__()` when the class defines one.  `==` and `hash` go by
class and fields, so `AllBelow(g) != AllAbove(g)`; `repr` reads
Name(field=value, ...); setting or deleting a field raises AttributeError;
and a record pickles and copies through its class's `__init__`, so a
rebuilt record is checked again.

`cls.trusted(...)` takes the same fields but makes the record without
`__post_init__`, for inputs that already pass it; tests/test_source.py
lists its callers, each with its reason.

Each constructor is a closure over its class and the `__set__` of each
field's slot descriptor, bound once per class, with one body per field
count (1 to 4): `__init__` runs as fast as a hand-written one, and
`trusted` as fast as a class whose `__init__` has no check.  A body that
loops over the fields made a record take 1.3 to 2 times as long to build;
storing through `object.__setattr__` and the field name costs a lookup of
the name per field; and an `__init__` compiled from source text per class
would be compiled again at every cold start, since no bytecode cache holds
it.
"""

from operator import attrgetter


def _constructors(cls):
    """(`__init__`, `trusted`) of a record class with 1 to 4 fields.  The
    positional `__init__` stores the fields and calls `__post_init__` last
    where the class has one; `trusted` makes the instance, stores the fields
    and returns it, with no check."""
    names = cls.__slots__
    if not 1 <= len(names) <= 4:
        raise TypeError("a record has 1 to 4 fields, not %d" % len(names))
    check = hasattr(cls, "__post_init__")
    new = object.__new__
    # each field's slot descriptor stores it, past Record.__setattr__
    a, b, c, d = [cls.__dict__[name].__set__ for name in names] + \
        [None] * (4 - len(names))

    def init1(self, w, /):
        a(self, w)
        if check:
            self.__post_init__()

    def trusted1(w, /):
        self = new(cls)
        a(self, w)
        return self

    def init2(self, w, x, /):
        a(self, w)
        b(self, x)
        if check:
            self.__post_init__()

    def trusted2(w, x, /):
        self = new(cls)
        a(self, w)
        b(self, x)
        return self

    def init3(self, w, x, y, /):
        a(self, w)
        b(self, x)
        c(self, y)
        if check:
            self.__post_init__()

    def trusted3(w, x, y, /):
        self = new(cls)
        a(self, w)
        b(self, x)
        c(self, y)
        return self

    def init4(self, w, x, y, z, /):
        a(self, w)
        b(self, x)
        c(self, y)
        d(self, z)
        if check:
            self.__post_init__()

    def trusted4(w, x, y, z, /):
        self = new(cls)
        a(self, w)
        b(self, x)
        c(self, y)
        d(self, z)
        return self

    k = len(names) - 1
    return (init1, init2, init3, init4)[k], \
        (trusted1, trusted2, trusted3, trusted4)[k]


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        init, make = _constructors(cls)
        init.__qualname__ = cls.__qualname__ + ".__init__"
        make.__qualname__ = cls.__qualname__ + ".trusted"
        cls.__init__, cls.trusted = init, staticmethod(make)
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

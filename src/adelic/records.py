"""Immutable value records.

The package's value classes (fields, elements, places, place sets, adeles,
ideals) list their fields in `__slots__` and set them once, in `__init__`,
through `object.__setattr__`.  `Record` refuses any later assignment and
prints a record as `Name(field=value, ...)`.  Two records are equal when
they are of the same class and their field tuples are equal, and a record
hashes as its field tuple, read by one `operator.attrgetter` per class.

A class that lists slots and writes no `__init__` gets a generated
`__init__(self, <slots in order>)`: the code of the template below for its
field count, with the names renamed to its slots, so a record has at most
six fields.  Construction is hot, so the body is one bound
`object.__setattr__` per slot, not a loop: a `QPlaceSet` took about 620 ns
to build this way, 700 ns with a hand-written `__init__` and 1 050 ns with
a loop (min of 7 x 300 000 calls, Python 3.11, 2-core Linux container).
Compiling a body from source per class, as `collections.namedtuple` does,
cost about 80 us per class at import and 0.7 ms (27 %) of the local-census
benchmark's set-up.

One exception is measured.  `NumberField` validates its polynomial and
caches its hash, so it writes its own `__init__`: fields key most caches
and are hashed about nine times as often as all other records together.
"""

from __future__ import annotations

from operator import attrgetter
from types import FunctionType


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        slots = cls.__dict__.get("__slots__")
        if slots:  # a subclass adding no slots keeps its parent's fields
            fields = attrgetter(*slots)
            cls._fields = fields if len(slots) > 1 else \
                staticmethod(lambda record: (fields(record),))
            if "__init__" not in cls.__dict__:
                cls.__init__ = _slot_init(cls, slots)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


_setattr = object.__setattr__


# The generated `__init__`s, one per field count, before renaming
def _init_1(self, a):
    _setattr(self, "a", a)


def _init_2(self, a, b):
    _setattr(self, "a", a)
    _setattr(self, "b", b)


def _init_3(self, a, b, c):
    _setattr(self, "a", a)
    _setattr(self, "b", b)
    _setattr(self, "c", c)


def _init_4(self, a, b, c, d):
    _setattr(self, "a", a)
    _setattr(self, "b", b)
    _setattr(self, "c", c)
    _setattr(self, "d", d)


def _init_5(self, a, b, c, d, e):
    _setattr(self, "a", a)
    _setattr(self, "b", b)
    _setattr(self, "c", c)
    _setattr(self, "d", d)
    _setattr(self, "e", e)


def _init_6(self, a, b, c, d, e, f):
    _setattr(self, "a", a)
    _setattr(self, "b", b)
    _setattr(self, "c", c)
    _setattr(self, "d", d)
    _setattr(self, "e", e)
    _setattr(self, "f", f)


_TEMPLATES = (_init_1, _init_2, _init_3, _init_4, _init_5, _init_6)


def _slot_init(cls, slots):
    """`__init__(self, *slots)` setting each slot from its argument."""
    code = _TEMPLATES[len(slots) - 1].__code__
    rename = dict(zip("abcdef", slots))
    init = FunctionType(code.replace(
        co_name="__init__", co_varnames=("self", *slots),
        co_consts=tuple(rename.get(c, c) for c in code.co_consts),
    ), globals(), "__init__")
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init

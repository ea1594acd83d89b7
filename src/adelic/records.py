"""Immutable value records.

The package's value classes (fields, elements, places, place sets, adeles,
ideals) list their fields in `__slots__` and set them once, in `__init__`,
through `object.__setattr__`.  `Record` refuses any later assignment and
prints a record as `Name(field=value, ...)`.  Two records are equal when
they are of the same class and their field tuples are equal, and a record
hashes as its field tuple, read by one `operator.attrgetter` per class.

Two exceptions are measured.  `NumberField` caches its hash: fields key
most caches and are hashed about nine times as often as all other records
together.  Each class keeps an explicit `__init__`: a generic one made
building place sets and elements 1.5 to 2.3 times slower.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        slots = cls.__dict__.get("__slots__")
        if slots:  # a subclass adding no slots keeps its parent's fields
            fields = attrgetter(*slots)
            cls._fields = fields if len(slots) > 1 else \
                staticmethod(lambda record: (fields(record),))

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

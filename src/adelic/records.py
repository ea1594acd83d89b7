"""Immutable value records.

The package's value classes (fields, elements, places, place sets, adeles,
ideals) list their fields in `__slots__` and set them once, in `__init__`,
through `object.__setattr__`.  `Record` refuses any later assignment and
prints a record as `Name(field=value, ...)`.  Each class writes its own
`__eq__` (NotImplemented for another class, else the field tuples
compared) and `__hash__` (the hash of the field tuple): a shared version
reading the fields by name is about three times slower on the warm paths
that compare and hash fields and elements.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

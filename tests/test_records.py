"""The package's value records: equality, hashing, printing and
immutability, for every record class."""

import ast
import importlib
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import adelic
from adelic.adeles import Adele, TailPoly, one_adele
from adelic.config import Settings
from adelic.localfields import LocalElement, embed
from adelic.numberfields import FieldElement, NumberField, RATIONALS
from adelic.places import (
    ArchimedeanPlace,
    FinitePlace,
    archimedean_places,
    factor_prime,
    place_above,
)
from adelic.placesets import KPlaceSet, QPlaceSet, finite_qset, finite_set
from adelic.records import Record
from adelic.spectrum import (
    ClosedIdeal,
    Constraint,
    LevelIdeal,
    PrimeIdeal,
    closed_ideal,
    restrict_to_level,
    zero_at,
)

from conftest import CUBE2, GAUSS

_P5 = "Place(p=5, e=1, f=1, i=0)"

# (class, builder of one record, builder of a different one, its repr)
CASES = [
    (Settings, lambda: Settings(prime_bound=8), lambda: Settings(10_000),
     "Settings(prime_bound=8)"),
    (NumberField, lambda: NumberField((1, 0, 1)), lambda: CUBE2, "NumberField([1, 0, 1])"),
    (FieldElement, lambda: GAUSS.element(1, Fraction(1, 2)), lambda: GAUSS.one(),
     "<1,1/2 in deg-2 field>"),
    (FinitePlace, lambda: place_above(RATIONALS, 5, 0), lambda: place_above(RATIONALS, 7, 0), _P5),
    (ArchimedeanPlace, lambda: archimedean_places(CUBE2)[1], lambda: archimedean_places(CUBE2)[0],
     "Place(inf:1, complex)"),
    (QPlaceSet, lambda: finite_qset([5]), lambda: finite_qset([7]),
     "q{ctx[] cells[] plus[5] minus[]}"),
    (KPlaceSet, lambda: finite_set(GAUSS, factor_prime(GAUSS, 5)[:1]),
     lambda: finite_set(GAUSS, factor_prime(GAUSS, 5)[1:]),
     "k{field[1,0,1] 1:q{ctx[] cells[] plus[5] minus[]}}"),
    (LocalElement, lambda: embed(RATIONALS.element(Fraction(1, 2)), place_above(RATIONALS, 5), 3),
     lambda: embed(RATIONALS.element(2), place_above(RATIONALS, 5), 3),
     "Local(v=0, unit=[63] mod 5^3)"),
    (TailPoly, lambda: TailPoly.constant(RATIONALS.element(2)), lambda: TailPoly.zero(RATIONALS),
     "Tail(2)"),
    (Adele, lambda: one_adele(RATIONALS), lambda: one_adele(GAUSS),
     "adele{field[0,1] arch[1] exc[] ovr[] tail[1]}"),
    (PrimeIdeal, lambda: zero_at(place_above(RATIONALS, 5)),
     lambda: zero_at(place_above(RATIONALS, 7)), f"PrimeIdeal(zero_at {_P5})"),
    (LevelIdeal,
     lambda: restrict_to_level(zero_at(place_above(RATIONALS, 5)),
                               [place_above(RATIONALS, 5), *archimedean_places(RATIONALS)]),
     lambda: restrict_to_level(zero_at(place_above(RATIONALS, 5)), archimedean_places(RATIONALS)),
     "LevelIdeal(zero_at, S_f=[(5, 0)], max=True, min=True)"),
    (Constraint, lambda: Constraint(place_above(RATIONALS, 5), RATIONALS.one(), 3),
     lambda: Constraint(place_above(RATIONALS, 5), RATIONALS.one(), 2),
     f"Constraint(place={_P5}, target=<1 in deg-1 field>, min_valuation=3)"),
    (ClosedIdeal, lambda: closed_ideal(RATIONALS, [place_above(RATIONALS, 5)]),
     lambda: closed_ideal(RATIONALS, [place_above(RATIONALS, 7)]),
     "ClosedIdeal(field=NumberField([0, 1]), finite_part=q{ctx[] cells[] plus[5] minus[]}, "
     "arch_part=())"),
]


def _fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__
                 if not name.startswith("_"))


@pytest.mark.parametrize("cls,make,make_other,text", CASES, ids=[c[0].__name__ for c in CASES])
def test_records_compare_hash_and_print_as_their_fields(cls, make, make_other, text):
    x = make()
    assert type(x) is cls
    twin = cls(*_fields(x))
    assert twin is not x and twin == x and not twin != x
    assert hash(twin) == hash(x) == hash(_fields(x))
    assert make_other() != x
    # a class with the same field values is another record
    lookalike = type(cls.__name__, (cls,), {"__slots__": ()})(*_fields(x))
    assert lookalike != x and x != lookalike
    assert repr(x) == text
    for name in (type(x).__slots__[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


def _records():
    """Every record class of the package."""
    for module in pkgutil.iter_modules(adelic.__path__):
        importlib.import_module(f"adelic.{module.name}")
    records, todo = [], Record.__subclasses__()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("adelic."):
            records.append(cls)
    return records


def test_every_record_takes_the_shared_rule_and_has_a_case():
    """Equality and hashing come from `Record`, save `NumberField`'s cached
    hash; no record is ordered; and each record class has a row in CASES,
    so its equality, hash and repr are checked above."""
    records = _records()
    assert [cls.__qualname__ for cls in records if cls is not NumberField
            and {"__eq__", "__hash__"} & cls.__dict__.keys()] == []
    assert [cls.__qualname__ for cls in [Record, *records]
            if {"__lt__", "__le__", "__gt__", "__ge__"} & cls.__dict__.keys()] == []
    assert sorted(cls.__qualname__ for cls in set(records) - {case[0] for case in CASES}) == []


def test_every_record_but_number_field_takes_its_init_from_its_slots():
    """Only `NumberField` writes an `__init__`; every other record's is the
    one `Record` generates, `(self, *slots)`.  The source is read because a
    generated `__init__` sits in the class's `__dict__` too."""
    records = _records()
    written = []
    for module in {cls.__module__ for cls in records}:
        path = Path(importlib.import_module(module).__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    for item in node.body):
                written.append(node.name)
    assert sorted({cls.__name__ for cls in records} & set(written)) == ["NumberField"]
    for cls in records:
        if cls is not NumberField:
            assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
            assert list(inspect.signature(cls.__init__).parameters) == \
                ["self", *cls.__slots__]

"""Session registry of field extensions of the rationals.

Splitting-class atoms refer to registered extensions, and free
ultrafilters resolve their selector cells in registration order, so the
registry must be populated before ultrafilter queries begin (register
everything up front).  Queries mutate shared state and are not
thread-safe: one may move a free ultrafilter's witness and extend its
chain of selected classes, and it writes the module-level cache of
Hensel lifts in `localfields`.
"""

from __future__ import annotations

from .numberfields import NumberField, RATIONALS

_REGISTRY: list[NumberField] = []


def ensure_registered(field: NumberField) -> NumberField:
    """Idempotently add an extension of the rationals to the registry."""
    if field == RATIONALS:
        return field
    if field not in _REGISTRY:
        _REGISTRY.append(field)
    return field


def registered_fields() -> tuple[NumberField, ...]:
    return tuple(_REGISTRY)


def clear_registry() -> None:
    _REGISTRY.clear()

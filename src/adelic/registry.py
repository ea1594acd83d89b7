"""Session registry of field extensions of the rationals.

Splitting-class atoms refer to registered extensions, and free
ultrafilters resolve their selector cells in registration order, so the
registry must be populated before ultrafilter queries begin (register
everything up front).  `SELECTORS` holds each free rational
ultrafilter's `[witness, resolved fields]`; `clear_registry` drops it
with the fields and every cache marked `dropped_on_clear`.  Queries
mutate shared state and are not thread-safe: one may move a witness and
resolve more fields, and it writes the Hensel lifts of `localfields`.
"""

from __future__ import annotations

from .numberfields import NumberField, RATIONALS

_REGISTRY: dict[NumberField, None] = {}  # insertion-ordered
SELECTORS: dict = {}
_CACHES: list = []


def ensure_registered(field: NumberField) -> NumberField:
    """Idempotently add an extension of the rationals to the registry."""
    if field != RATIONALS:
        _REGISTRY.setdefault(field)
    return field


def registered_fields() -> tuple[NumberField, ...]:
    return tuple(_REGISTRY)


def dropped_on_clear(cache):
    """Mark an `lru_cache` whose answers read the selector state."""
    _CACHES.append(cache)
    return cache


def clear_registry() -> None:
    _REGISTRY.clear()
    SELECTORS.clear()
    for cache in _CACHES:
        cache.cache_clear()

"""Desk-scale tuning knobs, shared by the library and the CLI."""

from __future__ import annotations

from .records import Record


class Settings(Record):
    """Numeric limits for free-ultrafilter witnesses.

    prime_bound: a free ultrafilter looks for its witness prime, and for
        each later move of it, among the primes below this bound, read
        when it is built; the bound decides only refusal.
    """

    __slots__ = ("prime_bound",)

    def __init__(self, prime_bound: int = 10_000):
        object.__setattr__(self, "prime_bound", prime_bound)


DEFAULT = Settings()


def set_defaults(prime_bound: int) -> Settings:
    """Replace the process-wide settings (used by the CLI's global flags)."""
    global DEFAULT
    DEFAULT = Settings(prime_bound)
    return DEFAULT

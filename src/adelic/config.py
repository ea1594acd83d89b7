"""Desk-scale tuning knobs, shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    """Numeric limits for free-ultrafilter witnesses.

    prime_bound: a free ultrafilter looks for the witnesses of its
        selector among the primes below this bound, read when it is built.
    """

    prime_bound: int = 10_000


DEFAULT = Settings()


def set_defaults(**overrides) -> Settings:
    """Replace the process-wide settings (used by the CLI's global flags)."""
    global DEFAULT
    DEFAULT = Settings(**{**DEFAULT.__dict__, **overrides})
    return DEFAULT

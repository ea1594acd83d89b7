"""Desk-scale tuning knobs, shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    """Numeric limits for prime sampling.

    prime_bound: primes below this bound are sampled when deciding which
        splitting classes look infinite and when picking selector cells
        for free ultrafilters.
    """

    prime_bound: int = 10_000


DEFAULT = Settings()


def set_defaults(**overrides) -> Settings:
    """Replace the process-wide settings (used by the CLI's global flags)."""
    global DEFAULT
    DEFAULT = Settings(**{**DEFAULT.__dict__, **overrides})
    return DEFAULT

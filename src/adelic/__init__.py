"""Desk-scale adele rings and their prime spectra.

The package models the adele ring of the rationals and of monogenic
number fields with finite data: places and local completions, a decidable
Boolean algebra of place sets, ultrafilters on it, adele elements with
piecewise tail patterns, the catalogue of prime ideals with executable
membership oracles, and the fiber structure of the spectrum under a field
extension.
"""

from .config import Settings
from .errors import (
    AdelicError,
    DegenerateGenerator,
    FieldMismatch,
    InconsistentNeighborhood,
    InvalidLevel,
    NotAPartition,
    NotPrime,
    UnsupportedPrime,
    UnsupportedSelection,
)

__all__ = [
    "Settings",
    "AdelicError",
    "DegenerateGenerator",
    "FieldMismatch",
    "InconsistentNeighborhood",
    "InvalidLevel",
    "NotAPartition",
    "NotPrime",
    "UnsupportedPrime",
    "UnsupportedSelection",
]

"""Exception types shared across the package."""


class AdelicError(Exception):
    """Base class for all domain errors raised by this package."""


class NotPrime(AdelicError):
    """A composite (or invalid) number was passed where a prime is required."""


class UnsupportedPrime(AdelicError):
    """The prime cannot be handled in the monogenic model.

    Raised when the prime may divide the index of the polynomial order in
    the maximal order (so the factors of the defining polynomial mod p do
    not match the places above p), or when an integer needed as a prime
    reaches the desk-scale bound, prime or not.
    """


class FieldMismatch(AdelicError):
    """Operands belong to different number fields."""


class NotAPartition(AdelicError):
    """The given place sets are not pairwise disjoint or do not cover."""


class UnsupportedSelection(AdelicError):
    """No prime below the prime bound witnesses the anchor set of a free
    ultrafilter, or the part of it the selector must split next, so no
    splitting class is certified to select."""


class DegenerateGenerator(AdelicError):
    """The generator element handed to an intermediate prime ideal is a
    unit on the relevant ultrafilter set, which would collapse the ideal
    to the whole ring."""


class InconsistentNeighborhood(AdelicError):
    """A neighborhood constraint excludes the value 1."""


class InvalidLevel(AdelicError):
    """A finite level set must contain every archimedean place."""

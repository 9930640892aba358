"""Exception hierarchy shared across the library."""


class IsrlabError(Exception):
    """Base class for all library errors."""


class SingularMatrix(IsrlabError):
    """Raised when a GF(2) matrix expected to be invertible is not."""


class IdentityInput(IsrlabError):
    """Raised when an operation requires a non-identity input."""


class FamilyMismatch(IsrlabError):
    """Raised when group or algebra elements from different families meet."""


class GroupTooLarge(IsrlabError):
    """Raised when a truncated group exceeds the enumeration cap."""


class Overflow(IsrlabError):
    """Raised when an orbit, a closure BFS or a pair enumeration exceeds its cap."""


class DimensionOutOfRange(IsrlabError):
    """Raised when a scenario truncation parameter is unsupported."""


class ModulusOutOfRange(IsrlabError):
    """Raised when a lamplighter modulus is unsupported."""


class WindowNotNormalized(IsrlabError):
    """Raised when a conjugator does not map a support window into itself."""


class HypothesisViolated(IsrlabError):
    """Raised when the stated precondition of a structural check fails.

    The message names the failing hypothesis.
    """


class BlockNotInvariant(IsrlabError):
    """Raised when a partition block is not invariant under the permutation."""

"""Exception hierarchy with stable machine-readable error codes.

Every error that is part of an operation's contract carries a ``code``
string; the CLI surfaces these codes verbatim in its JSON output.
"""


class ToricKitError(Exception):
    """Base class for all contract errors raised by this package."""

    code = "ERROR"


class DimensionMismatchError(ToricKitError):
    code = "DIMENSION_MISMATCH"


class ZeroVectorError(ToricKitError):
    code = "ZERO_VECTOR"


class IndependenceViolationError(ToricKitError):
    """Cone generators are linearly dependent over the rationals."""

    code = "INDEPENDENCE_VIOLATION"


class UnderdeterminedError(ToricKitError):
    """A partial degree assignment leaves more than one kernel extension."""

    code = "UNDERDETERMINED"


class InconsistentError(ToricKitError):
    """A partial degree assignment admits no kernel extension at all."""

    code = "INCONSISTENT"


class NonIntegralError(ToricKitError):
    code = "NON_INTEGRAL"


class NonPositiveError(ToricKitError):
    code = "NON_POSITIVE"


class NotInKernelError(ToricKitError):
    code = "NOT_IN_KERNEL"


class NoPrimitiveCollectionError(ToricKitError):
    """The complex is a full simplex, so no minimal non-face exists."""

    code = "NO_PRIMITIVE_COLLECTION"


class DegreeMismatchError(ToricKitError):
    code = "DEGREE_MISMATCH"


class SizeMismatchError(ToricKitError):
    code = "SIZE_MISMATCH"


class NonKernelIncrementError(ToricKitError):
    """Degree increment does not annihilate the generator matrix."""

    code = "NON_KERNEL_INCREMENT"


class DuplicatePointsError(ToricKitError):
    code = "DUPLICATE_POINTS"


class Condition1FailedError(ToricKitError):
    """The ray generators do not span the ambient lattice over Z."""

    code = "CONDITION_1_FAILED"


class Condition2FailedError(ToricKitError):
    """No strictly positive integer relation among the ray generators."""

    code = "CONDITION_2_FAILED"


class KOutOfRangeError(ToricKitError):
    code = "K_OUT_OF_RANGE"


class DMinAboveCapError(ToricKitError):
    """d_min is above the cap of the stability replay."""

    code = "D_MIN_ABOVE_CAP"


class DegreeAboveCapError(ToricKitError):
    """A polynomial's degree is, or would become, above the degree cap."""

    code = "DEGREE_ABOVE_CAP"


class SubfanCountAboveCapError(ToricKitError):
    """A fan has more proper subfans than the subfan-count cap."""

    code = "SUBFAN_COUNT_ABOVE_CAP"


class DocumentError(ToricKitError):
    """A fan or polynomial-tuple document failed to parse."""

    code = "DOCUMENT_ERROR"

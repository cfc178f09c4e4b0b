"""Exception types shared across the toolkit.

Every error raised on a contract violation derives from ``PolarkitError``,
so callers (and the CLI) can distinguish "the math check failed" from
"the input was malformed".
"""


class PolarkitError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(PolarkitError):
    """A matrix expected to be Hermitian (within tolerance) is not."""


class HypothesisViolated(PolarkitError):
    """A stated precondition of a theorem-level check does not hold."""


class RelationViolated(PolarkitError):
    """The defining relation aa* in C*(1, a*a) fails for the input."""


class ModelMismatch(PolarkitError):
    """Two graded elements (or an element and a model) disagree on the model."""


class SupportViolation(PolarkitError):
    """A graded coefficient is not supported under its range projection."""


class ModelNotGraded(PolarkitError):
    """The model does not satisfy the hypotheses the graded calculus needs."""


class ZeroElement(PolarkitError):
    """Norm estimation was asked for an element that realizes to zero."""


class BandwidthOverflow(PolarkitError):
    """Repeated graded squaring would exceed the bandwidth cap."""


class UnsupportedPhi(PolarkitError):
    """Symbolic rewriting was requested for a non-affine substitution map."""


class DimensionTooSmall(PolarkitError):
    """The model is too small to evaluate the requested word faithfully."""


class InvalidSpec(PolarkitError, ValueError):
    """Malformed input: a matrix that is not square, numeric or finite, an
    argument out of its range, or an inconsistent model specification.
    Also a ``ValueError``, the type Python gives a malformed value."""


class ParseError(PolarkitError):
    """A JSON artifact, word literal or relation coefficient could not be parsed."""


class ConfigError(PolarkitError):
    """A suite configuration is malformed."""

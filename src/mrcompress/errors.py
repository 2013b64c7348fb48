"""Exception types shared across the package.

The CLI maps these onto process exit codes: shape/usage problems exit 2,
serialization problems exit 3, anything else exits 4.
"""


class MrcError(Exception):
    """Base class for all library errors."""


class ShapeError(MrcError):
    """Dimension, bounds, or precondition violation on array-shaped input."""


class DataError(MrcError):
    """Payload values rejected (non-finite, wrong element count)."""


class CoverageError(MrcError):
    """Multi-resolution levels overlap or leave gaps in the domain."""


class SamplingError(MrcError):
    """No admissible sample regions under the sampling-rate cap."""


class FormatError(MrcError):
    """Corrupt, truncated, or unsupported serialized stream."""

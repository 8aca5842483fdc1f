"""Exception types shared across the package.

Every concrete error is either a ConfigError (the command line exits with 2)
or a DataError (it exits with 3).
"""


class BellmixError(Exception):
    """Base class for all bellmix errors."""


class ConfigError(BellmixError):
    """A configuration, sweep spec or parameter is invalid."""


class DataError(BellmixError):
    """A data file, or a matrix or state computed from one, is invalid."""


class NonHermitianInput(DataError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class InvalidState(DataError):
    """A matrix is too far from a physical density matrix to be rounding error."""


class ZeroTrace(DataError):
    """Every eigenvalue was clipped to zero; nothing left to normalize."""


class NotNormalized(ConfigError):
    """The pump amplitudes beta and gamma do not have unit norm."""


class OutOfRange(ConfigError):
    """A scalar parameter lies outside its documented range."""


class DegenerateDenominator(DataError):
    """Both coincidence rates vanish; the visibility quotient is undefined."""


class IndexOutOfRange(DataError):
    """Setting index does not exist in the projector set."""


class MismatchedData(DataError):
    """Count records and projector set disagree."""


class NoCounts(DataError):
    """Reconstruction requested with zero total counts."""


class ConfigParse(ConfigError):
    """A configuration file could not be parsed."""


class InvalidConfig(ConfigError):
    """A configuration file parsed but contains invalid fields, or an output cannot be written."""


class DataParse(DataError):
    """A data file (counts, state, projectors, results) could not be parsed."""

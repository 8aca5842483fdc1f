"""Exception types shared across the package: four kinds under two exit codes.

Exit 2, a ConfigError: OutOfRange (a parameter value) or InvalidConfig (a config
file, or an output that cannot be written). Exit 3, a DataError: DataParse (a
data file or count table) or InvalidState (a matrix, or a figure computed from it).
"""


class BellmixError(Exception):
    """Base class for all bellmix errors."""


class ConfigError(BellmixError):
    """A configuration, sweep spec or parameter is invalid."""


class DataError(BellmixError):
    """A data file, or a matrix or state computed from one, is invalid."""


class OutOfRange(ConfigError):
    """A parameter value is outside its documented range, or not of its type."""


class InvalidConfig(ConfigError):
    """A config file or sweep spec cannot be read or used, or an output cannot be written."""


class DataParse(DataError):
    """A data file or count table is unreadable, malformed or empty, or misfits its projectors."""


class InvalidState(DataError):
    """A matrix is not Hermitian or physical, or a figure computed from it is undefined."""

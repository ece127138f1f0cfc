"""Exception hierarchy shared across the package.

Each family has a process exit code for a command line to map it to:
ConfigError -> 2, DataError -> 3, NumericalError -> 4.  The package
ships no command line yet, so nothing applies the mapping today.
"""


class EvidFuseError(Exception):
    """Base class for all package errors."""


class ConfigError(EvidFuseError):
    """Invalid or inconsistent run configuration."""


class DataError(EvidFuseError):
    """Malformed, missing, or inconsistent input data."""


class NumericalError(EvidFuseError):
    """A numerical operation produced an unusable result."""


class TrainingDivergedError(NumericalError):
    """Training produced a non-finite loss; last good parameters are attached."""

    def __init__(self, message, checkpoint=None, history=None):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.history = history

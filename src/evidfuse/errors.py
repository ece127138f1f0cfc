"""Exception hierarchy shared across the package.

Bad configuration, bad input data and numerical failure each raise a
subclass of ``EvidFuseError``, so a caller can tell them apart from
programming faults.
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
    """Training produced a non-finite loss; ``train`` names the epoch."""

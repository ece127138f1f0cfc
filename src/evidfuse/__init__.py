"""Belief-function multimodal classification toolkit."""

from .model import Frame
from .errors import (
    ConfigError,
    DataError,
    EvidFuseError,
    NumericalError,
    TrainingDivergedError,
)

__version__ = "0.1.0"

__all__ = [
    "Frame",
    "EvidFuseError",
    "ConfigError",
    "DataError",
    "NumericalError",
    "TrainingDivergedError",
    "__version__",
]

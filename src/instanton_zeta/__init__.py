"""Exact q-series and theta-function algebra for counting rank-2 sheaves
on a rational elliptic surface, with closed-form partition functions and a
numeric S-duality check."""

from .errors import (ConfigurationError, FractionalExponentError,
                     InstantonZetaError, IntegrityError, NotInvertibleError,
                     PoleAtOneError, PrecisionError, RingMismatchError,
                     TruncationError)
from .laurent import LPoly
from .qseries import DEFAULT_DENOM, LAURENT, QQ, QSeries

__all__ = [
    "ConfigurationError", "DEFAULT_DENOM", "FractionalExponentError",
    "InstantonZetaError", "IntegrityError", "LAURENT", "LPoly",
    "NotInvertibleError", "PoleAtOneError", "PrecisionError", "QQ",
    "QSeries", "RingMismatchError", "TruncationError",
]

__version__ = "0.1.0"

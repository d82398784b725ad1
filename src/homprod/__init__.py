"""Quantum CSS and GF(4) stabilizer codes built from boundary operators.

The package constructs codes from square boundary operators (matrices that
square to zero), combines them through the single-sector homological product,
and verifies the resulting code parameters by exhaustive search, exact
counting, encoding-circuit synthesis, and statistical sampling.
"""

from .errors import (
    BudgetError,
    DimensionError,
    FormatError,
    HomprodError,
    InvariantError,
    NoLogicalsError,
    ParameterError,
    PreconditionError,
    WitnessError,
)
from .gf2 import Basis, BitMatrix

__all__ = [
    "Basis",
    "BitMatrix",
    "BudgetError",
    "DimensionError",
    "FormatError",
    "HomprodError",
    "InvariantError",
    "NoLogicalsError",
    "ParameterError",
    "PreconditionError",
    "WitnessError",
]

__version__ = "0.1.0"

"""Typed errors and the summed-value record shared by the numeric layers.

Kept free of the float engine, and of dataclasses (which load inspect), so
that the exact subcommands, which only need to name these types, start light.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class DomainError(ValueError):
    """Request outside the summation or solution domain."""


class BranchCutError(ValueError):
    """Evaluation on a branch cut."""


class QuadratureError(ArithmeticError):
    """Tolerance not reached; carries the best value and its error estimate."""

    def __init__(self, message: str, value=None, err: float = math.inf):
        super().__init__(message)
        self.value = value
        self.err = err


class SumValue(NamedTuple):
    value: complex
    err: float
    meta: dict

"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2 (usage),
CapExceeded -> 3, as is Python's MemoryError, and BudgetNotMet and any
other CompileError -> 1.
"""

from __future__ import annotations


class CompileError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CompileError):
    """Malformed input: bad gate, circuit, matrix, file, or argument."""


class CapExceeded(CompileError):
    """A configured resource cap (qubits, net entries) was exceeded."""


class BudgetNotMet(CompileError):
    """An approximation could not reach the requested accuracy.

    Carries the best result found so that callers can inspect or reuse it.
    """

    def __init__(self, message: str, best_seq=None, achieved: float | None = None):
        super().__init__(message)
        self.best_seq = best_seq
        self.achieved = achieved

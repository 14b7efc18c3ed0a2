"""Shared exception types.

Everything raised on bad input derives from ValueError so callers that do
not care about the fine-grained class can catch the usual thing.
"""

from __future__ import annotations


class OddtownError(Exception):
    """Base class for all errors raised by this package."""


class GroundSetMismatchError(OddtownError, ValueError):
    """Operands live over different ground sets."""


class DuplicateMemberError(OddtownError, ValueError):
    """A set family was given the same member twice."""


class UniformityError(OddtownError, ValueError):
    """An operation requiring a k-uniform family got a non-uniform one."""


class ParityError(OddtownError, ValueError):
    """A member set has the wrong cardinality parity for the operation."""


class CapExceededError(OddtownError, ValueError):
    """An exact or enumerative mode was asked to exceed its configured cap."""


class InfeasibleSpecError(OddtownError, ValueError):
    """A search specification is contradictory or outside feasible limits."""


class FamilyFormatError(OddtownError, ValueError):
    """A family or block file could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class SteinerValidationError(OddtownError, ValueError):
    """A candidate block design violates the unique-cover condition."""

    def __init__(self, message: str, offending: tuple[int, ...] | None = None) -> None:
        self.offending = offending
        super().__init__(message)


class OracleSoundnessError(OddtownError, RuntimeError):
    """A search contradicted a proven bound or misreported a value, i.e. a bug."""


class CheckpointError(OddtownError, ValueError):
    """A search checkpoint is truncated, corrupt or for a different instance."""

"""Error types of the relational engine."""

from __future__ import annotations

from typing import Optional

__all__ = [
    "RelalgError",
    "SqlSyntaxError",
    "SchemaError",
    "IntegrityError",
    "ExecutionError",
    "SemanticError",
    "RecoveryError",
    "TransactionWarning",
]


class RelalgError(Exception):
    """Base class of every error raised by :mod:`repro.relalg`."""


class SqlSyntaxError(RelalgError):
    """Raised by the SQL lexer/parser on malformed statements."""

    def __init__(self, message: str, position: Optional[int] = None) -> None:
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


class SchemaError(RelalgError):
    """Raised for unknown tables/columns, duplicate definitions and type issues."""


class IntegrityError(RelalgError):
    """Raised when an insert violates a NOT NULL or primary-key constraint."""


class ExecutionError(RelalgError):
    """Raised when a statement fails during execution (e.g. type mismatch).

    Also covers transaction-protocol misuse: nested ``BEGIN``, ``COMMIT`` /
    ``ROLLBACK`` without an open transaction, and DDL inside a transaction.
    """


class SemanticError(ExecutionError):
    """Raised by static analysis before a statement executes.

    A :class:`SemanticError` marks a statement that would deterministically
    fail (or is ill-formed) for every row it touches — an incompatible
    comparison, a ``VARCHAR`` WHERE clause, an aggregate in a WHERE — so the
    engine rejects it at plan time, before any row is scanned or any
    :class:`QueryStats` counter moves.  Subclasses :class:`ExecutionError`
    because the statement *would* have failed during execution; callers that
    catch the broader class keep working.
    """

    def __init__(self, message: str, position: Optional[int] = None) -> None:
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


class RecoveryError(RelalgError):
    """Raised when the write-ahead log or its checkpoint cannot be recovered.

    Torn tails (a crash mid-append) are *not* errors — recovery truncates
    them; this error marks genuinely inconsistent durable state, e.g. a log
    whose generation is newer than the checkpoint that should cover it.
    """


class TransactionWarning(UserWarning):
    """Emitted when :meth:`Database.close` rolls back an open transaction.

    Closing mid-transaction is almost always an application bug (a missed
    COMMIT); the close path rolls the transaction back — never silently
    commits — and warns so the bug is visible without crashing shutdown.
    """

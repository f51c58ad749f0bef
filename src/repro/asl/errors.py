"""Error types and source locations for the ASL implementation.

All ASL errors carry a :class:`SourceLocation` so that tools embedding the
language (COSY, the ASL→SQL compiler) can point the specification author at
the offending line and column of the specification document.
"""

from __future__ import annotations

from typing import Optional

from repro.records import FrozenRecord, slot_setters

__all__ = [
    "SourceLocation",
    "AslError",
    "AslLexError",
    "AslParseError",
    "AslTypeError",
    "AslNameError",
    "AslEvaluationError",
]


class SourceLocation(FrozenRecord):
    """A position inside an ASL specification document."""

    __slots__ = ("line", "column", "filename")

    def __init__(self, line: int = 0, column: int = 0, filename: str = "<asl>") -> None:
        _location_line(self, line)
        _location_column(self, column)
        _location_filename(self, filename)

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    @classmethod
    def unknown(cls) -> "SourceLocation":
        """A placeholder location for synthesised nodes."""
        return cls(0, 0, "<synthesised>")


_location_line, _location_column, _location_filename = slot_setters(SourceLocation)


class AslError(Exception):
    """Base class of every error raised by the ASL implementation."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None) -> None:
        self.location = location
        self.bare_message = message
        if location is not None and location.line > 0:
            message = f"{location}: {message}"
        super().__init__(message)


class AslLexError(AslError):
    """Raised when the lexer encounters an invalid character or literal."""


class AslParseError(AslError):
    """Raised when the parser encounters a syntax error."""


class AslNameError(AslError):
    """Raised when a name (class, attribute, function, parameter) is unknown."""


class AslTypeError(AslError):
    """Raised by the semantic checker for type rule violations."""


class AslEvaluationError(AslError):
    """Raised by the reference evaluator (e.g. UNIQUE applied to a non-singleton)."""

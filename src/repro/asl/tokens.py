"""Token definitions for the ASL lexer."""

from __future__ import annotations

import enum
from typing import Union

from repro.asl.errors import SourceLocation
from repro.records import FrozenRecord, slot_setters

__all__ = ["TokenType", "Token", "KEYWORDS", "AGGREGATE_NAMES"]


class TokenType(enum.Enum):
    """Lexical token categories of ASL."""

    # literals / identifiers
    IDENT = "identifier"
    INT = "int literal"
    FLOAT = "float literal"
    STRING = "string literal"

    # keywords (case-insensitive in the source)
    PROPERTY = "PROPERTY"
    CLASS = "CLASS"
    ENUM = "ENUM"
    EXTENDS = "EXTENDS"
    SETOF = "SETOF"
    CONSTANT = "CONSTANT"
    LET = "LET"
    IN = "IN"
    CONDITION = "CONDITION"
    CONFIDENCE = "CONFIDENCE"
    SEVERITY = "SEVERITY"
    WHERE = "WHERE"
    WITH = "WITH"
    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    TRUE = "TRUE"
    FALSE = "FALSE"

    # punctuation / operators
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMICOLON = ";"
    COLON = ":"
    DOT = "."
    ARROW = "->"
    ASSIGN = "="
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"

    EOF = "end of input"


#: Keyword spelling (lower-case) to token type.  ASL keywords are recognised
#: case-insensitively: the paper itself writes both ``PROPERTY`` (grammar,
#: Figure 1) and ``Property`` (examples, Section 4.2).
KEYWORDS = {
    "property": TokenType.PROPERTY,
    "class": TokenType.CLASS,
    "enum": TokenType.ENUM,
    "extends": TokenType.EXTENDS,
    "setof": TokenType.SETOF,
    "constant": TokenType.CONSTANT,
    "let": TokenType.LET,
    "in": TokenType.IN,
    "condition": TokenType.CONDITION,
    "confidence": TokenType.CONFIDENCE,
    "severity": TokenType.SEVERITY,
    "where": TokenType.WHERE,
    "with": TokenType.WITH,
    "and": TokenType.AND,
    "or": TokenType.OR,
    "not": TokenType.NOT,
    "true": TokenType.TRUE,
    "false": TokenType.FALSE,
}

#: Built-in set/aggregate functions.  These are *not* keywords: ``MAX`` also
#: appears as the confidence/severity combinator and ``sum`` may be used as a
#: plain variable name (the paper's SublinearSpeedup property does exactly
#: that), so the parser resolves them contextually from IDENT tokens.
AGGREGATE_NAMES = frozenset({"UNIQUE", "SUM", "MIN", "MAX", "AVG", "COUNT"})


class Token(FrozenRecord):
    """One lexical token with its source location."""

    __slots__ = ("type", "text", "location", "value")

    def __init__(
        self,
        type: TokenType,
        text: str,
        location: SourceLocation,
        value: Union[int, float, str, None] = None,
    ) -> None:
        _token_type(self, type)
        _token_text(self, text)
        _token_location(self, location)
        _token_value(self, value)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.type.name}({self.text!r})"


_token_type, _token_text, _token_location, _token_value = slot_setters(Token)

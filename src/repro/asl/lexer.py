"""Lexer for the APART Specification Language.

The lexer converts an ASL specification document into a stream of
:class:`~repro.asl.tokens.Token` objects.  It supports

* ``//`` line comments and ``/* ... */`` block comments,
* integer, floating point and double-quoted string literals,
* the case-insensitive keywords listed in :data:`repro.asl.tokens.KEYWORDS`,
* the two-character operators ``==``, ``!=``, ``<=``, ``>=`` and ``->``.

Identifiers keep their original spelling; keyword recognition lower-cases the
spelling first because the paper uses both ``PROPERTY`` (grammar) and
``Property`` (examples).

One compiled regular expression finds every token; line and column numbers
come from the offsets of the newlines the skipped whitespace and comments
contain.
"""

from __future__ import annotations

import re
from typing import List

from repro.asl.errors import AslLexError, SourceLocation
from repro.asl.tokens import KEYWORDS, Token, TokenType

__all__ = ["Lexer", "tokenize"]

_OPERATORS = {
    "==": TokenType.EQ,
    "!=": TokenType.NE,
    "<=": TokenType.LE,
    ">=": TokenType.GE,
    "->": TokenType.ARROW,
    "=": TokenType.ASSIGN,
    "<": TokenType.LT,
    ">": TokenType.GT,
    "-": TokenType.MINUS,
    "/": TokenType.SLASH,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ";": TokenType.SEMICOLON,
    ":": TokenType.COLON,
    ".": TokenType.DOT,
    "+": TokenType.PLUS,
    "*": TokenType.STAR,
    "%": TokenType.PERCENT,
}

#: One match per token: skipped whitespace and comments, then one
#: alternative per token class: 1 a word with an ASCII start, 2 a number
#: (decimal digits), 3 a string, 4 an unterminated block comment, 5 an
#: operator, 6 a word with any other start, 7 the end of the input, 8 any
#: other character.  ``\w`` is ``str.isalnum`` plus ``_`` and ``\d`` is
#: ``str.isdecimal``; the rarer characters that ``str.isalpha`` or
#: ``str.isdigit`` classify differently are sorted out in group 6 and by
#: :func:`_scan_number`.
_TOKEN = re.compile(
    r"""
    [ \t\r\n]*(?:(?://[^\n]*|/\*[\s\S]*?\*/)[ \t\r\n]*)*
    (?:([A-Za-z_]\w*)
    |(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    |("(?:[^"\\\n]|\\[nt"\\])*")
    |(/\*)
    |(==|!=|<=|>=|->|[=<>\-/(){}\[\],;:.+*%])
    |([^\W\d]\w*)
    |(\Z)
    |([\s\S]))
    """,
    re.VERBOSE,
)
_STRING_BODY = re.compile(r'(?:[^"\\\n]|\\[nt"\\])*')
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _scan_number(source: str, pos: int) -> tuple:
    """End offset and float-ness of the literal at ``pos``, by ``str.isdigit``.

    The regular expression's number group only knows decimal digits; this
    exact scan runs when a literal touches any other character that could
    continue it (``²``, a letter, ``.``, ``_``).
    """
    length = len(source)

    def digits(at: int) -> int:
        while at < length and source[at].isdigit():
            at += 1
        return at

    def peek(at: int) -> str:
        return source[at] if at < length else ""

    end = digits(pos)
    is_float = False
    if peek(end) == "." and peek(end + 1).isdigit():
        is_float = True
        end = digits(end + 1)
    if peek(end) in ("e", "E") and (
        peek(end + 1).isdigit()
        or (peek(end + 1) in "+-" and peek(end + 2).isdigit())
    ):
        is_float = True
        end = digits(end + 2 if peek(end + 1) in "+-" else end + 1)
    return end, is_float


def _word(text: str, location: SourceLocation) -> Token:
    keyword = KEYWORDS.get(text.lower())
    if keyword is None:
        return Token(TokenType.IDENT, text, location, text)
    if keyword is TokenType.TRUE:
        return Token(keyword, text, location, True)
    if keyword is TokenType.FALSE:
        return Token(keyword, text, location, False)
    return Token(keyword, text, location)


def _number(
    source: str, start: int, end: int, is_float: bool, location: SourceLocation
) -> Token:
    text = source[start:end]
    after = source[end : end + 1]
    if after.isalpha() or after == "_":
        raise AslLexError(
            f"invalid character {after!r} after numeric literal {text!r}",
            location,
        )
    try:
        if is_float:
            return Token(TokenType.FLOAT, text, location, float(text))
        return Token(TokenType.INT, text, location, int(text))
    except ValueError:
        pass
    bad = next((char for char in text if char.isdigit() and not char.isdecimal()), None)
    if bad is not None:
        raise AslLexError(f"invalid digit {bad!r} in numeric literal", location) from None
    raise AslLexError(
        f"integer literal of {len(text)} digits is too long", location
    ) from None


class Lexer:
    """Tokenises one ASL specification document."""

    def __init__(self, source: str, filename: str = "<asl>") -> None:
        self.source = source
        self.filename = filename

    def tokens(self) -> List[Token]:
        """Tokenise the whole document and return the token list (incl. EOF)."""
        source = self.source
        filename = self.filename
        result: List[Token] = []
        append = result.append
        line = 1
        line_start = 0
        newline = source.find("\n")
        for match in _TOKEN.finditer(source):
            group = match.lastindex
            start = match.start(group)
            while 0 <= newline < start:
                line += 1
                line_start = newline + 1
                newline = source.find("\n", line_start)
            location = SourceLocation(line, start - line_start + 1, filename)
            text = match.group(group)
            if group == 1:
                append(_word(text, location))
            elif group == 5:
                append(Token(_OPERATORS[text], text, location))
            elif group == 2:
                end = match.end()
                after = source[end : end + 1]
                if after.isalnum() or after == "_" or after == ".":
                    end, is_float = _scan_number(source, start)
                else:
                    is_float = not text.isdecimal()
                append(_number(source, start, end, is_float, location))
            elif group == 3:
                text = text[1:-1]
                if "\\" in text:
                    text = _ESCAPE.sub(lambda escape: _ESCAPES[escape.group(1)], text)
                append(Token(TokenType.STRING, text, location, text))
            elif group == 7:
                break
            elif group == 6:
                char = text[0]
                if char.isdigit():
                    end, is_float = _scan_number(source, start)
                    append(_number(source, start, end, is_float, location))
                elif char.isalpha():
                    append(_word(text, location))
                else:
                    raise AslLexError(f"unexpected character {char!r}", location)
            elif group == 4:
                raise AslLexError("unterminated block comment", location)
            elif text == '"':
                self._string_error(start, location)
            else:
                raise AslLexError(f"unexpected character {text!r}", location)
        append(Token(TokenType.EOF, "", location))
        return result

    def _string_error(self, start: int, location: SourceLocation) -> None:
        """Raise the error of the malformed string literal at ``start``."""
        end = _STRING_BODY.match(self.source, start + 1).end()
        char = self.source[end : end + 1]
        if not char:
            raise AslLexError("unterminated string literal", location)
        if char == "\n":
            raise AslLexError("newline inside string literal", location)
        escape = self.source[end + 1 : end + 2]
        raise AslLexError(
            f"unknown escape sequence '\\{escape}'",
            SourceLocation(location.line, location.column + end - start, self.filename),
        )


def tokenize(source: str, filename: str = "<asl>") -> List[Token]:
    """Tokenise ``source`` and return the full token list (including EOF)."""
    return Lexer(source, filename).tokens()

"""Both lexers and parsers reproduce the recorded corpus token for token.

``tests/corpus/lexer_corpus.json`` was recorded with the character-at-a-time
lexers, before they were replaced by master-regex lexers.  It holds

* every SQL text passed to ``parse_sql`` and every ASL document passed to
  ``parse_asl`` by the tier-1 suite, ``benchmarks/run_bench.py`` and
  ``examples/*.py`` (deduplicated), and
* seeded mutations of those inputs in both languages: non-ASCII letters,
  Unicode decimal digits, ``²`` / ``½`` / ``③``, comments at the end of the
  input, unterminated strings and comments, ``1e``, ``.5``, ``1..2``, quote
  escapes, ``!=`` and 4,400-digit literals.

For each input the corpus records the outcome: the number of tokens and a
SHA-256 digest of the token stream (SQL: kind, text, value, position; ASL:
type, text, line, column, filename, value), then a digest of the canonical
parse-tree dump, or the exact error (class, message, position) of whichever
stage raised.  The dump is written here from the nodes' attribute values —
class name, then every attribute sorted by name, recursively, positions
included — so it does not depend on ``repr``.

``outcome_sql`` and ``outcome_asl`` compute an entry's outcome with the
current code; a mismatch names the input and both outcomes.
"""

from __future__ import annotations

import enum
import hashlib
import json
from pathlib import Path

import pytest

from repro.asl.lexer import tokenize
from repro.asl.parser import parse_asl
from repro.relalg.sqlparser import parse_sql, tokenize_sql

CORPUS = Path(__file__).parent / "corpus" / "lexer_corpus.json"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _attributes(node):
    """Every attribute ``node`` holds, as sorted ``(name, value)`` pairs."""
    names = set(getattr(node, "__dict__", ()))
    for klass in type(node).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        names.update((slots,) if isinstance(slots, str) else slots)
    missing = object()
    pairs = ((name, getattr(node, name, missing)) for name in sorted(names))
    return [(name, value) for name, value in pairs if value is not missing]


def canonical_dump(value) -> str:
    """A repr-independent text of a parse tree, positions included."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return f"{type(value).__name__}:{value!r}"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}[{','.join(map(canonical_dump, value))}]"
    fields = ",".join(
        f"{name}={canonical_dump(item)}" for name, item in _attributes(value)
    )
    return f"{type(value).__name__}({fields})"


def _error(exc: Exception, *position) -> list:
    return [type(exc).__name__, str(exc), *position]


def outcome_sql(text: str) -> list:
    """``["lex", error…]``, or the token count and digest then the parse."""
    try:
        tokens = tokenize_sql(text)
    except Exception as exc:  # noqa: BLE001 - the corpus records every outcome
        return ["lex", *_error(exc, getattr(exc, "position", None))]
    stream = [[t.kind, t.text, t.value, t.position] for t in tokens]
    lexed = [len(tokens), _digest(json.dumps(stream))]
    try:
        tree = parse_sql(text)
    except Exception as exc:  # noqa: BLE001
        return ["parse", *lexed, *_error(exc, getattr(exc, "position", None))]
    return ["ok", *lexed, _digest(canonical_dump(tree))]


def _location(exc: Exception) -> list:
    location = getattr(exc, "location", None)
    if location is None:
        return [None, None]
    return [location.line, location.column]


def outcome_asl(text: str, filename: str) -> list:
    """As :func:`outcome_sql`, for one ASL document."""
    try:
        tokens = tokenize(text, filename)
    except Exception as exc:  # noqa: BLE001
        return ["lex", *_error(exc, *_location(exc))]
    stream = [
        [t.type.name, t.text, t.location.line, t.location.column,
         t.location.filename, t.value]
        for t in tokens
    ]
    lexed = [len(tokens), _digest(json.dumps(stream))]
    try:
        tree = parse_asl(text, filename)
    except Exception as exc:  # noqa: BLE001
        return ["parse", *lexed, *_error(exc, *_location(exc))]
    return ["ok", *lexed, _digest(canonical_dump(tree))]


def _load():
    with CORPUS.open(encoding="utf-8") as handle:
        return json.load(handle)


_CORPUS = _load()


def _chunks(entries, size=250):
    return [entries[start:start + size] for start in range(0, len(entries), size)]


def _mismatches(entries, outcome):
    bad = []
    for entry in entries:
        *inputs, expected = entry
        got = outcome(*inputs)
        if got != expected:
            bad.append(f"{inputs[0][:120]!r}: recorded {expected}, got {got}")
    return bad


class TestLexerCorpus:
    def test_corpus_covers_both_languages_and_the_mutations(self):
        assert len(_CORPUS["sql"]) >= 2_800
        assert len(_CORPUS["asl"]) >= 1_050
        kinds = {entry[-1][0] for entry in _CORPUS["sql"] + _CORPUS["asl"]}
        assert kinds == {"ok", "lex", "parse"}

    @pytest.mark.parametrize("chunk", range(len(_chunks(_CORPUS["sql"]))))
    def test_sql_replay(self, chunk):
        bad = _mismatches(_chunks(_CORPUS["sql"])[chunk], outcome_sql)
        assert not bad, "\n".join(bad[:10])

    @pytest.mark.parametrize("chunk", range(len(_chunks(_CORPUS["asl"]))))
    def test_asl_replay(self, chunk):
        bad = _mismatches(_chunks(_CORPUS["asl"])[chunk], outcome_asl)
        assert not bad, "\n".join(bad[:10])

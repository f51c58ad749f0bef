"""Tests of the ASL lexer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asl import AslLexError, parse_asl, tokenize
from repro.asl.tokens import TokenType


def kinds(source):
    return [t.type for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.type is not TokenType.EOF]


class TestBasicTokens:
    def test_empty_input_gives_only_eof(self):
        assert kinds("") == [TokenType.EOF]

    def test_identifiers_and_keywords(self):
        assert kinds("class Region")[:2] == [TokenType.CLASS, TokenType.IDENT]

    def test_keywords_are_case_insensitive(self):
        # The paper writes both PROPERTY (grammar) and Property (examples).
        assert kinds("PROPERTY")[0] is TokenType.PROPERTY
        assert kinds("Property")[0] is TokenType.PROPERTY
        assert kinds("property")[0] is TokenType.PROPERTY

    def test_aggregate_names_are_plain_identifiers(self):
        assert kinds("UNIQUE SUM MAX")[:3] == [TokenType.IDENT] * 3

    def test_setof_keyword(self):
        assert kinds("setof ProgVersion")[:2] == [TokenType.SETOF, TokenType.IDENT]

    def test_numbers(self):
        tokens = tokenize("42 3.25 1e3 2.5e-2")
        assert tokens[0].type is TokenType.INT and tokens[0].value == 42
        assert tokens[1].type is TokenType.FLOAT and tokens[1].value == 3.25
        assert tokens[2].type is TokenType.FLOAT and tokens[2].value == 1000.0
        assert tokens[3].type is TokenType.FLOAT and tokens[3].value == 0.025

    def test_string_literals_with_escapes(self):
        token = tokenize(r'"hello \"world\"\n"')[0]
        assert token.type is TokenType.STRING
        assert token.value == 'hello "world"\n'

    def test_boolean_literals(self):
        tokens = tokenize("true FALSE")
        assert tokens[0].type is TokenType.TRUE and tokens[0].value is True
        assert tokens[1].type is TokenType.FALSE and tokens[1].value is False


class TestOperators:
    def test_two_character_operators(self):
        assert kinds("== != <= >= ->")[:5] == [
            TokenType.EQ, TokenType.NE, TokenType.LE, TokenType.GE, TokenType.ARROW,
        ]

    def test_single_character_operators(self):
        expected = [
            TokenType.LPAREN, TokenType.RPAREN, TokenType.LBRACE, TokenType.RBRACE,
            TokenType.PLUS, TokenType.MINUS, TokenType.STAR, TokenType.SLASH,
            TokenType.SEMICOLON, TokenType.COLON, TokenType.DOT, TokenType.COMMA,
            TokenType.ASSIGN, TokenType.LT, TokenType.GT,
        ]
        assert kinds("( ) { } + - * / ; : . , = < >")[: len(expected)] == expected

    def test_attribute_access_chain(self):
        assert texts("sum.Run.NoPe") == ["sum", ".", "Run", ".", "NoPe"]


class TestCommentsAndWhitespace:
    def test_line_comments_are_skipped(self):
        assert kinds("// a comment\n42")[:1] == [TokenType.INT]

    def test_block_comments_are_skipped(self):
        assert kinds("/* multi\nline */ 42")[:1] == [TokenType.INT]

    def test_unterminated_block_comment(self):
        with pytest.raises(AslLexError, match="unterminated block comment"):
            tokenize("/* never closed")

    def test_locations_track_lines_and_columns(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1 and tokens[0].location.column == 1
        assert tokens[1].location.line == 2 and tokens[1].location.column == 3


class TestLexErrors:
    def test_unexpected_character(self):
        with pytest.raises(AslLexError, match="unexpected character"):
            tokenize("a $ b")

    def test_unterminated_string(self):
        with pytest.raises(AslLexError, match="unterminated string"):
            tokenize('"no end')

    def test_newline_in_string(self):
        with pytest.raises(AslLexError, match="newline inside string"):
            tokenize('"line\nbreak"')

    def test_identifier_glued_to_number(self):
        with pytest.raises(AslLexError, match="after numeric literal"):
            tokenize("12abc")

    def test_unknown_escape(self):
        with pytest.raises(AslLexError, match="unknown escape"):
            tokenize(r'"\q"')

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("²", "invalid digit '²'"),
            ("1²", "invalid digit '²'"),
            ("3.③", "invalid digit '③'"),
            ("9" * 4400, "integer literal of 4400 digits is too long"),
        ],
        ids=["superscript", "digit-superscript", "circled", "4400-digits"],
    )
    def test_invalid_numeric_literals_raise_at_the_literal(self, literal, message):
        # ``str.isdigit`` accepts ``²`` and ``③`` but ``int`` does not, and
        # ``int`` refuses more than 4,300 digits: both used to escape as a
        # bare ValueError.
        source = f"PROPERTY P(Region r) {{\n  CONDITION: 1 > {literal};\n}}"
        with pytest.raises(AslLexError, match=message) as info:
            parse_asl(source)
        assert (info.value.location.line, info.value.location.column) == (2, 18)


class TestPaperFragments:
    def test_summary_function_fragment(self):
        source = "TotalTiming Summary(Region r, TestRun t) = UNIQUE({s IN r.TotTimes WITH s.Run==t});"
        token_kinds = kinds(source)
        assert TokenType.IN in token_kinds
        assert TokenType.WITH in token_kinds
        assert token_kinds[-1] is TokenType.EOF

    def test_condition_fragment(self):
        token_kinds = kinds("CONDITION: TotalCost>0; CONFIDENCE: 1;")
        assert token_kinds[0] is TokenType.CONDITION
        assert TokenType.CONFIDENCE in token_kinds

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30, deadline=None)
    def test_integer_values_round_trip(self, value):
        token = tokenize(str(value))[0]
        assert token.type is TokenType.INT
        assert token.value == value

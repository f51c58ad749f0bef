"""Tokenizer and recursive-descent parser for the SQL subset.

Supported statements::

    CREATE TABLE [IF NOT EXISTS] name (col TYPE [PRIMARY KEY | NOT NULL], …)
    CREATE INDEX name ON table (column) [ORDERED]
    DROP TABLE [IF EXISTS] name
    INSERT INTO table [(col, …)] VALUES (expr, …) [, (expr, …) …]
    DELETE FROM table [WHERE expr]
    BEGIN [TRANSACTION | WORK]
    COMMIT [TRANSACTION | WORK]
    ROLLBACK [TRANSACTION | WORK]
    SELECT [DISTINCT] items FROM table [alias] [, table [alias] …]
        [JOIN table [alias] ON expr …]
        [WHERE expr] [GROUP BY expr, …] [HAVING expr]
        [ORDER BY expr [ASC|DESC], …] [LIMIT n [OFFSET m]]

Expressions support literals, ``?`` placeholders, qualified column references,
arithmetic, comparisons, ``AND``/``OR``/``NOT``, ``IS [NOT] NULL``,
``[NOT] IN (…)``, ``expr BETWEEN lo AND hi`` (desugared at parse time to
``expr >= lo AND expr <= hi``, so it is sargable for range probes), function
calls (including ``COUNT(*)`` and ``COUNT(DISTINCT col)``) and parenthesised
scalar subqueries.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional

from repro.records import FrozenRecord, slot_setters
from repro.relalg.errors import SqlSyntaxError
from repro.relalg.sqlast import (
    BeginStatement,
    BinaryOperation,
    BinaryOperator,
    ColumnDef,
    ColumnRef,
    CommitStatement,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    FunctionExpr,
    InList,
    InsertStatement,
    IsNull,
    Join,
    Literal,
    OrderItem,
    Placeholder,
    RollbackStatement,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    SqlExpr,
    Star,
    Statement,
    TableRef,
    UnaryOperation,
)

__all__ = ["tokenize_sql", "SqlParser", "parse_sql"]


# --------------------------------------------------------------------------- #
# tokenizer
# --------------------------------------------------------------------------- #

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "ASC", "DESC", "AND", "OR", "NOT", "IN", "IS", "NULL", "AS",
    "DISTINCT", "BETWEEN", "JOIN", "INNER", "LEFT", "ON", "CREATE", "TABLE",
    "INDEX", "ORDERED", "DROP", "INSERT", "INTO", "VALUES", "DELETE",
    "PRIMARY", "KEY", "IF", "EXISTS", "TRUE", "FALSE", "BEGIN", "COMMIT",
    "ROLLBACK", "TRANSACTION", "WORK",
}

#: One match per token: skipped whitespace and ``--`` comments, then one
#: alternative per token class: 1 a word with an ASCII start, 2 a number
#: (decimal digits), 3 a string (``''`` escapes a quote), 4 an operator,
#: 5 a word with any other start, 6 the end of the input, 7 any other
#: character.  ``\s`` is ``str.isspace``, ``\w`` is ``str.isalnum`` plus
#: ``_`` and ``\d`` is ``str.isdecimal``; the rarer characters that
#: ``str.isalpha`` or ``str.isdigit`` classify differently are sorted out in
#: group 5.
_TOKEN = re.compile(
    r"""
    \s*(?:--[^\n]*\s*)*
    (?:([A-Za-z_]\w*)
    |(\d+(?:\.\d*)?(?:[eE](?:[+-]\d*|\d+))?|\.\d+(?:[eE](?:[+-]\d*|\d+))?)
    |('(?:[^']|'')*')(?!')
    |(<=|>=|<>|!=|[()+\-*/,.<>=?;])
    |([^\W\d]\w*)
    |(\Z)
    |([\s\S]))
    """,
    re.VERBOSE,
)


class SqlToken(FrozenRecord):
    __slots__ = ("kind", "text", "value", "position")

    def __init__(
        self, kind: str, text: str, value: Any = None, position: int = 0
    ) -> None:
        _token_kind(self, kind)  # KEYWORD | IDENT | NUMBER | STRING | OP | EOF
        _token_text(self, text)
        _token_value(self, value)
        _token_position(self, position)


_token_kind, _token_text, _token_value, _token_position = slot_setters(SqlToken)


def _number_value(text: str, start: int) -> Any:
    try:
        return int(text) if text.isdecimal() else float(text)
    except ValueError:
        pass
    if text.isdecimal():
        raise SqlSyntaxError(
            f"integer literal of {len(text)} digits is too long", start
        ) from None
    raise SqlSyntaxError(f"invalid numeric literal {text!r}", start) from None


def _bad_digit(char: str, start: int) -> SqlSyntaxError:
    return SqlSyntaxError(f"invalid digit {char!r} in numeric literal", start)


def tokenize_sql(sql: str) -> List[SqlToken]:
    """Tokenise one SQL statement."""
    tokens: List[SqlToken] = []
    append = tokens.append
    for match in _TOKEN.finditer(sql):
        group = match.lastindex
        text = match.group(group)
        start = match.start(group)
        if group == 1:
            upper = text.upper()
            if upper in _KEYWORDS:
                append(SqlToken("KEYWORD", upper, None, start))
            else:
                append(SqlToken("IDENT", text, None, start))
        elif group == 4:
            if text == "." and sql[start + 1 : start + 2].isdigit():
                raise _bad_digit(sql[start + 1], start)
            append(SqlToken("OP", "<>" if text == "!=" else text, None, start))
        elif group == 2:
            # A digit that is not a decimal digit (``²``) continues the literal
            # but cannot be converted: the literal is invalid.
            end = match.end()
            after = sql[end : end + 1]
            if after.isdigit():
                raise _bad_digit(after, start)
            if (after == "e" or after == "E") and "e" not in text and "E" not in text:
                if sql[end + 1 : end + 2].isdigit():
                    raise _bad_digit(sql[end + 1], start)
            append(SqlToken("NUMBER", text, _number_value(text, start), start))
        elif group == 3:
            value = text[1:-1].replace("''", "'")
            append(SqlToken("STRING", value, value, start))
        elif group == 6:
            break
        elif group == 5:
            char = text[0]
            if char.isdigit():
                raise _bad_digit(char, start)
            if not char.isalpha():
                raise SqlSyntaxError(f"unexpected character {char!r}", start)
            append(SqlToken("IDENT", text, None, start))
        elif text == "'":
            raise SqlSyntaxError("unterminated string literal", start)
        else:
            raise SqlSyntaxError(f"unexpected character {text!r}", start)
    append(SqlToken("EOF", "", None, len(sql)))
    return tokens


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #


class SqlParser:
    """Parses one SQL statement from a token list."""

    def __init__(self, tokens: List[SqlToken]) -> None:
        self.tokens = tokens
        self.index = 0
        self._placeholder_count = 0

    # -- plumbing -----------------------------------------------------------

    def _peek(self, offset: int = 0) -> SqlToken:
        # ``_advance`` never moves past EOF, so only a lookahead can overrun.
        if offset:
            return self.tokens[min(self.index + offset, len(self.tokens) - 1)]
        return self.tokens[self.index]

    def _advance(self) -> SqlToken:
        token = self.tokens[self.index]
        if token.kind != "EOF":
            self.index += 1
        return token

    def _at_keyword(self, *keywords: str) -> bool:
        token = self.tokens[self.index]
        return token.kind == "KEYWORD" and token.text in keywords

    def _accept_keyword(self, *keywords: str) -> Optional[SqlToken]:
        token = self.tokens[self.index]
        if token.kind == "KEYWORD" and token.text in keywords:
            return self._advance()
        return None

    def _expect_keyword(self, keyword: str) -> SqlToken:
        token = self.tokens[self.index]
        if token.kind != "KEYWORD" or token.text != keyword:
            raise SqlSyntaxError(
                f"expected {keyword}, found {token.text or 'end of input'!r}",
                token.position,
            )
        return self._advance()

    def _at_op(self, op: str) -> bool:
        token = self.tokens[self.index]
        return token.kind == "OP" and token.text == op

    def _accept_op(self, op: str) -> bool:
        token = self.tokens[self.index]
        if token.kind == "OP" and token.text == op:
            self.index += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        token = self.tokens[self.index]
        if token.kind != "OP" or token.text != op:
            raise SqlSyntaxError(
                f"expected {op!r}, found {token.text or 'end of input'!r}",
                token.position,
            )
        self._advance()

    def _expect_ident(self, context: str) -> str:
        token = self._peek()
        if token.kind == "IDENT":
            self._advance()
            return token.text
        # Allow non-reserved keywords to be used as identifiers where harmless.
        if token.kind == "KEYWORD" and token.text in ("KEY", "INDEX"):
            self._advance()
            return token.text.lower()
        raise SqlSyntaxError(
            f"expected an identifier {context}, found {token.text or 'end of input'!r}",
            token.position,
        )

    # -- entry point ----------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self._peek()
        if token.kind != "KEYWORD":
            raise SqlSyntaxError(
                f"expected a statement, found {token.text!r}", token.position
            )
        if token.text == "SELECT":
            statement: Statement = self.parse_select()
        elif token.text == "CREATE":
            statement = self._parse_create()
        elif token.text == "DROP":
            statement = self._parse_drop()
        elif token.text == "INSERT":
            statement = self._parse_insert()
        elif token.text == "DELETE":
            statement = self._parse_delete()
        elif token.text in ("BEGIN", "COMMIT", "ROLLBACK"):
            statement = self._parse_transaction()
        else:
            raise SqlSyntaxError(
                f"unsupported statement {token.text}", token.position
            )
        trailing = self._peek()
        if trailing.kind == "OP" and trailing.text == ";":  # pragma: no cover
            self._advance()
            trailing = self._peek()
        if trailing.kind != "EOF":
            raise SqlSyntaxError(
                f"unexpected trailing input {trailing.text!r}", trailing.position
            )
        return statement

    # -- DDL -------------------------------------------------------------------

    def _parse_create(self) -> Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            return self._parse_create_table()
        if self._accept_keyword("INDEX"):
            return self._parse_create_index()
        token = self._peek()
        raise SqlSyntaxError(
            f"expected TABLE or INDEX after CREATE, found {token.text!r}",
            token.position,
        )

    def _parse_create_table(self) -> CreateTableStatement:
        if_not_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        table = self._expect_ident("as the table name")
        self._expect_op("(")
        columns: List[ColumnDef] = []
        while True:
            name = self._expect_ident("as a column name")
            type_name = self._expect_ident("as the column type")
            nullable = True
            primary_key = False
            while True:
                if self._accept_keyword("PRIMARY"):
                    self._expect_keyword("KEY")
                    primary_key = True
                    nullable = False
                elif self._accept_keyword("NOT"):
                    self._expect_keyword("NULL")
                    nullable = False
                else:
                    break
            columns.append(
                ColumnDef(
                    name=name,
                    type_name=type_name,
                    nullable=nullable,
                    primary_key=primary_key,
                )
            )
            if not self._accept_op(","):
                break
        self._expect_op(")")
        return CreateTableStatement(
            table=table, columns=columns, if_not_exists=if_not_exists
        )

    def _parse_create_index(self) -> CreateIndexStatement:
        name = self._expect_ident("as the index name")
        self._expect_keyword("ON")
        table = self._expect_ident("as the table name")
        self._expect_op("(")
        column = self._expect_ident("as the indexed column")
        self._expect_op(")")
        ordered = self._accept_keyword("ORDERED") is not None
        return CreateIndexStatement(
            name=name, table=table, column=column, ordered=ordered
        )

    def _parse_drop(self) -> DropTableStatement:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        table = self._expect_ident("as the table name")
        return DropTableStatement(table=table, if_exists=if_exists)

    # -- DML -------------------------------------------------------------------

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident("as the table name")
        columns: List[str] = []
        if self._accept_op("("):
            while True:
                columns.append(self._expect_ident("as a column name"))
                if not self._accept_op(","):
                    break
            self._expect_op(")")
        self._expect_keyword("VALUES")
        rows: List[List[SqlExpr]] = []
        while True:
            self._expect_op("(")
            row: List[SqlExpr] = [self.parse_expression()]
            while self._accept_op(","):
                row.append(self.parse_expression())
            self._expect_op(")")
            rows.append(row)
            if not self._accept_op(","):
                break
        return InsertStatement(table=table, columns=columns, rows=rows)

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident("as the table name")
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        return DeleteStatement(table=table, where=where)

    # -- transactions -----------------------------------------------------------

    def _parse_transaction(self) -> Statement:
        token = self._advance()
        # The optional noise words are accepted and ignored, matching the
        # ``BEGIN WORK`` / ``COMMIT TRANSACTION`` spellings of the paper's
        # four backends.
        self._accept_keyword("TRANSACTION", "WORK")
        if token.text == "BEGIN":
            return BeginStatement()
        if token.text == "COMMIT":
            return CommitStatement()
        return RollbackStatement()

    # -- SELECT -----------------------------------------------------------------

    def parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        statement = SelectStatement()
        statement.distinct = self._accept_keyword("DISTINCT") is not None
        statement.items = self._parse_select_items()
        self._expect_keyword("FROM")
        statement.from_tables.append(self._parse_table_ref())
        while True:
            if self._accept_op(","):
                statement.from_tables.append(self._parse_table_ref())
                continue
            if self._at_keyword("JOIN", "INNER", "LEFT"):
                self._accept_keyword("INNER")
                if self._at_keyword("LEFT"):
                    # Both engines implement inner joins only; running an
                    # outer join as one would silently drop rows.
                    raise SqlSyntaxError(
                        "LEFT JOIN is not supported (only inner joins are)",
                        self._peek().position,
                    )
                self._expect_keyword("JOIN")
                table = self._parse_table_ref()
                on = None
                if self._accept_keyword("ON"):
                    on = self.parse_expression()
                statement.joins.append(Join(table=table, on=on))
                continue
            break
        if self._accept_keyword("WHERE"):
            statement.where = self.parse_expression()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            statement.group_by.append(self.parse_expression())
            while self._accept_op(","):
                statement.group_by.append(self.parse_expression())
        if self._accept_keyword("HAVING"):
            statement.having = self.parse_expression()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            statement.order_by.append(self._parse_order_item())
            while self._accept_op(","):
                statement.order_by.append(self._parse_order_item())
        if self._accept_keyword("LIMIT"):
            token = self._peek()
            if token.kind != "NUMBER" or not isinstance(token.value, int):
                raise SqlSyntaxError("LIMIT requires an integer", token.position)
            self._advance()
            statement.limit = int(token.value)
            if self._accept_keyword("OFFSET"):
                token = self._peek()
                if token.kind != "NUMBER" or not isinstance(token.value, int):
                    raise SqlSyntaxError(
                        "OFFSET requires an integer", token.position
                    )
                self._advance()
                statement.offset = int(token.value)
        return statement

    def _parse_select_items(self) -> List[SelectItem]:
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if self._at_op("*"):
            self._advance()
            return SelectItem(expr=Star())
        expr = self.parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("as the column alias")
        elif self._peek().kind == "IDENT":
            alias = self._advance().text
        return SelectItem(expr=expr, alias=alias)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_ident("as a table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("as the table alias")
        elif self._peek().kind == "IDENT":
            alias = self._advance().text
        return TableRef(name=name, alias=alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return OrderItem(expr=expr, ascending=ascending)

    # -- expressions --------------------------------------------------------------

    def parse_expression(self) -> SqlExpr:
        return self._parse_or()

    def _parse_or(self) -> SqlExpr:
        left = self._parse_and()
        while True:
            token = self._accept_keyword("OR")
            if token is None:
                return left
            right = self._parse_and()
            left = BinaryOperation(
                op=BinaryOperator.OR, left=left, right=right,
                position=token.position,
            )

    def _parse_and(self) -> SqlExpr:
        left = self._parse_not()
        while True:
            token = self._accept_keyword("AND")
            if token is None:
                return left
            right = self._parse_not()
            left = BinaryOperation(
                op=BinaryOperator.AND, left=left, right=right,
                position=token.position,
            )

    def _parse_not(self) -> SqlExpr:
        token = self._accept_keyword("NOT")
        if token is not None:
            return UnaryOperation(
                op="NOT", operand=self._parse_not(), position=token.position
            )
        return self._parse_predicate()

    def _parse_predicate(self) -> SqlExpr:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "OP" and token.text in ("=", "<>", "<", "<=", ">", ">="):
            self._advance()
            mapping = {
                "=": BinaryOperator.EQ,
                "<>": BinaryOperator.NE,
                "<": BinaryOperator.LT,
                "<=": BinaryOperator.LE,
                ">": BinaryOperator.GT,
                ">=": BinaryOperator.GE,
            }
            right = self._parse_additive()
            return BinaryOperation(
                op=mapping[token.text], left=left, right=right,
                position=token.position,
            )
        if self._at_keyword("BETWEEN"):
            # ``x BETWEEN lo AND hi`` desugars to ``x >= lo AND x <= hi`` at
            # parse time: downstream (analysis, planning, both executors) only
            # ever sees the sargable conjunction.  The bounds parse at the
            # additive level so the separating AND is not consumed by them.
            token = self._advance()
            lo = self._parse_additive()
            self._expect_keyword("AND")
            hi = self._parse_additive()
            return BinaryOperation(
                op=BinaryOperator.AND,
                left=BinaryOperation(
                    op=BinaryOperator.GE, left=left, right=lo,
                    position=token.position,
                ),
                right=BinaryOperation(
                    op=BinaryOperator.LE, left=left, right=hi,
                    position=token.position,
                ),
                position=token.position,
            )
        if self._at_keyword("IS"):
            self._advance()
            negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return IsNull(operand=left, negated=negated)
        if self._at_keyword("IN", "NOT"):
            negated = False
            if self._at_keyword("NOT"):
                # Only consume NOT when followed by IN ( ... ).
                if self._peek(1).kind == "KEYWORD" and self._peek(1).text == "IN":
                    self._advance()
                    negated = True
                else:
                    return left
            self._expect_keyword("IN")
            self._expect_op("(")
            items: List[SqlExpr] = [self.parse_expression()]
            while self._accept_op(","):
                items.append(self.parse_expression())
            self._expect_op(")")
            return InList(operand=left, items=tuple(items), negated=negated)
        return left

    def _parse_additive(self) -> SqlExpr:
        left = self._parse_multiplicative()
        while True:
            if self._at_op("+"):
                position = self._advance().position
                left = BinaryOperation(
                    op=BinaryOperator.ADD, left=left,
                    right=self._parse_multiplicative(), position=position,
                )
            elif self._at_op("-"):
                position = self._advance().position
                left = BinaryOperation(
                    op=BinaryOperator.SUB, left=left,
                    right=self._parse_multiplicative(), position=position,
                )
            else:
                return left

    def _parse_multiplicative(self) -> SqlExpr:
        left = self._parse_unary()
        while True:
            if self._at_op("*"):
                position = self._advance().position
                left = BinaryOperation(
                    op=BinaryOperator.MUL, left=left, right=self._parse_unary(),
                    position=position,
                )
            elif self._at_op("/"):
                position = self._advance().position
                left = BinaryOperation(
                    op=BinaryOperator.DIV, left=left, right=self._parse_unary(),
                    position=position,
                )
            else:
                return left

    def _parse_unary(self) -> SqlExpr:
        if self._at_op("-"):
            position = self._advance().position
            return UnaryOperation(
                op="-", operand=self._parse_unary(), position=position
            )
        return self._parse_primary()

    def _parse_primary(self) -> SqlExpr:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            return Literal(value=token.value)
        if token.kind == "STRING":
            self._advance()
            return Literal(value=token.value)
        if token.kind == "KEYWORD" and token.text == "NULL":
            self._advance()
            return Literal(value=None)
        if token.kind == "KEYWORD" and token.text in ("TRUE", "FALSE"):
            self._advance()
            return Literal(value=token.text == "TRUE")
        if token.kind == "OP" and token.text == "?":
            self._advance()
            placeholder = Placeholder(index=self._placeholder_count)
            self._placeholder_count += 1
            return placeholder
        if token.kind == "OP" and token.text == "(":
            self._advance()
            if self._at_keyword("SELECT"):
                select = self.parse_select()
                self._expect_op(")")
                return ScalarSubquery(select=select)
            expr = self.parse_expression()
            self._expect_op(")")
            return expr
        if token.kind == "IDENT":
            return self._parse_identifier()
        raise SqlSyntaxError(
            f"expected an expression, found {token.text or 'end of input'!r}",
            token.position,
        )

    def _parse_identifier(self) -> SqlExpr:
        token = self._advance()
        name = token.text
        # Function call.
        if self._at_op("("):
            self._advance()
            distinct = self._accept_keyword("DISTINCT") is not None
            args: List[SqlExpr] = []
            if self._at_op("*"):
                self._advance()
                args.append(Star())
            elif not self._at_op(")"):
                args.append(self.parse_expression())
                while self._accept_op(","):
                    args.append(self.parse_expression())
            self._expect_op(")")
            return FunctionExpr(
                name=name.upper(), args=tuple(args), distinct=distinct,
                position=token.position,
            )
        # Qualified column reference.
        if self._at_op("."):
            self._advance()
            if self._at_op("*"):
                self._advance()
                return Star(table=name)
            column = self._expect_ident("as a column name")
            return ColumnRef(name=column, table=name, position=token.position)
        return ColumnRef(name=name, position=token.position)


def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement."""
    return SqlParser(tokenize_sql(sql)).parse_statement()

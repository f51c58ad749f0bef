"""Recursive-descent parser for the APART Specification Language.

The parser accepts complete specification documents consisting of the data
model section (class, enum and constant declarations, specification
functions) and the property section (property declarations following the
grammar of Figure 1 in the paper).

Two deliberate disambiguations of the paper's grammar are applied:

* In the ``CONDITION`` clause, a top-level ``OR`` separates *conditions*
  (as in Figure 1); an ``OR`` that is meant to be part of a single condition
  expression must be parenthesised.  Both readings are equivalent for the
  question "does the property hold", they only differ in which condition
  identifier guards which confidence/severity entry.
* ``( identifier )`` at the start of a condition is treated as a condition
  identifier only when the following token starts a new expression; otherwise
  it is an ordinary parenthesised expression.

``MAX`` is resolved contextually: in a ``CONFIDENCE``/``SEVERITY`` clause it is
the combinator of Figure 1, in an expression position with a ``WHERE`` clause
it is the set aggregate, and with plain comma-separated arguments it is the
binary scalar maximum.
"""

from __future__ import annotations

from typing import List, Optional

from repro.asl.ast_nodes import (
    AggregateExpr,
    AslProgram,
    AttributeDecl,
    BinaryExpr,
    BinaryOp,
    BoolLiteral,
    ClassDecl,
    ConditionClause,
    ConstantDecl,
    EnumDecl,
    Expr,
    FloatLiteral,
    FunctionCall,
    FunctionDecl,
    GuardedExpr,
    Identifier,
    IntLiteral,
    LetDef,
    Param,
    PropertyDecl,
    SetComprehension,
    StringLiteral,
    TypeRef,
    UnaryExpr,
    UnaryOp,
    ValueSpec,
    AttributeAccess,
)
from repro.asl.errors import AslParseError
from repro.asl.lexer import tokenize
from repro.asl.tokens import AGGREGATE_NAMES, Token, TokenType

__all__ = ["Parser", "parse_asl", "parse_expression"]

_COMPARISON_OPS = {
    TokenType.EQ: BinaryOp.EQ,
    TokenType.NE: BinaryOp.NE,
    TokenType.LT: BinaryOp.LT,
    TokenType.LE: BinaryOp.LE,
    TokenType.GT: BinaryOp.GT,
    TokenType.GE: BinaryOp.GE,
}

_ADDITIVE_OPS = {TokenType.PLUS: BinaryOp.ADD, TokenType.MINUS: BinaryOp.SUB}
_MULTIPLICATIVE_OPS = {
    TokenType.STAR: BinaryOp.MUL,
    TokenType.SLASH: BinaryOp.DIV,
    TokenType.PERCENT: BinaryOp.MOD,
}

#: Token types that may start an expression; used to disambiguate condition
#: identifiers from parenthesised expressions.
_EXPRESSION_START = {
    TokenType.IDENT,
    TokenType.INT,
    TokenType.FLOAT,
    TokenType.STRING,
    TokenType.TRUE,
    TokenType.FALSE,
    TokenType.LPAREN,
    TokenType.LBRACE,
    TokenType.NOT,
    TokenType.MINUS,
}


class Parser:
    """Parses a token stream into an :class:`~repro.asl.ast_nodes.AslProgram`."""

    def __init__(self, tokens: List[Token], filename: str = "<asl>") -> None:
        self.tokens = tokens
        self.filename = filename
        self.index = 0

    # ------------------------------------------------------------------ #
    # token plumbing
    # ------------------------------------------------------------------ #

    def _peek(self, offset: int = 0) -> Token:
        # ``_advance`` never moves past EOF, so only a lookahead can overrun.
        if offset:
            return self.tokens[min(self.index + offset, len(self.tokens) - 1)]
        return self.tokens[self.index]

    def _at(self, token_type: TokenType, offset: int = 0) -> bool:
        if offset:
            return self._peek(offset).type is token_type
        return self.tokens[self.index].type is token_type

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def _expect(self, token_type: TokenType, context: str) -> Token:
        token = self.tokens[self.index]
        if token.type is not token_type:
            raise AslParseError(
                f"expected {token_type.value!r} {context}, found "
                f"{token.type.value!r} ({token.text!r})",
                token.location,
            )
        return self._advance()

    def _accept(self, token_type: TokenType) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.type is token_type:
            return self._advance()
        return None

    def _mark(self) -> int:
        return self.index

    def _reset(self, mark: int) -> None:
        self.index = mark

    # ------------------------------------------------------------------ #
    # document structure
    # ------------------------------------------------------------------ #

    def parse_program(self) -> AslProgram:
        """Parse a complete specification document."""
        declarations = []
        while not self._at(TokenType.EOF):
            declarations.append(self.parse_declaration())
        return AslProgram(declarations=declarations, filename=self.filename)

    def parse_declaration(self):
        """Parse one top-level declaration."""
        token = self._peek()
        if token.type is TokenType.CLASS:
            return self.parse_class()
        if token.type is TokenType.ENUM:
            return self.parse_enum()
        if token.type is TokenType.CONSTANT:
            return self.parse_constant()
        if token.type is TokenType.PROPERTY:
            return self.parse_property()
        if token.type in (TokenType.IDENT, TokenType.SETOF):
            return self.parse_function()
        raise AslParseError(
            f"expected a declaration (class, enum, constant, property or "
            f"function), found {token.text!r}",
            token.location,
        )

    # -- data model -------------------------------------------------------------

    def parse_type_ref(self) -> TypeRef:
        """Parse ``[setof] TypeName``."""
        location = self._peek().location
        is_set = self._accept(TokenType.SETOF) is not None
        name = self._expect(TokenType.IDENT, "as a type name").text
        return TypeRef(name=name, is_set=is_set, location=location)

    def parse_class(self) -> ClassDecl:
        """Parse ``class Name [extends Base] { attributes }``."""
        location = self._expect(TokenType.CLASS, "to start a class").location
        name = self._expect(TokenType.IDENT, "as the class name").text
        base = None
        if self._accept(TokenType.EXTENDS):
            base = self._expect(TokenType.IDENT, "as the base class name").text
        self._expect(TokenType.LBRACE, "to open the class body")
        attributes: List[AttributeDecl] = []
        while not self._at(TokenType.RBRACE):
            attr_location = self._peek().location
            attr_type = self.parse_type_ref()
            attr_name = self._expect(TokenType.IDENT, "as the attribute name").text
            self._expect(TokenType.SEMICOLON, "after the attribute declaration")
            attributes.append(
                AttributeDecl(type=attr_type, name=attr_name, location=attr_location)
            )
        self._expect(TokenType.RBRACE, "to close the class body")
        self._accept(TokenType.SEMICOLON)
        return ClassDecl(name=name, attributes=attributes, base=base, location=location)

    def parse_enum(self) -> EnumDecl:
        """Parse ``enum Name { Member, Member, ... }``."""
        location = self._expect(TokenType.ENUM, "to start an enum").location
        name = self._expect(TokenType.IDENT, "as the enum name").text
        self._expect(TokenType.LBRACE, "to open the enum body")
        members: List[str] = []
        while not self._at(TokenType.RBRACE):
            members.append(self._expect(TokenType.IDENT, "as an enum member").text)
            if not self._accept(TokenType.COMMA):
                break
        self._expect(TokenType.RBRACE, "to close the enum body")
        self._accept(TokenType.SEMICOLON)
        return EnumDecl(name=name, members=members, location=location)

    def parse_constant(self) -> ConstantDecl:
        """Parse ``constant type Name = expr;``."""
        location = self._expect(TokenType.CONSTANT, "to start a constant").location
        const_type = self.parse_type_ref()
        name = self._expect(TokenType.IDENT, "as the constant name").text
        self._expect(TokenType.ASSIGN, "after the constant name")
        value = self.parse_expression()
        self._expect(TokenType.SEMICOLON, "after the constant definition")
        return ConstantDecl(type=const_type, name=name, value=value, location=location)

    def parse_function(self) -> FunctionDecl:
        """Parse ``ReturnType Name(params) = expr;``."""
        location = self._peek().location
        return_type = self.parse_type_ref()
        name = self._expect(TokenType.IDENT, "as the function name").text
        self._expect(TokenType.LPAREN, "to open the parameter list")
        params = self.parse_param_list()
        self._expect(TokenType.RPAREN, "to close the parameter list")
        self._expect(TokenType.ASSIGN, "before the function body")
        body = self.parse_expression()
        self._expect(TokenType.SEMICOLON, "after the function body")
        return FunctionDecl(
            return_type=return_type,
            name=name,
            params=params,
            body=body,
            location=location,
        )

    def parse_param_list(self) -> List[Param]:
        """Parse a possibly empty ``type name, type name, ...`` list."""
        params: List[Param] = []
        if self._at(TokenType.RPAREN):
            return params
        while True:
            location = self._peek().location
            param_type = self.parse_type_ref()
            name = self._expect(TokenType.IDENT, "as the parameter name").text
            params.append(Param(type=param_type, name=name, location=location))
            if not self._accept(TokenType.COMMA):
                return params

    # -- properties -----------------------------------------------------------

    def parse_property(self) -> PropertyDecl:
        """Parse a complete property declaration (Figure 1)."""
        location = self._expect(TokenType.PROPERTY, "to start a property").location
        name = self._expect(TokenType.IDENT, "as the property name").text
        self._expect(TokenType.LPAREN, "to open the property parameter list")
        params = self.parse_param_list()
        self._expect(TokenType.RPAREN, "to close the property parameter list")
        self._expect(TokenType.LBRACE, "to open the property body")

        let_defs: List[LetDef] = []
        if self._accept(TokenType.LET):
            let_defs = self.parse_let_defs()

        self._expect(TokenType.CONDITION, "to start the condition specification")
        self._expect(TokenType.COLON, "after CONDITION")
        conditions = self.parse_conditions()
        self._expect(TokenType.SEMICOLON, "after the condition specification")

        self._expect(TokenType.CONFIDENCE, "to start the confidence specification")
        self._expect(TokenType.COLON, "after CONFIDENCE")
        confidence = self.parse_value_spec()
        self._expect(TokenType.SEMICOLON, "after the confidence specification")

        self._expect(TokenType.SEVERITY, "to start the severity specification")
        self._expect(TokenType.COLON, "after SEVERITY")
        severity = self.parse_value_spec()
        self._expect(TokenType.SEMICOLON, "after the severity specification")

        self._expect(TokenType.RBRACE, "to close the property body")
        self._accept(TokenType.SEMICOLON)
        return PropertyDecl(
            name=name,
            params=params,
            let_defs=let_defs,
            conditions=conditions,
            confidence=confidence,
            severity=severity,
            location=location,
        )

    def parse_let_defs(self) -> List[LetDef]:
        """Parse ``type name = expr ; ... IN`` (the IN terminates the block)."""
        defs: List[LetDef] = []
        while True:
            if self._accept(TokenType.IN):
                if not defs:
                    raise AslParseError(
                        "LET block must contain at least one definition",
                        self._peek().location,
                    )
                return defs
            location = self._peek().location
            def_type = self.parse_type_ref()
            name = self._expect(TokenType.IDENT, "as the LET definition name").text
            self._expect(TokenType.ASSIGN, "after the LET definition name")
            value = self.parse_expression()
            defs.append(LetDef(type=def_type, name=name, value=value, location=location))
            # The paper's examples omit the semicolon before IN; accept both.
            self._accept(TokenType.SEMICOLON)

    def parse_conditions(self) -> List[ConditionClause]:
        """Parse ``condition (OR condition)*`` with optional condition ids."""
        conditions = [self.parse_condition()]
        while self._accept(TokenType.OR):
            conditions.append(self.parse_condition())
        return conditions

    def parse_condition(self) -> ConditionClause:
        """Parse one condition: ``[ (cond-id) ] bool-expr`` (no top-level OR)."""
        location = self._peek().location
        cond_id = self._try_parse_label(require_arrow=False)
        expr = self.parse_and_expr()
        return ConditionClause(expr=expr, cond_id=cond_id, location=location)

    def parse_value_spec(self) -> ValueSpec:
        """Parse a confidence or severity specification."""
        location = self._peek().location
        # The MAX(...) combinator form of Figure 1.
        if (
            self._at(TokenType.IDENT)
            and self._peek().text.upper() == "MAX"
            and self._at(TokenType.LPAREN, 1)
        ):
            mark = self._mark()
            self._advance()  # MAX
            self._advance()  # (
            try:
                entries = [self.parse_guarded_expr()]
                while self._accept(TokenType.COMMA):
                    entries.append(self.parse_guarded_expr())
                self._expect(TokenType.RPAREN, "to close the MAX list")
            except AslParseError:
                # It was the aggregate/scalar MAX after all; re-parse as a
                # single expression.
                self._reset(mark)
            else:
                if self._at(TokenType.SEMICOLON):
                    return ValueSpec(entries=entries, is_max=True, location=location)
                self._reset(mark)
        entry = self.parse_guarded_expr()
        return ValueSpec(entries=[entry], is_max=False, location=location)

    def parse_guarded_expr(self) -> GuardedExpr:
        """Parse ``[ (cond-id) -> ] arith-expr``."""
        location = self._peek().location
        guard = self._try_parse_label(require_arrow=True)
        expr = self.parse_expression()
        return GuardedExpr(expr=expr, guard=guard, location=location)

    def _try_parse_label(self, require_arrow: bool) -> Optional[str]:
        """Recognise a ``( identifier )`` condition-id prefix, if present.

        With ``require_arrow`` the label must be followed by ``->`` (guard
        syntax); without it the label must be followed by the start of an
        expression (condition syntax).
        """
        if not (
            self._at(TokenType.LPAREN)
            and self._at(TokenType.IDENT, 1)
            and self._at(TokenType.RPAREN, 2)
        ):
            return None
        follower = self._peek(3)
        if require_arrow:
            if follower.type is not TokenType.ARROW:
                return None
            label = self._peek(1).text
            self._advance()  # (
            self._advance()  # ident
            self._advance()  # )
            self._advance()  # ->
            return label
        if follower.type not in _EXPRESSION_START:
            return None
        label = self._peek(1).text
        self._advance()
        self._advance()
        self._advance()
        return label

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #

    def parse_expression(self) -> Expr:
        """Parse a full expression (lowest precedence: OR)."""
        return self.parse_or_expr()

    def parse_or_expr(self) -> Expr:
        left = self.parse_and_expr()
        while self._at(TokenType.OR):
            location = self._advance().location
            right = self.parse_and_expr()
            left = BinaryExpr(
                op=BinaryOp.OR, left=left, right=right, location=location
            )
        return left

    def parse_and_expr(self) -> Expr:
        left = self.parse_not_expr()
        while self._at(TokenType.AND):
            location = self._advance().location
            right = self.parse_not_expr()
            left = BinaryExpr(
                op=BinaryOp.AND, left=left, right=right, location=location
            )
        return left

    def parse_not_expr(self) -> Expr:
        if self._at(TokenType.NOT):
            location = self._advance().location
            operand = self.parse_not_expr()
            return UnaryExpr(op=UnaryOp.NOT, operand=operand, location=location)
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        if self._peek().type in _COMPARISON_OPS:
            token = self._advance()
            right = self.parse_additive()
            return BinaryExpr(
                op=_COMPARISON_OPS[token.type],
                left=left,
                right=right,
                location=token.location,
            )
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self._peek().type in _ADDITIVE_OPS:
            token = self._advance()
            right = self.parse_multiplicative()
            left = BinaryExpr(
                op=_ADDITIVE_OPS[token.type],
                left=left,
                right=right,
                location=token.location,
            )
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self._peek().type in _MULTIPLICATIVE_OPS:
            token = self._advance()
            right = self.parse_unary()
            left = BinaryExpr(
                op=_MULTIPLICATIVE_OPS[token.type],
                left=left,
                right=right,
                location=token.location,
            )
        return left

    def parse_unary(self) -> Expr:
        if self._at(TokenType.MINUS):
            location = self._advance().location
            operand = self.parse_unary()
            return UnaryExpr(op=UnaryOp.NEG, operand=operand, location=location)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self._at(TokenType.DOT):
            location = self._advance().location
            attribute = self._expect(TokenType.IDENT, "as an attribute name").text
            expr = AttributeAccess(obj=expr, attribute=attribute, location=location)
        return expr

    def parse_primary(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.INT:
            self._advance()
            return IntLiteral(value=int(token.value), location=token.location)
        if token.type is TokenType.FLOAT:
            self._advance()
            return FloatLiteral(value=float(token.value), location=token.location)
        if token.type is TokenType.STRING:
            self._advance()
            return StringLiteral(value=str(token.value), location=token.location)
        if token.type in (TokenType.TRUE, TokenType.FALSE):
            self._advance()
            return BoolLiteral(value=bool(token.value), location=token.location)
        if token.type is TokenType.LBRACE:
            return self.parse_set_comprehension()
        if token.type is TokenType.LPAREN:
            self._advance()
            expr = self.parse_expression()
            self._expect(TokenType.RPAREN, "to close the parenthesised expression")
            return expr
        if token.type is TokenType.IDENT:
            return self.parse_identifier_expression()
        raise AslParseError(
            f"expected an expression, found {token.type.value!r} ({token.text!r})",
            token.location,
        )

    def parse_set_comprehension(self) -> SetComprehension:
        """Parse ``{ var IN source [WITH predicate] }``."""
        location = self._expect(TokenType.LBRACE, "to open a set expression").location
        var = self._expect(TokenType.IDENT, "as the bound variable").text
        self._expect(TokenType.IN, "after the bound variable")
        source = self.parse_comparison()
        predicate = None
        if self._accept(TokenType.WITH):
            predicate = self.parse_expression()
        self._expect(TokenType.RBRACE, "to close the set expression")
        return SetComprehension(
            var=var, source=source, predicate=predicate, location=location
        )

    def parse_identifier_expression(self) -> Expr:
        """Parse an identifier, function call or aggregate expression."""
        token = self._expect(TokenType.IDENT, "as an identifier")
        if not self._at(TokenType.LPAREN):
            return Identifier(name=token.text, location=token.location)
        upper = token.text.upper()
        if upper in AGGREGATE_NAMES and token.text.isupper():
            return self.parse_aggregate(token)
        return self.parse_call(token)

    def parse_call(self, name_token: Token) -> FunctionCall:
        """Parse ``Name(arg, arg, ...)``."""
        self._expect(TokenType.LPAREN, "to open the argument list")
        args: List[Expr] = []
        if not self._at(TokenType.RPAREN):
            args.append(self.parse_expression())
            while self._accept(TokenType.COMMA):
                args.append(self.parse_expression())
        self._expect(TokenType.RPAREN, "to close the argument list")
        return FunctionCall(
            name=name_token.text, args=args, location=name_token.location
        )

    def parse_aggregate(self, name_token: Token) -> Expr:
        """Parse ``UNIQUE(set)`` or ``AGG(value WHERE var IN source AND …)``.

        When an aggregate name is used without a ``WHERE`` clause and with
        comma-separated arguments it is parsed as a plain (scalar) function
        call, e.g. ``MAX(a, b)``.
        """
        func = name_token.text.upper()
        self._expect(TokenType.LPAREN, "to open the aggregate argument")
        if func == "UNIQUE":
            value = self.parse_expression()
            self._expect(TokenType.RPAREN, "to close UNIQUE")
            return AggregateExpr(
                func="UNIQUE", value=value, location=name_token.location
            )
        value = self.parse_expression()
        if self._accept(TokenType.WHERE):
            var = self._expect(TokenType.IDENT, "as the aggregate variable").text
            self._expect(TokenType.IN, "after the aggregate variable")
            source = self.parse_comparison()
            predicate: Optional[Expr] = None
            while self._accept(TokenType.AND):
                conjunct = self.parse_not_expr()
                predicate = (
                    conjunct
                    if predicate is None
                    else BinaryExpr(
                        op=BinaryOp.AND,
                        left=predicate,
                        right=conjunct,
                        location=conjunct.location,
                    )
                )
            self._expect(TokenType.RPAREN, "to close the aggregate")
            return AggregateExpr(
                func=func,
                value=value,
                var=var,
                source=source,
                predicate=predicate,
                location=name_token.location,
            )
        # No WHERE clause: scalar function call such as MAX(a, b).
        args = [value]
        while self._accept(TokenType.COMMA):
            args.append(self.parse_expression())
        self._expect(TokenType.RPAREN, "to close the argument list")
        return FunctionCall(
            name=name_token.text, args=args, location=name_token.location
        )


def parse_asl(source: str, filename: str = "<asl>") -> AslProgram:
    """Parse an ASL specification document into an AST."""
    parser = Parser(tokenize(source, filename), filename)
    return parser.parse_program()


def parse_expression(source: str, filename: str = "<asl-expr>") -> Expr:
    """Parse a single ASL expression (useful for tests and the REPL)."""
    parser = Parser(tokenize(source, filename), filename)
    expr = parser.parse_expression()
    trailing = parser._peek()
    if trailing.type is not TokenType.EOF:
        raise AslParseError(
            f"unexpected trailing input {trailing.text!r}", trailing.location
        )
    return expr

"""Pretty-printer (unparser) for ASL syntax trees.

``unparse`` turns a parsed specification back into canonical ASL text.  It is
used by the documentation generator of COSY reports, by error messages of the
SQL compiler (showing which specification fragment a query was generated
from), and by the round-trip property tests (``parse(unparse(parse(x)))`` must
be stable).
"""

from __future__ import annotations

from typing import List

from repro.asl.errors import AslError
from repro.asl.ast_nodes import (
    AggregateExpr,
    AslProgram,
    AttributeAccess,
    BinaryExpr,
    BinaryOp,
    BoolLiteral,
    ClassDecl,
    ConditionClause,
    ConstantDecl,
    Declaration,
    EnumDecl,
    Expr,
    FloatLiteral,
    FunctionCall,
    FunctionDecl,
    GuardedExpr,
    Identifier,
    IntLiteral,
    PropertyDecl,
    SetComprehension,
    StringLiteral,
    TypeRef,
    UnaryExpr,
    UnaryOp,
    ValueSpec,
)

__all__ = ["unparse", "unparse_expr", "unparse_declaration"]

#: Binding strength of operators, used to insert the minimal parentheses.
_PRECEDENCE = {
    BinaryOp.OR: 1,
    BinaryOp.AND: 2,
    BinaryOp.EQ: 3,
    BinaryOp.NE: 3,
    BinaryOp.LT: 3,
    BinaryOp.LE: 3,
    BinaryOp.GT: 3,
    BinaryOp.GE: 3,
    BinaryOp.ADD: 4,
    BinaryOp.SUB: 4,
    BinaryOp.MUL: 5,
    BinaryOp.DIV: 5,
    BinaryOp.MOD: 5,
}
_UNARY_PRECEDENCE = 6
_ATOM_PRECEDENCE = 7


def unparse(program: AslProgram) -> str:
    """Render a whole specification document as canonical ASL text."""
    parts = [unparse_declaration(decl) for decl in program.declarations]
    return "\n\n".join(parts) + "\n"


def unparse_declaration(decl: Declaration) -> str:
    """Render one top-level declaration."""
    if isinstance(decl, ClassDecl):
        return _class(decl)
    if isinstance(decl, EnumDecl):
        return _enum(decl)
    if isinstance(decl, ConstantDecl):
        return (
            f"constant {_type(decl.type)} {decl.name} = "
            f"{unparse_expr(decl.value)};"
        )
    if isinstance(decl, FunctionDecl):
        params = ", ".join(f"{_type(p.type)} {p.name}" for p in decl.params)
        return (
            f"{_type(decl.return_type)} {decl.name}({params}) = "
            f"{unparse_expr(decl.body)};"
        )
    if isinstance(decl, PropertyDecl):
        return _property(decl)
    raise TypeError(f"cannot unparse declaration of type {type(decl).__name__}")


def unparse_expr(expr: Expr) -> str:
    """Render one expression with minimal parentheses."""
    return _expr(expr, 0)


# --------------------------------------------------------------------------- #
# declarations
# --------------------------------------------------------------------------- #


def _type(ref: TypeRef) -> str:
    return f"setof {ref.name}" if ref.is_set else ref.name


def _class(decl: ClassDecl) -> str:
    header = f"class {decl.name}"
    if decl.base:
        header += f" extends {decl.base}"
    lines = [header + " {"]
    for attr in decl.attributes:
        lines.append(f"    {_type(attr.type)} {attr.name};")
    lines.append("}")
    return "\n".join(lines)


def _enum(decl: EnumDecl) -> str:
    members = ", ".join(decl.members)
    return f"enum {decl.name} {{ {members} }};"


def _property(decl: PropertyDecl) -> str:
    params = ", ".join(f"{_type(p.type)} {p.name}" for p in decl.params)
    lines = [f"PROPERTY {decl.name}({params}) {{"]
    if decl.let_defs:
        lines.append("    LET")
        for let_def in decl.let_defs:
            lines.append(
                f"        {_type(let_def.type)} {let_def.name} = "
                f"{unparse_expr(let_def.value)};"
            )
        lines.append("    IN")
    lines.append(f"    CONDITION: {_conditions(decl.conditions)};")
    lines.append(f"    CONFIDENCE: {_value_spec(decl.confidence)};")
    lines.append(f"    SEVERITY: {_value_spec(decl.severity)};")
    lines.append("};")
    return "\n".join(lines)


def _conditions(conditions: List[ConditionClause]) -> str:
    rendered = []
    for condition in conditions:
        text = _expr(condition.expr, _PRECEDENCE[BinaryOp.AND])
        if condition.cond_id is not None:
            text = f"({condition.cond_id}) {text}"
        rendered.append(text)
    return " OR ".join(rendered)


def _value_spec(spec: ValueSpec) -> str:
    entries = [_guarded(entry) for entry in spec.entries]
    if spec.is_max or len(entries) > 1:
        return f"MAX({', '.join(entries)})"
    return entries[0]


def _guarded(entry: GuardedExpr) -> str:
    text = unparse_expr(entry.expr)
    if entry.guard is not None:
        return f"({entry.guard}) -> {text}"
    return text


# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #


def _expr(expr: Expr, parent_precedence: int) -> str:
    text, precedence = _render(expr)
    if precedence < parent_precedence:
        return f"({text})"
    return text


def _render(expr: Expr) -> "tuple[str, int]":
    if isinstance(expr, IntLiteral):
        return str(expr.value), _ATOM_PRECEDENCE
    if isinstance(expr, FloatLiteral):
        return format(expr.value, "g"), _ATOM_PRECEDENCE
    if isinstance(expr, StringLiteral):
        escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"', _ATOM_PRECEDENCE
    if isinstance(expr, BoolLiteral):
        return ("true" if expr.value else "false"), _ATOM_PRECEDENCE
    if isinstance(expr, Identifier):
        return expr.name, _ATOM_PRECEDENCE
    if isinstance(expr, AttributeAccess):
        return f"{_expr(expr.obj, _ATOM_PRECEDENCE)}.{expr.attribute}", _ATOM_PRECEDENCE
    if isinstance(expr, FunctionCall):
        args = ", ".join(unparse_expr(arg) for arg in expr.args)
        return f"{expr.name}({args})", _ATOM_PRECEDENCE
    if isinstance(expr, UnaryExpr):
        operand = _expr(expr.operand, _UNARY_PRECEDENCE)
        if expr.op is UnaryOp.NEG:
            return f"-{operand}", _UNARY_PRECEDENCE
        return f"NOT {operand}", _UNARY_PRECEDENCE
    if isinstance(expr, BinaryExpr):
        precedence = _PRECEDENCE[expr.op]
        # Comparisons do not chain (``a > b > c`` does not parse), so a
        # comparison's left operand keeps the parentheses around another
        # comparison; the right operand needs one level more anyway, to
        # reproduce left associativity.
        left = _expr(
            expr.left, precedence + 1 if expr.op.is_comparison else precedence
        )
        right = _expr(expr.right, precedence + 1)
        return f"{left} {expr.op.value} {right}", precedence
    if isinstance(expr, SetComprehension):
        # The parser reads the source at comparison precedence, so anything
        # weaker (AND/OR) must be parenthesised to round-trip.
        source = _expr(expr.source, _PRECEDENCE[BinaryOp.EQ])
        if expr.predicate is None:
            return f"{{{expr.var} IN {source}}}", _ATOM_PRECEDENCE
        predicate = unparse_expr(expr.predicate)
        return f"{{{expr.var} IN {source} WITH {predicate}}}", _ATOM_PRECEDENCE
    if isinstance(expr, AggregateExpr):
        if expr.is_unique:
            return f"UNIQUE({unparse_expr(expr.value)})", _ATOM_PRECEDENCE
        value = unparse_expr(expr.value)
        if expr.source is None:
            raise AslError(
                f"cannot unparse aggregate {expr.func} without a source "
                f"collection",
                expr.location,
            )
        source = _expr(expr.source, _PRECEDENCE[BinaryOp.EQ])
        text = f"{expr.func}({value} WHERE {expr.var} IN {source}"
        if expr.predicate is not None:
            text += f" AND {_expr(expr.predicate, _PRECEDENCE[BinaryOp.AND])}"
        text += ")"
        return text, _ATOM_PRECEDENCE
    raise TypeError(f"cannot unparse expression of type {type(expr).__name__}")

"""Table schemas and column types of the relational engine.

The engine supports the small set of column types needed to store the COSY
performance data model: integers, double-precision floats, variable-length
strings, booleans and timestamps.  Schemas are declared either through
``CREATE TABLE`` statements or programmatically (the ASL→SQL compiler builds
:class:`TableSchema` objects directly from the checked data model).
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.records import FrozenRecord, Record, slot_setters
from repro.relalg.errors import IntegrityError, SchemaError

__all__ = ["ColumnType", "Column", "TableSchema"]


class ColumnType(enum.Enum):
    """Supported SQL column types (with their canonical SQL spelling)."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    VARCHAR = "VARCHAR"
    BOOLEAN = "BOOLEAN"
    TIMESTAMP = "TIMESTAMP"

    @classmethod
    def from_sql(cls, spelling: str) -> "ColumnType":
        """Map a SQL type spelling (e.g. ``INT``, ``DOUBLE``) to a column type."""
        normalized = spelling.strip().upper()
        aliases = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "FLOAT": cls.FLOAT,
            "REAL": cls.FLOAT,
            "DOUBLE": cls.FLOAT,
            "NUMERIC": cls.FLOAT,
            "DECIMAL": cls.FLOAT,
            "VARCHAR": cls.VARCHAR,
            "CHAR": cls.VARCHAR,
            "TEXT": cls.VARCHAR,
            "STRING": cls.VARCHAR,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
            "TIMESTAMP": cls.TIMESTAMP,
            "DATETIME": cls.TIMESTAMP,
            "DATE": cls.TIMESTAMP,
        }
        try:
            return aliases[normalized]
        except KeyError:
            raise SchemaError(f"unsupported column type {spelling!r}") from None

    def validate(self, value: Any) -> Any:
        """Coerce/validate a Python value for storage in this column type.

        ``None`` is always accepted (NULL); numeric widening (int→float) is
        applied; anything else incompatible raises :class:`SchemaError`.
        """
        if value is None:
            return None
        if self is ColumnType.INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                if isinstance(value, float) and value.is_integer():
                    return int(value)
                raise SchemaError(f"expected an integer, got {value!r}")
            return value
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected a number, got {value!r}")
            return float(value)
        if self is ColumnType.VARCHAR:
            if not isinstance(value, str):
                raise SchemaError(f"expected a string, got {value!r}")
            return value
        if self is ColumnType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
            raise SchemaError(f"expected a boolean, got {value!r}")
        if self is ColumnType.TIMESTAMP:
            if isinstance(value, _dt.datetime):
                return value
            if isinstance(value, str):
                try:
                    return _dt.datetime.fromisoformat(value)
                except ValueError:
                    raise SchemaError(
                        f"expected an ISO timestamp string, got {value!r}"
                    ) from None
            raise SchemaError(f"expected a timestamp, got {value!r}")
        raise AssertionError(f"unhandled column type {self}")


#: Column types that store a value of exactly this Python type unchanged:
#: :meth:`ColumnType.validate` would return the value itself.
_EXACT_TYPES = {
    ColumnType.INTEGER: int,
    ColumnType.FLOAT: float,
    ColumnType.VARCHAR: str,
}


class Column(FrozenRecord):
    """One column of a table.

    ``exact_type`` is derived, not a field: a value of exactly this type is
    stored as-is, without calling :meth:`ColumnType.validate` (``None``:
    every value is validated).
    """

    __slots__ = ("name", "type", "nullable", "primary_key", "exact_type")
    _fields = __slots__[:-1]

    def __init__(
        self,
        name: str,
        type: ColumnType,
        nullable: bool = True,
        primary_key: bool = False,
    ) -> None:
        _column_name(self, name)
        _column_type(self, type)
        _column_nullable(self, nullable)
        _column_primary_key(self, primary_key)
        _column_exact_type(self, _EXACT_TYPES.get(type))

    def sql(self) -> str:
        """Canonical SQL fragment of the column definition."""
        parts = [self.name, self.type.value]
        if self.primary_key:
            parts.append("PRIMARY KEY")
        elif not self.nullable:
            parts.append("NOT NULL")
        return " ".join(parts)


(
    _column_name, _column_type, _column_nullable, _column_primary_key,
    _column_exact_type,
) = slot_setters(Column)


class TableSchema(Record):
    """Schema of one table (column order matters for positional inserts)."""

    __slots__ = ("name", "columns")

    def __init__(self, name: str, columns: Optional[List[Column]] = None) -> None:
        self.name = name
        self.columns = [] if columns is None else columns
        names = [c.name.lower() for c in self.columns]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SchemaError(
                f"table {self.name!r} declares duplicate column(s) "
                f"{sorted(duplicates)}"
            )

    # -- lookup ----------------------------------------------------------------

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        """Case-insensitive column lookup; raises :class:`SchemaError`."""
        lowered = name.lower()
        for column in self.columns:
            if column.name.lower() == lowered:
                return column
        raise SchemaError(
            f"table {self.name!r} has no column {name!r} "
            f"(columns: {', '.join(self.column_names)})"
        )

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return index
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def primary_key_columns(self) -> List[Column]:
        return [c for c in self.columns if c.primary_key]

    # -- rows -------------------------------------------------------------------

    def validate_row(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        """Validate one positional row against the schema and coerce values."""
        if len(values) != len(self.columns):
            raise SchemaError(
                f"table {self.name!r} has {len(self.columns)} columns but the "
                f"row has {len(values)} values"
            )
        validated: List[Any] = []
        for column, value in zip(self.columns, values):
            if type(value) is column.exact_type:
                validated.append(value)
                continue
            coerced = column.type.validate(value)
            if coerced is None and (column.primary_key or not column.nullable):
                raise IntegrityError(
                    f"column {column.name!r} of table {self.name!r} must not "
                    f"be NULL"
                )
            validated.append(coerced)
        return tuple(validated)

    def row_from_mapping(self, mapping: Dict[str, Any]) -> Tuple[Any, ...]:
        """Build a positional row from a column→value mapping (missing → NULL)."""
        lowered = {key.lower(): value for key, value in mapping.items()}
        unknown = set(lowered) - {c.name.lower() for c in self.columns}
        if unknown:
            raise SchemaError(
                f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
            )
        return self.validate_row(
            [lowered.get(c.name.lower()) for c in self.columns]
        )

    def sql(self) -> str:
        """Canonical ``CREATE TABLE`` statement for this schema."""
        body = ", ".join(column.sql() for column in self.columns)
        return f"CREATE TABLE {self.name} ({body})"

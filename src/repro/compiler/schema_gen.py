"""Automatic generation of the relational schema from the ASL data model.

The paper's prototype translated the data model into a relational database
scheme *manually*; the conclusion names the automatic generation of the
database design from the specification as future work.  This module implements
that step.

Mapping rules
-------------

For every ASL class ``C`` a table ``C`` is generated with

* a synthetic integer primary key ``id``;
* one column per scalar attribute (``int`` → INTEGER, ``float`` → FLOAT,
  ``String`` → VARCHAR, ``bool`` → BOOLEAN, ``DateTime`` → TIMESTAMP);
* one ``<Attr>_id`` INTEGER foreign-key column per class-typed attribute
  (e.g. ``Region.ParentRegion`` → ``ParentRegion_id``);
* one VARCHAR column per enum-typed attribute (the enum member name is
  stored);
* ``SourceCode`` attributes are stored as VARCHAR (the concatenated text).

``setof`` attributes become foreign keys *on the element table* pointing back
to the owning table: ``ProgVersion.Runs : setof TestRun`` adds the column
``owner_ProgVersion_Runs_id`` to ``TestRun``.  The owner-column name carries
both the owning class and the attribute name so that two different collections
of the same element type never collide.

In addition a single-row helper table ``dual`` is generated; the property
compiler uses it as the FROM clause of queries that compute pure scalar
expressions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.asl.errors import AslTypeError
from repro.asl.semantic import CheckedSpecification
from repro.asl.types import (
    BOOL,
    DATETIME,
    FLOAT,
    INT,
    SOURCECODE,
    STRING,
    ClassType,
    EnumType,
    ScalarType,
    SetType,
    Type,
)
from repro.records import FrozenRecord, Record, slot_setters
from repro.relalg.schema import Column, ColumnType, TableSchema

__all__ = ["AttributeMapping", "ClassMapping", "SchemaMapping", "generate_schema"]

#: Name of the synthetic primary-key column of every generated table.
PRIMARY_KEY = "id"

#: Name of the single-row helper table used for scalar-only queries.
DUAL_TABLE = "dual"

_SCALAR_COLUMN_TYPES: Dict[Type, ColumnType] = {
    INT: ColumnType.INTEGER,
    FLOAT: ColumnType.FLOAT,
    BOOL: ColumnType.BOOLEAN,
    STRING: ColumnType.VARCHAR,
    DATETIME: ColumnType.TIMESTAMP,
    SOURCECODE: ColumnType.VARCHAR,
}


class AttributeMapping(FrozenRecord):
    """How one ASL attribute is represented relationally."""

    __slots__ = ("kind", "column", "table", "target_class")

    def __init__(
        self,
        kind: str,
        column: str,
        table: str,
        target_class: Optional[str] = None,
    ) -> None:
        #: ``scalar`` | ``enum`` | ``reference`` | ``collection``
        _mapping_kind(self, kind)
        #: Column holding the value / foreign key.  For collections this column
        #: lives on the *element* table, not on the owner.
        _mapping_column(self, column)
        #: Table the column lives on.
        _mapping_table(self, table)
        #: Referenced class (for ``reference`` and ``collection`` attributes).
        _mapping_target_class(self, target_class)


(
    _mapping_kind, _mapping_column, _mapping_table, _mapping_target_class,
) = slot_setters(AttributeMapping)


class ClassMapping(Record):
    """Relational mapping of one ASL class."""

    __slots__ = ("class_name", "table", "primary_key", "attributes")

    def __init__(
        self,
        class_name: str,
        table: str,
        primary_key: str = PRIMARY_KEY,
        attributes: Optional[Dict[str, AttributeMapping]] = None,
    ) -> None:
        self.class_name = class_name
        self.table = table
        self.primary_key = primary_key
        self.attributes = {} if attributes is None else attributes


class SchemaMapping:
    """The complete data-model → schema mapping."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassMapping] = {}
        self.schemas: Dict[str, TableSchema] = {}

    # -- lookup ----------------------------------------------------------------

    def class_mapping(self, class_name: str) -> ClassMapping:
        try:
            return self.classes[class_name]
        except KeyError:
            raise AslTypeError(
                f"class {class_name!r} has no relational mapping"
            ) from None

    def table_for(self, class_name: str) -> str:
        """Table storing instances of ``class_name``."""
        return self.class_mapping(class_name).table

    def attribute(self, class_name: str, attribute: str) -> AttributeMapping:
        """Relational mapping of ``class_name.attribute``."""
        mapping = self.class_mapping(class_name)
        try:
            return mapping.attributes[attribute]
        except KeyError:
            raise AslTypeError(
                f"attribute {class_name}.{attribute} has no relational mapping"
            ) from None

    def table_schemas(self) -> List[TableSchema]:
        """All generated table schemas (including the ``dual`` helper)."""
        return list(self.schemas.values())

    def create_statements(self) -> List[str]:
        """Canonical CREATE TABLE statements for all generated tables."""
        return [schema.sql() for schema in self.schemas.values()]

    def index_statements(self) -> List[str]:
        """CREATE INDEX statements for every generated foreign-key column."""
        statements: List[str] = []
        for schema in self.schemas.values():
            for column in schema.columns:
                if column.name == PRIMARY_KEY:
                    continue
                if column.name.endswith("_id"):
                    statements.append(
                        f"CREATE INDEX idx_{schema.name}_{column.name} "
                        f"ON {schema.name} ({column.name})"
                    )
        return statements


def generate_schema(checked: CheckedSpecification) -> SchemaMapping:
    """Generate the relational schema for a checked ASL data model."""
    mapping = SchemaMapping()
    index = checked.index

    # First pass: create the class mappings and scalar/reference columns.
    columns_per_table: Dict[str, List[Column]] = {}
    for class_name, info in index.classes.items():
        table = class_name
        class_mapping = ClassMapping(class_name=class_name, table=table)
        mapping.classes[class_name] = class_mapping
        columns: List[Column] = [
            Column(name=PRIMARY_KEY, type=ColumnType.INTEGER, nullable=False,
                   primary_key=True)
        ]
        for attr_name, attr_type in info.attributes.items():
            column = _column_for_attribute(class_name, attr_name, attr_type)
            if column is None:
                # Collections are handled in the second pass (they live on the
                # element table).
                continue
            columns.append(column)
            kind = (
                "reference"
                if isinstance(attr_type, ClassType)
                else "enum"
                if isinstance(attr_type, EnumType)
                else "scalar"
            )
            class_mapping.attributes[attr_name] = AttributeMapping(
                kind=kind,
                column=column.name,
                table=table,
                target_class=attr_type.name if isinstance(attr_type, ClassType) else None,
            )
        columns_per_table[table] = columns

    # Second pass: collections add an owner foreign key on the element table.
    for class_name, info in index.classes.items():
        for attr_name, attr_type in info.attributes.items():
            if not isinstance(attr_type, SetType):
                continue
            element = attr_type.element
            if not isinstance(element, ClassType):
                raise AslTypeError(
                    f"collection attribute {class_name}.{attr_name} must "
                    f"contain class instances to be stored relationally, "
                    f"found {element}"
                )
            element_table = element.name
            owner_column = f"owner_{class_name}_{attr_name}_id"
            columns_per_table[element_table].append(
                Column(name=owner_column, type=ColumnType.INTEGER, nullable=True)
            )
            mapping.classes[class_name].attributes[attr_name] = AttributeMapping(
                kind="collection",
                column=owner_column,
                table=element_table,
                target_class=element.name,
            )

    for table, columns in columns_per_table.items():
        mapping.schemas[table] = TableSchema(name=table, columns=columns)

    # The single-row helper table for scalar-only queries.
    mapping.schemas[DUAL_TABLE] = TableSchema(
        name=DUAL_TABLE,
        columns=[Column(name="one", type=ColumnType.INTEGER, nullable=False)],
    )
    return mapping


def _column_for_attribute(
    class_name: str, attr_name: str, attr_type: Type
) -> Optional[Column]:
    """Column definition for one non-collection attribute (None for setof)."""
    if isinstance(attr_type, SetType):
        return None
    if isinstance(attr_type, ClassType):
        return Column(name=f"{attr_name}_id", type=ColumnType.INTEGER, nullable=True)
    if isinstance(attr_type, EnumType):
        return Column(name=attr_name, type=ColumnType.VARCHAR, nullable=True)
    if isinstance(attr_type, ScalarType):
        try:
            column_type = _SCALAR_COLUMN_TYPES[attr_type]
        except KeyError:
            raise AslTypeError(
                f"attribute {class_name}.{attr_name} has unsupported scalar "
                f"type {attr_type}"
            ) from None
        return Column(name=attr_name, type=column_type, nullable=True)
    raise AslTypeError(
        f"attribute {class_name}.{attr_name} has unsupported type {attr_type}"
    )

"""Automatic generation of the relational schema from the ASL data model.

The paper's prototype translated the data model into a relational database
scheme *manually*; the conclusion names the automatic generation of the
database design from the specification as future work.  This module implements
that step, for the schema and for the rows the loader inserts into it.

Mapping rules
-------------

For every ASL class ``C`` a table ``C`` is generated with

* a synthetic integer primary key ``id``;
* one column per scalar attribute (``int`` → INTEGER, ``float`` → FLOAT,
  ``String`` → VARCHAR, ``bool`` → BOOLEAN, ``DateTime`` → TIMESTAMP);
* one ``<Attr>_id`` INTEGER foreign-key column per class-typed attribute
  (e.g. ``Region.ParentRegion`` → ``ParentRegion_id``), storing the target's
  row id;
* one VARCHAR column per enum-typed attribute (the enum member name is
  stored);
* ``SourceCode`` attributes are stored as VARCHAR (the files in path order,
  each as ``--- path`` and its text).

``setof`` attributes become foreign keys *on the element table* pointing back
to the owning table: ``ProgVersion.Runs : setof TestRun`` adds the column
``owner_ProgVersion_Runs_id`` to ``TestRun``.  The owner-column name carries
both the owning class and the attribute name so that two different collections
of the same element type never collide.  Every reference and owner column is
indexed.

In addition a single-row helper table ``dual`` is generated; the property
compiler uses it as the FROM clause of queries that compute pure scalar
expressions.

:meth:`SchemaMapping.row_shape` gives the loader's rows: the key, the other
attributes in declaration order and the owner column, stored as above.  An
entity's collections load after its row, in declaration order except that one
whose subtree references a class held in a sibling's subtree loads after it
(``Runs`` before ``Functions``); a self-referencing class loads parents first.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

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
        #: ``scalar`` | ``source`` | ``enum`` | ``reference`` | ``collection``
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
        self._shape_cache: Dict[Tuple[str, Optional[str]], RowShape] = {}

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
        """CREATE INDEX statements for every foreign-key column — reference and
        owner columns — in table and column order."""
        keys = {
            (a.table, a.column) for mapping in self.classes.values()
            for a in mapping.attributes.values() if a.kind in ("reference", "collection")
        }
        return [
            f"CREATE INDEX idx_{table}_{column} ON {table} ({column})"
            for table, schema in self.schemas.items()
            for column in schema.column_names
            if (table, column) in keys
        ]

    def row_shape(self, class_name: str, owner_column: Optional[str] = None) -> "RowShape":
        """The loader's :class:`RowShape` for the pair, built once."""
        key = (class_name, owner_column)
        shape = self._shape_cache.get(key)
        if shape is None:
            shape = self._shape_cache[key] = RowShape(self, class_name, owner_column)
        return shape


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
            mapped = _column_for_attribute(class_name, attr_name, attr_type)
            if mapped is None:
                # Collections are handled in the second pass (they live on the
                # element table).
                continue
            kind, column = mapped
            columns.append(column)
            class_mapping.attributes[attr_name] = AttributeMapping(
                kind=kind,
                column=column.name,
                table=table,
                target_class=attr_type.name if kind == "reference" else None,
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
) -> Optional[Tuple[str, Column]]:
    """The mapping kind and column of one non-collection attribute (None for
    setof)."""
    if isinstance(attr_type, SetType):
        return None
    if isinstance(attr_type, ClassType):
        return "reference", Column(
            name=f"{attr_name}_id", type=ColumnType.INTEGER, nullable=True
        )
    if isinstance(attr_type, EnumType):
        return "enum", Column(name=attr_name, type=ColumnType.VARCHAR, nullable=True)
    if isinstance(attr_type, ScalarType):
        try:
            column_type = _SCALAR_COLUMN_TYPES[attr_type]
        except KeyError:
            raise AslTypeError(
                f"attribute {class_name}.{attr_name} has unsupported scalar "
                f"type {attr_type}"
            ) from None
        kind = "source" if attr_type == SOURCECODE else "scalar"
        return kind, Column(name=attr_name, type=column_type, nullable=True)
    raise AslTypeError(
        f"attribute {class_name}.{attr_name} has unsupported type {attr_type}"
    )


class RowShape:
    """How the loader turns one class's entities into INSERT rows, as roots
    (``owner_column`` None) or as the elements of one collection.

    ``read(entity)`` returns the ``uid``, the other ``width - 1`` row values
    and the collections; ``stored`` converts each ``(position, convert)``
    given the loader's ``ObjectIds``; ``collections`` lists ``(element class,
    owner column)`` in load order; ``parents`` names the self-references.
    """

    __slots__ = ("sql", "read", "width", "stored", "collections", "parents")

    def __init__(
        self, mapping: SchemaMapping, class_name: str, owner_column: Optional[str]
    ) -> None:
        class_mapping = mapping.class_mapping(class_name)
        attributes = class_mapping.attributes
        values = {n: a for n, a in attributes.items() if a.kind != "collection"}
        collections = _load_order(
            mapping, [(n, a) for n, a in attributes.items() if a.kind == "collection"]
        )
        columns = [class_mapping.primary_key, *(a.column for a in values.values())]
        if owner_column is not None:
            columns.append(owner_column)
        self.sql = (
            f"INSERT INTO {class_mapping.table} ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' * len(columns))})"
        )
        self.read = attrgetter("uid", *values, *(name for name, _ in collections))
        self.width = 1 + len(values)
        self.stored = tuple(
            (position, _stored_form(a))
            for position, a in enumerate(values.values(), 1) if a.kind != "scalar"
        )
        self.collections = tuple((a.target_class, a.column) for _, a in collections)
        self.parents = tuple(
            name for name, a in values.items()
            if a.kind == "reference" and a.target_class == class_name
        )


def _stored_form(attribute: AttributeMapping) -> Callable[[Any, Any], Any]:
    """A reference as its target's row id, an enum member by name, a
    ``SourceCode`` as its files in path order; NULL stays NULL."""
    if attribute.kind == "reference":
        target = attribute.target_class
        return lambda entity, ids: None if entity is None else ids.id_of(target, entity.uid)
    if attribute.kind == "enum":
        return lambda member, ids: None if member is None else member._name_
    return lambda code, ids: None if code is None else "\n".join(
        f"--- {path}\n{text}" for path, text in sorted(code.files.items())
    )


def _load_order(
    mapping: SchemaMapping, collections: List[Tuple[str, AttributeMapping]]
) -> List[Tuple[str, AttributeMapping]]:
    """One class's ``collections`` in declaration order, except that one whose
    subtree references a class held in a sibling's subtree loads after it."""
    held: Dict[str, List[str]] = {}
    for name, attribute in collections:
        classes = held[name] = [attribute.target_class]
        for held_class in classes:  # grows by every class held below
            classes += [
                a.target_class for a in mapping.classes[held_class].attributes.values()
                if a.kind == "collection" and a.target_class not in classes
            ]
    needs = {
        name: {
            a.target_class for held_class in classes
            for a in mapping.classes[held_class].attributes.values()
            if a.kind == "reference"
        }
        for name, classes in held.items()
    }
    order, pending = [], list(collections)
    while pending:  # siblings referencing each other keep declaration order
        ready = next((
            (name, a) for name, a in pending
            if not any(needs[name].intersection(held[other]) for other, _ in pending
                       if other != name)
        ), pending[0])
        order.append(ready)
        pending.remove(ready)
    return order

"""Automatic ASL → relational translation (the paper's stated future work).

* :mod:`repro.compiler.schema_gen` — data model → relational schema;
* :mod:`repro.compiler.loader` — object repository → rows (bulk insert);
* :mod:`repro.compiler.sql_gen` — performance properties → SQL queries.
"""

from repro.compiler.loader import (
    DEFAULT_LOAD_BATCH_SIZE,
    DatabaseLoader,
    ObjectIds,
    load_repository,
)
from repro.compiler.schema_gen import (
    DUAL_TABLE,
    PRIMARY_KEY,
    AttributeMapping,
    ClassMapping,
    SchemaMapping,
    generate_schema,
)
from repro.compiler.sql_gen import (
    CompiledQuery,
    PropertyCompiler,
    PushdownError,
)

__all__ = [
    "AttributeMapping",
    "ClassMapping",
    "CompiledQuery",
    "DEFAULT_LOAD_BATCH_SIZE",
    "DatabaseLoader",
    "DUAL_TABLE",
    "ObjectIds",
    "PRIMARY_KEY",
    "PropertyCompiler",
    "PushdownError",
    "SchemaMapping",
    "generate_schema",
    "load_repository",
]

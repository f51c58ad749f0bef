"""Property evaluation strategies: client-side vs. SQL pushdown.

Section 5 of the paper: *"The overall performance depends very much on the
work distribution between the client and the database.  It is a significant
advantage to translate the conditions of performance properties entirely into
SQL queries instead of first accessing the data components and evaluating the
expressions in the analysis tool."*

Two strategies implement that comparison:

:class:`ClientSideStrategy`
    evaluates properties with the ASL evaluator over the object repository.
    The evaluator compiles each property's expressions into closures on first
    use (see :mod:`repro.asl.compile`) and the strategy keeps one evaluator
    across all its :meth:`~ClientSideStrategy.evaluate` calls, so per-context
    work is parameter binding plus closure execution — symmetric to the plan
    cache the pushdown strategy enjoys in the database engine.  When a
    database client is attached, the strategy first
    *fetches the data components* of the property context through the
    client — charging the per-statement and per-row costs — and only then
    evaluates the expressions in the analysis tool.  This is the work
    distribution the paper advises against.  The fetches come from the
    spec's :class:`~repro.compiler.schema_gen.SchemaMapping`: for each
    parameter object, the element rows of every collection of its class in
    declaration order (a region's TotalTiming and TypedTiming rows, a call
    site's CallTiming rows), or its own row for a class without collections
    (a test run).

:class:`PushdownStrategy`
    executes the SQL queries generated by
    :class:`repro.compiler.PropertyCompiler`: one statement per condition /
    confidence / severity entry that reads data, each returning a single
    scalar.  The expression work happens inside the database engine; only the
    final values cross the (virtual) network.  Each statement is one serial
    round trip, as in the paper's Section 5 measurements.  An entry that reads
    no data (the bundled ``CONFIDENCE: 1``) was folded to its value by the
    translator and costs no statement.  A property the translator refuses
    (:class:`~repro.compiler.sql_gen.PushdownError`) is evaluated by the
    translator's own ASL evaluator instead, and counted in ``fallbacks``.

Both strategies decide an instance by the one Section 4 rule,
:meth:`repro.asl.compile.CompiledProperty.evaluate` (conditions, then the
guarded maximum of the confidence and, when a condition holds, of the
severity entries): the client-side strategy with compiled closures, the
pushdown strategy with one query per entry.  A NULL from the database is a
false condition and adds nothing to confidence or severity.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Protocol, Sequence, Tuple, Union

from repro.asl.compile import CompiledProperty
from repro.asl.evaluator import AslEvaluator, PropertyEvaluation
from repro.asl.semantic import CheckedSpecification
from repro.compiler.loader import ObjectIds
from repro.compiler.schema_gen import SchemaMapping, generate_schema
from repro.compiler.sql_gen import PropertyCompiler, PushdownError
from repro.relalg.client import DatabaseClient
from repro.relalg.errors import ExecutionError

__all__ = [
    "EvaluationStrategy",
    "ClientSideStrategy",
    "PushdownStrategy",
]


class EvaluationStrategy(Protocol):
    """Anything that can evaluate a named property for a parameter binding."""

    name: str

    def evaluate(
        self, property_name: str, parameters: Mapping[str, Any]
    ) -> PropertyEvaluation:  # pragma: no cover - protocol
        ...


class ClientSideStrategy:
    """Fetch data components first, evaluate the ASL expressions in the client."""

    name = "client"

    def __init__(
        self,
        checked: CheckedSpecification,
        constants: Optional[Mapping[str, Any]] = None,
        client: Optional[DatabaseClient] = None,
        ids: Optional[ObjectIds] = None,
    ) -> None:
        self.evaluator = AslEvaluator(checked, constants=constants)
        self.client = client
        self.ids = ids
        #: ASL class name → the SELECTs that ship one of its objects.
        self._fetches = {} if client is None else _fetch_statements(
            generate_schema(checked)
        )
        self.statements_issued = 0

    # ------------------------------------------------------------------ #

    def precompile(self, property_names: Optional[Sequence[str]] = None) -> None:
        """Compile the given (default: all) properties up front.

        Evaluation compiles lazily anyway; this mirrors
        :meth:`PushdownStrategy.compiled` so benchmarks can exclude the
        one-time compilation from the per-context measurements.
        """
        names = (
            list(self.evaluator.index.properties)
            if property_names is None
            else property_names
        )
        for name in names:
            self.evaluator.compile_property(name)

    def evaluate(
        self, property_name: str, parameters: Mapping[str, Any]
    ) -> PropertyEvaluation:
        if self.client is not None and self.ids is not None:
            self._fetch_data_components(parameters)
        return self.evaluator.evaluate_property(property_name, parameters)

    # ------------------------------------------------------------------ #

    def _fetch_data_components(self, parameters: Mapping[str, Any]) -> None:
        """Issue the record fetches a client-side evaluation would need.

        The fetched values are not used (the in-memory objects hold
        identical data); the purpose is to charge the realistic virtual cost
        of shipping the data components to the client.
        """
        if self.client is None or self.ids is None:
            # A real check, not an ``assert``: it must also hold under
            # ``python -O``, where asserts are compiled away.
            raise ExecutionError(
                "fetching data components requires both a database client "
                "and an object-id mapping"
            )
        for value in parameters.values():
            fetches = self._fetches.get(type(value).__name__, ())
            if fetches:
                row_id = self.ids.id_for(value)
                for sql in fetches:
                    self._query(sql, [row_id])

    def _query(self, sql: str, params: Sequence[Any]) -> None:
        if self.client is None:
            raise ExecutionError(
                "no database client attached to the client-side strategy"
            )
        self.client.query(sql, params)
        self.statements_issued += 1


def _fetch_statements(mapping: SchemaMapping) -> Dict[str, Tuple[str, ...]]:
    """Per class: one ``SELECT *`` of the element table per collection, in
    declaration order, keyed by the owner column; without collections, the
    class's own row by primary key."""
    fetches = {}
    for name, class_mapping in mapping.classes.items():
        owned = [
            (a.table, a.column) for a in class_mapping.attributes.values()
            if a.kind == "collection"
        ] or [(class_mapping.table, class_mapping.primary_key)]
        fetches[name] = tuple(
            f"SELECT * FROM {table} WHERE {column} = ?" for table, column in owned
        )
    return fetches


class PushdownStrategy:
    """Evaluate conditions, confidence and severity entirely inside the database."""

    name = "pushdown"

    def __init__(
        self,
        checked: CheckedSpecification,
        mapping: SchemaMapping,
        client: DatabaseClient,
        ids: ObjectIds,
        constants: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.checked = checked
        self.mapping = mapping
        self.client = client
        self.ids = ids
        self.compiler = PropertyCompiler(checked, mapping, constants=constants)
        #: Property name → its translation, or the translator's refusal.
        self._compiled: Dict[str, Union[CompiledProperty, PushdownError]] = {}
        self.statements_issued = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------ #

    def compiled(self, property_name: str) -> CompiledProperty:
        """The compiled SQL form of a property (cached, and so is the
        translator's refusal, raised again on every call)."""
        compiled = self._compiled.get(property_name)
        if compiled is None:
            try:
                compiled = self.compiler.compile_property(property_name)
            except PushdownError as refusal:
                compiled = refusal
            self._compiled[property_name] = compiled
        if isinstance(compiled, PushdownError):
            raise compiled.with_traceback(None)
        return compiled

    def evaluate(
        self, property_name: str, parameters: Mapping[str, Any]
    ) -> PropertyEvaluation:
        try:
            compiled = self.compiled(property_name)
        except PushdownError:
            # The property uses a construct outside the SQL subset: evaluate
            # it client-side, with the translator's evaluator (and count the
            # fallback).
            self.fallbacks += 1
            return self.compiler.evaluator.evaluate_property(
                property_name, parameters
            )
        binding = self._binding(parameters)
        result = PropertyEvaluation(
            property_name=property_name, parameters=dict(parameters)
        )
        return compiled.evaluate(result, lambda query: self._scalar(query, binding))

    # ------------------------------------------------------------------ #

    def _binding(self, parameters: Mapping[str, Any]) -> Dict[str, Any]:
        binding: Dict[str, Any] = {}
        for name, value in parameters.items():
            if hasattr(value, "uid"):
                binding[name] = self.ids.id_for(value)
            else:
                binding[name] = value
        return binding

    def _scalar(self, query, binding: Mapping[str, Any]) -> Any:
        if query.folded:
            return query.value
        result = self.client.query(query.sql, query.bind(binding))
        self.statements_issued += 1
        if not result.rows:
            return None
        return result.rows[0][0]

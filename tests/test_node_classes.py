"""Contracts of the slotted record classes (:mod:`repro.records`).

The AST, token, model and statistics classes on the command line's import
path were dataclasses; they are plain slotted classes now.  ``CONTRACTS``
writes down, for each class, what its dataclass definition promised:

* the constructor's fields in positional order, and the default of every
  optional field (``fresh(factory)``: equal to ``factory()`` and a new object
  per instance; ``NEW_ID``: a new entity id per instance);
* the fields equality and hashing compare (``ALL``: every field);
* hashing: ``frozen`` (immutable, hash follows ``==``), ``uid-hash`` (hashed
  by entity id) or ``unhashable``.

Every class is checked against it: construction by position and by keyword,
defaults, equality that ignores exactly the uncompared fields, hashability,
immutability of frozen classes, and a ``pickle``/``copy`` round trip of the
frozen ones (their assignment raises, so ``copy`` and ``pickle`` must rebuild
them through the constructor, in ``FrozenRecord.__reduce__``).
A subprocess also checks that importing and running the command line never
imports :mod:`dataclasses`.
"""

from __future__ import annotations

import copy
import datetime as dt
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apprentice import program_model, simulator
from repro.asl import ast_nodes, errors, evaluator, symbols, tokens, types
from repro.asl import compile as asl_compile
from repro.asl.errors import SourceLocation
from repro.compiler import loader, schema_gen, sql_gen
from repro.cosy import analyzer, properties
from repro.datamodel import entities
from repro.datamodel.timing_types import TimingType
from repro.relalg import (
    backends,
    client,
    database,
    planner,
    rowset,
    schema,
    semantics,
    sqlast,
    sqlparser,
    storage,
)

ALL = None
NEW_ID = "new entity id"


class fresh:
    """The default of a default factory: ``factory()``, new per instance."""

    def __init__(self, factory) -> None:
        self.factory = factory


class Marker:
    """A distinct, hashable and picklable field value."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Marker) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Marker({self.name!r})"


# (class, fields in constructor order, defaults, compared fields, hashing)
CONTRACTS = [
    (entities.SourceCode, "files", {"files": fresh(dict)}, ALL, "unhashable"),
    (entities.TestRun, "Start NoPe Clockspeed uid", {"uid": NEW_ID}, "uid", "uid-hash"),
    (entities.TotalTiming, "Run Excl Incl Ovhd uid", {"uid": NEW_ID}, ALL, "uid-hash"),
    (entities.TypedTiming, "Run Type Time uid", {"uid": NEW_ID}, ALL, "uid-hash"),
    (
        entities.CallTiming,
        "Run MinCalls MaxCalls MeanCalls StdevCalls MinTime MaxTime MeanTime "
        "StdevTime MinCallsPe MaxCallsPe MinTimePe MaxTimePe uid",
        {
            "MinCallsPe": 0, "MaxCallsPe": 0, "MinTimePe": 0, "MaxTimePe": 0,
            "uid": NEW_ID,
        },
        ALL,
        "uid-hash",
    ),
    (
        entities.Region,
        "name kind ParentRegion TotTimes TypTimes source_file first_line last_line uid",
        {
            "kind": entities.RegionKind.BASIC_BLOCK, "ParentRegion": None,
            "TotTimes": fresh(list), "TypTimes": fresh(list), "source_file": "",
            "first_line": 0, "last_line": 0, "uid": NEW_ID,
        },
        "uid",
        "uid-hash",
    ),
    (
        entities.FunctionCall,
        "Caller CallingReg Sums callee_name uid",
        {"Sums": fresh(list), "callee_name": "", "uid": NEW_ID},
        ALL,
        "uid-hash",
    ),
    (
        entities.Function,
        "Name Calls Regions uid",
        {"Calls": fresh(list), "Regions": fresh(list), "uid": NEW_ID},
        "uid",
        "uid-hash",
    ),
    (
        entities.ProgVersion,
        "Compilation Functions Runs Code label uid",
        {
            "Functions": fresh(list), "Runs": fresh(list),
            "Code": fresh(entities.SourceCode), "label": "", "uid": NEW_ID,
        },
        ALL,
        "uid-hash",
    ),
    (
        entities.Program,
        "Name Versions uid",
        {"Versions": fresh(list), "uid": NEW_ID},
        ALL,
        "uid-hash",
    ),
    (
        errors.SourceLocation,
        "line column filename",
        {"line": 0, "column": 0, "filename": "<asl>"},
        ALL,
        "frozen",
    ),
    (
        ast_nodes.TypeRef,
        "name is_set location",
        {"is_set": False, "location": fresh(SourceLocation.unknown)},
        "name is_set",
        "frozen",
    ),
    (
        ast_nodes.Expr,
        "location",
        {"location": fresh(SourceLocation.unknown)},
        "",
        "unhashable",
    ),
    (
        ast_nodes.IntLiteral,
        "location value",
        {"location": fresh(SourceLocation.unknown), "value": 0},
        "value",
        "unhashable",
    ),
    (
        ast_nodes.FloatLiteral,
        "location value",
        {"location": fresh(SourceLocation.unknown), "value": 0.0},
        "value",
        "unhashable",
    ),
    (
        ast_nodes.StringLiteral,
        "location value",
        {"location": fresh(SourceLocation.unknown), "value": ""},
        "value",
        "unhashable",
    ),
    (
        ast_nodes.BoolLiteral,
        "location value",
        {"location": fresh(SourceLocation.unknown), "value": False},
        "value",
        "unhashable",
    ),
    (
        ast_nodes.Identifier,
        "location name",
        {"location": fresh(SourceLocation.unknown), "name": ""},
        "name",
        "unhashable",
    ),
    (
        ast_nodes.AttributeAccess,
        "location obj attribute",
        {
            "location": fresh(SourceLocation.unknown), "obj": fresh(ast_nodes.Expr),
            "attribute": "",
        },
        "obj attribute",
        "unhashable",
    ),
    (
        ast_nodes.FunctionCall,
        "location name args",
        {"location": fresh(SourceLocation.unknown), "name": "", "args": fresh(list)},
        "name args",
        "unhashable",
    ),
    (
        ast_nodes.UnaryExpr,
        "location op operand",
        {
            "location": fresh(SourceLocation.unknown), "op": ast_nodes.UnaryOp.NEG,
            "operand": fresh(ast_nodes.Expr),
        },
        "op operand",
        "unhashable",
    ),
    (
        ast_nodes.BinaryExpr,
        "location op left right",
        {
            "location": fresh(SourceLocation.unknown), "op": ast_nodes.BinaryOp.ADD,
            "left": fresh(ast_nodes.Expr), "right": fresh(ast_nodes.Expr),
        },
        "op left right",
        "unhashable",
    ),
    (
        ast_nodes.SetComprehension,
        "location var source predicate",
        {
            "location": fresh(SourceLocation.unknown), "var": "",
            "source": fresh(ast_nodes.Expr), "predicate": None,
        },
        "var source predicate",
        "unhashable",
    ),
    (
        ast_nodes.AggregateExpr,
        "location func value var source predicate",
        {
            "location": fresh(SourceLocation.unknown), "func": "SUM",
            "value": fresh(ast_nodes.Expr), "var": "", "source": None,
            "predicate": None,
        },
        "func value var source predicate",
        "unhashable",
    ),
    (
        ast_nodes.AttributeDecl,
        "type name location",
        {"location": fresh(SourceLocation.unknown)},
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.ClassDecl,
        "name attributes base location",
        {
            "attributes": fresh(list), "base": None,
            "location": fresh(SourceLocation.unknown),
        },
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.EnumDecl,
        "name members location",
        {"members": fresh(list), "location": fresh(SourceLocation.unknown)},
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.ConstantDecl,
        "type name value location",
        {"location": fresh(SourceLocation.unknown)},
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.Param,
        "type name location",
        {"location": fresh(SourceLocation.unknown)},
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.FunctionDecl,
        "return_type name params body location",
        {"location": fresh(SourceLocation.unknown)},
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.LetDef,
        "type name value location",
        {"location": fresh(SourceLocation.unknown)},
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.ConditionClause,
        "expr cond_id location",
        {"cond_id": None, "location": fresh(SourceLocation.unknown)},
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.GuardedExpr,
        "expr guard location",
        {"guard": None, "location": fresh(SourceLocation.unknown)},
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.ValueSpec,
        "entries is_max location",
        {
            "entries": fresh(list), "is_max": False,
            "location": fresh(SourceLocation.unknown),
        },
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.PropertyDecl,
        "name params let_defs conditions confidence severity location",
        {
            "params": fresh(list), "let_defs": fresh(list), "conditions": fresh(list),
            "confidence": fresh(ast_nodes.ValueSpec),
            "severity": fresh(ast_nodes.ValueSpec),
            "location": fresh(SourceLocation.unknown),
        },
        ALL,
        "unhashable",
    ),
    (
        ast_nodes.AslProgram,
        "declarations filename",
        {"declarations": fresh(list), "filename": "<asl>"},
        ALL,
        "unhashable",
    ),
    (types.ScalarType, "kind", {}, ALL, "frozen"),
    (types.ClassType, "name", {}, ALL, "frozen"),
    (types.EnumType, "name members", {"members": ()}, ALL, "frozen"),
    (types.SetType, "element", {}, ALL, "frozen"),
    (types.AnyType, "", {}, ALL, "frozen"),
    (
        symbols.ClassInfo,
        "decl attributes declared_in base",
        {"attributes": fresh(dict), "declared_in": fresh(dict), "base": None},
        ALL,
        "unhashable",
    ),
    (
        evaluator.PropertyEvaluation,
        "property_name parameters holds confidence severity conditions let_values",
        {
            "parameters": fresh(dict), "holds": False, "confidence": 0.0,
            "severity": 0.0, "conditions": fresh(dict), "let_values": fresh(dict),
        },
        ALL,
        "unhashable",
    ),
    (tokens.Token, "type text location value", {"value": None}, ALL, "frozen"),
    (
        program_model.CallSpec,
        "callee calls_per_pe time_per_call imbalance count_imbalance",
        {
            "calls_per_pe": 1.0, "time_per_call": 0.0001, "imbalance": 0.0,
            "count_imbalance": 0.0,
        },
        ALL,
        "unhashable",
    ),
    (
        program_model.RegionSpec,
        "name kind work serial_fraction imbalance barriers comm_pattern comm_time "
        "io_time io_parallel fp_fraction int_fraction children calls source_file "
        "first_line last_line",
        {
            "kind": entities.RegionKind.BASIC_BLOCK, "work": 0.0,
            "serial_fraction": 0.0, "imbalance": 0.0, "barriers": 0,
            "comm_pattern": program_model.CommPattern.NONE, "comm_time": 0.0,
            "io_time": 0.0, "io_parallel": True, "fp_fraction": 0.55,
            "int_fraction": 0.2, "children": fresh(list), "calls": fresh(list),
            "source_file": "", "first_line": 0, "last_line": 0,
        },
        ALL,
        "unhashable",
    ),
    (program_model.FunctionSpec, "name body", {}, ALL, "unhashable"),
    (
        program_model.WorkloadSpec,
        "name functions entry reference_clock_mhz instrumentation_per_region",
        {
            "functions": fresh(list), "entry": "main", "reference_clock_mhz": 300,
            "instrumentation_per_region": 5e-05,
        },
        ALL,
        "unhashable",
    ),
    (
        simulator.SimulationConfig,
        "pe_counts clock_mhz barrier_latency measurement_jitter cache_miss_fraction "
        "start_time seed",
        {
            "pe_counts": (1, 2, 4, 8, 16, 32), "clock_mhz": 300,
            "barrier_latency": 5e-06, "measurement_jitter": 0.01,
            "cache_miss_fraction": 0.04,
            "start_time": fresh(lambda: dt.datetime(2000, 1, 17, 9, 0)), "seed": 0,
        },
        ALL,
        "unhashable",
    ),
    (simulator.RegionMeasurement, "compute typed", {}, ALL, "unhashable"),
    (
        properties.PropertyRegistration,
        "name only_callees",
        {"only_callees": None},
        ALL,
        "frozen",
    ),
    (
        rowset.QueryStats,
        "rows_scanned index_lookups range_probes rows_joined rows_returned "
        "subqueries hash_probes subquery_replays",
        {
            "rows_scanned": 0, "index_lookups": 0, "range_probes": 0, "rows_joined": 0,
            "rows_returned": 0, "subqueries": 0, "hash_probes": 0,
            "subquery_replays": 0,
        },
        "rows_scanned index_lookups range_probes rows_joined rows_returned subqueries hash_probes",
        "unhashable",
    ),
    (
        rowset.ResultSet,
        "columns rows stats",
        {"stats": fresh(rowset.QueryStats)},
        ALL,
        "unhashable",
    ),
    (sqlast.Literal, "value", {}, ALL, "frozen"),
    (
        sqlast.ColumnRef,
        "name table position",
        {"table": None, "position": None},
        "name table",
        "frozen",
    ),
    (sqlast.Star, "table", {"table": None}, ALL, "frozen"),
    (sqlast.Placeholder, "index", {}, ALL, "frozen"),
    (
        sqlast.BinaryOperation,
        "op left right position origin",
        {"position": None, "origin": None},
        "op left right",
        "frozen",
    ),
    (
        sqlast.UnaryOperation,
        "op operand position origin",
        {"position": None, "origin": None},
        "op operand",
        "frozen",
    ),
    (
        sqlast.FunctionExpr,
        "name args distinct position",
        {"args": (), "distinct": False, "position": None},
        "name args distinct",
        "frozen",
    ),
    (sqlast.IsNull, "operand negated", {"negated": False}, ALL, "frozen"),
    (sqlast.InList, "operand items negated", {"negated": False}, ALL, "frozen"),
    (sqlast.ScalarSubquery, "select", {}, ALL, "frozen"),
    (sqlast.SelectItem, "expr alias", {"alias": None}, ALL, "frozen"),
    (sqlast.TableRef, "name alias", {"alias": None}, ALL, "frozen"),
    (sqlast.Join, "table on", {"on": None}, ALL, "frozen"),
    (sqlast.OrderItem, "expr ascending", {"ascending": True}, ALL, "frozen"),
    (
        sqlast.SelectStatement,
        "items from_tables joins where group_by having order_by limit offset distinct",
        {
            "items": fresh(list), "from_tables": fresh(list), "joins": fresh(list),
            "where": None, "group_by": fresh(list), "having": None,
            "order_by": fresh(list), "limit": None, "offset": None, "distinct": False,
        },
        ALL,
        "unhashable",
    ),
    (
        sqlast.ColumnDef,
        "name type_name nullable primary_key",
        {"nullable": True, "primary_key": False},
        ALL,
        "frozen",
    ),
    (
        sqlast.CreateTableStatement,
        "table columns if_not_exists",
        {"columns": fresh(list), "if_not_exists": False},
        ALL,
        "unhashable",
    ),
    (
        sqlast.CreateIndexStatement,
        "name table column ordered",
        {"ordered": False},
        ALL,
        "unhashable",
    ),
    (
        sqlast.InsertStatement,
        "table columns rows",
        {"columns": fresh(list), "rows": fresh(list)},
        ALL,
        "unhashable",
    ),
    (sqlast.DeleteStatement, "table where", {"where": None}, ALL, "unhashable"),
    (
        sqlast.DropTableStatement,
        "table if_exists",
        {"if_exists": False},
        ALL,
        "unhashable",
    ),
    (sqlast.BeginStatement, "", {}, ALL, "frozen"),
    (sqlast.CommitStatement, "", {}, ALL, "frozen"),
    (sqlast.RollbackStatement, "", {}, ALL, "frozen"),
    (
        schema.Column,
        "name type nullable primary_key",
        {"nullable": True, "primary_key": False},
        ALL,
        "frozen",
    ),
    (schema.TableSchema, "name columns", {"columns": fresh(list)}, ALL, "unhashable"),
    (
        storage.ColumnHistogram,
        "column lo hi width counts total table_rows",
        {},
        ALL,
        "unhashable",
    ),
    (
        storage.TableStatistics,
        "table row_count index_distinct histograms mutations",
        {
            "index_distinct": fresh(dict),
            "histograms": fresh(dict), "mutations": 0,
        },
        ALL,
        "unhashable",
    ),
    (
        semantics.RangeInterval,
        "lo lo_incl lo_expr hi hi_incl hi_expr",
        {
            "lo": None, "lo_incl": True, "lo_expr": None, "hi": None, "hi_incl": True,
            "hi_expr": None,
        },
        ALL,
        "unhashable",
    ),
    (
        semantics.Analysis,
        "applicable errors warnings report conjuncts contradiction intervals "
        "item_types subqueries",
        {
            "applicable": True, "errors": fresh(list), "warnings": fresh(list),
            "report": (), "conjuncts": None, "contradiction": False,
            "intervals": fresh(dict), "item_types": fresh(list),
            "subqueries": fresh(dict),
        },
        ALL,
        "unhashable",
    ),
    (
        planner.QueryPlan,
        "statement layout levels columns projector identity_projection group_key_fns "
        "having_fn item_group_fns order_spec distinct limit offset table_deps "
        "subquery_plans follows_syntactic_order vector_eligible vector_filter "
        "slot_projector vector_aggregate vector_join_key vector_report "
        "contradiction analysis_report index_order",
        {
            "vector_eligible": False, "vector_filter": None, "slot_projector": None,
            "vector_aggregate": None, "vector_join_key": None,
            "vector_report": fresh(dict), "contradiction": False, "analysis_report": (),
            "index_order": None,
        },
        ALL,
        "unhashable",
    ),
    (
        sqlparser.SqlToken,
        "kind text value position",
        {"value": None, "position": 0},
        ALL,
        "frozen",
    ),
    (
        database.ExecutionSummary,
        "statements selects inserts rows_inserted select_stats",
        {
            "statements": 0, "selects": 0, "inserts": 0, "rows_inserted": 0,
            "select_stats": fresh(rowset.QueryStats),
        },
        ALL,
        "unhashable",
    ),
    (
        backends.BackendProfile,
        "name description remote connect_latency round_trip per_insert_statement "
        "per_insert_row per_fetch_row per_scanned_row",
        {},
        ALL,
        "frozen",
    ),
    (client.ClientCosts, "per_call per_row per_param", {}, ALL, "frozen"),
    (
        schema_gen.AttributeMapping,
        "kind column table target_class",
        {"target_class": None},
        ALL,
        "frozen",
    ),
    (
        schema_gen.ClassMapping,
        "class_name table primary_key attributes",
        {"primary_key": "id", "attributes": fresh(dict)},
        ALL,
        "unhashable",
    ),
    (loader.ObjectIds, "by_class", {"by_class": fresh(dict)}, ALL, "unhashable"),
    (
        sql_gen.CompiledQuery,
        "sql param_slots folded value",
        {"param_slots": fresh(list), "folded": False, "value": None},
        ALL,
        "unhashable",
    ),
    (
        asl_compile.CompiledProperty,
        "decl lets conditions confidence severity",
        {},
        ALL,
        "unhashable",
    ),
    (
        analyzer.PropertyInstance,
        "property_name subject subject_kind run_pes holds confidence severity "
        "conditions",
        {"conditions": fresh(dict)},
        ALL,
        "unhashable",
    ),
    (
        analyzer.AnalysisResult,
        "program version run_pes basis threshold strategy instances skipped",
        {"instances": fresh(list), "skipped": 0},
        ALL,
        "unhashable",
    ),
]

#: Valid values of every field, for the classes whose constructor checks them.
VALID = {
    entities.TestRun: dict(Start=dt.datetime(2000, 1, 1), NoPe=4, Clockspeed=300, uid=-1),
    entities.TotalTiming: dict(
        Run=Marker("run"), Excl=1.0, Incl=2.0, Ovhd=0.5, uid=-2
    ),
    entities.TypedTiming: dict(
        Run=Marker("run"), Type=next(iter(TimingType)), Time=1.5, uid=-3
    ),
    entities.CallTiming: dict(
        Run=Marker("run"), MinCalls=1.0, MaxCalls=4.0, MeanCalls=2.0,
        StdevCalls=0.5, MinTime=0.1, MaxTime=0.9, MeanTime=0.4, StdevTime=0.2,
        MinCallsPe=1, MaxCallsPe=2, MinTimePe=3, MaxTimePe=4, uid=-4,
    ),
    program_model.CallSpec: dict(
        callee="barrier", calls_per_pe=2.0, time_per_call=1e-3, imbalance=0.1,
        count_imbalance=0.2,
    ),
    program_model.RegionSpec: dict(
        name="r", kind=entities.RegionKind.LOOP, work=1.0, serial_fraction=0.1,
        imbalance=0.2, barriers=3, comm_pattern=program_model.CommPattern.BROADCAST,
        comm_time=0.3, io_time=0.4, io_parallel=False, fp_fraction=0.5,
        int_fraction=0.25, children=[Marker("child")], calls=[Marker("call")],
        source_file="r.f", first_line=10, last_line=20,
    ),
    program_model.FunctionSpec: dict(
        name="f", body=program_model.RegionSpec("b", kind=entities.RegionKind.SUBPROGRAM)
    ),
    program_model.WorkloadSpec: dict(
        name="w", functions=[], entry="start", reference_clock_mhz=450,
        instrumentation_per_region=1e-4,
    ),
    simulator.SimulationConfig: dict(
        pe_counts=(1, 4), clock_mhz=450, barrier_latency=1e-6,
        measurement_jitter=0.02, cache_miss_fraction=0.05,
        start_time=dt.datetime(2001, 1, 1), seed=7,
    ),
    schema.TableSchema: dict(
        name="t", columns=[schema.Column("a", schema.ColumnType.INTEGER)]
    ),
}


def _id(contract) -> str:
    return contract[0].__qualname__


def _fields(contract):
    return contract[1].split()


def _values(contract) -> dict:
    """A value for every field, distinct across the fields."""
    cls = contract[0]
    if cls in VALID:
        return dict(VALID[cls])
    return {name: Marker(f"{cls.__qualname__}.{name}") for name in _fields(contract)}


def _required(contract) -> dict:
    values = _values(contract)
    return {name: values[name] for name in _fields(contract) if name not in contract[2]}


def _compared(contract):
    return _fields(contract) if contract[3] is ALL else contract[3].split()


def _with(obj, name, value):
    """``obj`` with one field replaced, bypassing immutability and checks."""
    object.__setattr__(obj, name, value)
    return obj


@pytest.mark.parametrize("contract", CONTRACTS, ids=_id)
class TestRecordContracts:
    def test_construction_by_position_and_by_keyword(self, contract):
        cls, names = contract[0], _fields(contract)
        values = _values(contract)
        for obj in (cls(*[values[name] for name in names]), cls(**values)):
            for name in names:
                assert getattr(obj, name) is values[name], name

    def test_defaults_and_fresh_default_factories(self, contract):
        cls, defaults = contract[0], contract[2]
        first, second = cls(**_required(contract)), cls(**_required(contract))
        for name, default in defaults.items():
            value = getattr(first, name)
            if default == NEW_ID:
                assert type(value) is int and value != getattr(second, name)
            elif isinstance(default, fresh):
                assert value == default.factory(), name
                assert type(value) is type(default.factory()), name
                assert value is not getattr(second, name), name
            else:
                assert value == default and type(value) is type(default), name

    def test_equality_ignores_exactly_the_uncompared_fields(self, contract):
        cls, values = contract[0], _values(contract)
        compared = _compared(contract)
        reference = cls(**values)
        assert reference == cls(**values)
        assert not reference != cls(**values)
        for name in _fields(contract):
            changed = _with(cls(**values), name, Marker("changed"))
            assert (reference == changed) is (name not in compared), name
            if contract[4] != "unhashable" and name not in compared:
                assert hash(reference) == hash(changed), name

    def test_hashing(self, contract):
        cls, kind = contract[0], contract[4]
        obj = cls(**_values(contract))
        if kind == "unhashable":
            with pytest.raises(TypeError):
                hash(obj)
        elif kind == "uid-hash":
            assert hash(obj) == hash(obj.uid)
        else:
            assert hash(obj) == hash(cls(**_values(contract)))



FROZEN = [contract for contract in CONTRACTS if contract[4] == "frozen"]


@pytest.mark.parametrize("contract", FROZEN, ids=_id)
class TestFrozenRecords:
    def test_assignment_raises(self, contract):
        obj = contract[0](**_values(contract))
        for name in _fields(contract) + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, Marker("changed"))
            with pytest.raises(AttributeError):
                delattr(obj, name)

    def test_pickle_and_copy_round_trips(self, contract):
        obj = contract[0](**_values(contract))
        clones = [
            pickle.loads(pickle.dumps(obj, protocol))
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
        ]
        clones += [copy.copy(obj), copy.deepcopy(obj)]
        for clone in clones:
            assert type(clone) is type(obj) and clone == obj
            for name in _fields(contract):
                assert getattr(clone, name) == getattr(obj, name), name
            with pytest.raises(AttributeError):
                setattr(clone, (_fields(contract) or ["extra"])[0], Marker("changed"))


def test_every_record_class_of_the_command_line_has_a_contract():
    """A record class added to the import path gets a row in CONTRACTS."""
    from repro import records
    import repro.cosy.cli  # noqa: F401

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    abstract = {sqlast.SqlExpr, types.Type}
    found = {
        cls for cls in subclasses(records.Record)
        if cls is not records.FrozenRecord and cls not in abstract
    }
    assert found == {contract[0] for contract in CONTRACTS}


def test_nested_sql_ast_round_trips_through_pickle_and_copy():
    where = sqlparser.parse_sql(
        "SELECT a FROM t WHERE a = ? AND (b IN (1, 2) OR -c < 3 * a) AND d IS NULL"
    ).where
    clones = [
        pickle.loads(pickle.dumps(where, protocol))
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
    ]
    clones += [copy.copy(where), copy.deepcopy(where)]
    for clone in clones:
        assert clone == where and hash(clone) == hash(where)
        assert clone.left.left.position == where.left.left.position


_SRC = Path(__file__).resolve().parent.parent / "src"

_CHILD = """
import json, sys

importers = []


class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "dataclasses" and not importers:
            frame = sys._getframe(1)
            while frame is not None and not frame.f_globals.get(
                "__name__", ""
            ).startswith("repro"):
                frame = frame.f_back
            importers.append(frame.f_globals["__name__"] if frame else "?")
        return None


sys.meta_path.insert(0, Watch())
loaded = {}
import repro.cosy.cli
loaded["repro.cosy.cli"] = "dataclasses" in sys.modules
code = repro.cosy.cli.main(sys.argv[1:])
loaded["cosy run"] = "dataclasses" in sys.modules
sys.stdout.flush()
sys.stderr.write(json.dumps({"loaded": loaded, "importers": importers}))
sys.exit(code)
"""


def test_the_command_line_never_imports_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, "--workload", "mixed", "--pes", "1", "2",
         "4", "8", "16", "--strategy", "pushdown"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stderr.splitlines()[-1])
    assert report["loaded"] == {"repro.cosy.cli": False, "cosy run": False}, (
        f"dataclasses imported by {report['importers']}"
    )
    assert "SublinearSpeedup" in done.stdout

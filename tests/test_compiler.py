"""Tests of the ASL→SQL compiler: schema generation, loading, query generation."""

import datetime as dt
import enum
from types import SimpleNamespace

import pytest

from repro.asl import parse_asl, check_asl
from repro.asl.ast_nodes import walk
from repro.asl.specs import cosy_specification
from repro.asl.specs.cosy_model import COSY_DATA_MODEL
from repro.compiler import (
    DUAL_TABLE,
    PRIMARY_KEY,
    DatabaseLoader,
    PropertyCompiler,
    PushdownError,
    generate_schema,
    load_repository,
)
from repro.datamodel import (
    DataModelError,
    Function,
    PerformanceDatabase,
    ProgVersion,
    Program,
    Region,
)
from repro.relalg import Database
from repro.relalg.sqlparser import parse_sql


class TestSchemaGeneration:
    def test_one_table_per_class_plus_dual(self, cosy_spec, schema_mapping):
        tables = {schema.name for schema in schema_mapping.table_schemas()}
        assert tables == set(cosy_spec.index.classes) | {DUAL_TABLE}

    def test_every_table_has_a_primary_key(self, schema_mapping):
        for schema in schema_mapping.table_schemas():
            if schema.name == DUAL_TABLE:
                continue
            assert schema.columns[0].name == PRIMARY_KEY
            assert schema.columns[0].primary_key

    def test_scalar_attributes_become_columns(self, schema_mapping):
        total = schema_mapping.schemas["TotalTiming"]
        names = set(total.column_names)
        assert {"Excl", "Incl", "Ovhd", "Run_id"} <= names

    def test_reference_attribute_becomes_fk_column(self, schema_mapping):
        attribute = schema_mapping.attribute("TotalTiming", "Run")
        assert attribute.kind == "reference"
        assert attribute.column == "Run_id"
        assert attribute.target_class == "TestRun"

    def test_collection_attribute_becomes_owner_fk_on_element_table(self, schema_mapping):
        attribute = schema_mapping.attribute("Region", "TotTimes")
        assert attribute.kind == "collection"
        assert attribute.table == "TotalTiming"
        assert attribute.column == "owner_Region_TotTimes_id"
        assert "owner_Region_TotTimes_id" in schema_mapping.schemas["TotalTiming"].column_names

    def test_enum_attribute_becomes_varchar(self, schema_mapping):
        attribute = schema_mapping.attribute("TypedTiming", "Type")
        assert attribute.kind == "enum"
        column = schema_mapping.schemas["TypedTiming"].column("Type")
        assert column.type.value == "VARCHAR"

    def test_generated_ddl_parses(self, schema_mapping):
        for statement in schema_mapping.create_statements():
            parse_sql(statement)
        for statement in schema_mapping.index_statements():
            parse_sql(statement)

    def test_index_statements_cover_foreign_keys(self, schema_mapping):
        statements = "\n".join(schema_mapping.index_statements())
        assert "owner_Region_TotTimes_id" in statements
        assert "Run_id" in statements

    def test_bundled_index_statements(self, schema_mapping):
        assert schema_mapping.index_statements() == [
            f"CREATE INDEX idx_{table}_{column} ON {table} ({column})"
            for table, column in _BUNDLED_FOREIGN_KEYS
        ]

    def test_only_foreign_keys_are_indexed(self):
        # A scalar whose name ends in ``_id`` is no foreign key.
        mapping = generate_schema(check_asl(parse_asl(
            "class Sample { int Legacy_id; Sample Parent; setof Sample Kids; }"
        )))
        assert mapping.index_statements() == [
            "CREATE INDEX idx_Sample_Parent_id ON Sample (Parent_id)",
            "CREATE INDEX idx_Sample_owner_Sample_Kids_id "
            "ON Sample (owner_Sample_Kids_id)",
        ]

    def test_unknown_class_or_attribute_lookup(self, schema_mapping):
        with pytest.raises(Exception):
            schema_mapping.table_for("Widget")
        with pytest.raises(Exception):
            schema_mapping.attribute("Region", "Widget")

    def test_collections_of_scalars_are_rejected(self):
        spec = check_asl(parse_asl("class Weird { setof int Values; }"))
        with pytest.raises(Exception, match="collection attribute"):
            generate_schema(spec)


#: The bundled model's foreign-key columns, in table and column order.
_BUNDLED_FOREIGN_KEYS = [
    ("ProgVersion", "owner_Program_Versions_id"),
    ("TestRun", "owner_ProgVersion_Runs_id"),
    ("Function", "owner_ProgVersion_Functions_id"),
    ("Region", "ParentRegion_id"),
    ("Region", "owner_Function_Regions_id"),
    ("TotalTiming", "Run_id"),
    ("TotalTiming", "owner_Region_TotTimes_id"),
    ("TypedTiming", "Run_id"),
    ("TypedTiming", "owner_Region_TypTimes_id"),
    ("FunctionCall", "Caller_id"),
    ("FunctionCall", "CallingReg_id"),
    ("FunctionCall", "owner_Function_Calls_id"),
    ("CallTiming", "Run_id"),
    ("CallTiming", "owner_FunctionCall_Sums_id"),
]


class TestRowShapes:
    def test_a_row_is_key_attributes_and_owner(self, schema_mapping):
        shape = schema_mapping.row_shape("TypedTiming", "owner_Region_TypTimes_id")
        assert shape.sql == (
            "INSERT INTO TypedTiming (id, Run_id, Type, Time, "
            "owner_Region_TypTimes_id) VALUES (?, ?, ?, ?, ?)"
        )
        assert [position for position, _ in shape.stored] == [1, 2]
        root = schema_mapping.row_shape("Program")
        assert root.sql == "INSERT INTO Program (id, Name) VALUES (?, ?)"
        assert root.stored == ()

    def test_collections_load_after_the_siblings_they_reference(
        self, schema_mapping
    ):
        # ProgVersion declares Functions before Runs, but timings in the
        # Functions subtree reference TestRun; calls reference regions.
        assert schema_mapping.row_shape("ProgVersion").collections == (
            ("TestRun", "owner_ProgVersion_Runs_id"),
            ("Function", "owner_ProgVersion_Functions_id"),
        )
        assert schema_mapping.row_shape("Function").collections == (
            ("Region", "owner_Function_Regions_id"),
            ("FunctionCall", "owner_Function_Calls_id"),
        )
        assert schema_mapping.row_shape("Region").collections == (
            ("TotalTiming", "owner_Region_TotTimes_id"),
            ("TypedTiming", "owner_Region_TypTimes_id"),
        )
        assert schema_mapping.row_shape("Region").parents == ("ParentRegion",)

    def test_load_order_follows_references_between_siblings(self):
        mapping = generate_schema(check_asl(parse_asl(
            "class Root { setof A As; setof B Bs; setof C Cs; setof X Xs; setof Y Ys; }"
            "class A { B Partner; } class B { setof D Ds; } class C { int N; }"
            "class D { C Target; } class X { Y Other; } class Y { X Other; }"
        )))
        # A after B, whose subtree references C; X and Y reference each
        # other and keep their declaration order.
        assert [element for element, _ in mapping.row_shape("Root").collections] == [
            "C", "B", "A", "X", "Y"
        ]

    def test_shapes_are_built_once_per_class_and_owner_column(self, schema_mapping):
        shape = schema_mapping.row_shape("TestRun", "owner_ProgVersion_Runs_id")
        assert schema_mapping.row_shape(
            "TestRun", "owner_ProgVersion_Runs_id"
        ) is shape
        assert schema_mapping.row_shape("TestRun") is not shape


class TestLoader:
    def test_row_counts_match_repository_stats(self, cosy_spec, schema_mapping,
                                               mixed_repository):
        database = Database()
        ids = load_repository(mixed_repository, schema_mapping, database)
        stats = mixed_repository.stats()
        counts = database.row_counts()
        assert counts["Program"] == stats["programs"]
        assert counts["ProgVersion"] == stats["versions"]
        assert counts["TestRun"] == stats["runs"]
        assert counts["Region"] == stats["regions"]
        assert counts["TotalTiming"] == stats["total_timings"]
        assert counts["TypedTiming"] == stats["typed_timings"]
        assert counts["FunctionCall"] == stats["calls"]
        assert counts["CallTiming"] == stats["call_timings"]
        assert counts[DUAL_TABLE] == 1
        assert ids.total() == sum(
            stats[key] for key in (
                "programs", "versions", "runs", "functions", "regions",
                "total_timings", "typed_timings", "calls", "call_timings",
            )
        )

    def test_loaded_values_can_be_queried_back(self, schema_mapping, mixed_repository,
                                               mixed_run):
        database = Database()
        ids = load_repository(mixed_repository, schema_mapping, database)
        region = mixed_repository.region_by_name("app_main")
        region_id = ids.id_for(region)
        run_id = ids.id_for(mixed_run)
        incl = database.query(
            "SELECT Incl FROM TotalTiming WHERE owner_Region_TotTimes_id = ? AND Run_id = ?",
            [region_id, run_id],
        ).scalar()
        assert incl == pytest.approx(region.duration(mixed_run))

    def test_parent_region_foreign_keys_resolved(self, schema_mapping, mixed_repository):
        database = Database()
        ids = load_repository(mixed_repository, schema_mapping, database)
        child = mixed_repository.region_by_name("assemble_matrix")
        parent = mixed_repository.region_by_name("app_main")
        parent_id = database.query(
            "SELECT ParentRegion_id FROM Region WHERE id = ?", [ids.id_for(child)]
        ).scalar()
        assert parent_id == ids.id_for(parent)

    def test_id_lookup_errors(self, schema_mapping, mixed_repository):
        database = Database()
        ids = load_repository(mixed_repository, schema_mapping, database)
        with pytest.raises(KeyError):
            ids.id_of("Region", 10**9)

    def test_a_model_attribute_the_objects_lack_raises(self, mixed_repository):
        model = COSY_DATA_MODEL.replace(
            "int Clockspeed;", "int Clockspeed;\n    String Label;"
        )
        mapping = generate_schema(check_asl(parse_asl(model)))
        database = Database()
        loader = DatabaseLoader(mapping, database)
        loader.create_schema()
        with pytest.raises(DataModelError, match=r"TestRun\.Label"):
            loader.load(mixed_repository, atomic=True)
        assert database.row_counts()["TestRun"] == 0

    def test_any_data_model_loads(self):
        mapping = generate_schema(check_asl(parse_asl(
            "enum Genre { Novel, Poem }"
            "class Program { String Name; setof Book Books; }"
            "class Book { String Title; Genre Kind; Book Sequel; }"
        )))
        first = SimpleNamespace(uid=7, Title="a", Kind=Genre.Poem, Sequel=None)
        second = SimpleNamespace(uid=8, Title="b", Kind=None, Sequel=first)
        program = SimpleNamespace(uid=9, Name="shelf", Books=[second, first])
        database = Database()
        ids = load_repository(SimpleNamespace(programs=[program]), mapping, database)
        assert ids.by_class == {"Program": {9: 1}, "Book": {7: 1, 8: 2}}
        assert list(database.table("Book").scan()) == [
            (1, "a", "Poem", None, 1), (2, "b", None, 1, 1),
        ]

    def test_a_cyclic_parent_chain_raises(self, schema_mapping):
        outer, inner = Region(name="outer"), Region(name="inner")
        outer.ParentRegion, inner.ParentRegion = inner, outer
        repository = _one_function_repository([outer, inner])
        with pytest.raises(DataModelError, match="cycle through ParentRegion"):
            load_repository(repository, schema_mapping, Database())

    def test_parents_load_before_their_children(self, schema_mapping):
        leaf, middle, root = (Region(name=name) for name in ("leaf", "middle", "root"))
        leaf.ParentRegion, middle.ParentRegion = middle, root
        repository = _one_function_repository([leaf, middle, root])
        ids = load_repository(repository, schema_mapping, Database())
        assert [ids.id_for(r) for r in (root, middle, leaf)] == [1, 2, 3]

    def test_loading_without_indexes(self, schema_mapping, mixed_repository):
        database = Database()
        load_repository(
            mixed_repository, schema_mapping, database, with_indexes=False
        )
        assert database.table("TotalTiming").index_for("owner_Region_TotTimes_id") is None


class Genre(enum.Enum):
    Novel = 1
    Poem = 2


def _one_function_repository(regions):
    """A repository of one program, version and function holding ``regions``."""
    function = Function(Name="f", Regions=regions)
    version = ProgVersion(Compilation=dt.datetime(2000, 1, 1), Functions=[function])
    repository = PerformanceDatabase()
    repository.add_program(Program(Name="p", Versions=[version]))
    return repository


class TestPropertyCompilation:
    def test_all_bundled_properties_compile(self, cosy_spec, schema_mapping):
        compiler = PropertyCompiler(cosy_spec, schema_mapping)
        compiled = compiler.compile_all()
        assert set(compiled) == set(cosy_spec.index.properties)
        for name, prop in compiled.items():
            assert prop.conditions, name
            assert prop.severity, name

    def test_generated_queries_parse(self, cosy_spec, schema_mapping):
        compiler = PropertyCompiler(cosy_spec, schema_mapping)
        for prop in compiler.compile_all().values():
            for query in prop.entries():
                statement = parse_sql(query.sql)
                placeholder_count = query.sql.count("?")
                assert placeholder_count == len(query.param_slots)

    def test_sync_cost_condition_query_shape(self, cosy_spec, schema_mapping):
        compiler = PropertyCompiler(cosy_spec, schema_mapping)
        compiled = compiler.compile_property("SyncCost")
        sql = compiled.conditions[0][1].sql
        assert "SUM(" in sql
        assert "TypedTiming" in sql
        assert "'Barrier'" in sql
        assert compiled.conditions[0][1].param_slots == ["r", "t"]

    def test_sublinear_speedup_uses_a_join_for_nope(self, cosy_spec, schema_mapping):
        compiler = PropertyCompiler(cosy_spec, schema_mapping)
        compiled = compiler.compile_property("SublinearSpeedup")
        sql = compiled.severity[0][1].sql
        assert "JOIN TestRun" in sql
        assert "MIN(" in sql

    def test_load_imbalance_parameters(self, cosy_spec, schema_mapping):
        compiler = PropertyCompiler(cosy_spec, schema_mapping)
        compiled = compiler.compile_property("LoadImbalance")
        slots = compiled.conditions[0][1].param_slots
        assert set(slots) == {"Call", "t"}

    def test_bind_orders_parameters_by_slot(self, cosy_spec, schema_mapping):
        compiler = PropertyCompiler(cosy_spec, schema_mapping)
        compiled = compiler.compile_property("MeasuredCost")
        query = compiled.conditions[0][1]
        values = query.bind({"r": 7, "t": 3, "Basis": 1})
        assert values == [7, 3] or values == [3, 7]
        with pytest.raises(KeyError, match="missing value"):
            query.bind({"r": 7})

    def test_compiling_leaves_the_specification_untouched(self):
        # Inlining builds fresh trees, so typing them must not write to the
        # checked specification's own nodes.  Every node's inferred_type is
        # replaced by a marker first, so that even a write of the very same
        # type object shows.
        spec = cosy_specification()
        roots = [decl.body for decl in spec.index.functions.values()]
        for decl in spec.index.properties.values():
            roots += [let_def.value for let_def in decl.let_defs]
            roots += [condition.expr for condition in decl.conditions]
            roots += [entry.expr for entry in decl.confidence.entries]
            roots += [entry.expr for entry in decl.severity.entries]
        nodes = [node for root in roots for node in walk(root)]
        for node in nodes:
            node.inferred_type = object()

        def attributes(node):
            names = [
                name
                for klass in type(node).__mro__
                for name in klass.__dict__.get("__slots__", ())
            ]
            return {name: getattr(node, name) for name in names if hasattr(node, name)}

        def state():
            return [
                {key: (id(value), value) for key, value in attributes(node).items()}
                for node in nodes
            ]

        before = state()
        compiled = PropertyCompiler(spec, generate_schema(spec)).compile_all()
        assert state() == before
        assert set(compiled) == set(spec.index.properties)

    def test_function_bodies_do_not_see_the_callers_let_names(self):
        # A function body is inlined in its own scope, as the ASL evaluator
        # evaluates it: its FrequentBarrierThreshold is the constant even
        # where the calling property's LET block shadows that name.
        from repro.asl.specs.cosy_model import COSY_DATA_MODEL
        from repro.asl.specs.cosy_properties import COSY_PROPERTIES

        extra = """
        float LongRuns(Region r) =
            COUNT(s WHERE s IN r.TotTimes AND s.Incl > FrequentBarrierThreshold);
        Property Shadowing(Region r, TestRun t, Region Basis) {
            LET float FrequentBarrierThreshold = 7
            IN
            CONDITION: LongRuns(r) > FrequentBarrierThreshold;
            CONFIDENCE: 1;
            SEVERITY: LongRuns(r);
        }
        Property Plain(Region r, TestRun t, Region Basis) {
            LET float Other = 7
            IN
            CONDITION: LongRuns(r) > Other;
            CONFIDENCE: 1;
            SEVERITY: LongRuns(r);
        }
        """
        spec = check_asl(
            parse_asl(COSY_DATA_MODEL)
            .merge(parse_asl(COSY_PROPERTIES))
            .merge(parse_asl(extra))
        )
        compiler = PropertyCompiler(spec, generate_schema(spec))
        shadowing = compiler.compile_property("Shadowing").entries()
        plain = compiler.compile_property("Plain").entries()
        assert [q.sql for q in shadowing] == [q.sql for q in plain]
        assert "Incl > 100" in shadowing[0].sql

    def test_unknown_property_is_reported(self, cosy_spec, schema_mapping):
        compiler = PropertyCompiler(cosy_spec, schema_mapping)
        with pytest.raises(Exception, match="unknown property"):
            compiler.compile_property("Nope")

    def test_unsupported_constructs_raise_pushdown_error(self):
        source = """
        class Region { setof TotalTiming TotTimes; }
        class TotalTiming { float Incl; }
        Property Weird(Region r) {
            LET float X = AVG(s.Incl WHERE s IN r.TotTimes)
            IN
            CONDITION: MAX(X, 1) > 0;
            CONFIDENCE: 1;
            SEVERITY: X;
        }
        """
        spec = check_asl(parse_asl(source))
        mapping = generate_schema(spec)
        compiler = PropertyCompiler(spec, mapping)
        # The scalar MAX(a, b) builtin is outside the SQL subset; the compiler
        # must refuse rather than emit wrong SQL (COSY then falls back to
        # client-side evaluation for this property).
        with pytest.raises(PushdownError):
            compiler.compile_property("Weird")


class TestCompiledQueriesAgainstTheEngine:
    def test_compiled_sync_cost_matches_reference_value(
        self, cosy_spec, schema_mapping, mixed_repository, mixed_run
    ):
        from repro.asl.evaluator import AslEvaluator

        database = Database()
        ids = load_repository(mixed_repository, schema_mapping, database)
        compiler = PropertyCompiler(cosy_spec, schema_mapping)
        compiled = compiler.compile_property("SyncCost")
        region = mixed_repository.region_by_name("assemble_matrix")
        basis = mixed_repository.region_by_name("app_main")
        binding = {
            "r": ids.id_for(region),
            "t": ids.id_for(mixed_run),
            "Basis": ids.id_for(basis),
        }
        guard, severity_query = compiled.severity[0]
        sql_value = database.query(
            severity_query.sql, severity_query.bind(binding)
        ).scalar()
        evaluator = AslEvaluator(cosy_spec)
        reference = evaluator.evaluate_property(
            "SyncCost", {"r": region, "t": mixed_run, "Basis": basis}
        )
        assert sql_value == pytest.approx(reference.severity, rel=1e-9)

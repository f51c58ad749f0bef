"""The KOJAK Cost Analyzer (COSY).

The analyzer ties everything together (paper, Section 3):

1. the user selects a program version and a specific test run;
2. the tool evaluates the set of performance properties — region properties
   for every program region, call-site properties for (barrier) call sites —
   against the performance data;
3. the main property is the total cost of the test run (the cycles lost in
   comparison to the run with the smallest number of processors), the other
   properties explain these costs in more detail;
4. the performance properties are ranked according to their severity and
   presented to the application programmer; a property is a performance
   *problem* iff its severity exceeds the threshold, and the most severe
   property is the program's *bottleneck*.

The evaluation itself is delegated to one of the strategies in
:mod:`repro.cosy.strategies` (client-side or SQL pushdown).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.asl.errors import AslEvaluationError, AslTypeError
from repro.asl.semantic import CheckedSpecification
from repro.asl.specs import cosy_specification
from repro.cosy.properties import (
    PropertyRegistration,
    PropertyRegistry,
    SubjectKind,
    default_registry,
)
from repro.cosy.strategies import ClientSideStrategy, EvaluationStrategy
from repro.datamodel import (
    PerformanceDatabase,
    ProgVersion,
    Region,
    TestRun,
)
from repro.records import Record

__all__ = ["PropertyInstance", "AnalysisResult", "CosyAnalyzer"]

#: Default severity threshold above which a property is a performance problem.
DEFAULT_THRESHOLD = 0.05


class PropertyInstance(Record):
    """One evaluated property in one context (region or call site, one run)."""

    __slots__ = (
        "property_name", "subject", "subject_kind", "run_pes", "holds",
        "confidence", "severity", "conditions",
    )

    def __init__(
        self,
        property_name: str,
        subject: str,
        subject_kind: str,
        run_pes: int,
        holds: bool,
        confidence: float,
        severity: float,
        conditions: Optional[Dict[str, bool]] = None,
    ) -> None:
        self.property_name = property_name
        #: Human-readable description of the subject (region name or call site).
        self.subject = subject
        #: ``region`` or ``call``.
        self.subject_kind = subject_kind
        #: The test run the property was evaluated for.
        self.run_pes = run_pes
        self.holds = holds
        self.confidence = confidence
        self.severity = severity
        #: Values of the individual conditions (by condition id / position).
        self.conditions = {} if conditions is None else conditions

    def is_problem(self, threshold: float) -> bool:
        """Performance property → performance problem iff severity > threshold."""
        return self.holds and self.severity > threshold

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.property_name}({self.subject}) severity={self.severity:.4f} "
            f"confidence={self.confidence:.2f}"
        )


class AnalysisResult(Record):
    """The ranked outcome of one COSY analysis."""

    __slots__ = (
        "program", "version", "run_pes", "basis", "threshold", "strategy",
        "instances", "skipped",
    )

    def __init__(
        self,
        program: str,
        version: str,
        run_pes: int,
        basis: str,
        threshold: float,
        strategy: str,
        instances: Optional[List[PropertyInstance]] = None,
        skipped: int = 0,
    ) -> None:
        self.program = program
        self.version = version
        self.run_pes = run_pes
        self.basis = basis
        self.threshold = threshold
        self.strategy = strategy
        self.instances = [] if instances is None else instances
        #: Number of property evaluations that failed (e.g. missing data) and were
        #: skipped; COSY reports but tolerates them.
        self.skipped = skipped

    def ranked(self) -> List[PropertyInstance]:
        """All property instances that hold, ranked by decreasing severity."""
        return sorted(
            (i for i in self.instances if i.holds),
            key=lambda i: (-i.severity, i.property_name, i.subject),
        )

    def problems(self) -> List[PropertyInstance]:
        """The performance problems: severity above the threshold."""
        return [i for i in self.ranked() if i.is_problem(self.threshold)]

    def bottleneck(self) -> Optional[PropertyInstance]:
        """The program's unique bottleneck: its most severe property.

        Returns ``None`` when no property holds.  If the bottleneck is not a
        performance problem, the program does not need any further tuning
        (paper, Section 4).
        """
        ranked = self.ranked()
        return ranked[0] if ranked else None

    def needs_tuning(self) -> bool:
        """Whether the bottleneck is a performance problem."""
        bottleneck = self.bottleneck()
        return bottleneck is not None and bottleneck.is_problem(self.threshold)

    # -- convenience accessors ------------------------------------------------------

    def by_property(self, property_name: str) -> List[PropertyInstance]:
        """All instances of one property, ranked by severity."""
        return [i for i in self.ranked() if i.property_name == property_name]

    def severity_of(self, property_name: str, subject: str) -> float:
        """Severity of one property instance (0 when it does not exist / hold)."""
        for instance in self.instances:
            if instance.property_name == property_name and instance.subject == subject:
                return instance.severity if instance.holds else 0.0
        return 0.0

    def total_cost_severity(self) -> float:
        """Severity of SublinearSpeedup on the whole-program region (main cost)."""
        instances = self.by_property("SublinearSpeedup")
        for instance in instances:
            if instance.subject == self.basis:
                return instance.severity
        return instances[0].severity if instances else 0.0


class CosyAnalyzer:
    """Evaluates and ranks the COSY performance properties for one test run."""

    def __init__(
        self,
        repository: PerformanceDatabase,
        specification: Optional[CheckedSpecification] = None,
        registry: Optional[PropertyRegistry] = None,
        threshold: float = DEFAULT_THRESHOLD,
        constants: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.repository = repository
        self.specification = specification or cosy_specification()
        self.registry = registry or default_registry()
        self.threshold = threshold
        self.constants = dict(constants or {})

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def analyze(
        self,
        program: Optional[str] = None,
        version_label: Optional[str] = None,
        pes: Optional[int] = None,
        basis: Optional[Region] = None,
        strategy: Optional[EvaluationStrategy] = None,
        properties: Optional[Sequence[str]] = None,
    ) -> AnalysisResult:
        """Analyze one test run of one program version.

        Parameters default to: the only (or first) program, its latest version,
        the run with the largest number of processors, the whole-program region
        as ranking basis, and client-side evaluation.
        """
        prog = self._select_program(program)
        version = self._select_version(prog, version_label)
        run = self._select_run(version, pes)
        basis_region = basis or version.main_region
        if strategy is None:
            strategy = ClientSideStrategy(self.specification, constants=self.constants)

        result = AnalysisResult(
            program=prog.Name,
            version=version.label,
            run_pes=run.NoPe,
            basis=basis_region.name,
            threshold=self.threshold,
            strategy=getattr(strategy, "name", type(strategy).__name__),
        )
        wanted = set(properties) if properties is not None else None
        # Every property's subjects are settled before any context is
        # evaluated, so a registration that cannot be instantiated raises
        # before the analysis sends a statement.
        contexts = [
            (registration, self._subjects(registration, version))
            for registration in self.registry
            if wanted is None or registration.name in wanted
        ]
        for registration, subjects in contexts:
            self._evaluate_contexts(
                registration, subjects, run, basis_region, strategy, result
            )
        return result

    def _subjects(
        self, registration: PropertyRegistration, version: ProgVersion
    ) -> List[Tuple[str, str, Any]]:
        """The ``(name, kind, subject)`` contexts of one property, from the
        declared class of its first parameter: every region of the version
        for ``Region``, every call site whose callee the registration accepts
        for ``FunctionCall``."""
        name = registration.name
        decl = self.specification.index.properties.get(name)
        if decl is None:
            raise KeyError(
                f"property {name!r} is registered but not part of the ASL "
                f"specification"
            )
        subject_class = str(decl.params[0].type) if decl.params else None
        if subject_class == "FunctionCall":
            return [
                (f"{call.callee_name}@{call.CallingReg.name}", SubjectKind.CALL, call)
                for call in version.all_calls()
                if registration.accepts_callee(call.callee_name)
            ]
        if subject_class == "Region" and registration.only_callees is None:
            return [
                (region.name, SubjectKind.REGION, region)
                for region in version.all_regions()
            ]
        found = {None: "it has none", "Region": "found Region with a callee filter"}
        raise AslTypeError(
            f"property {name!r} is instantiated over its first parameter, which "
            f"must be a Region (with no callee filter) or a FunctionCall; "
            f"{found.get(subject_class, f'found {subject_class}')}",
            decl.location,
        )

    # ------------------------------------------------------------------ #
    # iteration over subjects
    # ------------------------------------------------------------------ #

    def _evaluate_contexts(
        self,
        registration: PropertyRegistration,
        subjects: List,
        run: TestRun,
        basis: Region,
        strategy: EvaluationStrategy,
        result: AnalysisResult,
    ) -> None:
        """Evaluate one property over its ``(name, kind, subject)`` contexts,
        one after another.

        An :class:`AslEvaluationError` means the context lacked data (e.g. a
        region without timings for the selected run): the instance is
        skipped but the analysis keeps going.
        """
        for name, kind, subject in subjects:
            parameters = self._bind_parameters(registration.name, subject, run, basis)
            try:
                evaluation = strategy.evaluate(registration.name, parameters)
            except AslEvaluationError:
                result.skipped += 1
                continue
            result.instances.append(
                PropertyInstance(
                    property_name=registration.name,
                    subject=name,
                    subject_kind=kind,
                    run_pes=run.NoPe,
                    holds=evaluation.holds,
                    confidence=evaluation.confidence,
                    severity=evaluation.severity,
                    conditions=dict(evaluation.conditions),
                )
            )

    # ------------------------------------------------------------------ #
    # parameter binding and selection helpers
    # ------------------------------------------------------------------ #

    def _bind_parameters(
        self, property_name: str, subject: Any, run: TestRun, basis: Region
    ) -> Dict[str, Any]:
        """Bind a property's formal parameters to subject / run / basis.

        The first parameter receives the subject; the remaining parameters are
        bound by type: ``TestRun`` → the selected run, ``Region`` → the ranking
        basis.
        """
        decl = self.specification.index.properties[property_name]
        binding: Dict[str, Any] = {decl.params[0].name: subject}
        for param in decl.params[1:]:
            if param.type.name == "TestRun":
                binding[param.name] = run
            elif param.type.name == "Region":
                binding[param.name] = basis
            else:
                raise KeyError(
                    f"cannot bind parameter {param.name!r} of type "
                    f"{param.type.name!r} in property {property_name!r}"
                )
        return binding

    def _select_program(self, name: Optional[str]):
        programs = self.repository.programs
        if not programs:
            raise ValueError("the repository contains no programs")
        if name is None:
            return programs[0]
        return self.repository.program(name)

    @staticmethod
    def _select_version(program, label: Optional[str]) -> ProgVersion:
        if label is None:
            return program.latest_version()
        return program.version_by_label(label)

    @staticmethod
    def _select_run(version: ProgVersion, pes: Optional[int]) -> TestRun:
        if not version.Runs:
            raise ValueError("the selected program version has no test runs")
        if pes is None:
            return max(version.Runs, key=lambda run: (run.NoPe, run.uid))
        return version.run_with_pes(pes)

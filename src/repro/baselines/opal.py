"""OPAL-like baseline: rule-based hypothesis proof and refinement.

The OPAL tool of the SVM-Fortran project used a rule base consisting of
parameterised hypotheses with *proof rules* (is the hypothesis valid given the
measured data?) and *refinement rules* (which new hypotheses follow from a
proven one?).  This baseline implements that engine over the simulated summary
data:

* a :class:`Hypothesis` carries a name and a context (region or call site);
* a :class:`ProofRule` decides, from the performance data, whether a
  hypothesis holds and with which severity;
* a :class:`RefinementRule` produces the child hypotheses of a proven one
  (e.g. ``SyncProblem(region)`` refines into ``LoadImbalance(call site)`` for
  the barrier call sites of that region);
* the :class:`RuleEngine` runs a work-list algorithm until no new hypotheses
  are generated.

Compared with ASL, the rules are ordinary Python callables — the knowledge is
encoded in the tool rather than in a declarative specification document, which
is the design difference the paper emphasises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.baselines.common import Finding, rank_findings
from repro.datamodel import (
    COMMUNICATION_TYPES,
    IO_TYPES,
    FunctionCall,
    PerformanceDatabase,
    ProgVersion,
    Region,
    TestRun,
    TimingType,
)

__all__ = [
    "Hypothesis",
    "ProofResult",
    "ProofRule",
    "RefinementRule",
    "RuleEngine",
    "default_rule_base",
]


@dataclass(frozen=True)
class Hypothesis:
    """A parameterised hypothesis about a program context."""

    name: str
    #: Region or FunctionCall the hypothesis talks about.
    context: object
    #: Human-readable location string.
    location: str


@dataclass(frozen=True)
class ProofResult:
    """Outcome of applying a proof rule."""

    proven: bool
    severity: float = 0.0
    details: str = ""


ProofRule = Callable[[Hypothesis, TestRun, Region], ProofResult]
RefinementRule = Callable[[Hypothesis, TestRun, ProgVersion], List[Hypothesis]]


@dataclass
class RuleBase:
    """Proof and refinement rules per hypothesis name, plus the initial set."""

    proof_rules: Dict[str, ProofRule] = field(default_factory=dict)
    refinement_rules: Dict[str, RefinementRule] = field(default_factory=dict)
    initial: Callable[[ProgVersion], List[Hypothesis]] = lambda version: []


class RuleEngine:
    """Work-list evaluation of a rule base."""

    def __init__(self, repository: PerformanceDatabase, rule_base: RuleBase) -> None:
        self.repository = repository
        self.rule_base = rule_base
        self.evaluated = 0

    def analyze(self, version: ProgVersion, run: TestRun) -> List[Finding]:
        """Prove and refine hypotheses until the work list is empty."""
        basis = version.main_region
        worklist: List[Hypothesis] = list(self.rule_base.initial(version))
        seen: set = set()
        findings: List[Finding] = []
        while worklist:
            hypothesis = worklist.pop(0)
            key = (hypothesis.name, hypothesis.location)
            if key in seen:
                continue
            seen.add(key)
            proof = self.rule_base.proof_rules.get(hypothesis.name)
            if proof is None:
                continue
            self.evaluated += 1
            try:
                result = proof(hypothesis, run, basis)
            except Exception:  # lint: allow-broad-except
                continue
            if not result.proven:
                continue
            findings.append(
                Finding(
                    problem=hypothesis.name,
                    location=hypothesis.location,
                    severity=result.severity,
                    tool="opal",
                    details=result.details,
                )
            )
            refine = self.rule_base.refinement_rules.get(hypothesis.name)
            if refine is not None:
                worklist.extend(refine(hypothesis, run, version))
        return rank_findings(findings)


# --------------------------------------------------------------------------- #
# the default rule base
# --------------------------------------------------------------------------- #


def default_rule_base(
    severity_threshold: float = 0.02, imbalance_threshold: float = 0.25
) -> RuleBase:
    """The rule base used for the E5 comparison.

    The hypothesis hierarchy mirrors the refinement structure described for
    OPAL: a general ``ParallelizationOverhead`` hypothesis on the program
    refines into per-region ``SyncProblem`` / ``CommProblem`` / ``IOProblem``
    hypotheses, and a proven ``SyncProblem`` refines into ``LoadImbalance``
    hypotheses on the barrier call sites of the region.
    """

    def initial(version: ProgVersion) -> List[Hypothesis]:
        basis = version.main_region
        return [
            Hypothesis(
                name="ParallelizationOverhead", context=basis, location=basis.name
            )
        ]

    def typed_fraction(region: Region, run: TestRun, types, basis: Region) -> float:
        duration = basis.duration(run)
        if duration <= 0:
            return 0.0
        return sum(region.typed_time(run, t) for t in types) / duration

    def prove_overhead(h: Hypothesis, run: TestRun, basis: Region) -> ProofResult:
        region: Region = h.context  # type: ignore[assignment]
        duration = basis.duration(run)
        overhead = region.overhead(run)
        severity = overhead / duration if duration > 0 else 0.0
        return ProofResult(
            proven=severity > severity_threshold,
            severity=severity,
            details=f"measured overhead {overhead:.4f}s",
        )

    def refine_overhead(
        h: Hypothesis, run: TestRun, version: ProgVersion
    ) -> List[Hypothesis]:
        hypotheses: List[Hypothesis] = []
        for region in version.all_regions():
            for name in ("SyncProblem", "CommProblem", "IOProblem"):
                hypotheses.append(
                    Hypothesis(name=name, context=region, location=region.name)
                )
        return hypotheses

    def prove_sync(h: Hypothesis, run: TestRun, basis: Region) -> ProofResult:
        region: Region = h.context  # type: ignore[assignment]
        severity = typed_fraction(
            region, run, (TimingType.Barrier, TimingType.LockWait), basis
        )
        return ProofResult(proven=severity > severity_threshold, severity=severity)

    def prove_comm(h: Hypothesis, run: TestRun, basis: Region) -> ProofResult:
        region: Region = h.context  # type: ignore[assignment]
        severity = typed_fraction(region, run, COMMUNICATION_TYPES, basis)
        return ProofResult(proven=severity > severity_threshold, severity=severity)

    def prove_io(h: Hypothesis, run: TestRun, basis: Region) -> ProofResult:
        region: Region = h.context  # type: ignore[assignment]
        severity = typed_fraction(region, run, IO_TYPES, basis)
        return ProofResult(proven=severity > severity_threshold, severity=severity)

    def refine_sync(
        h: Hypothesis, run: TestRun, version: ProgVersion
    ) -> List[Hypothesis]:
        region: Region = h.context  # type: ignore[assignment]
        hypotheses: List[Hypothesis] = []
        for call in version.all_calls():
            if call.callee_name == "barrier" and call.CallingReg is region:
                hypotheses.append(
                    Hypothesis(
                        name="LoadImbalance",
                        context=call,
                        location=f"barrier@{region.name}",
                    )
                )
        return hypotheses

    def prove_imbalance(h: Hypothesis, run: TestRun, basis: Region) -> ProofResult:
        call: FunctionCall = h.context  # type: ignore[assignment]
        timing = call.timing_for(run)
        proven = timing.StdevTime > imbalance_threshold * timing.MeanTime
        duration = basis.duration(run)
        severity = timing.MeanTime / duration if duration > 0 else 0.0
        return ProofResult(
            proven=proven,
            severity=severity,
            details=f"stdev/mean={timing.imbalance_ratio:.2f}",
        )

    return RuleBase(
        proof_rules={
            "ParallelizationOverhead": prove_overhead,
            "SyncProblem": prove_sync,
            "CommProblem": prove_comm,
            "IOProblem": prove_io,
            "LoadImbalance": prove_imbalance,
        },
        refinement_rules={
            "ParallelizationOverhead": refine_overhead,
            "SyncProblem": refine_sync,
        },
        initial=initial,
    )

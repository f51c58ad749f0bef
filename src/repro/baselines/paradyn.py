"""Paradyn-like baseline: automatic online search over a *fixed* bottleneck set.

Paradyn [Miller et al. 1995] performs an automatic online analysis based on
dynamic monitoring; its metrics can be defined via MDL, but the set of searched
bottlenecks is fixed — the paper names CPUbound, ExcessiveSyncWaitingTime,
ExcessiveIOBlockingTime and TooManySmallIOOps.  The search proceeds along two
axes: *why* is the program slow (which hypothesis) and *where* (which program
resource), refining from the whole program down the region hierarchy.

This baseline reproduces that behaviour over the simulated summary data: it
evaluates the four fixed hypotheses for the whole-program region and refines a
proven hypothesis into the child regions as long as the child also exceeds the
threshold.  Unlike COSY, the hypothesis set cannot be extended through a
specification document — that is exactly the contrast Section 2 of the paper
draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.baselines.common import Finding, rank_findings
from repro.datamodel import (
    COMMUNICATION_TYPES,
    IO_TYPES,
    SYNCHRONIZATION_TYPES,
    PerformanceDatabase,
    ProgVersion,
    Region,
    TestRun,
)

__all__ = ["ParadynHypothesis", "ParadynSearch", "FIXED_HYPOTHESES"]


@dataclass(frozen=True)
class ParadynHypothesis:
    """One fixed bottleneck hypothesis of the Paradyn-like search."""

    name: str
    #: Fraction of the run duration above which the hypothesis is proven.
    threshold: float

    def value(self, region: Region, run: TestRun) -> float:
        """The metric value of the hypothesis for one region and run."""
        raise NotImplementedError


class _CpuBound(ParadynHypothesis):
    def value(self, region: Region, run: TestRun) -> float:
        summary = region.summary(run)
        overhead = summary.Ovhd
        return max(summary.Incl - overhead, 0.0)


class _ExcessiveSyncWaitingTime(ParadynHypothesis):
    def value(self, region: Region, run: TestRun) -> float:
        return sum(region.typed_time(run, t) for t in SYNCHRONIZATION_TYPES)


class _ExcessiveIOBlockingTime(ParadynHypothesis):
    def value(self, region: Region, run: TestRun) -> float:
        return sum(region.typed_time(run, t) for t in IO_TYPES)


class _ExcessiveCommunication(ParadynHypothesis):
    def value(self, region: Region, run: TestRun) -> float:
        return sum(region.typed_time(run, t) for t in COMMUNICATION_TYPES)


FIXED_HYPOTHESES: List[ParadynHypothesis] = [
    _CpuBound(name="CPUbound", threshold=0.60),
    _ExcessiveSyncWaitingTime(name="ExcessiveSyncWaitingTime", threshold=0.05),
    _ExcessiveIOBlockingTime(name="ExcessiveIOBlockingTime", threshold=0.05),
    _ExcessiveCommunication(name="ExcessiveCommunication", threshold=0.05),
]


class ParadynSearch:
    """Why/where search over the fixed hypothesis set."""

    def __init__(
        self,
        repository: PerformanceDatabase,
        hypotheses: Optional[List[ParadynHypothesis]] = None,
    ) -> None:
        self.repository = repository
        self.hypotheses = hypotheses or list(FIXED_HYPOTHESES)

    def search(
        self, version: ProgVersion, run: TestRun
    ) -> List[Finding]:
        """Run the search for one test run and return the ranked findings."""
        basis = version.main_region
        duration = basis.duration(run)
        if duration <= 0:
            return []
        findings: List[Finding] = []
        for hypothesis in self.hypotheses:
            self._refine(hypothesis, basis, run, duration, findings)
        return rank_findings(findings)

    def _refine(
        self,
        hypothesis: ParadynHypothesis,
        region: Region,
        run: TestRun,
        duration: float,
        findings: List[Finding],
    ) -> None:
        try:
            value = hypothesis.value(region, run)
        except Exception:  # lint: allow-broad-except
            return
        severity = value / duration
        if severity <= hypothesis.threshold:
            return
        findings.append(
            Finding(
                problem=hypothesis.name,
                location=region.name,
                severity=severity,
                tool="paradyn",
                details=f"metric={value:.4f}s of {duration:.4f}s",
            )
        )
        for child in region.children:
            self._refine(hypothesis, child, run, duration, findings)

"""Common result type of the baseline analyzers.

Every baseline reports :class:`Finding` objects so that the E5 benchmark can
compare them with COSY's property instances: did the approach locate the
injected bottleneck, what did it call it, and how severe did it judge it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["Finding", "rank_findings"]


@dataclass(frozen=True)
class Finding:
    """One bottleneck hypothesis reported by an analyzer."""

    #: Name of the detected problem (tool-specific vocabulary).
    problem: str
    #: Program location (region name, call site, or "program").
    location: str
    #: Severity metric of the tool (normalised to the run duration when
    #: possible, so findings of different tools are roughly comparable).
    severity: float
    #: Name of the analyzer that produced the finding.
    tool: str = ""
    #: Free-form details.
    details: str = ""


def rank_findings(findings: List[Finding]) -> List[Finding]:
    """Findings ordered by decreasing severity."""
    return sorted(findings, key=lambda f: (-f.severity, f.problem, f.location))

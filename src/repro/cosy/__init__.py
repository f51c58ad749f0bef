"""The KOJAK Cost Analyzer (COSY).

* :mod:`repro.cosy.properties` — registry naming the ASL properties the
  analyzer instantiates (over the declared class of their first parameter);
* :mod:`repro.cosy.strategies` — client-side vs. SQL-pushdown evaluation;
* :mod:`repro.cosy.analyzer` — evaluation, severity ranking, bottleneck;
* :mod:`repro.cosy.report` — plain-text reports;
* :mod:`repro.cosy.cli` — the ``cosy`` command-line tool.
"""

from repro.cosy.analyzer import (
    DEFAULT_THRESHOLD,
    AnalysisResult,
    CosyAnalyzer,
    PropertyInstance,
)
from repro.cosy.properties import (
    PropertyRegistration,
    PropertyRegistry,
    SubjectKind,
    default_registry,
)
from repro.cosy.report import format_table, render_report, render_speedup_table
from repro.cosy.strategies import ClientSideStrategy, PushdownStrategy

__all__ = [
    "AnalysisResult",
    "ClientSideStrategy",
    "CosyAnalyzer",
    "DEFAULT_THRESHOLD",
    "PropertyInstance",
    "PropertyRegistration",
    "PropertyRegistry",
    "PushdownStrategy",
    "SubjectKind",
    "default_registry",
    "format_table",
    "render_report",
    "render_speedup_table",
]

"""Shared fixtures for the test suite.

The expensive objects (the checked COSY specification, a simulated mixed
workload, the generated schema) are session-scoped: they are deterministic and
read-only, so sharing them keeps the suite fast without coupling the tests.

Property-based tests run derandomized: the ``tier1`` profile draws the same
examples on every run and in every checkout (``derandomize=True`` also turns
the example database off), so a failure reproduces from the source alone.
Explore fresh examples with ``--hypothesis-profile=default``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.apprentice import ExecutionSimulator, SimulationConfig, synthetic_workload
from repro.asl.specs import cosy_specification
from repro.compiler import generate_schema

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def cosy_spec():
    """The parsed and checked bundled COSY specification."""
    return cosy_specification()


@pytest.fixture(scope="session")
def schema_mapping(cosy_spec):
    """The relational schema generated from the COSY data model."""
    return generate_schema(cosy_spec)


@pytest.fixture(scope="session")
def mixed_repository():
    """A simulated 'mixed' workload with runs on 1, 2, 4 and 8 processors."""
    workload = synthetic_workload("mixed")
    simulator = ExecutionSimulator(workload, SimulationConfig(pe_counts=(1, 2, 4, 8)))
    return simulator.run()


@pytest.fixture(scope="session")
def mixed_version(mixed_repository):
    """The program version of the mixed-workload repository."""
    return mixed_repository.programs[0].latest_version()


@pytest.fixture(scope="session")
def mixed_run(mixed_version):
    """The 8-processor test run of the mixed workload."""
    return mixed_version.run_with_pes(8)


@pytest.fixture(scope="session")
def imbalanced_repository():
    """A simulated strongly imbalanced workload (1..16 processors)."""
    workload = synthetic_workload("imbalanced", imbalance=0.7)
    simulator = ExecutionSimulator(
        workload, SimulationConfig(pe_counts=(1, 2, 4, 8, 16))
    )
    return simulator.run()

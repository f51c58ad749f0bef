"""Shared fixtures for the benchmark harness (one module per experiment id)."""

from __future__ import annotations

import pytest

from repro.asl.specs import cosy_specification
from repro.bench import build_scenario


@pytest.fixture(scope="session")
def cosy_spec():
    """The checked bundled COSY specification."""
    return cosy_specification()


@pytest.fixture(scope="session")
def small_scenario(cosy_spec):
    """The mixed workload on 1..8 PEs (fast, used by several experiments)."""
    return build_scenario("mixed", pe_counts=(1, 2, 4, 8), specification=cosy_spec)


@pytest.fixture(scope="session")
def medium_scenario(cosy_spec):
    """A scalable workload producing a database of a few thousand rows (E1/E3/A1)."""
    return build_scenario(
        "scalable",
        pe_counts=(1, 4, 16),
        specification=cosy_spec,
        functions=8,
        regions_per_function=6,
        calls_per_region=2,
    )

"""Tests of the simulator's RNG helpers and the synthetic program model."""

import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.apprentice import (
    CallSpec,
    CommPattern,
    FunctionSpec,
    RegionSpec,
    WorkloadError,
    WorkloadSpec,
    imbalanced_shares,
    rng_for,
    stable_seed,
    synthetic_workload,
)
from repro.datamodel import RegionKind


class TestStableSeed:
    def test_same_inputs_same_seed(self):
        assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)

    def test_different_inputs_different_seed(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)

    def test_rng_for_is_deterministic(self):
        a = rng_for("workload", "region", 8).standard_normal(4)
        b = rng_for("workload", "region", 8).standard_normal(4)
        assert a == b


class TestImbalancedShares:
    def test_zero_imbalance_is_perfectly_balanced(self):
        shares = imbalanced_shares(rng_for("x"), 8, 0.0)
        assert shares == [1.0] * 8

    def test_mean_is_exactly_one(self):
        shares = imbalanced_shares(rng_for("y"), 16, 0.5)
        assert statistics.fmean(shares) == pytest.approx(1.0)

    def test_all_shares_positive(self):
        shares = imbalanced_shares(rng_for("z"), 64, 1.5)
        assert all(s > 0 for s in shares)

    def test_single_process_has_no_imbalance(self):
        shares = imbalanced_shares(rng_for("w"), 1, 0.9)
        assert shares == [1.0]

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            imbalanced_shares(rng_for("a"), 0, 0.1)
        with pytest.raises(ValueError):
            imbalanced_shares(rng_for("a"), 4, -0.1)

    @given(
        count=st.integers(min_value=2, max_value=64),
        imbalance=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_properties_hold_for_arbitrary_parameters(self, count, imbalance, seed):
        shares = imbalanced_shares(rng_for(seed), count, imbalance)
        assert len(shares) == count
        assert all(s > 0 for s in shares)
        assert statistics.fmean(shares) == pytest.approx(1.0, rel=1e-9)

    def test_higher_imbalance_gives_higher_spread(self):
        low = imbalanced_shares(rng_for("s"), 256, 0.1)
        high = imbalanced_shares(rng_for("s"), 256, 0.9)
        assert statistics.pstdev(high) > statistics.pstdev(low)


class TestRegionSpecValidation:
    def test_rejects_negative_work(self):
        with pytest.raises(WorkloadError):
            RegionSpec(name="r", work=-1.0)

    def test_rejects_bad_serial_fraction(self):
        with pytest.raises(WorkloadError):
            RegionSpec(name="r", serial_fraction=1.5)

    def test_rejects_computation_fractions_above_one(self):
        with pytest.raises(WorkloadError):
            RegionSpec(name="r", fp_fraction=0.8, int_fraction=0.5)

    def test_walk_and_find(self):
        root = RegionSpec(name="root", work=1.0)
        child = root.add_child(RegionSpec(name="child", work=2.0))
        child.add_child(RegionSpec(name="grandchild", work=3.0))
        assert [r.name for r in root.walk()] == ["root", "child", "grandchild"]
        assert root.find("grandchild").work == 3.0
        with pytest.raises(KeyError):
            root.find("missing")

    def test_total_work_and_barriers(self):
        root = RegionSpec(name="root", work=1.0, barriers=2)
        root.add_child(RegionSpec(name="child", work=2.0, barriers=3))
        assert root.total_work() == pytest.approx(3.0)
        assert root.total_barriers() == 5


class TestCallSpecValidation:
    def test_rejects_negative_values(self):
        with pytest.raises(WorkloadError):
            CallSpec("barrier", calls_per_pe=-1)
        with pytest.raises(WorkloadError):
            CallSpec("barrier", time_per_call=-1)
        with pytest.raises(WorkloadError):
            CallSpec("barrier", imbalance=-0.5)


class TestWorkloadSpec:
    def test_duplicate_function_names_rejected(self):
        workload = WorkloadSpec(name="w", functions=[])
        workload.add_function(FunctionSpec(name="main", body=RegionSpec(name="a")))
        with pytest.raises(WorkloadError):
            workload.add_function(FunctionSpec(name="main", body=RegionSpec(name="b")))

    def test_duplicate_region_names_detected_by_validate(self):
        workload = WorkloadSpec(name="w", functions=[])
        workload.add_function(FunctionSpec(name="main", body=RegionSpec(name="dup")))
        workload.add_function(FunctionSpec(name="other", body=RegionSpec(name="dup")))
        with pytest.raises(WorkloadError, match="unique"):
            workload.validate()

    def test_unknown_callee_detected(self):
        body = RegionSpec(name="body", calls=[CallSpec("no_such_routine")])
        workload = WorkloadSpec(
            name="w", functions=[FunctionSpec(name="main", body=body)]
        )
        with pytest.raises(WorkloadError, match="unknown routine"):
            workload.validate()

    def test_entry_function_defaults_to_first(self):
        workload = WorkloadSpec(name="w", functions=[])
        first = workload.add_function(FunctionSpec(name="setup", body=RegionSpec(name="s")))
        assert workload.entry_function is first

    def test_function_lookup(self):
        workload = synthetic_workload("mixed")
        assert workload.function("main").name == "main"
        with pytest.raises(KeyError):
            workload.function("nope")


class TestWorkloadFactories:
    @pytest.mark.parametrize(
        "kind", ["stencil", "imbalanced", "io_bound", "comm_bound", "mixed"]
    )
    def test_predefined_workloads_validate(self, kind):
        workload = synthetic_workload(kind)
        workload.validate()
        assert workload.total_work() > 0

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown workload kind"):
            synthetic_workload("fancy")

    def test_scalable_workload_scales(self):
        small = synthetic_workload("scalable", functions=2, regions_per_function=2)
        large = synthetic_workload("scalable", functions=6, regions_per_function=5)
        assert len(large.region_names()) > len(small.region_names())

    def test_scalable_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            synthetic_workload("scalable", functions=0)

    def test_imbalanced_workload_has_barrier_call_sites(self):
        workload = synthetic_workload("imbalanced")
        callees = {
            call.callee
            for _, region in workload.all_regions()
            for call in region.calls
        }
        assert "barrier" in callees

    def test_mixed_workload_has_program_region(self):
        workload = synthetic_workload("mixed")
        kinds = {region.kind for _, region in workload.all_regions()}
        assert RegionKind.PROGRAM in kinds

    def test_comm_bound_uses_alltoall(self):
        workload = synthetic_workload("comm_bound")
        patterns = {region.comm_pattern for _, region in workload.all_regions()}
        assert CommPattern.ALLTOALL in patterns

"""Predefined synthetic workloads.

The paper's introduction motivates KOJAK with the observation that "frequently,
the revealed performance bottlenecks belong to a small number of well-defined
performance problems, such as load balancing and excessive message passing
overhead".  The factory functions here build workload specifications with
exactly those well-defined, *injected* bottlenecks so that the COSY properties
(and the baseline analyzers) have ground truth to detect:

``stencil``
    a well-balanced nearest-neighbour stencil solver whose only overheads are
    halo exchange and a per-iteration reduction;
``imbalanced``
    the same solver with a strongly imbalanced work distribution, making the
    barrier in the solver loop the dominant cost (the ``LoadImbalance``
    scenario of Section 4.2);
``io_bound``
    a solver that writes serialized checkpoints, producing large I/O cost;
``comm_bound``
    a spectral-like code dominated by all-to-all transposes;
``mixed``
    a multi-phase application combining all of the above, used by the
    quickstart example and the E4 benchmark;
``scalable``
    a parameterisable workload (number of functions / regions / call sites)
    used to grow the database for the Section 5 benchmarks.
"""

from __future__ import annotations

from repro.apprentice.program_model import (
    CallSpec,
    CommPattern,
    FunctionSpec,
    RegionSpec,
    WorkloadSpec,
)
from repro.datamodel.entities import RegionKind

__all__ = [
    "synthetic_workload",
    "stencil_workload",
    "imbalanced_workload",
    "io_bound_workload",
    "comm_bound_workload",
    "mixed_workload",
    "scalable_workload",
    "WORKLOAD_FACTORIES",
]


def stencil_workload(work: float = 40.0, iterations: int = 50) -> WorkloadSpec:
    """Balanced 2-D stencil solver with halo exchange and a residual reduction."""
    solver_loop = RegionSpec(
        name="solver_loop",
        kind=RegionKind.LOOP,
        work=0.0,
        source_file="stencil.f90",
        first_line=40,
        last_line=95,
    )
    solver_loop.add_child(
        RegionSpec(
            name="stencil_update",
            kind=RegionKind.LOOP,
            work=work * 0.85,
            imbalance=0.02,
            comm_pattern=CommPattern.NEAREST,
            comm_time=0.002 * iterations,
            source_file="stencil.f90",
            first_line=45,
            last_line=70,
            calls=[
                CallSpec("mpi_send", calls_per_pe=4 * iterations, time_per_call=2e-5),
                CallSpec("mpi_recv", calls_per_pe=4 * iterations, time_per_call=3e-5),
            ],
        )
    )
    solver_loop.add_child(
        RegionSpec(
            name="residual_reduce",
            kind=RegionKind.BASIC_BLOCK,
            work=work * 0.05,
            barriers=iterations,
            comm_pattern=CommPattern.REDUCTION,
            comm_time=0.001 * iterations,
            source_file="stencil.f90",
            first_line=71,
            last_line=80,
            calls=[
                CallSpec("global_sum", calls_per_pe=iterations, time_per_call=4e-5),
                CallSpec(
                    "barrier",
                    calls_per_pe=iterations,
                    time_per_call=2e-5,
                    imbalance=0.05,
                ),
            ],
        )
    )
    init = RegionSpec(
        name="init_grid",
        kind=RegionKind.SUBPROGRAM,
        work=work * 0.05,
        serial_fraction=0.2,
        source_file="stencil.f90",
        first_line=10,
        last_line=30,
    )
    main_body = RegionSpec(
        name="stencil_main",
        kind=RegionKind.PROGRAM,
        work=work * 0.05,
        serial_fraction=0.5,
        source_file="stencil.f90",
        first_line=1,
        last_line=120,
        children=[init, solver_loop],
        calls=[CallSpec("barrier", calls_per_pe=2, time_per_call=2e-5)],
    )
    workload = WorkloadSpec(name="stencil", functions=[])
    workload.add_function(FunctionSpec(name="main", body=main_body))
    workload.validate()
    return workload


def imbalanced_workload(
    work: float = 40.0, imbalance: float = 0.6, iterations: int = 50
) -> WorkloadSpec:
    """Stencil-like solver with a strongly imbalanced work distribution.

    The per-process work in the ``particle_push`` loop varies with coefficient
    of variation ``imbalance``; every iteration ends at a barrier, so the
    imbalance shows up as barrier waiting time — exactly the refinement chain
    SyncCost → LoadImbalance described in Section 4.2 of the paper.
    """
    push_loop = RegionSpec(
        name="particle_push",
        kind=RegionKind.LOOP,
        work=work * 0.8,
        imbalance=imbalance,
        barriers=iterations,
        comm_pattern=CommPattern.NEAREST,
        comm_time=0.001 * iterations,
        source_file="particles.f90",
        first_line=55,
        last_line=110,
        calls=[
            CallSpec(
                "barrier",
                calls_per_pe=iterations,
                time_per_call=2e-5,
                imbalance=imbalance,
            ),
            CallSpec("mpi_send", calls_per_pe=2 * iterations, time_per_call=2e-5),
        ],
    )
    sort_phase = RegionSpec(
        name="particle_sort",
        kind=RegionKind.SUBPROGRAM,
        work=work * 0.15,
        imbalance=imbalance * 0.5,
        barriers=1,
        source_file="particles.f90",
        first_line=120,
        last_line=160,
        calls=[CallSpec("barrier", calls_per_pe=1, time_per_call=2e-5, imbalance=imbalance * 0.5)],
    )
    main_body = RegionSpec(
        name="particles_main",
        kind=RegionKind.PROGRAM,
        work=work * 0.05,
        serial_fraction=0.3,
        source_file="particles.f90",
        first_line=1,
        last_line=170,
        children=[push_loop, sort_phase],
    )
    workload = WorkloadSpec(name="particles_imbalanced", functions=[])
    workload.add_function(FunctionSpec(name="main", body=main_body))
    workload.validate()
    return workload


def io_bound_workload(work: float = 30.0, checkpoint_io: float = 8.0) -> WorkloadSpec:
    """Compute phase followed by a serialized checkpoint write."""
    compute = RegionSpec(
        name="timestep_loop",
        kind=RegionKind.LOOP,
        work=work,
        imbalance=0.05,
        barriers=20,
        comm_pattern=CommPattern.NEAREST,
        comm_time=0.02,
        source_file="checkpointed.f90",
        first_line=30,
        last_line=90,
        calls=[CallSpec("barrier", calls_per_pe=20, time_per_call=2e-5)],
    )
    checkpoint = RegionSpec(
        name="write_checkpoint",
        kind=RegionKind.SUBPROGRAM,
        work=work * 0.01,
        io_time=checkpoint_io,
        io_parallel=False,
        barriers=1,
        source_file="checkpointed.f90",
        first_line=95,
        last_line=140,
        calls=[
            CallSpec("io", calls_per_pe=4, time_per_call=1e-3, imbalance=0.3),
            CallSpec("barrier", calls_per_pe=1, time_per_call=2e-5, imbalance=0.2),
        ],
    )
    main_body = RegionSpec(
        name="checkpointed_main",
        kind=RegionKind.PROGRAM,
        work=work * 0.02,
        serial_fraction=0.4,
        source_file="checkpointed.f90",
        first_line=1,
        last_line=150,
        children=[compute, checkpoint],
    )
    workload = WorkloadSpec(name="checkpointed", functions=[])
    workload.add_function(FunctionSpec(name="main", body=main_body))
    workload.validate()
    return workload


def comm_bound_workload(work: float = 30.0, transpose_time: float = 0.15) -> WorkloadSpec:
    """Spectral-style code dominated by all-to-all transposes."""
    fft_loop = RegionSpec(
        name="fft_loop",
        kind=RegionKind.LOOP,
        work=work * 0.9,
        imbalance=0.03,
        source_file="spectral.f90",
        first_line=25,
        last_line=60,
    )
    transpose = RegionSpec(
        name="transpose",
        kind=RegionKind.SUBPROGRAM,
        work=work * 0.05,
        comm_pattern=CommPattern.ALLTOALL,
        comm_time=transpose_time,
        barriers=10,
        source_file="spectral.f90",
        first_line=65,
        last_line=110,
        calls=[
            CallSpec("mpi_send", calls_per_pe=200, time_per_call=1e-5),
            CallSpec("mpi_recv", calls_per_pe=200, time_per_call=1.5e-5),
            CallSpec("barrier", calls_per_pe=10, time_per_call=2e-5),
        ],
    )
    main_body = RegionSpec(
        name="spectral_main",
        kind=RegionKind.PROGRAM,
        work=work * 0.05,
        serial_fraction=0.2,
        source_file="spectral.f90",
        first_line=1,
        last_line=120,
        children=[fft_loop, transpose],
    )
    workload = WorkloadSpec(name="spectral", functions=[])
    workload.add_function(FunctionSpec(name="main", body=main_body))
    workload.validate()
    return workload


def mixed_workload(work: float = 60.0) -> WorkloadSpec:
    """Multi-phase application combining imbalance, collectives and I/O.

    This is the workload the quickstart example and the E4 benchmark analyze:
    it contains a dominant load-imbalance bottleneck, a secondary all-to-all
    communication cost and a small serialized I/O phase, so the severity
    ranking produced by COSY has a well-defined expected order.
    """
    setup = RegionSpec(
        name="setup",
        kind=RegionKind.SUBPROGRAM,
        work=work * 0.04,
        serial_fraction=0.6,
        io_time=0.5,
        io_parallel=False,
        source_file="app.f90",
        first_line=5,
        last_line=40,
        calls=[CallSpec("io", calls_per_pe=2, time_per_call=5e-4)],
    )
    assemble = RegionSpec(
        name="assemble_matrix",
        kind=RegionKind.LOOP,
        work=work * 0.35,
        imbalance=0.5,
        barriers=25,
        comm_pattern=CommPattern.NEAREST,
        comm_time=0.03,
        source_file="app.f90",
        first_line=45,
        last_line=120,
        calls=[
            CallSpec("barrier", calls_per_pe=25, time_per_call=2e-5, imbalance=0.5),
            CallSpec("mpi_send", calls_per_pe=100, time_per_call=2e-5),
        ],
    )
    solve = RegionSpec(
        name="solve_system",
        kind=RegionKind.SUBPROGRAM,
        work=work * 0.45,
        imbalance=0.08,
        barriers=40,
        comm_pattern=CommPattern.REDUCTION,
        comm_time=0.08,
        source_file="solver.f90",
        first_line=10,
        last_line=150,
        calls=[
            CallSpec("global_sum", calls_per_pe=120, time_per_call=4e-5),
            CallSpec("barrier", calls_per_pe=40, time_per_call=2e-5, imbalance=0.08),
        ],
    )
    exchange = RegionSpec(
        name="field_exchange",
        kind=RegionKind.SUBPROGRAM,
        work=work * 0.06,
        comm_pattern=CommPattern.ALLTOALL,
        comm_time=0.06,
        source_file="solver.f90",
        first_line=160,
        last_line=200,
        calls=[
            CallSpec("mpi_send", calls_per_pe=150, time_per_call=1e-5),
            CallSpec("mpi_recv", calls_per_pe=150, time_per_call=1.5e-5),
        ],
    )
    output = RegionSpec(
        name="write_results",
        kind=RegionKind.SUBPROGRAM,
        work=work * 0.02,
        io_time=1.5,
        io_parallel=False,
        barriers=1,
        source_file="app.f90",
        first_line=130,
        last_line=160,
        calls=[
            CallSpec("io", calls_per_pe=3, time_per_call=1e-3, imbalance=0.2),
            CallSpec("barrier", calls_per_pe=1, time_per_call=2e-5),
        ],
    )
    main_body = RegionSpec(
        name="app_main",
        kind=RegionKind.PROGRAM,
        work=work * 0.08,
        serial_fraction=0.35,
        source_file="app.f90",
        first_line=1,
        last_line=170,
        children=[setup, assemble, solve, exchange, output],
    )
    workload = WorkloadSpec(name="mixed_app", functions=[])
    workload.add_function(FunctionSpec(name="main", body=main_body))
    workload.validate()
    return workload


def scalable_workload(
    functions: int = 8,
    regions_per_function: int = 6,
    calls_per_region: int = 2,
    work_per_region: float = 1.0,
    name: str = "scalable",
) -> WorkloadSpec:
    """Parameterisable workload used to grow the database for benchmarks.

    ``functions * regions_per_function`` leaf regions are generated, each with
    a small rotation of bottleneck behaviours (imbalance, barrier, reduction,
    all-to-all, I/O) so that the generated database exercises every property.
    """
    if functions < 1 or regions_per_function < 1:
        raise ValueError("functions and regions_per_function must be >= 1")
    workload = WorkloadSpec(name=name, functions=[])
    for fi in range(functions):
        fname = "main" if fi == 0 else f"phase_{fi:03d}"
        body = RegionSpec(
            name=f"{fname}_body",
            kind=RegionKind.PROGRAM if fi == 0 else RegionKind.SUBPROGRAM,
            work=work_per_region * 0.2,
            serial_fraction=0.3 if fi == 0 else 0.0,
            source_file=f"{fname}.f90",
            first_line=1,
            last_line=20 + 10 * regions_per_function,
        )
        for ri in range(regions_per_function):
            flavour = (fi * regions_per_function + ri) % 5
            region = RegionSpec(
                name=f"{fname}_region_{ri:03d}",
                kind=RegionKind.LOOP if ri % 2 == 0 else RegionKind.BASIC_BLOCK,
                work=work_per_region,
                imbalance=0.4 if flavour == 0 else 0.05,
                barriers=5 if flavour in (0, 1) else 0,
                comm_pattern=(
                    CommPattern.REDUCTION
                    if flavour == 2
                    else CommPattern.ALLTOALL
                    if flavour == 3
                    else CommPattern.NEAREST
                    if flavour == 1
                    else CommPattern.NONE
                ),
                comm_time=0.01 if flavour in (1, 2, 3) else 0.0,
                io_time=0.2 if flavour == 4 else 0.0,
                io_parallel=False,
                source_file=f"{fname}.f90",
                first_line=20 + 10 * ri,
                last_line=29 + 10 * ri,
            )
            for ci in range(calls_per_region):
                callee = ("barrier", "mpi_send", "global_sum", "io")[ci % 4]
                region.calls.append(
                    CallSpec(
                        callee,
                        calls_per_pe=5.0 + ci,
                        time_per_call=2e-5,
                        imbalance=0.3 if flavour == 0 else 0.05,
                    )
                )
            body.add_child(region)
        workload.add_function(FunctionSpec(name=fname, body=body))
    workload.validate()
    return workload


WORKLOAD_FACTORIES = {
    "stencil": stencil_workload,
    "imbalanced": imbalanced_workload,
    "io_bound": io_bound_workload,
    "comm_bound": comm_bound_workload,
    "mixed": mixed_workload,
    "scalable": scalable_workload,
}


def synthetic_workload(kind: str = "mixed", **kwargs: object) -> WorkloadSpec:
    """Build one of the predefined synthetic workloads by name.

    Parameters
    ----------
    kind:
        One of ``stencil``, ``imbalanced``, ``io_bound``, ``comm_bound``,
        ``mixed`` or ``scalable``.
    kwargs:
        Forwarded to the selected factory (e.g. ``imbalance=0.8`` for the
        imbalanced workload, ``functions=20`` for the scalable one).
    """
    try:
        factory = WORKLOAD_FACTORIES[kind]
    except KeyError:
        raise KeyError(
            f"unknown workload kind {kind!r}; available: "
            f"{sorted(WORKLOAD_FACTORIES)}"
        ) from None
    return factory(**kwargs)  # type: ignore[arg-type]

"""repro: Pinwheel Scheduling for Fault-Tolerant Broadcast Disks.

A complete, from-scratch reproduction of Baruah & Bestavros,
"Pinwheel Scheduling for Fault-tolerant Broadcast Disks in Real-time
Database Systems" (BU-CS TR-1996-023 / ICDE 1997), organized as:

* :mod:`repro.core` - pinwheel scheduling theory: the task model, cyclic
  schedules, exact verification, a family of schedulers (harmonic,
  single-number reduction, double-integer reduction, two-task,
  three-task, exact, greedy), the pinwheel algebra R0-R5, transformation
  rules TR1/TR2, and the Equation 1/2 bandwidth bounds;
* :mod:`repro.ida` - Rabin's Information Dispersal Algorithm over
  GF(2^8) and Bestavros' adaptive AIDA;
* :mod:`repro.bdisk` - broadcast files, programs (flat, AIDA-flat,
  pinwheel-derived), bandwidth planning, the multidisk baseline, and the
  end-to-end designers;
* :mod:`repro.sim` - fault models, client retrieval, exact worst-case
  delay analysis (Lemmas 1-2, Figure 7), workloads, and metrics;
* :mod:`repro.rtdb` - temporal consistency, data items, operation modes,
  and read transactions;
* :mod:`repro.traffic` - traffic simulation: open-loop client
  populations (arrival processes, popularity laws, think times,
  streaming metrics) sharded across cores;
* :mod:`repro.api` - the declarative front door: :class:`Scenario`
  specifications (JSON-round-trippable), the :class:`BroadcastEngine`
  facade, and batch sweeps over scenarios;
* :mod:`repro.sweep` - experiment orchestration: :class:`SweepSpec`
  grids over any scenario field, a content-addressed schedule
  solve-cache, a resumable JSONL run store, and one shared pool over
  cells and traffic shards.

Quickstart::

    from repro import FileSpec, Scenario, WorkloadSpec, run_scenario

    scenario = Scenario(
        name="radar-map",
        files=[
            FileSpec("radar", blocks=4, latency=2, fault_budget=2),
            FileSpec("map", blocks=6, latency=5, fault_budget=1),
        ],
        workload=WorkloadSpec(requests=100, horizon=500, seed=7),
    )
    result = run_scenario(scenario)
    print(result.summary())

The same scenario runs from a shell via ``repro run scenario.json``;
lower-level entry points (``solve``, ``design_program``,
``simulate_requests``) remain available for piecewise use.

See ``examples/`` for runnable scenarios and ``EXPERIMENTS.md`` for the
paper-versus-measured record.
"""

from repro.errors import (
    BandwidthError,
    BlockCodecError,
    DispersalError,
    InfeasibleError,
    ProgramError,
    ReproError,
    SchedulingError,
    SimulationError,
    SpecificationError,
    VerificationError,
)
from repro.core import (
    IDLE,
    BroadcastCondition,
    NiceConjunct,
    PinwheelCondition,
    PinwheelSystem,
    PinwheelTask,
    Schedule,
    bc,
    best_nice_conjunct,
    check_schedule,
    design_nice_system,
    necessary_bandwidth,
    pc,
    register_scheduler,
    registered_schedulers,
    scheduler_names,
    get_scheduler,
    SchedulerEntry,
    SolveReport,
    solve,
    sufficient_bandwidth_eq1,
    sufficient_bandwidth_eq2,
    verify_schedule,
)
from repro.ida import (
    AidaEncoder,
    Block,
    RedundancyPolicy,
    decode_block,
    disperse,
    encode_block,
    reconstruct,
)
from repro.bdisk import (
    BroadcastProgram,
    FileSpec,
    GeneralizedFileSpec,
    ProgramIndex,
    build_aida_flat_program,
    build_flat_program,
    build_multidisk_program,
    build_pinwheel_program,
    design_generalized_program,
    design_program,
    minimal_feasible_bandwidth,
    plan_bandwidth,
)
from repro.sim import (
    AdversarialFaults,
    BernoulliFaults,
    BurstFaults,
    NoFaults,
    retrieve,
    simulate_requests,
    worst_case_delay,
    worst_case_delay_table,
)
from repro.rtdb import (
    DataItem,
    ModeManager,
    OperationMode,
    ReadTransaction,
    TemporalConstraint,
    TemporalItemSpec,
    TemporalSpec,
    TransactionSpec,
    UpdatingServer,
    constraint_from_kinematics,
    execute_transaction,
    retrieve_versioned,
)
from repro.traffic import (
    TrafficMetrics,
    TrafficResult,
    TrafficSpec,
    simulate_traffic,
)
from repro.api import (
    BroadcastEngine,
    FaultSpec,
    Scenario,
    ScenarioResult,
    WorkloadSpec,
    run_scenario,
    run_scenarios,
)
from repro.sweep import (
    RunStore,
    SolveCache,
    SweepAxis,
    SweepResult,
    SweepSpec,
    run_sweep,
)
from repro.server import (
    AirSchedule,
    AsRunLog,
    BroadcastServer,
    FaultBudgetBump,
    ModeChange,
    MutationScript,
    ServerResult,
    SpliceRequirement,
    check_splice,
    find_splice_slot,
    mutation_from_dict,
    read_asrun,
    run_script,
    splice_is_safe,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "SpecificationError",
    "InfeasibleError",
    "SchedulingError",
    "VerificationError",
    "DispersalError",
    "BlockCodecError",
    "ProgramError",
    "BandwidthError",
    "SimulationError",
    # core
    "PinwheelTask",
    "PinwheelSystem",
    "Schedule",
    "IDLE",
    "PinwheelCondition",
    "BroadcastCondition",
    "NiceConjunct",
    "pc",
    "bc",
    "solve",
    "SolveReport",
    "SchedulerEntry",
    "register_scheduler",
    "registered_schedulers",
    "get_scheduler",
    "scheduler_names",
    "verify_schedule",
    "check_schedule",
    "best_nice_conjunct",
    "design_nice_system",
    "necessary_bandwidth",
    "sufficient_bandwidth_eq1",
    "sufficient_bandwidth_eq2",
    # ida
    "AidaEncoder",
    "Block",
    "RedundancyPolicy",
    "disperse",
    "reconstruct",
    "encode_block",
    "decode_block",
    # bdisk
    "FileSpec",
    "GeneralizedFileSpec",
    "BroadcastProgram",
    "ProgramIndex",
    "build_flat_program",
    "build_aida_flat_program",
    "build_pinwheel_program",
    "build_multidisk_program",
    "design_program",
    "design_generalized_program",
    "plan_bandwidth",
    "minimal_feasible_bandwidth",
    # sim
    "NoFaults",
    "BernoulliFaults",
    "BurstFaults",
    "AdversarialFaults",
    "retrieve",
    "simulate_requests",
    "worst_case_delay",
    "worst_case_delay_table",
    # rtdb
    "TemporalConstraint",
    "TemporalItemSpec",
    "TemporalSpec",
    "TransactionSpec",
    "UpdatingServer",
    "constraint_from_kinematics",
    "retrieve_versioned",
    "DataItem",
    "OperationMode",
    "ModeManager",
    "ReadTransaction",
    "execute_transaction",
    # traffic
    "TrafficMetrics",
    "TrafficResult",
    "TrafficSpec",
    "simulate_traffic",
    # api
    "Scenario",
    "FaultSpec",
    "WorkloadSpec",
    "BroadcastEngine",
    "ScenarioResult",
    "run_scenario",
    "run_scenarios",
    # sweep
    "RunStore",
    "SolveCache",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    # server
    "AirSchedule",
    "AsRunLog",
    "BroadcastServer",
    "FaultBudgetBump",
    "ModeChange",
    "MutationScript",
    "ServerResult",
    "SpliceRequirement",
    "check_splice",
    "find_splice_slot",
    "mutation_from_dict",
    "read_asrun",
    "run_script",
    "splice_is_safe",
]

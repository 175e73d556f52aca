"""Traffic-aware fleet serving simulator (§7.5 taken online).

A SmartNIC cluster over time: NF services arrive and depart
(:mod:`repro.fleet.churn`), their traffic profiles evolve along traces
(:mod:`repro.fleet.traces`), and an online placement policy
(:mod:`repro.fleet.policies`) decides where each service runs on the
growing/shrinking cluster (:mod:`repro.fleet.cluster`). One loop
(:mod:`repro.fleet.engine`) computes the trajectory: the
:class:`EventEngine` pops typed events (:mod:`repro.fleet.events`) —
timed arrivals, traffic change points, timed migrations, NIC spin-up,
faults — and scores lazily at observation points, gathering all
changed NICs into one :meth:`SmartNic.run_batch` call per hardware
target. :class:`FleetEngine` is that loop fixed to the epoch grid
(:meth:`EventConfig.epoch_equivalent`) and returns the per-epoch
:class:`FleetReport` of SLA-violation, utilisation, wastage and
migration-cost series; a continuous :class:`EventEngine` run wraps the
same report with second-granularity violation/drop integrals, and
the loop's whole state is one checkpointable :class:`FleetState`.

The **front door** is :class:`FleetConfig` + :func:`simulate`: one
validated object holding every knob (engine, churn, policy, hardware
mix, pod topology, execution runtime), one call returning the report.
The CLI (``python -m repro.fleet --epochs 20 --policy yala``;
``--engine event`` for continuous time) and the ``fleet`` /
``fleet-event`` experiments are thin callers of it. Scoring executes
on an execution :class:`Runtime` (:mod:`repro.fleet.runtime`):
``serial`` in-process (the oracle arm) or ``process`` sharding the
fleet's pods (:mod:`repro.fleet.topology`) across workers — same seed
⇒ byte-identical reports at any runtime/worker count.

**Faults are first-class** (:mod:`repro.fleet.faults`): a seeded
:class:`FaultSchedule` injects NIC hard failures, degraded-capacity
windows and pod outages as timed events; evicted services queue for
policy-driven re-placement and the schema-v3 report carries a
``faults`` accounting section. The :class:`ProcessRuntime` survives
worker crashes (timeout + retry + deterministic serial re-execution),
and :mod:`repro.fleet.checkpoint` snapshots let a killed run resume to
a byte-identical final report — the determinism contract holds under
failure, not just alongside it.

**Telemetry is first-class too** (:mod:`repro.obs`): attach a
:class:`~repro.obs.TraceRecorder` (``simulate(config, recorder=...)``
or the CLI's ``--trace-out``/``--metrics-out``) to collect sim-time
spans, typed events, counters and histograms from every hot layer —
engine phases, runtime dispatch, batch solver, profiling quota — and
export them as JSONL, a Chrome/Perfetto trace, or a metrics snapshot.
Recorders never perturb results: the schema-v4 report (with its
always-on ``telemetry`` section) stays byte-identical with or without
one, and the sim-time event stream is itself byte-deterministic at any
runtime/jobs setting.
"""

from repro.fleet.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpointer,
    atomic_write_bytes,
    atomic_write_text,
    load_checkpoint,
)
from repro.fleet.churn import ChurnProcess, ServiceRequest
from repro.fleet.cluster import (
    Cluster,
    EvictedService,
    FleetNic,
    MigrationRecord,
    NicProvisioner,
    ReplacementRecord,
    ServiceInstance,
    TimedMigration,
    parse_nic_mix,
)
from repro.fleet.config import (
    DEFAULT_POOL,
    ENGINE_NAMES,
    FleetConfig,
    build_model,
    build_model_for,
    simulate,
)
from repro.fleet.engine import (
    FLEET_REPORT_SCHEMA_VERSION,
    EpochMetrics,
    EventEngine,
    EventReport,
    FleetEngine,
    FleetReport,
    FleetState,
    ObservationRecord,
    PoolMetrics,
)
from repro.fleet.events import (
    EVENT_TYPES,
    Arrival,
    Departure,
    Event,
    EventConfig,
    EventQueue,
    MigrationComplete,
    MigrationStart,
    NicFail,
    NicRestore,
    PodFail,
    PodRestore,
    Probe,
    RebalanceTimer,
    TrafficChange,
)
from repro.fleet.faults import (
    FaultConfig,
    FaultSchedule,
    NicFault,
    PodOutage,
    faults_payload,
)
from repro.fleet.policies import (
    FLEET_POLICY_NAMES,
    PlacementModel,
    make_policy,
)
from repro.fleet.runtime import (
    RUNTIME_NAMES,
    FaultInjectingRuntime,
    PodScoreTask,
    ProcessRuntime,
    Runtime,
    SerialRuntime,
    make_runtime,
)
from repro.fleet.topology import Topology
from repro.fleet.traces import TRACE_KINDS, TrafficTrace, make_trace, random_trace
from repro.obs import (
    NullRecorder,
    Recorder,
    TelemetryAccumulator,
    TraceRecorder,
    chrome_trace_payload,
    write_metrics,
    write_trace,
)

__all__ = [
    "Arrival",
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "ChurnProcess",
    "Cluster",
    "DEFAULT_POOL",
    "Departure",
    "ENGINE_NAMES",
    "EVENT_TYPES",
    "EpochMetrics",
    "Event",
    "EventConfig",
    "EventEngine",
    "EventQueue",
    "EventReport",
    "EvictedService",
    "FLEET_POLICY_NAMES",
    "FLEET_REPORT_SCHEMA_VERSION",
    "FaultConfig",
    "FaultInjectingRuntime",
    "FaultSchedule",
    "FleetConfig",
    "FleetEngine",
    "FleetNic",
    "FleetReport",
    "FleetState",
    "MigrationComplete",
    "MigrationRecord",
    "MigrationStart",
    "NicFail",
    "NicFault",
    "NicProvisioner",
    "NicRestore",
    "NullRecorder",
    "ObservationRecord",
    "PlacementModel",
    "PodFail",
    "PodOutage",
    "PodRestore",
    "PodScoreTask",
    "PoolMetrics",
    "Probe",
    "ProcessRuntime",
    "RUNTIME_NAMES",
    "RebalanceTimer",
    "Recorder",
    "ReplacementRecord",
    "Runtime",
    "SerialRuntime",
    "ServiceInstance",
    "ServiceRequest",
    "TRACE_KINDS",
    "TelemetryAccumulator",
    "TimedMigration",
    "Topology",
    "TraceRecorder",
    "TrafficChange",
    "TrafficTrace",
    "atomic_write_bytes",
    "atomic_write_text",
    "build_model",
    "build_model_for",
    "chrome_trace_payload",
    "faults_payload",
    "load_checkpoint",
    "make_policy",
    "make_runtime",
    "make_trace",
    "parse_nic_mix",
    "random_trace",
    "simulate",
    "write_metrics",
    "write_trace",
]

"""One front door for fleet simulation: :class:`FleetConfig` + :func:`simulate`.

Historically the knobs of a fleet run were spread over four surfaces —
``__main__.py`` flags, :class:`~repro.fleet.engine.FleetEngine` /
:class:`~repro.fleet.engine.EventEngine` constructor arguments and
:class:`~repro.fleet.events.EventConfig` fields — and every caller
(CLI, experiments, tests) re-assembled them by hand. :class:`FleetConfig`
consolidates engine choice, churn/trace shape, policy, hardware mix,
topology and execution-runtime selection into one validated object with
a ``to_dict``/``from_dict`` round-trip, and :func:`simulate` turns a
config into a report:

    from repro.fleet import FleetConfig, simulate

    report = simulate(FleetConfig(policy="rebalance", epochs=20))
    print(report.render())

``simulate(config)`` reproduces ``python -m repro.fleet`` with the same
knobs **byte-identically** (tier-1 pinned) — the CLI and the ``fleet`` /
``fleet-event`` experiments are thin callers of this module.

Naming note: ``jobs`` is the repo-wide name for worker-process counts
(predictor training *and* the process execution runtime share it);
``workers=`` survives only as a deprecated alias on
:class:`~repro.fleet.runtime.ProcessRuntime` and the CLI flag.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

from repro.core.predictor import YalaSystem
from repro.core.slomo import SlomoPredictor
from repro.errors import ConfigurationError
from repro.fleet.checkpoint import Checkpointer, load_checkpoint
from repro.fleet.churn import ChurnProcess
from repro.fleet.cluster import NicProvisioner, parse_nic_mix
from repro.fleet.engine import (
    EventEngine,
    EventReport,
    FleetEngine,
    FleetReport,
)
from repro.fleet.events import EventConfig
from repro.fleet.faults import FaultConfig, FaultSchedule
from repro.fleet.policies import (
    FLEET_POLICY_NAMES,
    PlacementModel,
)
from repro.fleet.runtime import RUNTIME_NAMES, Runtime, make_runtime
from repro.fleet.topology import Topology
from repro.nf.catalog import make_nf
from repro.obs import (
    TRACE_FORMATS,
    Recorder,
    TraceRecorder,
    write_metrics,
    write_trace,
)
from repro.nic.nic import SmartNic
from repro.nic.spec import DEFAULT_TARGET, get_spec, target_seed
from repro.profiling.collector import ProfilingCollector
from repro.rng import check_seed, derive_seed

#: Default NF pool: a regex-accelerated NF, a flow-count-bound NF and a
#: memory-heavy NF — small enough that CLI training stays snappy.
DEFAULT_POOL = ("flowmonitor", "flowstats", "nids")

#: Engine names a config accepts.
ENGINE_NAMES: tuple[str, ...] = ("epoch", "event")


@dataclass(frozen=True)
class FleetConfig:
    """Everything one fleet simulation needs, validated at construction.

    Field groups mirror the layers they configure: *what* runs (policy,
    engine, epochs, seed), the *workload* (churn shape, NF pool), the
    *hardware* (nic_mix, topology), the *continuous-time* costs (the
    ``EventConfig`` knobs, event engine only) and *where it executes*
    (runtime, jobs). ``nic_mix`` stays the CLI's string form (e.g.
    ``"bluefield2=0.7,pensando=0.3"``) so the config round-trips
    through JSON unchanged.
    """

    # What runs.
    policy: str = "yala"
    engine: str = "epoch"
    epochs: int = 20
    seed: int = 2025
    score_mode: str = "batch"
    #: Seed each mix's fixed-point solve from the hosting NIC's last
    #: converged vector (same fixed point, fewer iterations). Off by
    #: default: the cold run is the oracle arm whose bytes tier-1 pins.
    #: Part of the checkpoint fingerprint — a warm run resumes only
    #: into a warm run (the iterate path differs from cold's).
    warm_start: bool = False
    # Workload.
    nf_pool: tuple[str, ...] = DEFAULT_POOL
    arrival_rate: float = 1.5
    mean_lifetime: float = 12.0
    initial_services: int = 4
    # Hardware.
    nic_mix: str = DEFAULT_TARGET
    pods: Optional[int] = None
    pod_size: Optional[int] = None
    # Training.
    quota: int = 200
    # Execution.
    runtime: str = "serial"
    jobs: int = 1
    # Continuous-time costs (event engine only).
    quantize_arrivals: bool = False
    migration_duration: float = 0.0
    cross_pod_migration_duration: Optional[float] = None
    spinup_latency: float = 0.0
    probe_period: float = 1.0
    rebalance_period: float = 1.0
    observe_changes: bool = True
    # Faults (both engines; zero rates = the historical fault-free run).
    nic_fail_rate: float = 0.0
    nic_degrade_rate: float = 0.0
    pod_outage_rate: float = 0.0
    mean_time_to_fail: float = 8.0
    mean_repair_time: float = 3.0
    # Crash survival (execution-only: excluded from the fingerprint).
    checkpoint_path: Optional[str] = None
    checkpoint_every: Optional[int] = None
    resume_path: Optional[str] = None
    # Telemetry export (execution-only: attaching a recorder never
    # changes a simulated byte, so none of these enter the fingerprint).
    trace_out: Optional[str] = None
    trace_format: str = "jsonl"
    metrics_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.policy not in FLEET_POLICY_NAMES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; known: {FLEET_POLICY_NAMES}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {ENGINE_NAMES}"
            )
        if self.score_mode not in ("batch", "loop"):
            raise ConfigurationError("score_mode must be 'batch' or 'loop'")
        if self.runtime not in RUNTIME_NAMES:
            raise ConfigurationError(
                f"unknown runtime {self.runtime!r}; known: {RUNTIME_NAMES}"
            )
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        check_seed(self.seed)
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if self.quota < 1:
            raise ConfigurationError("quota must be >= 1")
        if not self.nf_pool:
            raise ConfigurationError("nf_pool must name at least one NF")
        # Normalise a list (e.g. straight from JSON) into a tuple.
        object.__setattr__(self, "nf_pool", tuple(self.nf_pool))
        parse_nic_mix(self.nic_mix)  # validates targets and weights
        self.topology()  # validates pods/pod_size
        self.event_config()  # validates the continuous-time knobs
        self.fault_config()  # validates the fault rates/means
        if self.pod_outage_rate > 0.0 and self.pods is None:
            raise ConfigurationError(
                "pod_outage_rate needs a fixed pod count (pods=N): outages "
                "are drawn per pod id up front"
            )
        if (self.checkpoint_path is None) != (self.checkpoint_every is None):
            raise ConfigurationError(
                "checkpoint_path and checkpoint_every go together"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        if self.trace_format not in TRACE_FORMATS:
            raise ConfigurationError(
                f"unknown trace_format {self.trace_format!r}; "
                f"known: {TRACE_FORMATS}"
            )

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------
    def mix(self) -> dict[str, float]:
        """The parsed ``{target: weight}`` hardware mix."""
        return parse_nic_mix(self.nic_mix)

    def target_names(self) -> tuple[str, ...]:
        return tuple(self.mix())

    def topology(self) -> Topology:
        """The pod layout this config describes (flat when unset)."""
        return Topology(pods=self.pods, pod_size=self.pod_size)

    def make_runtime(self) -> Runtime:
        """A fresh execution runtime (caller owns ``close()``)."""
        return make_runtime(
            self.runtime, jobs=self.jobs if self.runtime == "process" else None
        )

    def event_config(self) -> EventConfig:
        return EventConfig(
            quantize_arrivals=self.quantize_arrivals,
            migration_duration=self.migration_duration,
            cross_pod_migration_duration=self.cross_pod_migration_duration,
            spinup_latency=self.spinup_latency,
            probe_period=self.probe_period,
            rebalance_period=self.rebalance_period,
            observe_changes=self.observe_changes,
        )

    def fault_config(self) -> FaultConfig:
        """The validated fault knobs (all-zero rates = fault-free)."""
        return FaultConfig(
            nic_fail_rate=self.nic_fail_rate,
            nic_degrade_rate=self.nic_degrade_rate,
            pod_outage_rate=self.pod_outage_rate,
            mean_time_to_fail=self.mean_time_to_fail,
            mean_repair_time=self.mean_repair_time,
        )

    def fault_schedule(self) -> Optional[FaultSchedule]:
        """The seeded fault trajectory, or ``None`` when rates are zero.

        Seeded like every other fleet stream — a dedicated derived
        stream per purpose — so turning faults on never perturbs churn,
        NIC mix, or scenario noise draws.
        """
        config = self.fault_config()
        if not config.any_faults:
            return None
        return FaultSchedule(
            config, seed=derive_seed(self.seed, "fleet-faults")
        )

    def fingerprint(self) -> dict:
        """What a checkpoint must match to be resumable into this config.

        Everything that shapes the trajectory stays (seed, policy,
        churn, hardware, faults, ``score_mode``); execution-only knobs
        (runtime, jobs, checkpoint/resume paths) are dropped — resuming
        a serial run under the process runtime is exactly the kind of
        thing the byte-identity contract promises to allow.
        """
        payload = self.to_dict()
        for key in (
            "runtime",
            "jobs",
            "checkpoint_path",
            "checkpoint_every",
            "resume_path",
            "trace_out",
            "trace_format",
            "metrics_out",
        ):
            payload.pop(key, None)
        return payload

    def churn(self) -> ChurnProcess:
        """The seeded churn process (identical derivation to the CLI's)."""
        return ChurnProcess(
            nf_names=self.nf_pool,
            seed=derive_seed(self.seed, "fleet-churn"),
            arrival_rate=self.arrival_rate,
            mean_lifetime=self.mean_lifetime,
            initial_services=self.initial_services,
        )

    def provisioner(self) -> NicProvisioner:
        """The seeded hardware provisioner (CLI-identical derivation)."""
        return NicProvisioner(
            self.mix(), seed=derive_seed(self.seed, "nic-mix")
        )

    # ------------------------------------------------------------------
    # Round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; :meth:`from_dict` restores it exactly."""
        payload = asdict(self)
        payload["nf_pool"] = list(self.nf_pool)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown FleetConfig fields: {sorted(unknown)}"
            )
        return cls(**payload)

    @classmethod
    def from_cli_args(cls, args) -> "FleetConfig":
        """Build a config from the ``python -m repro.fleet`` namespace.

        ``--workers`` (deprecated alias of ``--jobs``) is honoured here
        with a warning so old invocations keep working.
        """
        jobs = args.jobs
        workers = getattr(args, "workers", None)
        if workers is not None:
            warnings.warn(
                "--workers is deprecated; use --jobs (the repo-wide name "
                "for worker-process counts)",
                DeprecationWarning,
                stacklevel=2,
            )
            jobs = workers
        nf_pool = tuple(
            name.strip() for name in args.nf_pool.split(",") if name.strip()
        )
        return cls(
            policy=args.policy,
            engine=args.engine,
            epochs=args.epochs,
            seed=args.seed,
            score_mode=args.score_mode,
            warm_start=bool(getattr(args, "warm_start", False)),
            nf_pool=nf_pool,
            arrival_rate=args.arrival_rate,
            mean_lifetime=args.mean_lifetime,
            initial_services=args.initial_services,
            nic_mix=args.nic_mix,
            pods=args.pods,
            pod_size=args.pod_size,
            quota=args.quota,
            runtime=args.runtime,
            jobs=jobs,
            quantize_arrivals=args.quantize_arrivals,
            migration_duration=args.migration_duration,
            cross_pod_migration_duration=args.cross_pod_migration_duration,
            spinup_latency=args.spinup_latency,
            probe_period=args.probe_period,
            nic_fail_rate=args.nic_fail_rate,
            nic_degrade_rate=args.nic_degrade_rate,
            pod_outage_rate=args.pod_outage_rate,
            mean_time_to_fail=args.mean_time_to_fail,
            mean_repair_time=args.mean_repair_time,
            checkpoint_path=args.checkpoint_path,
            checkpoint_every=args.checkpoint_every,
            resume_path=args.resume,
            trace_out=getattr(args, "trace_out", None),
            trace_format=getattr(args, "trace_format", "jsonl"),
            metrics_out=getattr(args, "metrics_out", None),
        )


# ----------------------------------------------------------------------
# Model training (moved here from __main__ so every front end shares it)
# ----------------------------------------------------------------------
def _build_target(
    policy: str,
    target: str,
    nf_pool: tuple[str, ...],
    seed: int,
    quota: int,
    jobs: int,
) -> dict:
    """Train exactly the predictors ``policy`` needs on one target.

    Seed streams come from :func:`repro.nic.spec.target_seed`: the
    default target keeps the CLI's historical single-NIC streams
    (byte-identical reports), secondary targets derive their own.
    """
    nic = SmartNic(get_spec(target), seed=target_seed(seed, target))
    if policy in ("yala", "rebalance"):
        yala = YalaSystem(nic, seed=target_seed(seed, target), quota=quota)
        yala.train(list(nf_pool), jobs=jobs)
        return {"yala": yala}
    if policy == "slomo":
        collector = ProfilingCollector(nic)
        slomo = {}
        for name in nf_pool:
            predictor = SlomoPredictor(
                name, seed=target_seed(seed, target, "slomo", name)
            )
            predictor.train(collector, make_nf(name), n_samples=quota)
            slomo[name] = predictor
        return {"slomo_predictors": slomo, "collector": collector, "nic": nic}
    # monopolization / greedy need no trained predictors.
    return {"collector": ProfilingCollector(nic), "nic": nic}


def build_model(
    policy: str,
    nf_pool: tuple[str, ...],
    seed: int,
    quota: int,
    jobs: int,
    targets: tuple[str, ...] = (DEFAULT_TARGET,),
) -> PlacementModel:
    """Train the predictors ``policy`` needs on every pool target."""
    model = PlacementModel(
        **_build_target(policy, targets[0], nf_pool, seed, quota, jobs)
    )
    for target in targets[1:]:
        model.add_target(
            **_build_target(policy, target, nf_pool, seed, quota, jobs)
        )
    return model


def build_model_for(config: FleetConfig) -> PlacementModel:
    """Train the placement model ``config`` needs (all mix targets)."""
    return build_model(
        config.policy,
        config.nf_pool,
        config.seed,
        config.quota,
        config.jobs,
        config.target_names(),
    )


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
def simulate(
    config: FleetConfig,
    model: Optional[PlacementModel] = None,
    recorder: Optional[Recorder] = None,
) -> Union[FleetReport, EventReport]:
    """Run one fleet simulation described by ``config``.

    Trains the policy's predictors when no ``model`` is supplied
    (callers with a shared trained model — the experiments, sweep
    loops — pass their own and skip training). Returns a
    :class:`FleetReport` (``engine="epoch"``) or :class:`EventReport`
    (``engine="event"``); with the same knobs the report is
    byte-identical to the ``python -m repro.fleet`` CLI's JSON output,
    at any runtime/jobs setting — **including** when a telemetry
    ``recorder`` is attached (telemetry never perturbs results).

    When ``config.trace_out`` / ``config.metrics_out`` are set and no
    recorder is supplied, a :class:`~repro.obs.TraceRecorder` is
    created automatically and its trace / metrics snapshot written on
    completion.
    """
    if model is None:
        model = build_model_for(config)
    if recorder is None and (
        config.trace_out is not None or config.metrics_out is not None
    ):
        recorder = TraceRecorder()
    checkpoint = None
    if config.checkpoint_path is not None:
        checkpoint = Checkpointer(
            config.checkpoint_path,
            config.checkpoint_every,
            config.fingerprint(),
        )
    resume = None
    if config.resume_path is not None:
        _step, resume = load_checkpoint(
            config.resume_path, config.fingerprint()
        )
    runtime = config.make_runtime()
    try:
        if config.engine == "event":
            engine: Union[EventEngine, FleetEngine] = EventEngine(
                config.policy,
                config.churn(),
                model,
                score_mode=config.score_mode,
                provisioner=config.provisioner(),
                config=config.event_config(),
                runtime=runtime,
                topology=config.topology(),
                faults=config.fault_schedule(),
                recorder=recorder,
                warm_start=config.warm_start,
            )
        else:
            engine = FleetEngine(
                config.policy,
                config.churn(),
                model,
                score_mode=config.score_mode,
                provisioner=config.provisioner(),
                runtime=runtime,
                topology=config.topology(),
                faults=config.fault_schedule(),
                recorder=recorder,
                warm_start=config.warm_start,
            )
        report = engine.run(
            config.epochs, checkpoint=checkpoint, resume=resume
        )
    finally:
        runtime.close()
    if isinstance(recorder, TraceRecorder):
        if config.trace_out is not None:
            write_trace(recorder, config.trace_out, config.trace_format)
        if config.metrics_out is not None:
            write_metrics(recorder, config.metrics_out)
    return report


__all__ = [
    "DEFAULT_POOL",
    "ENGINE_NAMES",
    "FleetConfig",
    "build_model",
    "build_model_for",
    "simulate",
]

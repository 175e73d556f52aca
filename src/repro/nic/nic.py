"""SmartNIC co-location runtime.

:class:`SmartNic` takes a set of workload demands (compiled NFs bound to
traffic profiles), places them on the simulated NIC, and solves for every
workload's steady-state throughput. Because each workload's memory and
accelerator pressure depends on its own achieved rate, the solution is a
damped fixed point:

1. guess throughputs (contention-free estimates);
2. from the current throughputs, derive every actor's cache/DRAM pressure
   and accelerator offered load;
3. recompute each workload's stage capacities under that contention and
   its resulting end-to-end throughput (pipeline = slowest stage;
   run-to-completion = cores / sum of per-packet stage times);
4. damp, repeat until converged.

Reported throughputs carry a small seeded measurement noise, like real
testbed samples. The noiseless value is also exposed for tests.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError, PlacementError, SimulationError
from repro.nic.accelerator import AcceleratorClient, AcceleratorEngine
from repro.nic.counters import PerfCounters
from repro.nic.memory import MemoryActor, MemorySubsystem
from repro.nic.spec import NicSpecification
from repro.nic.workload import (
    ExecutionPattern,
    Resource,
    StageDemand,
    WorkloadDemand,
)
from repro.rng import SeedLike, check_seed, derive_seed, derive_seeds, make_rng

_MAX_ITERATIONS = 3000
_DAMPING = 0.55
#: Starting damping for *seeded* solves. Near the fixed point the
#: update map is locally contractive, so a warm iterate can take full
#: (undamped) steps; the stall schedule below still halves damping if
#: the seed turns out to be far off or the regime is oscillatory, so
#: warm solves keep the cold path's convergence guarantee. Cold solves
#: stay at ``_DAMPING`` — their iterate path is bit-pinned.
_WARM_DAMPING = 1.0
_MIN_DAMPING = 0.02
_STALL_WINDOW = 15
#: Stall window for *seeded* solves. A cold iterate approaches from a
#: distance and may legitimately plateau for a dozen sweeps before a
#: slow mode decays, so its window is generous. A warm iterate that is
#: not improving within a few sweeps has a bad seed (or sits in an
#: oscillatory regime that full steps cannot damp) and should shed its
#: undamped start quickly — the tail rows of a warm batch otherwise
#: dominate the whole group's solve time.
_WARM_STALL_WINDOW = 5
_REL_TOLERANCE = 1e-8
_ACCEPT_RESIDUAL = 1e-4
#: Resident buffer footprint of an accelerator DMA ring.
_DMA_BUFFER_BYTES = 256 * 1024


@dataclass(frozen=True)
class StageReport:
    """Resolved behaviour of one stage at the converged operating point."""

    name: str
    resource: Resource
    accelerator: str | None
    time_pp_us: float  # per-packet occupancy of the stage
    capacity_mpps: float  # max packet rate this stage alone could sustain


@dataclass(frozen=True)
class WorkloadResult:
    """Converged, measured behaviour of one co-located workload."""

    name: str
    throughput_mpps: float  # measured (with sampling noise)
    true_throughput_mpps: float  # noiseless fixed-point value
    counters: PerfCounters
    stages: tuple[StageReport, ...]
    bottleneck: str  # resource label: "cpu" / "memory" / accelerator name
    miss_ratio: float
    llc_occupancy_bytes: float

    def stage_by_name(self, name: str) -> StageReport:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one co-location run."""

    workloads: dict[str, WorkloadResult]
    iterations: int
    dram_utilisation: float

    def __getitem__(self, name: str) -> WorkloadResult:
        return self.workloads[name]

    def throughput_of(self, name: str) -> float:
        return self.workloads[name].throughput_mpps


class SmartNic:
    """A simulated SoC SmartNIC that can co-locate workloads."""

    def __init__(
        self,
        spec: NicSpecification,
        seed: SeedLike = None,
        noise_std: float = 0.008,
    ) -> None:
        if noise_std < 0:
            raise SimulationError("noise_std must be >= 0")
        self._spec = spec
        self._memory = MemorySubsystem(spec)
        self._engines = {
            name: AcceleratorEngine(accel_spec)
            for name, accel_spec in spec.accelerators.items()
        }
        self._seed = (
            check_seed(seed)
            if isinstance(seed, int)
            else derive_seed(0xA11CE, spec.name)
        )
        self._noise_std = noise_std

    @property
    def spec(self) -> NicSpecification:
        return self._spec

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        workloads: list[WorkloadDemand],
        initial: "dict[str, float] | None" = None,
    ) -> RunResult:
        """Co-locate ``workloads`` and return their converged behaviour.

        ``initial`` optionally seeds the fixed point: a mapping from
        workload name to a starting throughput guess (Mpps), used
        instead of the contention-free estimate for the names it
        covers. A guess near the converged point (e.g. last epoch's
        solution for the same resident set) cuts the damped iteration
        count; the converged values are the same fixed point either
        way, but the *iterate path* differs, so seeded runs are not
        bit-identical to cold runs — callers owning a bit-exactness
        contract must pass ``initial=None``.
        """
        if not workloads:
            raise SimulationError("run() needs at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate workload names: {names}")
        total_cores = sum(w.cores for w in workloads)
        if total_cores > self._spec.num_cores:
            raise PlacementError(
                f"{total_cores} cores requested on {self._spec.num_cores}-core NIC"
            )
        for workload in workloads:
            for stage in workload.accelerator_stages():
                self._spec.accelerator(stage.accelerator)  # validates name

        throughput = {}
        seeded = False
        for w in workloads:
            if initial is not None and w.name in initial:
                throughput[w.name] = max(float(initial[w.name]), 1e-9)
                seeded = True
            else:
                throughput[w.name] = self._contention_free_estimate(w)
        iterations = 0
        # Damping shrinks whenever the residual stalls: steep DRAM
        # congestion feedback can induce period-2 cycles at fixed
        # damping, which a decreasing schedule always breaks. Seeded
        # solves start undamped (see _WARM_DAMPING).
        damping = _WARM_DAMPING if seeded else _DAMPING
        window = _WARM_STALL_WINDOW if seeded else _STALL_WINDOW
        best_residual = np.inf
        stall = 0
        for iterations in range(1, _MAX_ITERATIONS + 1):
            updated = self._iterate(workloads, throughput)
            residual = max(
                abs(updated[n] - throughput[n]) / max(updated[n], 1e-12)
                for n in updated
            )
            if residual < best_residual - 1e-12:
                best_residual = residual
                stall = 0
            else:
                stall += 1
                if stall >= window:
                    damping = max(damping * 0.5, _MIN_DAMPING)
                    stall = 0
            for name in throughput:
                throughput[name] = (
                    (1.0 - damping) * throughput[name] + damping * updated[name]
                )
            if residual < _REL_TOLERANCE:
                break
        else:
            if residual > _ACCEPT_RESIDUAL:
                raise ConvergenceError(
                    f"fixed point residual {residual:.3e} after "
                    f"{_MAX_ITERATIONS} iterations"
                )
        return self._finalise(workloads, throughput, iterations)

    def run_solo(self, workload: WorkloadDemand) -> WorkloadResult:
        """Run a single workload alone on the NIC."""
        return self.run([workload]).workloads[workload.name]

    def run_batch(
        self,
        scenarios: list[list[WorkloadDemand]],
        on_error: str = "raise",
        warm_starts: "list[dict[str, float] | None] | None" = None,
    ) -> list:
        """Solve many independent co-location scenarios at once.

        Bit-identical to ``[self.run(s) for s in scenarios]`` — same
        throughputs, counters, bottlenecks, iteration counts and seeded
        measurement noise — but the fixed point advances all scenarios
        together as vectorized array operations (see
        :mod:`repro.nic.batch`), with per-scenario convergence masks so
        finished scenarios freeze while stragglers iterate.

        ``on_error="raise"`` reproduces the loop's behaviour: the error
        of the first (lowest-index) failing scenario is raised.
        ``on_error="return"`` instead stores the exception instance in
        that scenario's result slot, so sweeps can skip infeasible
        scenarios the way their per-scenario ``try/except`` loops did.

        ``warm_starts``, when given, is aligned with ``scenarios``:
        each entry is ``None`` (cold start) or a name→Mpps mapping
        seeding that scenario's initial iterate, with the same
        semantics — and the same bit-exactness caveat — as
        :meth:`run`'s ``initial``. The batch/loop parity holds under
        warm starts too: ``run_batch(scenarios, warm_starts=ws)`` is
        bit-identical to ``[self.run(s, initial=w) for s, w in
        zip(scenarios, ws)]``.
        """
        from repro.nic.batch import solve_batch

        return solve_batch(
            self, scenarios, on_error=on_error, warm_starts=warm_starts
        )

    def run_fast(self, workloads: list[WorkloadDemand]) -> RunResult:
        """Single co-location run through the compiled batch path.

        Bit-identical to :meth:`run`; profitable when the scenario
        converges slowly (the vectorized iteration does constant
        Python work per sweep regardless of workload count).
        """
        return self.run_batch([workloads], on_error="raise")[0]

    # ------------------------------------------------------------------
    # Fixed-point machinery
    # ------------------------------------------------------------------
    def _contention_free_estimate(self, workload: WorkloadDemand) -> float:
        """Initial throughput guess assuming zero contention."""
        hit = self._spec.llc_hit_time_us
        base_miss = self._spec.base_miss_ratio
        tau = hit + base_miss * self._spec.dram_latency_us
        core_times = [
            self._core_stage_time(stage, tau) for stage in workload.core_stages()
        ]
        accel_caps = []
        for stage in workload.accelerator_stages():
            engine = self._engines[stage.accelerator]
            time_us = engine.spec.request_time_us(
                stage.bytes_per_request, stage.matches_per_request
            )
            client = AcceleratorClient(
                name=workload.name,
                n_queues=workload.queues_for(stage.accelerator),
                request_time_us=time_us,
            )
            accel_caps.append(engine.solo_rate(client) / stage.requests_pp)
        estimate = self._compose(workload, core_times, accel_caps)
        if workload.arrival_rate_mpps is not None:
            estimate = min(estimate, workload.arrival_rate_mpps)
        return min(estimate, self._spec.line_rate_mpps(workload.packet_size_bytes))

    def _core_stage_time(self, stage: StageDemand, tau_us: float) -> float:
        """Per-packet core time of a CPU/MEMORY stage at access time tau.

        Memory stall time is divided by the stage's memory-level
        parallelism: a stage keeping ``mlp`` references in flight exposes
        only ``1/mlp`` of each access's latency.
        """
        cpu = stage.cycles_pp / self._spec.core_freq_mhz
        mem = (stage.reads_pp + stage.writes_pp) * tau_us / stage.mlp
        return cpu + mem

    def _memory_actors(
        self, workloads: list[WorkloadDemand], throughput: dict[str, float]
    ) -> list[MemoryActor]:
        """Build the memory contention picture at current throughputs."""
        actors = []
        for workload in workloads:
            rate = throughput[workload.name]
            reads = sum(s.reads_pp for s in workload.core_stages()) * rate
            writes = sum(s.writes_pp for s in workload.core_stages()) * rate
            actors.append(
                MemoryActor(
                    name=workload.name,
                    read_rate=reads,
                    write_rate=writes,
                    wss_bytes=workload.total_wss_bytes(),
                    hot_access_fraction=workload.hot_access_fraction,
                    hot_wss_fraction=workload.hot_wss_fraction,
                )
            )
            dma_rate = 0.0
            for stage in workload.accelerator_stages():
                accel_spec = self._spec.accelerator(stage.accelerator)
                dma_rate += (
                    rate
                    * stage.requests_pp
                    * (stage.bytes_per_request / 1024.0)
                    * accel_spec.dma_refs_per_kb
                )
            if dma_rate > 0:
                actors.append(
                    MemoryActor(
                        name=f"{workload.name}::dma",
                        read_rate=dma_rate * 0.5,
                        write_rate=dma_rate * 0.5,
                        wss_bytes=_DMA_BUFFER_BYTES,
                    )
                )
        return actors

    def _accelerator_capacities(
        self, workloads: list[WorkloadDemand], throughput: dict[str, float]
    ) -> dict[tuple[str, str], float]:
        """Capacity (in packets/us) of each (workload, accelerator) stage."""
        capacities: dict[tuple[str, str], float] = {}
        for accel_name, engine in self._engines.items():
            users = [
                (w, s)
                for w in workloads
                for s in w.accelerator_stages()
                if s.accelerator == accel_name
            ]
            if not users:
                continue
            clients = {}
            for workload, stage in users:
                time_us = engine.spec.request_time_us(
                    stage.bytes_per_request, stage.matches_per_request
                )
                clients[workload.name] = AcceleratorClient(
                    name=workload.name,
                    n_queues=workload.queues_for(accel_name),
                    request_time_us=time_us,
                    offered_rate=throughput[workload.name] * stage.requests_pp,
                )
            for workload, stage in users:
                competitors = [
                    c for n, c in clients.items() if n != workload.name
                ]
                cap_requests = engine.capacity_for(clients[workload.name], competitors)
                capacities[(workload.name, accel_name)] = (
                    cap_requests / stage.requests_pp
                )
        return capacities

    def _compose(
        self,
        workload: WorkloadDemand,
        core_times: list[float],
        accel_caps: list[float],
    ) -> float:
        """End-to-end throughput from stage times/capacities (paper §4.2)."""
        cores = float(workload.cores)
        if workload.pattern is ExecutionPattern.PIPELINE:
            n_core_stages = max(1, len(core_times))
            caps = [
                (cores / n_core_stages) / t if t > 0 else np.inf for t in core_times
            ]
            caps.extend(accel_caps)
            return float(min(caps)) if caps else 0.0
        total_core = sum(core_times)
        accel_wait = sum(cores / cap for cap in accel_caps if cap > 0)
        denom = total_core + accel_wait
        if denom <= 0:
            return np.inf
        return cores / denom

    def _iterate(
        self, workloads: list[WorkloadDemand], throughput: dict[str, float]
    ) -> dict[str, float]:
        """One sweep of the fixed-point map."""
        shares = self._memory.solve(self._memory_actors(workloads, throughput))
        accel_caps = self._accelerator_capacities(workloads, throughput)

        updated = {}
        for workload in workloads:
            tau = shares[workload.name].avg_access_time_us
            core_times = [
                self._core_stage_time(stage, tau) for stage in workload.core_stages()
            ]
            caps = [
                accel_caps[(workload.name, stage.accelerator)]
                for stage in workload.accelerator_stages()
            ]
            rate = self._compose(workload, core_times, caps)
            if workload.arrival_rate_mpps is not None:
                rate = min(rate, workload.arrival_rate_mpps)
            rate = min(rate, self._spec.line_rate_mpps(workload.packet_size_bytes))
            updated[workload.name] = max(rate, 1e-9)
        return updated

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _finalise(
        self,
        workloads: list[WorkloadDemand],
        throughput: dict[str, float],
        iterations: int,
    ) -> RunResult:
        actors = self._memory_actors(workloads, throughput)
        shares = self._memory.solve(actors)
        accel_caps = self._accelerator_capacities(workloads, throughput)
        dram_util = self._memory.dram_utilisation(actors)
        (noises,) = self._noise_factors([workloads])

        results = {}
        for workload, noise in zip(workloads, noises):
            rate = throughput[workload.name]
            share = shares[workload.name]
            stage_reports = []
            for stage in workload.stages:
                if stage.resource is Resource.ACCELERATOR:
                    cap = accel_caps[(workload.name, stage.accelerator)]
                    time_pp = 1.0 / cap if cap > 0 else np.inf
                    stage_reports.append(
                        StageReport(
                            name=stage.name,
                            resource=stage.resource,
                            accelerator=stage.accelerator,
                            time_pp_us=time_pp,
                            capacity_mpps=cap,
                        )
                    )
                else:
                    t = self._core_stage_time(stage, share.avg_access_time_us)
                    n_core_stages = max(1, len(workload.core_stages()))
                    if workload.pattern is ExecutionPattern.PIPELINE:
                        cap = (workload.cores / n_core_stages) / t if t > 0 else np.inf
                    else:
                        cap = workload.cores / t if t > 0 else np.inf
                    stage_reports.append(
                        StageReport(
                            name=stage.name,
                            resource=stage.resource,
                            accelerator=None,
                            time_pp_us=t,
                            capacity_mpps=cap,
                        )
                    )
            bottleneck = self._bottleneck(workload, stage_reports)
            counters = self._counters(workload, rate, share)
            results[workload.name] = WorkloadResult(
                name=workload.name,
                throughput_mpps=rate * noise,
                true_throughput_mpps=rate,
                counters=counters,
                stages=tuple(stage_reports),
                bottleneck=bottleneck,
                miss_ratio=share.miss_ratio,
                llc_occupancy_bytes=share.occupancy_bytes,
            )
        return RunResult(
            workloads=results, iterations=iterations, dram_utilisation=dram_util
        )

    def _bottleneck(
        self, workload: WorkloadDemand, stages: list[StageReport]
    ) -> str:
        """Ground-truth bottleneck resource (used by the diagnosis usecase).

        For a pipeline it is the stage with the smallest capacity; for
        run-to-completion the stage occupying the largest share of the
        per-packet time budget.
        """
        if workload.pattern is ExecutionPattern.PIPELINE:
            worst = min(stages, key=lambda s: s.capacity_mpps)
        else:
            cores = float(workload.cores)

            def rtc_time(stage: StageReport) -> float:
                if stage.resource is Resource.ACCELERATOR:
                    return cores * stage.time_pp_us
                return stage.time_pp_us

            worst = max(stages, key=rtc_time)
        if worst.resource is Resource.ACCELERATOR:
            return worst.accelerator or "accelerator"
        return worst.resource.value

    def _counters(
        self, workload: WorkloadDemand, rate: float, share
    ) -> PerfCounters:
        """Synthesise Table 11 counters at the converged operating point."""
        reads_pp = sum(s.reads_pp for s in workload.core_stages())
        writes_pp = sum(s.writes_pp for s in workload.core_stages())
        instr_pp = sum(s.instructions_pp for s in workload.stages)
        cycles_pp = sum(s.cycles_pp for s in workload.stages)
        # Stall cycles from memory references at the converged access
        # time, discounted by each stage's memory-level parallelism.
        stall_cycles = sum(
            (s.reads_pp + s.writes_pp)
            * share.avg_access_time_us
            / s.mlp
            * self._spec.core_freq_mhz
            for s in workload.core_stages()
        )
        total_cycles = max(cycles_pp + stall_cycles, 1e-9)
        dma_reads = share_dma = 0.0
        for stage in workload.accelerator_stages():
            accel_spec = self._spec.accelerator(stage.accelerator)
            share_dma += (
                rate
                * stage.requests_pp
                * (stage.bytes_per_request / 1024.0)
                * accel_spec.dma_refs_per_kb
            )
        dma_reads = share_dma * 0.5
        return PerfCounters(
            ipc=instr_pp / total_cycles if instr_pp > 0 else 0.0,
            irt=instr_pp * rate,
            l2crd=reads_pp * rate + dma_reads,
            l2cwr=writes_pp * rate + (share_dma - dma_reads),
            memrd=share.dram_read_rate + dma_reads * share.miss_ratio,
            memwr=share.dram_write_rate,
            wss=workload.total_wss_bytes(),
        )

    def _noise_factors(
        self, scenarios: list[list[WorkloadDemand]]
    ) -> list[list[float]]:
        """Multiplicative measurement noise of every workload of ``scenarios``.

        A workload's factor is ``1 + N(0, noise_std)`` drawn from
        ``derive_seed(seed, repr(w), tuple(sorted(reprs of its
        scenario)))``: a pure function of the NIC seed and the
        scenario's workload set, never of evaluation order. All the keys
        are hashed by one :func:`~repro.rng.derive_seeds` call, and each
        scenario's reprs are built once.
        """
        if self._noise_std == 0.0:
            return [[1.0] * len(workloads) for workloads in scenarios]
        seeds = iter(derive_seeds(self._seed, _noise_keys(scenarios)))
        return [
            [
                float(1.0 + make_rng(next(seeds)).normal(0.0, self._noise_std))
                for _ in workloads
            ]
            for workloads in scenarios
        ]


def _noise_keys(
    scenarios: list[list[WorkloadDemand]],
) -> Iterator[tuple[str, tuple[str, ...]]]:
    """``(repr(w), sorted scenario reprs)`` per workload, built lazily."""
    for workloads in scenarios:
        reprs = [repr(w) for w in workloads]
        key = tuple(sorted(reprs))
        for text in reprs:
            yield text, key

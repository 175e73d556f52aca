"""Workload demand descriptions consumed by the NIC simulator.

The NF framework (:mod:`repro.nf`) compiles an NF bound to a traffic
profile down to a :class:`WorkloadDemand`: a list of per-packet stage
demands plus an execution pattern. This keeps the simulator independent
of NF semantics — it only sees resource demands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.numeric import left_sum


class Resource(enum.Enum):
    """Resource classes an NF stage can occupy."""

    CPU = "cpu"
    MEMORY = "memory"
    ACCELERATOR = "accelerator"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ExecutionPattern(enum.Enum):
    """How an NF schedules its stages (paper §4.2).

    PIPELINE: stages run concurrently on different cores; end-to-end
    throughput equals the slowest stage's capacity.
    RUN_TO_COMPLETION: one thread walks a packet through every stage;
    per-packet times add up.
    """

    PIPELINE = "pipeline"
    RUN_TO_COMPLETION = "run_to_completion"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class StageDemand:
    """Per-packet demand of one processing stage on one resource.

    Only the fields relevant for ``resource`` are meaningful:

    - CPU: ``cycles_pp`` and ``instructions_pp``;
    - MEMORY: ``reads_pp``/``writes_pp`` cache references and the stage's
      resident ``wss_bytes`` (plus the cycles the core spends issuing
      them, via ``cycles_pp``); ``mlp`` is the memory-level parallelism —
      how many references the stage keeps in flight, which divides the
      exposed stall time (streaming benches sustain high MLP, pointer
      chasing NFs low);
    - ACCELERATOR: ``accelerator`` name, ``requests_pp``,
      ``bytes_per_request`` and ``matches_per_request``.
    """

    name: str
    resource: Resource
    cycles_pp: float = 0.0
    instructions_pp: float = 0.0
    reads_pp: float = 0.0
    writes_pp: float = 0.0
    wss_bytes: float = 0.0
    mlp: float = 1.0
    accelerator: Optional[str] = None
    requests_pp: float = 0.0
    bytes_per_request: float = 0.0
    matches_per_request: float = 0.0

    def __post_init__(self) -> None:
        numeric = (
            self.cycles_pp,
            self.instructions_pp,
            self.reads_pp,
            self.writes_pp,
            self.wss_bytes,
            self.requests_pp,
            self.bytes_per_request,
            self.matches_per_request,
        )
        if any(v < 0 for v in numeric):
            raise ConfigurationError(f"stage {self.name!r} has negative demand")
        if self.mlp < 1.0:
            raise ConfigurationError(f"stage {self.name!r}: mlp must be >= 1")
        if self.resource is Resource.ACCELERATOR:
            if not self.accelerator:
                raise ConfigurationError(
                    f"accelerator stage {self.name!r} must name an accelerator"
                )
            if self.requests_pp <= 0:
                raise ConfigurationError(
                    f"accelerator stage {self.name!r} must issue requests"
                )
        elif self.accelerator is not None:
            raise ConfigurationError(
                f"stage {self.name!r} names an accelerator but is {self.resource}"
            )


@dataclass(frozen=True)
class WorkloadDemand:
    """A complete workload as seen by the simulator.

    ``arrival_rate_mpps`` of ``None`` means the workload is closed-loop:
    packets always available, so the simulator finds its maximum
    sustainable throughput (the quantity the paper predicts). A finite
    rate models open-loop contenders such as mem-bench / regex-bench.
    """

    name: str
    cores: int
    pattern: ExecutionPattern
    stages: tuple[StageDemand, ...]
    arrival_rate_mpps: Optional[float] = None
    queues_per_accelerator: dict[str, int] = field(default_factory=dict)
    packet_size_bytes: float = 1500.0
    #: Fraction of cache accesses hitting a small hot subset of the
    #: working set (Zipf-like reuse). Streaming benches set this to 0.
    hot_access_fraction: float = 0.6
    #: Size of that hot subset as a fraction of the working set.
    hot_wss_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError(f"workload {self.name!r} needs >= 1 core")
        if not self.stages:
            raise ConfigurationError(f"workload {self.name!r} has no stages")
        if self.arrival_rate_mpps is not None and self.arrival_rate_mpps <= 0:
            raise ConfigurationError(
                f"workload {self.name!r}: arrival rate must be positive or None"
            )
        if self.packet_size_bytes <= 0:
            raise ConfigurationError("packet_size_bytes must be positive")
        if not 0.0 <= self.hot_access_fraction < 1.0:
            raise ConfigurationError("hot_access_fraction must be in [0, 1)")
        if not 0.0 < self.hot_wss_fraction < 1.0:
            raise ConfigurationError("hot_wss_fraction must be in (0, 1)")
        for stage in self.accelerator_stages():
            queues = self.queues_per_accelerator.get(stage.accelerator, 1)
            if queues < 1:
                raise ConfigurationError(
                    f"workload {self.name!r}: queue count must be >= 1"
                )

    # ------------------------------------------------------------------
    def core_stages(self) -> list[StageDemand]:
        """Stages that execute on CPU cores (CPU and MEMORY stages)."""
        return [s for s in self.stages if s.resource is not Resource.ACCELERATOR]

    def accelerator_stages(self) -> list[StageDemand]:
        """Stages dispatched to hardware accelerators."""
        return [s for s in self.stages if s.resource is Resource.ACCELERATOR]

    def queues_for(self, accelerator: str) -> int:
        """Number of request queues this workload owns on ``accelerator``."""
        return self.queues_per_accelerator.get(accelerator, 1)

    def total_wss_bytes(self) -> float:
        """Total resident working set across stages."""
        return left_sum(s.wss_bytes for s in self.stages)

    def uses_accelerator(self, accelerator: str) -> bool:
        """True when any stage dispatches to ``accelerator``."""
        return any(s.accelerator == accelerator for s in self.accelerator_stages())

    @property
    def is_closed_loop(self) -> bool:
        """True when the workload saturates itself (max-throughput mode)."""
        return self.arrival_rate_mpps is None

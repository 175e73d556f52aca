"""Fluid round-robin model of a shared hardware accelerator engine.

NFs interact with on-NIC accelerators through per-NF request queues that
the engine driver serves round-robin (the paper confirms this for the
BlueField-2 RXP regex engine, §4.1.1). This module solves the resulting
sharing behaviour with a water-filling algorithm:

- an **unsaturated** client (arrival rate below its round-robin share) is
  served at exactly its arrival rate;
- **saturated** clients split the remaining engine time in proportion to
  ``n_queues * request_time`` — i.e. each saturated queue completes one
  request per RR cycle, which is exactly the equilibrium the paper's
  Eq. (1) describes.

Each served request additionally pays a queue-switch overhead, a
second-order cost outside the paper's model that keeps the white-box
prediction realistically imperfect (~1-3% error, matching §4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, SimulationError
from repro.nic.spec import AcceleratorSpec
from repro.numeric import left_sum

_WATERFILL_ITERATIONS = 64


@dataclass(frozen=True)
class AcceleratorClient:
    """One workload's demand on an accelerator engine.

    ``offered_rate`` is the client's request arrival rate in requests/us;
    ``None`` marks a closed-loop client that always has requests queued.
    """

    name: str
    n_queues: int
    request_time_us: float
    offered_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_queues < 1:
            raise ConfigurationError(f"client {self.name!r}: n_queues must be >= 1")
        if self.request_time_us <= 0:
            raise ConfigurationError(
                f"client {self.name!r}: request_time_us must be positive"
            )
        if self.offered_rate is not None and self.offered_rate < 0:
            raise ConfigurationError(
                f"client {self.name!r}: offered_rate must be >= 0 or None"
            )

    @property
    def is_closed_loop(self) -> bool:
        return self.offered_rate is None


@dataclass(frozen=True)
class AcceleratorAllocation:
    """Resolved service rates on one engine (requests/us per client)."""

    rates: dict[str, float]
    saturated: frozenset[str]
    busy_fraction: float

    def rate_of(self, name: str) -> float:
        return self.rates[name]


class AcceleratorEngine:
    """Round-robin fluid scheduler for one accelerator engine."""

    def __init__(self, spec: AcceleratorSpec) -> None:
        self._spec = spec

    @property
    def spec(self) -> AcceleratorSpec:
        return self._spec

    # ------------------------------------------------------------------
    def effective_request_time(self, client: AcceleratorClient) -> float:
        """Service time including the per-turn queue switch overhead."""
        return client.request_time_us + self._spec.queue_switch_us

    # ------------------------------------------------------------------
    def allocate(self, clients: list[AcceleratorClient]) -> AcceleratorAllocation:
        """Solve service rates for all ``clients`` sharing this engine.

        Water-filling: start with every finite-rate client unsaturated;
        repeatedly move clients whose arrival rate exceeds their
        round-robin share into the saturated set until stable.
        """
        if not clients:
            return AcceleratorAllocation(rates={}, saturated=frozenset(), busy_fraction=0.0)
        names = [c.name for c in clients]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate accelerator client names")

        times = {c.name: self.effective_request_time(c) for c in clients}
        saturated = {c.name for c in clients if c.is_closed_loop}

        for _ in range(_WATERFILL_ITERATIONS):
            unsat = [c for c in clients if c.name not in saturated]
            busy_unsat = left_sum(c.offered_rate * times[c.name] for c in unsat)
            sat = [c for c in clients if c.name in saturated]

            if not sat:
                if busy_unsat <= 1.0:
                    rates = {c.name: float(c.offered_rate) for c in unsat}
                    return AcceleratorAllocation(
                        rates=rates,
                        saturated=frozenset(),
                        busy_fraction=busy_unsat,
                    )
                # Overload with no saturated client yet: saturate the
                # client with the largest backlog pressure and re-solve.
                heaviest = max(unsat, key=lambda c: c.offered_rate * times[c.name])
                saturated.add(heaviest.name)
                continue

            weight = left_sum(times[c.name] * c.n_queues for c in sat)
            spare = max(0.0, 1.0 - busy_unsat)
            per_queue_rate = spare / weight if weight > 0 else 0.0

            moved = False
            for c in unsat:
                if c.offered_rate > c.n_queues * per_queue_rate + 1e-12:
                    saturated.add(c.name)
                    moved = True
            if moved:
                continue
            # Check for clients wrongly marked saturated (open-loop whose
            # arrivals are below their share) and release them.
            released = False
            for c in sat:
                if (
                    not c.is_closed_loop
                    and c.offered_rate < c.n_queues * per_queue_rate - 1e-12
                ):
                    saturated.discard(c.name)
                    released = True
            if released:
                continue

            rates = {}
            for c in clients:
                if c.name in saturated:
                    rates[c.name] = c.n_queues * per_queue_rate
                else:
                    rates[c.name] = float(c.offered_rate)
            busy = busy_unsat + left_sum(
                rates[c.name] * times[c.name] for c in sat
            )
            return AcceleratorAllocation(
                rates=rates,
                saturated=frozenset(saturated),
                busy_fraction=min(1.0, busy),
            )
        raise SimulationError("accelerator water-filling failed to converge")

    # ------------------------------------------------------------------
    def capacity_for(
        self, target: AcceleratorClient, competitors: list[AcceleratorClient]
    ) -> float:
        """Rate ``target`` would get if it saturated its queues.

        Competitors keep their stated offered rates (open-loop) or remain
        closed-loop. This is the accelerator-stage *capacity* used by the
        NIC runtime when composing stage throughputs.
        """
        saturated_target = AcceleratorClient(
            name=target.name,
            n_queues=target.n_queues,
            request_time_us=target.request_time_us,
            offered_rate=None,
        )
        allocation = self.allocate([saturated_target] + list(competitors))
        return allocation.rate_of(target.name)

    # ------------------------------------------------------------------
    def solo_rate(self, client: AcceleratorClient) -> float:
        """Service rate when ``client`` runs alone on the engine."""
        return self.allocate(
            [
                AcceleratorClient(
                    name=client.name,
                    n_queues=client.n_queues,
                    request_time_us=client.request_time_us,
                    offered_rate=None,
                )
            ]
        ).rate_of(client.name)

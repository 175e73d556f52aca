"""Arrival/departure churn over the NF catalog.

The fleet's service population is driven by a seeded marked Poisson
process: each epoch draws a number of arriving services; every arrival
is marked with an NF from the catalog, an SLA (maximum allowed
throughput-drop fraction, as in §7.5.1), a dynamic traffic trace and a
lifetime after which the service departs. Epoch ``0`` additionally
seeds the fleet with a fixed-size initial population so simulations
don't start empty.

Arrivals are a pure function of ``(seed, epoch)`` — the per-epoch RNG
is derived with :func:`repro.rng.derive_seed` — so a churn schedule is
bit-reproducible regardless of how the engine interleaves its calls.

For the continuous-time event engine, :meth:`ChurnProcess.
arrival_times_for` additionally stamps every arrival with a *time*
inside its epoch: conditioned on the per-epoch Poisson count, arrival
instants of a Poisson process are i.i.d. uniforms over the interval, so
the times are sorted uniform draws from a separate stream derived from
the same base seed — the request marks (NF, SLA, trace, lifetime) stay
bit-identical to :meth:`arrivals_for` however the clock is read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fleet.traces import TRACE_KINDS, TrafficTrace, random_trace
from repro.nf.catalog import EVALUATION_NF_NAMES
from repro.rng import SeedLike, derive_seed, make_rng, normalize_seed


@dataclass(frozen=True)
class ServiceRequest:
    """One NF service arriving to the fleet."""

    instance_id: str
    nf_name: str
    sla_drop_fraction: float  # max allowed throughput drop vs solo
    trace: TrafficTrace
    arrival_epoch: int
    departure_epoch: int  # first epoch the service is *gone*

    def __post_init__(self) -> None:
        if not 0.0 < self.sla_drop_fraction < 1.0:
            raise ConfigurationError("SLA drop fraction must be in (0, 1)")
        if self.departure_epoch <= self.arrival_epoch:
            raise ConfigurationError("departure must come after arrival")


class ChurnProcess:
    """Seeded arrival/departure schedule over the NF catalog."""

    def __init__(
        self,
        nf_names: tuple[str, ...] = EVALUATION_NF_NAMES,
        seed: SeedLike = None,
        arrival_rate: float = 1.5,
        mean_lifetime: float = 12.0,
        sla_range: tuple[float, float] = (0.05, 0.20),
        initial_services: int = 4,
        trace_kinds: tuple[str, ...] = TRACE_KINDS,
    ) -> None:
        if not nf_names:
            raise ConfigurationError("nf_names must be non-empty")
        if arrival_rate < 0:
            raise ConfigurationError("arrival_rate must be >= 0")
        if mean_lifetime < 1:
            raise ConfigurationError("mean_lifetime must be >= 1 epoch")
        if not 0.0 < sla_range[0] < sla_range[1] < 1.0:
            raise ConfigurationError("sla_range must satisfy 0 < lo < hi < 1")
        if initial_services < 0:
            raise ConfigurationError("initial_services must be >= 0")
        for kind in trace_kinds:
            if kind not in TRACE_KINDS:
                raise ConfigurationError(f"unknown trace kind {kind!r}")
        self._nf_names = tuple(nf_names)
        normalised = normalize_seed(seed)
        self._seed = normalised if normalised is not None else 0xF1EE7
        self._arrival_rate = arrival_rate
        self._mean_lifetime = mean_lifetime
        self._sla_range = sla_range
        self._initial_services = initial_services
        self._trace_kinds = tuple(trace_kinds)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def arrival_rate(self) -> float:
        return self._arrival_rate

    # ------------------------------------------------------------------
    def arrivals_for(self, epoch: int) -> list[ServiceRequest]:
        """Services arriving in ``epoch`` (pure in ``(seed, epoch)``)."""
        if epoch < 0:
            raise ConfigurationError("epoch must be >= 0")
        rng = make_rng(derive_seed(self._seed, "epoch", epoch))
        count = int(rng.poisson(self._arrival_rate))
        if epoch == 0:
            count += self._initial_services
        requests = []
        for index in range(count):
            nf_name = str(rng.choice(self._nf_names))
            sla = float(rng.uniform(*self._sla_range))
            lifetime = 1 + int(rng.exponential(self._mean_lifetime - 1.0))
            trace = random_trace(
                derive_seed(self._seed, "trace", epoch, index),
                kinds=self._trace_kinds,
            )
            requests.append(
                ServiceRequest(
                    instance_id=f"svc-{epoch}-{index}",
                    nf_name=nf_name,
                    sla_drop_fraction=sla,
                    trace=trace,
                    arrival_epoch=epoch,
                    departure_epoch=epoch + lifetime,
                )
            )
        return requests

    def arrival_times_for(
        self, epoch: int, quantize: bool = False
    ) -> list[tuple[float, ServiceRequest]]:
        """Timed arrivals of ``epoch``: ``(time, request)``, time-sorted.

        The requests are exactly :meth:`arrivals_for`'s (same derived
        seed streams, same marks). Times are drawn from a sibling
        ``"arrival-times"`` stream: sorted uniforms over
        ``[epoch, epoch + 1)``, except epoch ``0`` whose arrivals all
        land at ``t = 0.0`` — the initial population seeds the fleet at
        the instant the simulation starts. With ``quantize=True`` every
        time snaps to ``float(epoch)``, the epoch-boundary schedule
        under which the event engine reproduces the epoch engine.
        """
        requests = self.arrivals_for(epoch)
        if quantize or epoch == 0 or not requests:
            return [(float(epoch), request) for request in requests]
        rng = make_rng(derive_seed(self._seed, "arrival-times", epoch))
        offsets = sorted(
            float(x) for x in rng.uniform(0.0, 1.0, size=len(requests))
        )
        return [
            (epoch + offset, request)
            for offset, request in zip(offsets, requests)
        ]

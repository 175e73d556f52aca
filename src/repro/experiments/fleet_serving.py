"""Fleet serving: the §7.5 use cases run online over time.

Every policy drives the *same* seeded churn/traffic schedule through
the fleet simulator (:mod:`repro.fleet.engine`): services arrive and
depart, traffic evolves along per-service traces, the policy places
and (for ``rebalance``) migrates services, and the simulator scores
every NIC's residents. The rendered table is the dynamic analogue of
Table 6 — wastage and SLA violations — plus the serving-system columns
a one-shot snapshot cannot express: utilisation, aggregate throughput
and migration count.

Two registry entries share this module: ``fleet`` runs the
time-stepped epoch engine; ``fleet-event`` (:func:`run_event`) runs the
continuous-time event engine with sub-epoch Poisson arrival times, and
appends each policy's second-granularity violation/drop integrals to
the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import EXPERIMENT_SEED, fmt, get_scale, render_table
from repro.experiments.context import get_context
from repro.fleet.config import FleetConfig, simulate
from repro.fleet.engine import EventReport, FleetReport
from repro.fleet.policies import FLEET_POLICY_NAMES, PlacementModel
from repro.nf.catalog import EVALUATION_NF_NAMES
from repro.numeric import left_sum


@dataclass
class FleetResult:
    reports: dict[str, FleetReport]
    #: Continuous-time reports, populated when ``engine="event"``.
    event_reports: dict[str, EventReport] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for name, report in self.reports.items():
            mean_tput = (
                left_sum(m.aggregate_throughput_mpps for m in report.metrics)
                / len(report.metrics)
                if report.metrics
                else 0.0
            )
            rows.append(
                [
                    name,
                    fmt(report.mean_nics, 1),
                    fmt(report.mean_utilisation_pct),
                    fmt(report.mean_wastage_pct),
                    fmt(report.violation_rate_pct),
                    fmt(mean_tput, 2),
                    report.total_migrations,
                ]
            )
        table = render_table(
            [
                "policy",
                "mean NICs",
                "utilisation %",
                "wastage %",
                "SLA violations %",
                "mean tput Mpps",
                "migrations",
            ],
            rows,
            title="Fleet — traffic-aware serving over time (dynamic Table 6)",
        )
        if not self.event_reports:
            return table
        lines = [table]
        for name, report in self.event_reports.items():
            lines.append(
                f"event {name}: violation-seconds "
                f"{report.violation_service_seconds:.3f} | drop-seconds "
                f"{report.drop_service_seconds:.3f} | observations "
                f"{len(report.observations)} ({report.probes} probes)"
            )
        return "\n".join(lines)


def run(
    scale: str = "default",
    seed: int = EXPERIMENT_SEED,
    engine: str = "epoch",
) -> FleetResult:
    """Run every fleet policy over one shared churn schedule."""
    resolved = get_scale(scale)
    context = get_context(resolved)
    slomo = {name: context.slomo_for(name) for name in EVALUATION_NF_NAMES}
    model = PlacementModel(yala=context.yala, slomo_predictors=slomo)
    reports: dict[str, FleetReport] = {}
    event_reports: dict[str, EventReport] = {}
    for name in FLEET_POLICY_NAMES:
        config = FleetConfig(
            policy=name,
            engine=engine,
            epochs=resolved.fleet_epochs,
            seed=seed,
            nf_pool=tuple(EVALUATION_NF_NAMES),
            arrival_rate=resolved.fleet_arrival_rate,
        )
        report = simulate(config, model=model)
        if engine == "event":
            assert isinstance(report, EventReport)
            event_reports[name] = report
            reports[name] = report.fleet
        else:
            assert isinstance(report, FleetReport)
            reports[name] = report
    return FleetResult(reports=reports, event_reports=event_reports)


def run_event(scale: str = "default", seed: int = EXPERIMENT_SEED) -> FleetResult:
    """The ``fleet-event`` registry entry: continuous-time engine."""
    return run(scale=scale, seed=seed, engine="event")
